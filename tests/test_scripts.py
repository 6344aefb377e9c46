"""The study scripts under scripts/ run end to end on small settings."""
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from swarmsgd.theory import harmonic_speedup

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_speedup_study_writes_every_instance(tmp_path):
    script = _load("run_speedup_study")
    assert script.main(["--out", str(tmp_path), "--replications", "1"]) == 0
    study = json.loads((tmp_path / "study.json").read_text())
    assert study["replications"] == 1
    assert [(row["dim"], row["n_threads"]) for row in study["instances"]] == list(
        script.INSTANCES
    )
    for row in study["instances"]:
        assert row["predicted_ratio"] == pytest.approx(
            harmonic_speedup(row["n_threads"]).delta_t_c_over_delta_t
        )
        assert row["measured_ratio"] > 0.0 and row["excluded"] == 0
    for dim, n_threads in script.INSTANCES:
        assert (tmp_path / f"d{dim}_n{n_threads}" / "comparison.json").exists()


def test_error_traces_writes_both_schemes(tmp_path):
    script = _load("run_error_traces")
    assert script.main(["--out", str(tmp_path), "--replications", "1", "--horizon", "1"]) == 0
    for scheme in ("swarm_event_driven", "centralized"):
        assert (tmp_path / scheme / "run_0000.csv").exists()
        assert (tmp_path / scheme / "summary.json").exists()


@pytest.mark.parametrize(
    "name,argv,field",
    [
        ("run_speedup_study", ["--replications", "0"], "replications"),
        ("run_speedup_study", ["--jobs", "0"], "--jobs"),
        ("run_error_traces", ["--horizon", "-1"], "max_virtual_time"),
    ],
)
def test_bad_argument_is_exit_2_naming_it(tmp_path, capsys, name, argv, field):
    script = _load(name)
    assert script.main(["--out", str(tmp_path), *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: ") and field in err
    assert not any(tmp_path.iterdir())  # nothing ran


def test_error_traces_take_the_default_edge_probability(tmp_path):
    # 10 / 8 is no probability; the graph default caps it at 1
    script = _load("run_error_traces")
    argv = ["--out", str(tmp_path), "--threads", "8", "--replications", "1", "--horizon", "0.5"]
    assert script.main(argv) == 0
    assert (tmp_path / "centralized" / "run_0000.csv").exists()


def test_engine_cost_counts_are_deterministic(capsys):
    script = _load("engine_cost")
    runs = []
    for _ in range(2):
        assert script.main(["--dim", "5", "--threads", "6", "--seed", "3"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    version, *lines = runs[0].splitlines()
    assert version.startswith(f"python {sys.version.split()[0]} ")
    counts = [re.fullmatch(
        r"threshold (off|armed): ([0-9.]+) bytecodes, ([0-9.]+) C calls per update", line
    ) for line in lines]
    assert [m.group(1) for m in counts] == ["off", "armed"]
    if sys.version_info[:2] == (3, 11):
        # the per-update budget of the engine's own Python code, which
        # reads 1.80 and 0.06 with the kernel or the twin
        assert all(float(m.group(2)) <= 3.0 and float(m.group(3)) <= 0.13 for m in counts)


def test_digests_cover_the_documented_run_matrix(capsys):
    script = _load("digests")
    assert script.main([]) == 0
    engine_line, cli_line = capsys.readouterr().out.splitlines()
    m = re.fullmatch(
        r"engine ([0-9a-f]{64}) (\d+) runs \((\d+) crossed, (\d+) diverged\)", engine_line
    )
    # 2 schedulers x 3 kinds x 3 graphs x 2 attractions x 9 record settings,
    # 3 kinds x 9 on the baseline, and one diverging run per scheme
    assert m and int(m.group(2)) == 324 + 27 + 3
    assert int(m.group(3)) > 100 and int(m.group(4)) == 3
    # three simulate runs of two replications (a trace each and a summary),
    # then comparison.json, two validation.json, bounds.json and sweep.csv
    m = re.fullmatch(r"cli ([0-9a-f]{64}) (\d+) files", cli_line)
    assert m and int(m.group(2)) == 3 * 3 + 5
    # the cli part writes the same bytes twice
    assert script.cli_digest() == (m.group(1), 14)


def test_engine_digest_is_the_pinned_one(arithmetic):
    # The engine line of scripts/digests.py, on the kernel and on its numpy
    # twin, which does not depend on the BLAS build or numpy's SIMD targets.
    # A change that declares new arithmetic or a new stream order
    # regenerates the file with the script.
    assert _load("digests").engine_line() == json.loads(GOLDEN.read_text())["engine"]
