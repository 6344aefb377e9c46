"""The study scripts under scripts/ run end to end on small settings."""
import importlib.util
import json
from pathlib import Path

import pytest

from swarmsgd.theory import harmonic_speedup

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
