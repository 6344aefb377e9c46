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
