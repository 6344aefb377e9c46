"""The README's examples must run as printed."""
import json
import re
from pathlib import Path

from swarmsgd.cli import experiment_config_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_library_example_runs(capsys):
    blocks = _blocks("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    printed = capsys.readouterr().out.split()
    assert len(printed) >= 2


def test_readme_experiment_config_parses():
    blocks = _blocks("json")
    assert len(blocks) == 1
    config = experiment_config_from_dict(json.loads(blocks[0]))
    assert config.objective["kind"] == "ridge" and config.run["n_threads"] == 20
