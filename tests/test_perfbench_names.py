"""Every function the benchmark's tracer wraps is still bound in swarmsgd.

``perfbench/tracer.py`` looks its spans up by module and name, so a
renamed or deleted function breaks only a traced benchmark run. The
tracer is compiled from its source, which leaves that directory as it is.
"""
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_is_a_callable_attribute():
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    layers = namespace["LAYERS"]
    assert layers
    unbound = [
        f"{module}.{name}"
        for module, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"swarmsgd.{module}"), name, None))
    ]
    assert unbound == []
