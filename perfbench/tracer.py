"""Spans around the public functions of every swarmsgd module, installed
from outside the package for one traced pass and removed after it.

Each function is patched at every module attribute bound to it (its own
module, ``from``-imports such as ``objective.polar_normal``, and the
package re-exports), so calls through any binding are counted. A span's
self time is its duration minus the durations of the wrapped spans it
called directly.
"""
from __future__ import annotations

import sys
import time

# module -> functions traced in it; the layers of the per-layer metrics.
LAYERS = {
    "cli": (
        "cmd_compare",
        "cmd_simulate",
        "cmd_validate",
        "cmd_bounds",
        "cmd_sweep",
        "build_objective",
        "build_graph",
    ),
    "engine": ("run_swarm", "run_swarm_global_tick", "run_centralized", "write_trace_csv"),
    "objective": (
        "sample_gradient",
        "noisy_gradient",
        "noisy_gradients",
        "estimate_noise_variance",
        "optimum",
        "optimal_value",
    ),
    "randomness": ("polar_normal", "polar_normals"),
    "metrics": ("snapshot", "lemma4_check", "lemma2_monte_carlo_check"),
    "topology": ("erdos_renyi_connected", "algebraic_connectivity"),
    "theory": ("strong_convex_bound", "centralized_bound", "convex_bound", "nonconvex_bound"),
}
SPAN_NAMES = tuple(f"{m}.{f}" for m, fns in LAYERS.items() for f in fns)

# Slots of a span's statistics list; counters past SELF are filled by hooks.
CALLS, TOTAL, SELF, UNITS, EXTRA = range(5)


def _count_updates(stat, args, result) -> None:
    stat[UNITS] += result.summary.n_updates


def _count_rows(stat, args, result) -> None:
    spec, X = args[0], args[1]
    stat[UNITS] += X.shape[0]
    stat[EXTRA] += X.shape[0] * spec.dim


def _count_er_attempts(stat, args, result) -> None:
    stat[UNITS] += result.er_attempts


# Hooks read a count off a call's arguments or returned value.
HOOKS = {
    "engine.run_swarm": _count_updates,
    "engine.run_swarm_global_tick": _count_updates,
    "engine.run_centralized": _count_updates,
    "objective.noisy_gradients": _count_rows,
    "topology.erdos_renyi_connected": _count_er_attempts,
}


class Tracer:
    """Accumulates per-span statistics over every pass it is installed for."""

    def __init__(self) -> None:
        self.stats = {name: [0, 0.0, 0.0, 0, 0] for name in SPAN_NAMES}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        hook = HOOKS.get(name)
        perf = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                stat[CALLS] += 1
                stat[TOTAL] += dt
                stat[SELF] += dt - child
                if stack:
                    stack[-1] += dt
            if hook is not None:
                hook(stat, args, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = fn.__name__
        span.perfbench_span = name
        return span

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        namespaces = _package_modules()
        for mod_name, fns in LAYERS.items():
            module = sys.modules[f"swarmsgd.{mod_name}"]
            for fn_name in fns:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._patches.append((ns, attr, original))

    def uninstall(self) -> list[str]:
        """Restore every binding; return any package attribute that still
        holds a span wrapper or does not hold its original again."""
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        stuck = [
            f"{ns.__name__}.{attr}"
            for ns, attr, original in self._patches
            if getattr(ns, attr) is not original
        ]
        stuck += [
            f"{ns.__name__}.{attr}"
            for ns in _package_modules()
            for attr, value in vars(ns).items()
            if getattr(value, "perfbench_span", None) is not None
        ]
        self._patches = []
        return sorted(set(stuck))


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "swarmsgd"]
