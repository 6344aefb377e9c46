"""The fixed-order kernel: its C heap, its dots, its build and cache, its
numpy twin, and bits that do not depend on the BLAS or SIMD kernels."""
import functools
import hashlib
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from swarmsgd import _kernel, engine, metrics
from swarmsgd import objective as obj

SRC = Path(__file__).resolve().parent.parent / "src"
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _needs_compiler():
    if _kernel.library() is None:
        pytest.skip("no C compiler builds the kernel here")


def _popped(first, blocks):
    pop_block = _kernel.event_heap(first)
    return [(times, threads.tolist()) for times, threads in map(pop_block, blocks)]


def test_c_heap_pops_the_heapq_sequence(monkeypatch):
    _needs_compiler()
    rng = np.random.default_rng(5)
    for n in [2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 64, 100, 255, 256, 257, 1000]:
        for ties in (False, True):
            first = rng.exponential(0.02, n)
            blocks = [rng.exponential(0.02, 256) for _ in range(20)]
            if ties:
                # times on a grid of 1/64, so many fire together and the
                # thread id decides
                first = np.round(first * 64 * n) / 64
                blocks = [np.ceil(d * 64 * n) / 64 for d in blocks]
            kernel = _popped(first, blocks)
            with monkeypatch.context() as m:
                m.setattr(_kernel, "_lib", None)
                assert kernel == _popped(first, blocks), (n, ties)
            times = [t for block, _ in kernel for t in block]
            assert times == sorted(times)


def _dot(u, v):
    return functools.reduce(operator.add, map(operator.mul, u, v))


def test_dots_matvecs_and_logs_follow_the_stated_order(arithmetic):
    rng = np.random.default_rng(8)
    for dim in (1, 2, 3, 7, 20, 100):
        A, B = rng.normal(size=(2, 9, dim)) * 10.0 ** rng.integers(-8, 8, size=(2, 9, dim))
        M = rng.normal(size=(dim, dim))
        rows = [_dot(a, b) for a, b in zip(A.tolist(), B.tolist())]
        assert _kernel.dots(A, B).tolist() == rows
        assert _kernel.dots(A, B[0]).tolist() == [_dot(a, B[0].tolist()) for a in A.tolist()]
        assert _kernel.matvecs(M, A).tolist() == [
            [_dot(m, a) for m in M.tolist()] for a in A.tolist()
        ]
    x = rng.random(1000)
    assert _kernel.logs(x).tolist() == [math.log(v) for v in x.tolist()]


def _fake_compiler(tmp_path):
    """A compiler that states a version and fails every build."""
    path = tmp_path / "fake-cc"
    path.write_text(
        '#!/bin/sh\nif [ "$1" = --version ]; then echo fake-cc 1.0; exit 0; fi\nexit 1\n'
    )
    path.chmod(0o755)
    return str(path)


def _few_runs_digest():
    """(positions, times, T_hit, records) bytes of a few runs of each kind."""
    sys.path.insert(0, str(SCRIPTS))
    try:
        import digests
    finally:
        sys.path.remove(str(SCRIPTS))
    h = hashlib.sha256()
    specs, graphs = digests._specs(), digests._graphs()
    init = np.full((digests.N_THREADS, digests.DIM), 1.5)
    for kind, spec in specs.items():
        config = digests._config(digests.THRESHOLDS[kind], "armed", 7, attraction=0.7)
        for runner, graph in ((engine.run_swarm, "erdos_renyi"), (engine.run_swarm_global_tick,
                                                                   "complete")):
            digests._hash_run(h, kind, lambda on_record: runner(
                config, graphs[graph], spec, init=init, on_record=on_record
            ))
        central = digests._config(digests.CENTRAL_THRESHOLDS[kind], "stop", 1, n_threads=6)
        digests._hash_run(h, kind, lambda on_record: engine.run_centralized(
            central, spec, init=init[0], on_record=on_record
        ))
    return h.hexdigest()


def test_a_failed_build_falls_back_to_the_twin_with_the_same_bits(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    for compiler in (str(tmp_path / "no-such-cc"), "false", _fake_compiler(tmp_path)):
        with pytest.raises((OSError, subprocess.SubprocessError)):
            _kernel.build(compiler, str(cache))
        with pytest.warns(RuntimeWarning, match="numpy twin"):
            assert _kernel.load(compiler, str(cache)) is None
    # the failed build left nothing behind
    assert not cache.exists() or list(cache.iterdir()) == []
    expected = _few_runs_digest()
    with pytest.warns(RuntimeWarning):
        twin = _kernel.load(_fake_compiler(tmp_path), str(cache))
    monkeypatch.setattr(_kernel, "_lib", twin)
    assert _kernel.library() is None
    assert _few_runs_digest() == expected


def test_the_fallback_warning_names_its_reason(tmp_path):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    reasons = [
        (str(tmp_path / "no-such-cc"), str(tmp_path), "no C compiler"),
        ("false", str(tmp_path), "the build with 'false' failed"),
        (_fake_compiler(tmp_path), str(tmp_path), "failed"),
        ("cc", str(not_a_dir / "cache"), "cannot be written"),
    ]
    for compiler, cache, reason in reasons:
        if compiler == "cc":
            _needs_compiler()
        with pytest.warns(RuntimeWarning) as caught:
            assert _kernel.load(compiler, cache) is None
        (warning,) = caught
        assert reason in str(warning.message) and "10 times slower" in str(warning.message)


SIMULATE = """
import json, sys
from swarmsgd import cli
config = {"objective": {"kind": "ridge", "dim": 3, "rho": 0.1},
          "run": {"scheme": "swarm_event_driven", "n_threads": 5, "step_size": 0.01,
                  "attraction": 1.0, "mean_sample_time": 0.02, "max_updates": 300},
          "graph": {"kind": "complete"}, "replications": 2, "master_seed": 3,
          "output_dir": sys.argv[1]}
with open(sys.argv[2], "w") as fh:
    json.dump(config, fh)
sys.exit(cli.main(["simulate", "--config", sys.argv[2]]))
"""


def test_the_fallback_warns_once_on_stderr_and_in_no_output_file(tmp_path):
    # A cache under a file cannot be written, so the twin runs.
    (tmp_path / "file").write_text("")
    env = {**os.environ, "PYTHONPATH": str(SRC), "XDG_CACHE_HOME": str(tmp_path / "file")}
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-c", SIMULATE, str(out), str(tmp_path / "config.json")], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.count("RuntimeWarning") == 1 and "cannot be written" in done.stderr
    files = [p for p in out.rglob("*") if p.is_file()]
    assert files and not any("twin" in p.read_text() for p in files)


BUILD = "import sys; from swarmsgd import _kernel; print(_kernel.build(cache=sys.argv[1]))"


def test_two_builds_into_one_cache_load_one_library(tmp_path):
    _needs_compiler()
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    builds = [
        subprocess.Popen([sys.executable, "-c", BUILD, str(tmp_path)], env=env,
                         stdout=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    paths = {build.communicate(timeout=300)[0].strip() for build in builds}
    assert all(build.returncode == 0 for build in builds)
    (path,) = paths
    # no temporary file is left, and a third build reuses the library
    assert [p.name for p in tmp_path.iterdir()] == [os.path.basename(path)]
    stamp = os.stat(path).st_mtime_ns
    assert _kernel.build(cache=str(tmp_path)) == path and os.stat(path).st_mtime_ns == stamp
    assert _kernel.load(cache=str(tmp_path)) is not None


CHILD = """
import sys
from swarmsgd import _kernel
if sys.argv[1] == "twin":
    _kernel._lib = None
sys.path.insert(0, sys.argv[2])
import test_kernel
print(test_kernel._few_runs_digest(), _kernel.library() is None)
"""


def _avx512_targets() -> str:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return " ".join(t for t in __cpu_dispatch__ if "AVX512" in t or t == "X86_V4")


def test_bits_do_not_depend_on_the_blas_or_simd_kernels():
    # Positions, fire times, T_hit and records, for the kernel and the
    # twin, under four OpenBLAS core types and with numpy's AVX-512 code
    # turned off, one child process after another.
    _needs_compiler()
    settings = [{}] + [{"OPENBLAS_CORETYPE": c} for c in ("Haswell", "Sandybridge", "Nehalem")]
    if _avx512_targets():
        settings.append({"NPY_DISABLE_CPU_FEATURES": _avx512_targets()})
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    base["PYTHONPATH"] = str(SRC)
    lines = set()
    for path in ("kernel", "twin"):
        for extra in settings:
            done = subprocess.run(
                [sys.executable, "-c", CHILD, path, str(Path(__file__).parent)],
                env={**base, **extra}, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            digest, twin = done.stdout.split()
            assert twin == str(path == "twin")
            lines.add(digest)
    assert lines == {_few_runs_digest()}


_CODES = {obj.RIDGE: _kernel.RIDGE, obj.QUADRATIC: _kernel.QUADRATIC,
          obj.NONCONVEX_SINE: _kernel.SINE}


def _specs(dim, rng):
    M = rng.normal(size=(dim, dim))
    return [
        obj.ridge_spec_random(0.1, dim, rng),
        obj.quadratic_spec(M @ M.T + np.eye(dim), rng.normal(size=dim), noise_std=0.5),
        obj.nonconvex_sine_spec(dim),
    ]


def _mover(spec, X, threshold=None, stop=False, captures=(), record_every=1):
    """A block step for ``spec`` on the positions ``X``, with no pull; its
    captured means are ``step.captured``."""
    rows, dim = X.shape
    S = X.sum(axis=0)
    captured = np.empty((len(captures), dim))
    x_star = obj.optimum(spec)
    step = _kernel.mover(
        X, S, kind=_CODES[spec.kind], coef=[-0.01] * rows, tg=0.02, sine_coef=-0.03, ga=0.0,
        pull=_kernel.PULL_NONE, neighbours=None,
        G=None if spec.Q is None else np.ascontiguousarray(-0.01 * spec.Q), batch=1,
        spec=spec, x_star=x_star, f_star=obj.optimal_value(spec), record_every=record_every,
        threshold=threshold, stop=stop, captures=captures, captured=captured,
    )
    step.captured = captured
    return step


def _start_records(spec, states):
    """The kernel step's record of each state of the stack as the start
    of a run: an empty block from update 0."""
    rows = []
    for state in states:
        step = _mover(spec, state.copy())
        ks, kept, records, _ = step(0, 0, False, np.empty(0, dtype=np.int64),
                                    np.empty((0, spec.dim)), np.empty(0), np.empty((0, spec.dim)))
        assert ks == [0] and kept.tobytes() == state.tobytes()
        rows += records
    return np.array(rows)


# (rows, dim): N dim below 8, from 8 to 128, past 128 with one split and
# with several, and 20,480; the means of dim 1 are pairwise sums too.
RECORD_SHAPES = [(1, 1), (2, 3), (5, 1), (9, 1), (3, 5), (8, 16), (20, 1), (3, 43),
                 (300, 1), (20, 20), (100, 20), (50, 100), (4096, 5)]


@pytest.mark.parametrize("rows,dim", RECORD_SHAPES)
def test_record_metrics_are_the_snapshot_bit_for_bit(rows, dim, arithmetic):
    rng = np.random.default_rng(rows * 1000 + dim)
    states = rng.normal(size=(2, rows, dim)) * 10.0 ** rng.integers(-4, 3, size=(2, rows, dim))
    states[1] += 3.0
    for spec in _specs(dim, rng):
        x_star, f_star = obj.optimum(spec), obj.optimal_value(spec)
        records = _start_records(spec, states)
        snap = metrics.snapshot(states, spec, x_star, f_star)
        expected = np.column_stack((snap.U, snap.Vbar, snap.f_gap, snap.grad_norm_sq))
        assert records.tobytes() == expected.tobytes(), (spec.kind, rows, dim)


def _block(spec, rows, n, rng):
    """The threads and oracle inputs of a block of ``n`` updates."""
    threads = rng.integers(rows, size=n)
    if spec.kind == obj.RIDGE:
        return threads, rng.uniform(-1, 1, size=(n, spec.dim)), rng.normal(size=n) * 0.02, None
    return threads, None, None, rng.normal(size=(n, spec.dim)) * 0.01 - 0.001


@pytest.mark.parametrize("dim", [1, 3, 20])
def test_crossing_is_the_first_watched_error_at_most_the_threshold(dim, arithmetic):
    # The captures give the mean after every update; the crossing is the
    # first update whose watched_errors of that mean passes.
    rng = np.random.default_rng(dim)
    rows, n = 6, 300
    for spec in _specs(dim, rng):
        start = rng.normal(size=(rows, dim)) + 1.0
        block = _block(spec, rows, n + 1, rng)
        step = _mover(spec, start.copy(), captures=range(n + 1))
        step(n + 1, 0, False, *block)
        means = step.captured[1:].copy()
        errors = metrics.watched_errors(spec, obj.optimum(spec), means)
        threshold = np.sort(errors)[n // 3]
        first = int(np.flatnonzero(errors <= threshold)[0]) + 1
        for stop in (False, True):
            step = _mover(spec, start.copy(), threshold=threshold, stop=stop, record_every=50)
            ks, states, _, hit = step(n, 0, True, *block)
            assert hit == first, (spec.kind, stop)
            # recorded in k order: the start, the crossing, the record
            # points up to a stop and the run's end
            expected = sorted({0, first, *range(50, n + 1, 50), n})
            assert ks == ([k for k in expected if k <= first] if stop else expected)
            assert len(states) == len(ks)


def test_kernel_step_refuses_arrays_that_do_not_cover_the_block():
    _needs_compiler()
    spec = obj.nonconvex_sine_spec(2)
    X = np.zeros((3, 2))
    step = _mover(spec, X, record_every=2)
    threads, shift = np.array([0, 1, 2, 0]), np.ones((4, 2))
    ks, states, records, hit = step(4, 0, False, threads, None, None, shift)
    assert ks == [0, 2, 4] and hit == 0
    assert np.array_equal(states[2], X) and not np.array_equal(states[1], X)
    assert np.array(records).tobytes() == _start_records(spec, states).tobytes()
    bad = [
        (np.array([0, 1, 3, 0]), shift),  # a thread past the last row
        (np.array([0, -1, 2, 0]), shift),
        (threads, shift[:3]),  # too few shift rows
        (threads, np.ones((4, 3))),
        (threads, np.ones((4, 4))[:, ::2]),  # not contiguous
        (threads, shift.astype(np.float32)),
    ]
    for threads_, shift_ in bad:
        with pytest.raises(ValueError):
            step(4, 4, False, threads_, None, None, shift_)
    # a capture with no row to take it, or an optimum of another length
    with pytest.raises(ValueError):
        _kernel.mover(
            X, X.sum(axis=0), kind=_kernel.SINE, coef=[0.0] * 3, tg=0.0, sine_coef=-0.03, ga=0.0,
            pull=_kernel.PULL_NONE, neighbours=None, G=None, batch=1, spec=spec, x_star=None,
            f_star=0.0, record_every=1, threshold=None, stop=False, captures=(3,),
            captured=np.empty((0, 2)),
        )
    with pytest.raises(ValueError):
        _kernel.mover(
            X, X.sum(axis=0), kind=_kernel.SINE, coef=[0.0] * 3, tg=0.0, sine_coef=-0.03, ga=0.0,
            pull=_kernel.PULL_NONE, neighbours=None, G=None, batch=1, spec=spec,
            x_star=np.zeros(3), f_star=0.0, record_every=1, threshold=None, stop=False,
            captures=(), captured=np.empty((0, 2)),
        )


def test_kernel_step_refuses_a_neighbour_pair_outside_its_rows():
    # The kernel reads starts[0 .. rows] and idx[starts[0] .. starts[rows]],
    # and each idx entry as a row of X.
    _needs_compiler()
    spec = obj.nonconvex_sine_spec(2)
    X = np.zeros((3, 2))

    def mover(starts, idx):
        return _kernel.mover(
            X, X.sum(axis=0), kind=_kernel.SINE, coef=[0.0] * 3, tg=0.0, sine_coef=-0.03,
            ga=0.01, pull=_kernel.PULL_NEIGHBOURS, neighbours=(np.array(starts), np.array(idx)),
            G=None, batch=1, spec=spec, x_star=None, f_star=0.0, record_every=1,
            threshold=None, stop=False, captures=(), captured=np.empty((0, 2)),
        )

    mover([0, 1, 3, 4], [1, 0, 2, 1])  # the path 0 - 1 - 2
    bad = [
        ([0, 1, 3, 4], [1, 0, 3, 1]),  # a neighbour past the last row
        ([0, 1, 3, 4], [1, 0, -1, 1]),
        ([0, 1, 3, 5], [1, 0, 2, 1]),  # starts past the end of idx
        ([0, 1, 3], [1, 0, 2, 1]),  # too few starts
        ([1, 1, 3, 4], [1, 0, 2, 1]),  # a row with no neighbour
        ([0, 1, 3, 4], [1, 0, 2, 1, 0]),  # an idx entry no row reads
    ]
    for starts, idx in bad:
        with pytest.raises(ValueError):
            mover(starts, idx)
