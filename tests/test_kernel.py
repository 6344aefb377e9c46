"""The fixed-order kernel: its C heap, its dots, its draws from the run's
own bit generator, its build and cache, its numpy twin, and bits that do
not depend on the BLAS or SIMD kernels."""
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

from swarmsgd import _kernel, engine, metrics, topology
from swarmsgd import objective as obj
from swarmsgd.randomness import make_rng, polar_normals

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


def test_dots_and_matvecs_follow_the_stated_order(arithmetic):
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


def _numpy_normals(rng, n):
    """The polar method's rounds over ``rng.random``'s uniforms, with the
    C library's log: the normals the kernel must draw, and the number of
    rounds they took."""
    out, rounds = np.empty(0), 0
    while out.size < n:
        pairs = max(8, int((n - out.size) * 0.7) + 4)
        xy = rng.random((pairs, 2)) * 2.0 - 1.0
        s = xy[:, 0] * xy[:, 0] + xy[:, 1] * xy[:, 1]
        inside = (s > 0.0) & (s < 1.0)
        logs = np.array([math.log(v) for v in s[inside].tolist()])
        factor = np.sqrt(-2.0 * logs / s[inside])
        out = np.concatenate([out, (xy[inside] * factor[:, None]).ravel()[: n - out.size]])
        rounds += 1
    return out, rounds


def _numpy_draws(spec, rows, rng):
    """``objective.draw_noise_block``'s ``(U, c)`` from ``rng.random``: the
    features row by row, then the normals, and ridge's responses with the
    dot in index order."""
    if spec.kind == obj.RIDGE:
        U = rng.random((rows, spec.dim)) * 2.0 - 1.0
        dots = U[:, 0] * spec.x_tilde[0]
        for m in range(1, spec.dim):
            dots = dots + U[:, m] * spec.x_tilde[m]
        return U, dots + _numpy_normals(rng, rows)[0]
    if spec.noise_std == 0.0:
        return None, np.zeros((rows, spec.dim))
    return None, spec.noise_std * _numpy_normals(rng, rows * spec.dim)[0].reshape(rows, spec.dim)


def _assert_draws_are_numpys(spec, rows, rng, twin):
    U, c = obj.draw_noise_block(spec, rows, rng)
    U_ref, c_ref = _numpy_draws(spec, rows, twin)
    assert (U is None) == (U_ref is None)
    if U is not None:
        assert U.shape == U_ref.shape and U.tobytes() == U_ref.tobytes()
    assert c.shape == c_ref.shape and c.tobytes() == c_ref.tobytes()
    # the stream goes on where numpy's does
    assert rng.random(5).tobytes() == twin.random(5).tobytes()


DRAW_SPECS = {
    "ridge": lambda dim: obj.ridge_spec(0.1, np.linspace(0.0, 1.0, dim)),
    "quadratic": lambda dim: obj.quadratic_spec(np.eye(dim) * 2.0, np.ones(dim), noise_std=0.5),
    "sine": lambda dim: obj.nonconvex_sine_spec(dim),
    "noiseless": lambda dim: obj.quadratic_spec(np.eye(dim), np.ones(dim), noise_std=0.0),
}


@pytest.mark.parametrize("kind", list(DRAW_SPECS))
def test_the_draws_are_numpys_from_the_run_generator(kind, arithmetic):
    # 200 seeds at each shape of at most 2,048 entries, 10 at the larger.
    for rows in (0, 1, 7, 256, 1020):
        for dim in (1, 3, 20, 100):
            spec = DRAW_SPECS[kind](dim)
            for seed in range(200 if rows * dim <= 2048 else 10):
                _assert_draws_are_numpys(spec, rows, make_rng(seed), make_rng(seed))


def test_the_normals_are_numpys_past_one_round_and_on_other_bit_generators(arithmetic):
    rng, twin = make_rng(79), make_rng(79)
    expected, rounds = _numpy_normals(twin, 8)
    assert rounds == 2
    assert polar_normals(rng, 8).tobytes() == expected.tobytes()
    assert rng.random(5).tobytes() == twin.random(5).tobytes()
    second_rounds = 0
    for seed in range(200):
        for n in (1, 7, 8, 256, 1020):
            rng, twin = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
            expected, rounds = _numpy_normals(twin, n)
            second_rounds += rounds > 1
            assert polar_normals(rng, n).tobytes() == expected.tobytes()
            assert rng.random(5).tobytes() == twin.random(5).tobytes()
        rng, twin = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
        _assert_draws_are_numpys(DRAW_SPECS["ridge"](20), 256, rng, twin)
    assert second_rounds


def test_the_build_flags_keep_every_value():
    # -O3 may vectorize element-wise loops, which reorders no sum; these
    # would reassociate the dots and sums or contract them into FMAs.
    assert "-ffp-contract=off" in _kernel.FLAGS
    unsafe = ("-Ofast", "-ffast-math", "-fassociative-math", "-funsafe-math-optimizations", "-mfma")
    for flag in _kernel.FLAGS:
        assert flag not in unsafe and not flag.startswith("-march="), flag


def test_dots_and_matvecs_refuse_shapes_they_would_read_past(arithmetic):
    A = np.ones((5, 3))
    for B in (np.ones((1, 3)), np.ones(2), np.ones((5, 2)), np.ones((4, 3)), np.ones((5, 3, 1))):
        with pytest.raises(ValueError, match="dots takes"):
            _kernel.dots(A, B)
    with pytest.raises(ValueError, match="dots takes"):
        _kernel.dots(np.ones(3), np.ones(3))
    for M, X in ((np.eye(2), A), (np.ones((3, 2)), A), (np.eye(3), np.ones(3))):
        with pytest.raises(ValueError, match="matvecs takes"):
            _kernel.matvecs(M, X)


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


def _specs(dim, rng):
    M = rng.normal(size=(dim, dim))
    return [
        obj.ridge_spec_random(0.1, dim, rng),
        obj.quadratic_spec(M @ M.T + np.eye(dim), rng.normal(size=dim), noise_std=0.5),
        obj.nonconvex_sine_spec(dim),
    ]


def _mover(spec, X, graph=None, **run):
    """A block step for ``spec`` on the positions ``X``, over ``graph`` with
    attraction 1, or with no pull when it is None; ``run`` overrides the
    other keywords of the mover. Its captured means are ``step.captured``."""
    run = {
        "gamma": 0.01, "a": 1.0, "batch": 1, "x_star": obj.optimum(spec),
        "f_star": obj.optimal_value(spec), "record_every": 1, "threshold": None, "stop": False,
        "captures": (), **run,
    }
    run.setdefault("captured", np.empty((len(run["captures"]), X.shape[1])))
    step = _kernel.mover(X, X.sum(axis=0), spec, graph, **run)
    step.captured = run["captured"]
    return step


def _start_records(spec, states):
    """The kernel step's record of each state of the stack as the start
    of a run: an empty block from update 0."""
    rows, rng = [], np.random.default_rng()
    for state in states:
        step = _mover(spec, state.copy())
        ks, kept, records, _ = step(0, 0, False, *_block(spec, len(state), 0, rng))
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
    """The threads and oracle draws of a block of ``n`` updates, shaped as
    ``objective.draw_noise_block`` returns them."""
    threads = rng.integers(rows, size=n)
    if spec.kind == obj.RIDGE:
        return threads, rng.uniform(-1, 1, size=(n, spec.dim)), rng.normal(size=n)
    return threads, None, rng.normal(size=(n, spec.dim)) + 0.1


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


def test_kernel_step_refuses_arrays_that_do_not_cover_the_block(arithmetic):
    spec = obj.nonconvex_sine_spec(2)
    X = np.zeros((3, 2))
    step = _mover(spec, X, record_every=2)
    threads, noise = np.array([0, 1, 2, 0]), np.ones((4, 2))
    ks, states, records, hit = step(4, 0, False, threads, None, noise)
    assert ks == [0, 2, 4] and hit == 0
    assert np.array_equal(states[2], X) and not np.array_equal(states[1], X)
    assert np.array(records).tobytes() == _start_records(spec, states).tobytes()
    bad = [
        (np.array([0, 1, 3, 0]), noise),  # a thread past the last row
        (np.array([0, -1, 2, 0]), noise),
        (threads[:3], noise),  # too few threads
        (threads, noise[:3]),  # too few noise rows
        (threads, np.ones((4, 3))),
        (threads, np.ones((4, 4))[:, ::2]),  # not contiguous
        (threads, noise.astype(np.float32)),
    ]
    for threads_, noise_ in bad:
        with pytest.raises(ValueError):
            step(4, 4, False, threads_, None, noise_)
    ridge = obj.ridge_spec(0.1, [0.5, 0.5])
    step = _mover(ridge, X.copy())
    features, targets = np.ones((4, 2)), np.ones(4)
    step(4, 0, False, threads, features, targets)
    for features_, targets_ in [(None, targets), (features[:3], targets), (features, targets[:3]),
                                (features, np.ones((4, 1))), (features.T.copy().T, targets)]:
        with pytest.raises(ValueError):
            step(4, 4, False, threads, features_, targets_)
    # a capture with no row to take it, or an optimum of another length
    with pytest.raises(ValueError):
        _mover(spec, X, x_star=None, captures=(3,), captured=np.empty((0, 2)))
    with pytest.raises(ValueError):
        _mover(spec, X, x_star=np.zeros(3))
    # positions of another dimension than the objective's
    with pytest.raises(ValueError):
        _mover(obj.nonconvex_sine_spec(3), X)


def _forged(degrees):
    """The path 0 - 1 - 2 with ``degrees`` in place of its row sums."""
    path = topology.graph_from_adjacency([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    return topology.Graph(3, path.adjacency, np.array(degrees))


def test_kernel_step_refuses_a_neighbour_pair_outside_its_rows(arithmetic):
    # The kernel reads starts[0 .. rows] and idx[starts[0] .. starts[rows]],
    # which the degrees and the adjacency give.
    spec = obj.nonconvex_sine_spec(2)
    X = np.arange(6.0).reshape(3, 2)
    step = _mover(spec, X.copy(), _forged([1, 2, 1]))  # the path as it is
    ks, states, _, _ = step(1, 0, False, np.array([1]), None, np.zeros((1, 2)))
    # row 1 moves by -0.03 sin(2 x) - 0.03 x + 0.01 (x_0 + x_2)
    x = X[1]
    assert ks == [0, 1] and np.allclose(
        states[1], [X[0], x - 0.03 * np.sin(2 * x) - 0.03 * x + 0.01 * (X[0] + X[2]), X[2]]
    )
    bad = [
        [1, 2],  # too few rows
        [0, 2, 2],  # a row with no neighbour
        [1, 2, 2],  # a degree sum past the edge count
        [1, 1, 1],  # an edge no row reads
    ]
    for degrees in bad:
        with pytest.raises(ValueError):
            _mover(spec, X.copy(), _forged(degrees))
