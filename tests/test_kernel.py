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

from swarmsgd import _kernel, engine

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
        assert _kernel.load(compiler, str(cache)) is None
    # the failed build left nothing behind
    assert not cache.exists() or list(cache.iterdir()) == []
    expected = _few_runs_digest()
    monkeypatch.setattr(_kernel, "_lib", _kernel.load(_fake_compiler(tmp_path), str(cache)))
    assert _kernel.library() is None
    assert _few_runs_digest() == expected


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


def test_kernel_step_refuses_arrays_that_do_not_cover_the_block():
    _needs_compiler()
    X, D = np.zeros((3, 2)), np.empty((5, 2))
    step = _kernel.mover(_kernel.SINE, X, None, D, [-0.01] * 3, 0.0, -0.03, 0.0,
                         _kernel.PULL_NONE, None, None, 1, 2)
    threads, shift, states = np.array([0, 1, 2, 0]), np.ones((4, 2)), np.empty((2, 3, 2))
    step(4, 0, threads, None, None, shift, states)
    assert np.array_equal(states[1], X) and not np.array_equal(states[0], X)
    bad = [
        (np.array([0, 1, 3, 0]), shift, states),  # a thread past the last row
        (np.array([0, -1, 2, 0]), shift, states),
        (threads, shift[:3], states),  # too few shift rows
        (threads, np.ones((4, 3)), states),
        (threads, shift, states[:1]),  # no room for the second record
        (threads, np.ones((4, 4))[:, ::2], states),  # not contiguous
        (threads, shift.astype(np.float32), states),
    ]
    for threads_, shift_, states_ in bad:
        with pytest.raises(ValueError):
            step(4, 0, threads_, None, None, shift_, states_)
