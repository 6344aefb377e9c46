"""The engine's fixed-order arithmetic: ``_kernel.c`` and its numpy twin.

``_kernel.c`` states one summation order for every float the engine
writes: a dot adds its products one at a time in index order, a matrix
row times a vector is that row's dot, and a delta adds, element by
element, the oracle term, the own-row term and the pull, whose
neighbours are added in index order. So no trajectory or record depends
on which BLAS kernel or SIMD width the CPU selects.

The C file is compiled on first use, never at import, with ``-O2
-ffp-contract=off`` (no FMA contraction, no fast-math), into a cache
outside the source tree: ``$XDG_CACHE_HOME/swarmsgd``, or
``~/.cache/swarmsgd``. The library's name holds the sha256 of the source,
the compiler's ``--version`` and the flags; it is written to a temporary
file and moved into place, so a process never loads a half-written
library. Where no compiler is found or the build fails, the numpy twin
below runs the same order bit for bit, and ``heapq`` the event heap;
both paths give the same bits, so the choice changes no output.
"""
from __future__ import annotations

import hashlib
import heapq
import math
import os
import subprocess
import tempfile

import numpy as np

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
RIDGE, QUADRATIC, SINE = 0, 1, 2
PULL_NONE, PULL_SUM, PULL_NEIGHBOURS = 0, 1, 2

_UNLOADED = object()
_lib = _UNLOADED


def cache_dir() -> str:
    """Where built kernels are kept."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "swarmsgd")


def build(compiler: str = "cc", cache: str | None = None) -> str:
    """The path of the kernel built by ``compiler`` in ``cache``, compiled
    there first when absent. Raises OSError or SubprocessError when it
    cannot be built."""
    cache = cache_dir() if cache is None else cache
    with open(SOURCE, "rb") as fh:
        source = fh.read()
    version = subprocess.run(
        [compiler, "--version"], capture_output=True, check=True, timeout=60
    ).stdout
    key = hashlib.sha256(b"\0".join([source, version, " ".join(FLAGS).encode()])).hexdigest()
    path = os.path.join(cache, f"_kernel-{key[:24]}.so")
    if not os.path.exists(path):
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=cache)
        os.close(fd)
        try:
            subprocess.run(
                [compiler, *FLAGS, "-o", tmp, SOURCE, "-lm"],
                capture_output=True, check=True, timeout=300,
            )
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return path


def load(compiler: str = "cc", cache: str | None = None):
    """The kernel built by ``compiler`` in ``cache``, loaded, or None when it
    cannot be built or loaded."""
    import ctypes

    try:
        lib = ctypes.CDLL(build(compiler, cache))
    except (OSError, subprocess.SubprocessError):
        return None
    i64, ptr, f64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    signatures = {
        "swarmsgd_dots": (None, [i64, i64, ptr, ptr, i64, ptr]),
        "swarmsgd_logs": (None, [i64, ptr, ptr]),
        "swarmsgd_matvecs": (None, [i64, i64, ptr, ptr, ptr]),
        "swarmsgd_heap_block": (None, [i64, ptr, ptr, i64, ptr, ptr, ptr]),
        "swarmsgd_move": (None, [i64] * 5 + [ptr] * 9 + [f64] * 3 + [i64, ptr, ptr, ptr]
                          + [i64, i64, ptr]),
    }
    for name, (restype, argtypes) in signatures.items():
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib


def library():
    """The loaded kernel, built on the first call; None where it cannot be
    built, and then the twin runs."""
    global _lib
    if _lib is _UNLOADED:
        _lib = load()
    return _lib


def _ptr(a, dtype=np.float64) -> int | None:
    """The address of the data of ``a``, a C-contiguous ``dtype`` array, or
    None for None."""
    if a is None:
        return None
    if a.dtype != dtype or not a.flags.c_contiguous:
        raise ValueError(f"the kernel takes C-contiguous {np.dtype(dtype)} arrays, got {a.dtype}")
    return a.__array_interface__["data"][0]


def _fits(a: np.ndarray | None, shape: tuple) -> bool:
    """Whether ``a`` has ``shape`` past its first axis and at least
    ``shape[0]`` entries along it."""
    return a is not None and a.shape[1:] == shape[1:] and len(a) >= shape[0]


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` as a C-contiguous float64 array."""
    return np.ascontiguousarray(a, dtype=float)


def dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A[r] . B[r]`` for each row r of the (R, dim) ``A``, ``B`` a stack
    like ``A`` or one vector, each a dot in the stated order."""
    A, B = _rows(A), _rows(B)
    rows, dim = A.shape
    lib = library()
    if lib is None:
        # cumsum adds one product at a time, as the C dot does.
        return np.cumsum(A * B, axis=-1)[:, -1]
    out = np.empty(rows)
    lib.swarmsgd_dots(rows, dim, _ptr(A), _ptr(B), dim if B.ndim == 2 else 0, _ptr(out))
    return out


def logs(x: np.ndarray) -> np.ndarray:
    """The C library's natural log of each entry of the vector ``x``, which
    numpy's SIMD log does not always round alike."""
    x = _rows(x)
    lib = library()
    if lib is None:
        return np.fromiter(map(math.log, x.tolist()), float, len(x))
    out = np.empty(len(x))
    lib.swarmsgd_logs(len(x), _ptr(x), _ptr(out))
    return out


def matvecs(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``M @ x`` for each row x of the (R, dim) ``X``, each entry a dot of a
    row of the (dim, dim) ``M`` with x, in the stated order."""
    M, X = _rows(M), _rows(X)
    rows, dim = X.shape
    lib = library()
    if lib is None:
        # One column of M at a time, so each entry adds its products in
        # index order; O(R dim) memory.
        out = X[:, :1] * M[:, 0]
        for m in range(1, dim):
            out += X[:, m : m + 1] * M[:, m]
        return out
    out = np.empty((rows, dim))
    lib.swarmsgd_matvecs(rows, dim, _ptr(M), _ptr(X), _ptr(out))
    return out


def event_heap(first: np.ndarray):
    """The event-driven schedule's heap of (fire time, thread id), thread
    ``i`` first firing at ``first[i]``. Returns ``pop_block(durations)``,
    which for each duration in turn pops the earliest completion and
    pushes its thread back at that time plus the duration, and returns the
    popped (fire times list, thread ids array). Keys are unique, so the C
    heap pops the sequence ``heapq`` does."""
    lib = library()
    if lib is None:
        heap = [(t, i) for i, t in enumerate(first.tolist())]
        heapq.heapify(heap)
        replace = heapq.heapreplace

        def pop_block(durations):
            fired = [replace(heap, (heap[0][0] + d, heap[0][1])) for d in durations.tolist()]
            times, threads = zip(*fired)
            return list(times), np.array(threads, dtype=np.int64)

        return pop_block

    # A stable sort by time is ordered by (time, id): a valid heap.
    ids = np.argsort(first, kind="stable")
    ht, hi = first[ids].copy(), ids.astype(np.int64)
    fn, n, pt, pi = lib.swarmsgd_heap_block, len(first), _ptr(ht), _ptr(hi, np.int64)

    def pop_block(durations):
        durations = _rows(durations)
        times, threads = np.empty(len(durations)), np.empty(len(durations), dtype=np.int64)
        fn(n, pt, pi, len(durations), _ptr(durations), _ptr(times), _ptr(threads, np.int64))
        return times.tolist(), threads

    pop_block.heap = (ht, hi)  # the arrays pt and pi point into
    return pop_block


def _sin(v: float) -> float:
    # The C library's sin, which the kernel calls; sin(inf) is NaN there.
    return math.sin(v) if math.isfinite(v) else math.nan


def mover(kind, X, S, D, coef, tg, sine_coef, ga, pull, neighbours, G, batch, record_every):
    """The block step of one run, which moves the (rows, dim) positions
    ``X`` in place: ``step(n_run, k0, threads, feat, targ, shift, states)``
    runs ``n_run`` updates from update count ``k0`` as ``swarmsgd_move``
    in ``_kernel.c`` states them, copying ``X`` into the next row of
    ``states`` after each update whose count is a multiple of
    ``record_every``.

    ``kind`` is RIDGE, QUADRATIC or SINE; ``S`` the sum row, read and
    moved when ``pull`` is PULL_SUM; ``D`` the block buffer whose row
    j + 1 takes update j's delta; ``coef`` each row's own coefficient;
    ``tg`` ridge's 2 gamma / batch, ``sine_coef`` -3 gamma and ``ga``
    gamma a; ``neighbours`` each row's neighbour index array when
    ``pull`` is PULL_NEIGHBOURS; ``G`` quadratic's -gamma Q; ``batch``
    ridge's samples per update."""
    rows, dim = X.shape
    lib = library()
    if lib is not None:
        fn = lib.swarmsgd_move
        coef = np.array(coef, dtype=float)
        if pull == PULL_NEIGHBOURS:
            starts = np.cumsum([0] + [len(nb) for nb in neighbours], dtype=np.int64)
            flat = np.concatenate(neighbours).astype(np.int64)
        else:
            starts = flat = None
        if not (
            _fits(coef, (rows,)) and _fits(D, (1, dim))
            and (pull != PULL_SUM or _fits(S, (dim,)))
            and (kind != QUADRATIC or _fits(G, (dim, dim)))
            # every row has a neighbour, and each is a row of X
            and (flat is None or np.diff(starts).min() > 0 and 0 <= flat.min() <= flat.max() < rows)
        ):
            raise ValueError("the run's arrays do not match its positions")
        scratch = np.empty(max(batch, dim))
        fixed = (_ptr(X), _ptr(S), _ptr(D))
        tail = (_ptr(G), _ptr(coef), tg, sine_coef, ga, pull, _ptr(starts, np.int64),
                _ptr(flat, np.int64), _ptr(scratch))

        def covered(n_run, k0, threads, feat, targ, shift, states) -> bool:
            """Whether the block's arrays hold what its updates read and
            write, so the kernel touches nothing outside them."""
            records = (k0 + n_run) // record_every - k0 // record_every
            oracle = (
                _fits(feat, (n_run * batch, dim)) and _fits(targ, (n_run * batch,))
                if kind == RIDGE else _fits(shift, (n_run, dim))
            )
            return (
                oracle and _fits(states, (records, rows, dim)) and _fits(D, (n_run + 1, dim))
                and len(threads) == n_run
                and (not n_run or 0 <= threads.min() <= threads.max() < rows)
            )

        def step(n_run, k0, threads, feat, targ, shift, states):
            threads = np.ascontiguousarray(threads[:n_run], dtype=np.int64)
            if not covered(n_run, k0, threads, feat, targ, shift, states):
                raise ValueError("a block's arrays do not cover its updates")
            fn(
                n_run, rows, dim, kind, batch, *fixed, _ptr(threads, np.int64), _ptr(feat),
                _ptr(targ), _ptr(shift), *tail, k0, record_every, _ptr(states),
            )

        step.arrays = (coef, scratch, starts, flat)  # those the pointers name
        return step

    coef = [float(c) for c in coef]

    def step(n_run, k0, threads, feat, targ, shift, states):
        written = 0  # states
        for j in range(n_run):
            i = int(threads[j])
            x = X[i]
            if kind == RIDGE:
                U = feat[j * batch : (j + 1) * batch]
                r = targ[j * batch : (j + 1) * batch] - tg * np.cumsum(U * x, axis=1)[:, -1]
                d = np.cumsum(r[:, None] * U, axis=0)[-1]
            elif kind == QUADRATIC:
                d = np.cumsum(G * x, axis=1)[:, -1] + shift[j]
            else:
                d = np.fromiter(map(_sin, (x * 2.0).tolist()), float, dim)
                d *= sine_coef
                d += shift[j]
            d += coef[i] * x
            if pull == PULL_SUM:
                d += ga * S
            elif pull == PULL_NEIGHBOURS:
                d += ga * np.cumsum(X[neighbours[i]], axis=0)[-1]
            D[j + 1] = d
            x += d
            if pull == PULL_SUM:
                np.add(S, d, out=S)
            if (k0 + j + 1) % record_every == 0:
                states[written] = X
                written += 1

    return step
