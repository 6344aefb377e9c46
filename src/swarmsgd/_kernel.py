"""The engine's fixed-order arithmetic: ``_kernel.c`` and its numpy twin.

``_kernel.c`` states one summation order for every float the engine
writes: a dot adds its products one at a time in index order, a matrix
row times a vector is that row's dot, and a delta adds, element by
element, the oracle term, the own-row term and the pull, whose
neighbours are added in index order. The block call also keeps the
swarm sum, tests the threshold watch after every update, captures the
listed means and evaluates each record in ``metrics.snapshot``'s order,
numpy's pairwise sum included. So no trajectory or record depends on
which BLAS kernel or SIMD width the CPU selects.

The C file is compiled on first use, never at import, with ``-O2
-ffp-contract=off`` (no FMA contraction, no fast-math), into a cache
outside the source tree: ``$XDG_CACHE_HOME/swarmsgd``, or
``~/.cache/swarmsgd``. The library's name holds the sha256 of the source,
the compiler's ``--version`` and the flags; it is written to a temporary
file and moved into place, so a process never loads a half-written
library. Where no compiler is found, the build fails or the cache cannot
be written, one RuntimeWarning says so and the numpy twin below runs the
same order bit for bit, and ``heapq`` the event heap; both paths give the
same bits, so the choice changes no output, only the speed.
"""
from __future__ import annotations

import ctypes
import hashlib
import heapq
import math
import os
import subprocess
import tempfile
import warnings

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


class Run(ctypes.Structure):
    """``struct run`` of ``_kernel.c``: one run's arrays and constants."""

    _fields_ = (
        [(name, ctypes.c_int64) for name in (
            "rows", "dim", "kind", "batch", "pull", "record_every", "watch", "stop", "hit",
            "n_captures", "next_capture",
        )]
        + [(name, ctypes.c_void_p) for name in (
            "captures", "nbr_start", "nbr_idx", "X", "S", "captured", "work", "G", "coef", "Q",
            "b", "x_tilde", "x_star",
        )]
        + [(name, ctypes.c_double) for name in (
            "tg", "sine_coef", "ga", "inv_n", "threshold", "f_star", "rho",
        )]
    )


def load(compiler: str = "cc", cache: str | None = None):
    """The kernel built by ``compiler`` in ``cache``, loaded; None, with a
    RuntimeWarning that says why, when it cannot be built or loaded."""
    try:
        lib = ctypes.CDLL(build(compiler, cache))
    except subprocess.SubprocessError:
        reason = f"the build with {compiler!r} failed"
    except OSError as exc:
        if exc.filename == compiler:
            reason = f"no C compiler {compiler!r} was found"
        elif exc.filename is not None:
            reason = f"the cache {cache_dir() if cache is None else cache} cannot be written ({exc})"
        else:
            reason = f"the built kernel cannot be loaded ({exc})"
    else:
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        run = ctypes.POINTER(Run)
        signatures = {
            "swarmsgd_dots": (None, [i64, i64, ptr, ptr, i64, ptr]),
            "swarmsgd_logs": (None, [i64, ptr, ptr]),
            "swarmsgd_matvecs": (None, [i64, i64, ptr, ptr, ptr]),
            "swarmsgd_heap_block": (None, [i64, ptr, ptr, i64, ptr, ptr, ptr]),
            "swarmsgd_move": (i64, [run, i64, i64, i64] + [ptr] * 7),
        }
        for name, (restype, argtypes) in signatures.items():
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
        return lib
    warnings.warn(
        f"swarmsgd runs its numpy twin, about 10 times slower, as the compiled kernel is "
        f"not available: {reason}", RuntimeWarning, stacklevel=2,
    )
    return None


def library():
    """The loaded kernel, built on the first call; None where it cannot be
    built, and then the twin runs."""
    global _lib
    if _lib is _UNLOADED:
        # The twin stands until the load returns, so a fallback warning
        # that a filter turns into an error is given once all the same.
        _lib = None
        _lib = load()
    return _lib


_address = ctypes.addressof
_buffer = ctypes.c_char.from_buffer


def _ptr(a, dtype=np.float64) -> int | None:
    """The address of the data of ``a``, a C-contiguous ``dtype`` array, or
    None for None or an empty array."""
    if a is None or not a.size:
        return None
    if a.dtype != dtype or not a.flags.c_contiguous:
        raise ValueError(f"the kernel takes C-contiguous {np.dtype(dtype)} arrays, got {a.dtype}")
    # A writable array's buffer gives the address without building the
    # interface dict.
    return _address(_buffer(a)) if a.flags.writeable else a.__array_interface__["data"][0]


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


def mover(
    X, S, *, kind, coef, tg, sine_coef, ga, pull, neighbours, G, batch, spec, x_star, f_star,
    record_every, threshold, stop, captures, captured,
):
    """The block step of one run, which moves the (rows, dim) positions
    ``X`` and their sum row ``S`` in place: ``step(n_run, k0, ends,
    threads, feat, targ, shift)`` runs ``n_run`` updates from update count
    ``k0`` as ``swarmsgd_move`` in ``_kernel.c`` states them, and returns
    ``(ks, states, records, hit)``: the update counts of the states it
    recorded, a fresh (len(ks), rows, dim) stack of them, their
    ``[U, Vbar, f_gap, grad_norm_sq]`` rows and the first crossing's
    update count, 0 before it.

    The update: ``kind`` is RIDGE, QUADRATIC or SINE; ``coef`` each row's
    own coefficient; ``tg`` ridge's 2 gamma / batch, ``sine_coef`` -3
    gamma and ``ga`` gamma a; ``pull`` says what the pull reads, and for
    PULL_NEIGHBOURS ``neighbours`` is the int64 pair ``(starts, idx)``:
    row i's neighbours are ``idx[starts[i]:starts[i + 1]]``, in index
    order; ``G`` quadratic's -gamma Q; ``batch`` ridge's samples
    per update. The records: the objective ``spec``, its optimum
    ``x_star`` (None when unknown) and value ``f_star``; a state is
    recorded at k 0, every ``record_every`` updates, at the first update
    whose watched error is at most ``threshold`` (None: no watch), which
    with ``stop`` ends the run, and at the run's end, which ``ends`` marks
    in its last block. The mean before each update count in the sorted
    ``captures`` is written into the next row of ``captured``."""
    rows, dim = X.shape
    inv_n = 1.0 / rows
    starts, idx = neighbours if pull == PULL_NEIGHBOURS else (None, None)
    lib = library()
    if lib is not None:
        fn = lib.swarmsgd_move
        coef = np.array(coef, dtype=float)
        captures = np.array(captures, dtype=np.int64)
        if not (
            _fits(coef, (rows,)) and _fits(S, (dim,)) and _fits(captured, (len(captures), dim))
            and record_every >= 1 and (x_star is None or np.shape(x_star) == (dim,))
            and (kind != RIDGE or np.shape(spec.x_tilde) == (dim,))
            and (kind != QUADRATIC or _fits(G, (dim, dim)) and np.shape(spec.Q) == (dim, dim)
                 and np.shape(spec.b) == (dim,))
            # every row has a neighbour, each a row of X, and the kernel
            # reads starts[0 .. rows] and idx[starts[0] .. starts[rows]]
            and (starts is None or len(starts) == rows + 1 and starts[0] == 0
                 and np.diff(starts).min() > 0 and starts[-1] == len(idx)
                 and 0 <= idx.min() <= idx.max() < rows)
        ):
            raise ValueError("the run's arrays do not match its positions")
        work = np.empty(dim + max(batch, dim) + 3 * dim + rows * dim)
        x_star, Q, b, x_tilde = (
            None if a is None else _rows(a) for a in (x_star, spec.Q, spec.b, spec.x_tilde)
        )
        run = Run(
            rows=rows, dim=dim, kind=kind, batch=batch, pull=pull, record_every=record_every,
            watch=threshold is not None, stop=stop, n_captures=len(captures),
            captures=_ptr(captures, np.int64), nbr_start=_ptr(starts, np.int64),
            nbr_idx=_ptr(idx, np.int64), X=_ptr(X), S=_ptr(S), captured=_ptr(captured),
            work=_ptr(work), G=_ptr(G), coef=_ptr(coef), Q=_ptr(Q), b=_ptr(b),
            x_tilde=_ptr(x_tilde), x_star=_ptr(x_star), tg=tg, sine_coef=sine_coef, ga=ga,
            inv_n=inv_n, threshold=math.nan if threshold is None else threshold,
            f_star=f_star, rho=spec.rho or 0.0,
        )
        ref = ctypes.byref(run)

        def covered(n_run, threads, feat, targ, shift) -> bool:
            """Whether the block's arrays hold what its updates read, so the
            kernel touches nothing outside them."""
            oracle = (
                _fits(feat, (n_run * batch, dim)) and _fits(targ, (n_run * batch,))
                if kind == RIDGE else _fits(shift, (n_run, dim))
            )
            return (
                oracle and len(threads) == n_run
                and (not n_run or 0 <= threads.min() <= threads.max() < rows)
            )

        def step(n_run, k0, ends, threads, feat, targ, shift):
            threads = np.ascontiguousarray(threads[:n_run], dtype=np.int64)
            if not covered(n_run, threads, feat, targ, shift):
                raise ValueError("a block's arrays do not cover its updates")
            # the record points, the start, a crossing and the run's end
            cap = (k0 + n_run) // record_every - k0 // record_every + (k0 == 0) + run.watch + ends
            states, records, ks = np.empty((cap, rows, dim)), np.empty((cap, 4)), np.empty(
                cap, dtype=np.int64
            )
            n = fn(
                ref, n_run, k0, ends, _ptr(threads, np.int64), _ptr(feat), _ptr(targ), _ptr(shift),
                _ptr(states), _ptr(records), _ptr(ks, np.int64),
            )
            return ks[:n].tolist(), states[:n], records[:n].tolist(), run.hit

        # those the pointers name
        step.arrays = (run, X, S, G, coef, captures, captured, starts, idx, work, x_star, Q, b,
                       x_tilde)
        return step

    # metrics imports objective, which imports this module.
    from . import metrics

    coef = [float(c) for c in coef]
    captures = [int(c) for c in captures]
    watch, hit, next_capture = threshold is not None, 0, 0

    def step(n_run, k0, ends, threads, feat, targ, shift):
        nonlocal watch, hit, next_capture
        ks, kept = [], []
        if k0 == 0:
            ks.append(0)
            kept.append(X.copy())
        for j in range(n_run):
            if next_capture < len(captures) and captures[next_capture] == k0 + j:
                captured[next_capture] = S * inv_n
                next_capture += 1
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
                d += ga * np.cumsum(X[idx[starts[i] : starts[i + 1]]], axis=0)[-1]
            x += d
            np.add(S, d, out=S)
            k = k0 + j + 1
            crossed = watch and bool(
                metrics.watched_errors(spec, x_star, S[None] * inv_n)[0] <= threshold
            )
            if crossed:
                watch, hit = False, k
            if crossed or k % record_every == 0 or ends and j + 1 == n_run:
                ks.append(k)
                kept.append(X.copy())
            if crossed and stop:
                break
        if ends and not n_run and k0 % record_every and k0 != hit:
            ks.append(k0)
            kept.append(X.copy())
        states, records = np.array(kept).reshape(len(kept), rows, dim), []
        if ks:
            snap = metrics.snapshot(states, spec, x_star, f_star)
            records = np.column_stack((snap.U, snap.Vbar, snap.f_gap, snap.grad_norm_sq)).tolist()
        return ks, states, records, hit

    return step
