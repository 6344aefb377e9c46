"""Simulation engine for asynchronous swarm descent and its baseline.

Three schemes share one timing model in which every gradient sample
takes an exponentially distributed time with a common mean:

- ``swarm_event_driven``: each thread updates the moment its own sample
  finishes; pending completions live in a priority queue keyed by fire
  time, with thread id breaking exact ties.
- ``swarm_global_tick``: statistically equivalent shortcut justified by
  memorylessness of the exponential clock; a single global clock fires
  with the minimum-of-N rate and a uniformly chosen thread updates.
- ``centralized``: all threads sample at the shared iterate and a batch
  step is applied once the slowest sample arrives, so each step costs
  the maximum of N exponential durations.

Updates move a thread down its sampled gradient and, for the swarm
schemes, toward its graph neighbors with a configurable attraction
strength. Virtual time, not update count, is the cost measure the
schemes are compared on.

The function called picks the scheme: ``run_swarm``,
``run_swarm_global_tick`` or ``run_centralized``. Every run draws from
one generator seeded with ``config.seed``. All three schemes share one
update loop and draw their randomness in whole blocks, so a run cut off
earlier is an exact prefix of a longer run with the same seed. The
event-driven scheme first draws the N initial sampling durations, then
per block of ``BLOCK_ROWS`` updates the durations of the samples the
block's updates start, then the block's oracle noise
(``objective.draw_noise_block``). The global-tick scheme
draws per block the inter-update gaps, the updating threads, then the
oracle noise. The centralized scheme draws per block of
``max(1, BATCH_SAMPLES // N)`` steps the N sampling durations of every
step, then the oracle noise of all the block's samples.

The monitors are evaluated once per block, after the block's updates
are computed: the first threshold crossing and the captured means read
the block's sum trajectory, and every record waits for the crossing
test, holding a copy of the positions. The update loop itself only
moves rows. ``on_record`` is called in k order, with a copy of the
positions after that update that the engine never writes again.
"""
from __future__ import annotations

import bisect
import heapq
import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from . import objective as obj
from . import topology
from ._ranges import COUNT, NONNEGATIVE, POSITIVE, Range, args, check
from .randomness import make_rng, sampling_durations

SCHEME_SWARM = "swarm_event_driven"
SCHEME_GLOBAL_TICK = "swarm_global_tick"
SCHEME_CENTRALIZED = "centralized"
SCHEMES = (SCHEME_SWARM, SCHEME_GLOBAL_TICK, SCHEME_CENTRALIZED)

TRACE_CSV_HEADER = "k,t,U,Vbar,f_gap,grad_norm_sq"

# Swarm updates whose randomness is drawn at once: large enough to take
# the generator calls out of the per-update cost, small enough that the
# drawn block stays in cache.
BLOCK_ROWS = 256
# Oracle samples a centralized block draws at once: BATCH_SAMPLES // N
# steps of N samples each, 0.8 MB of ridge features at dim 100.
BATCH_SAMPLES = 1024


class EngineInvariantError(RuntimeError):
    """An internal simulation invariant was violated."""


class DivergenceError(RuntimeError):
    """A run of scheme ``scheme`` went non-finite by update ``k``, virtual
    time ``t``: a record's dispersion or gradient norm, or the swarm sum
    at the end of a block."""

    def __init__(self, scheme: str, k: int, t: float) -> None:
        super().__init__(scheme, k, t)  # the args are what pickling keeps
        self.scheme, self.k, self.t = scheme, k, t

    def __str__(self) -> str:
        return f"{self.scheme} run diverged at update {self.k} (t={self.t!r})"


# The range of each numeric RunConfig field but the capture indices.
RANGES = {
    **dict.fromkeys(("n_threads", "max_updates", "record_every"), COUNT),
    **dict.fromkeys(("step_size", "mean_sample_time", "max_virtual_time", "threshold"), POSITIVE),
    "attraction": NONNEGATIVE,
    "seed": Range(-math.inf, math.inf, "an integer", integer=True),
}
_OPTIONAL = ("max_updates", "max_virtual_time", "threshold")  # may also be None
# the range of each capture index
_CAPTURE = {"capture_mean_at": Range(0, math.inf, "an integer at least 0", integer=True)}


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one simulation run of any scheme; the function the
    config is passed to picks the scheme.

    Exactly one horizon must be set: the run stops at ``max_updates``
    global updates, or when the next event would pass
    ``max_virtual_time``. ``threshold`` arms first-crossing
    detection on the squared error of the swarm mean (gradient norm
    squared when no optimum is known); ``capture_mean_at`` stores the
    swarm mean right before the listed update indices, so capturing
    ``range(K)`` gives the running average of the first K means.
    ``RANGES`` gives the range of each numeric field; the counts, the
    capture indices and ``seed`` are integers.

    The records, the crossing and the captures are evaluated once per
    block of updates. ``on_record`` sees k strictly increasing and a
    copy of the positions after update k, which it may keep; it is
    called once the block's updates are computed.
    """

    n_threads: int
    step_size: float
    attraction: float
    mean_sample_time: float
    seed: int
    max_updates: int | None = None
    max_virtual_time: float | None = None
    record_every: int = 100
    threshold: float | None = None
    stop_at_threshold: bool = False
    capture_mean_at: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        names = [n for n in RANGES if n not in _OPTIONAL or getattr(self, n) is not None]
        check(args(RANGES, *names), [getattr(self, n) for n in names])
        check(args(_CAPTURE, "capture_mean_at") * len(self.capture_mean_at), self.capture_mean_at)
        if (self.max_updates is None) == (self.max_virtual_time is None):
            raise ValueError(
                "exactly one horizon is required: set max_updates or max_virtual_time"
            )
        if self.stop_at_threshold and self.threshold is None:
            raise ValueError("stop_at_threshold requires a threshold")


@dataclass(frozen=True)
class TraceRecord:
    k: int
    t: float
    U: float
    Vbar: float
    f_gap: float
    grad_norm_sq: float


@dataclass(frozen=True)
class RunSummary:
    T_hit: float | None
    threshold: float | None
    final_U: float
    final_Vbar: float
    final_f_gap: float
    final_grad_norm_sq: float
    seed: int
    scheme: str
    n_updates: int
    n_samples: int
    virtual_time: float
    wall_time: float
    hit_update: int | None
    per_thread_update_counts: tuple[int, ...] | None


@dataclass
class Trace:
    records: list[TraceRecord]
    summary: RunSummary
    captured_means: dict[int, np.ndarray] = field(default_factory=dict)


def _swarm_positions(config: RunConfig, graph, dim: int, init: np.ndarray | None) -> np.ndarray:
    check([("n_threads", *topology.RANGES["n"])], [config.n_threads])
    if graph.n_vertices != config.n_threads:
        raise ValueError(
            f"graph has {graph.n_vertices} vertices for {config.n_threads} threads"
        )
    return _positions(init, (config.n_threads, dim))


def _positions(init: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray:
    """Start positions: zeros, or a float copy of ``init`` checked for
    shape and finiteness."""
    if init is None:
        return np.zeros(shape)
    X = np.array(init, dtype=float)
    if X.shape != shape:
        raise ValueError(f"init has shape {X.shape}, expected {shape}")
    if not np.isfinite(X).all():
        raise ValueError("init has a non-finite entry")
    return X


def _event_schedule(n_threads: int, mean_time: float, rng: np.random.Generator):
    """Who fires when in the event-driven scheme, a block at a time.

    A heap holds every thread's pending completion as (fire_time,
    thread_id), thread id breaking exact ties; the firing thread starts
    a new sample whose duration is the next pre-drawn one. Fire times
    never depend on positions, so a whole block is popped ahead of the
    updates that consume it. Yields (fire times, thread ids) lists.
    """
    # A thread's first fire time is the duration of the sample it
    # starts computing at t = 0.
    first = sampling_durations(rng, mean_time, n_threads).tolist()
    heap = [(t, i) for i, t in enumerate(first)]
    heapq.heapify(heap)
    while True:
        times: list[float] = []
        threads: list[int] = []
        for duration in sampling_durations(rng, mean_time, BLOCK_ROWS).tolist():
            t, i = heap[0]
            heapq.heapreplace(heap, (t + duration, i))
            times.append(t)
            threads.append(i)
        yield times, threads


def _tick_schedule(n_threads: int, mean_time: float, rng: np.random.Generator):
    """Who fires when in the global-tick scheme: gaps exponential with
    mean ``mean_time / N``, the updating thread uniform. Yields (fire
    times, thread ids) lists, one block at a time."""
    clock = 0.0
    while True:
        gaps = sampling_durations(rng, mean_time / n_threads, BLOCK_ROWS)
        threads = rng.integers(n_threads, size=BLOCK_ROWS).tolist()
        # cumsum adds one gap at a time, as a scalar clock would.
        times = np.cumsum(np.concatenate(([clock], gaps)))[1:].tolist()
        clock = times[-1]
        yield times, threads


def _batch_schedule(n_threads: int, mean_time: float, rng: np.random.Generator):
    """Who moves when in the centralized scheme: a step ends when the
    slowest of its N samples arrives, and the row that moves is always
    the shared iterate, row 0. Yields (step end times, rows) lists of
    ``max(1, BATCH_SAMPLES // N)`` steps at a time."""
    steps = max(1, BATCH_SAMPLES // n_threads)
    rows = [0] * steps
    clock = 0.0
    while True:
        durations = sampling_durations(rng, mean_time, steps * n_threads)
        slowest = durations.reshape(steps, n_threads).max(axis=1)
        times = np.cumsum(np.concatenate(([clock], slowest)))[1:].tolist()
        clock = times[-1]
        yield times, rows


# A diverging run is reported by its DivergenceError, not by numpy's
# warnings on the way there.
@np.errstate(over="ignore", invalid="ignore")
def _run_loop(scheme, config, spec, X, graph, on_record, schedule) -> Trace:
    """The update loop of all three schemes; ``scheme`` names the run.

    ``schedule`` yields blocks of (fire times, rows of ``X`` that move).
    A swarm thread ``i`` moves by ``-gamma (g + a sum_j a_ij (x_i -
    x_j))`` with ``g`` one oracle sample at ``x_i``; with ``graph`` None
    the single row of ``X`` is the centralized iterate and ``g`` the
    mean of N samples. Every term linear in the moving row is folded
    into one coefficient per row, so an update costs the oracle's own
    vector work, one neighbour sum and a few in-place vector operations.

    The monitors run once per block. The block is cut up front at the
    horizon and the budget; the updates run one record interval at a
    time, storing their deltas and a copy of the positions at each
    record point. One cumsum over [sum at block start; deltas] repeats
    the sequential adds of ``sum_vec += delta``, so the crossing test
    and the captures read the exact sums. A crossing is screened
    row-wise and confirmed in order with the exact per-update test; its
    state is rebuilt by re-adding the deltas to a copy of the block's
    start. The records, the crossing record and ``on_record`` follow in
    k order, each on its own copy, and a run that stops at the crossing
    records nothing after it.
    """
    N = config.n_threads
    gamma = config.step_size
    rng = make_rng(config.seed)
    blocks = schedule(N, config.mean_sample_time, rng)
    # Oracle samples per update, whose mean the update applies.
    batch = 1 if graph is not None else N
    single = batch == 1

    kind = spec.kind
    if kind == obj.RIDGE:
        # g = 2 (u . x - c) u + 2 rho x; a mean over N samples scales
        # the data term by 1/N.
        linear = 2.0 * spec.rho
        two_gamma = 2.0 * gamma / batch
    elif kind == obj.QUADRATIC:
        # g = Q x + b + noise
        linear = 0.0
        neg_gamma_Q = -gamma * spec.Q
        neg_gamma_b = -gamma * spec.b
    else:
        # nonconvex_sine: g = x + 3 sin(2x) + noise
        linear = 1.0
        sine_coef = -3.0 * gamma

    # The centralized iterate is one row with no neighbours and no pull.
    rows = X.shape[0]
    a = 0.0 if graph is None else config.attraction
    gamma_a = gamma * a
    complete = graph is None or int(graph.degrees.min()) == N - 1
    if complete:
        # On the complete graph sum_j (x_i - x_j) = N x_i - sum_vec.
        x_coef = [-gamma * (linear + a * rows)] * rows
    else:
        x_coef = [-gamma * (linear + a * d) for d in graph.degrees.tolist()]
        neighbors = [np.flatnonzero(graph.adjacency[i]) for i in range(N)]
        neighbor_weights = [np.full(idx.size, gamma_a) for idx in neighbors]

    # The monitors: records, the first threshold crossing, captured means.
    x_star = obj.optimum(spec)
    f_star = obj.optimal_value(spec)
    records: list[TraceRecord] = []
    T_hit = hit_update = None
    watch = config.threshold is not None
    threshold = config.threshold
    captures = deque(sorted(set(config.capture_mean_at)))
    captured: dict[int, np.ndarray] = {}
    started = time.perf_counter()

    def record(k: int, t: float, positions: np.ndarray) -> None:
        """Record the state after update ``k``, once; a non-finite record
        ends the run with a DivergenceError."""
        if records and records[-1].k == k:
            return
        snap = metrics.snapshot(positions, spec, x_star, f_star)
        if not (math.isfinite(snap.Vbar) and math.isfinite(snap.grad_norm_sq)):
            raise DivergenceError(scheme, k, t)
        records.append(TraceRecord(k, t, snap.U, snap.Vbar, snap.f_gap, snap.grad_norm_sq))
        if on_record is not None:
            on_record(k, t, positions)

    record(0, 0.0, X.copy())

    counts = np.zeros(rows, dtype=np.int64)
    sum_vec = X.sum(axis=0)
    # The update itself reads sum_vec only for the pull on the complete graph.
    pull_reads_sum = complete and gamma_a != 0.0
    inv_n = 1.0 / rows
    clock = 0.0
    k = 0
    max_updates = math.inf if config.max_updates is None else config.max_updates
    max_virtual_time = math.inf if config.max_virtual_time is None else config.max_virtual_time
    record_every = config.record_every
    take = X.take
    sin = np.sin

    for times, threads in blocks:
        n = len(times)
        # Update j draws the samples j*batch .. j*batch + batch - 1.
        features, noise = obj.draw_noise_block(spec, n * batch, rng)
        if kind == obj.RIDGE:
            scaled_targets = two_gamma * noise
            if single:
                scaled_targets = scaled_targets.tolist()
            else:
                features = features.reshape(n, batch, spec.dim)
                scaled_targets = scaled_targets.reshape(n, batch)
        else:
            if not single:
                noise = noise.reshape(n, batch, spec.dim).mean(axis=1)
            shifts = -gamma * noise
            if kind == obj.QUADRATIC:
                shifts += neg_gamma_b
        if times[0] < clock or times != sorted(times):
            raise EngineInvariantError("event fires before the current clock")
        # A step still in flight at the horizon is not applied, nor its
        # samples counted.
        n_run = min(bisect.bisect_right(times, max_virtual_time), max_updates - k)
        ends = n_run < n or k + n_run >= max_updates

        # The block keeps its deltas, and sum_vec becomes the last row of
        # its sum trajectory; only the complete-graph pull, which reads
        # sum_vec, adds to it at each update.
        k0 = k
        deltas = [sum_vec.copy()]
        keep = deltas.append
        start_X = X.copy()
        pending: list[tuple[int, float, np.ndarray]] = []

        # The updates, one record interval at a time.
        seg_start = 0
        while seg_start < n_run:
            seg_end = min(n_run, seg_start + record_every - k % record_every)
            for j in range(seg_start, seg_end):
                i = threads[j]
                xi = X[i]
                if kind == obj.RIDGE:
                    # One sample: r u; N samples: (2 gamma / N) (c - U x)' U.
                    u = features[j]
                    r = scaled_targets[j] - two_gamma * u.dot(xi)
                    delta = u * r if single else r.dot(u)
                elif kind == obj.QUADRATIC:
                    delta = neg_gamma_Q.dot(xi)
                    delta += shifts[j]
                else:
                    delta = sin(xi * 2.0)
                    delta *= sine_coef
                    delta += shifts[j]
                coef = x_coef[i]
                if coef:
                    delta += xi * coef
                if gamma_a:
                    if complete:
                        delta += sum_vec * gamma_a
                    else:
                        delta += neighbor_weights[i].dot(take(neighbors[i], axis=0))
                xi += delta
                if pull_reads_sum:
                    sum_vec += delta
                keep(delta)
            seg_start = seg_end
            k = k0 + seg_end
            if k % record_every == 0:
                # Records wait for the watch, which may cross before them.
                pending.append((k, times[seg_end - 1], X.copy()))

        n_done = n_run
        # Row j is the sum after k0 + j updates: cumsum adds one delta at
        # a time, as sum_vec += delta does.
        trajectory = np.cumsum(np.array(deltas), axis=0)
        sum_vec = trajectory[n_run]
        if watch:
            # Screen every row at once, then confirm the candidates in
            # order with the exact test: the squared error of the swarm
            # mean, or its squared gradient norm when no optimum is known.
            # The screen's margin covers its different rounding.
            means = trajectory[1:] * inv_n
            if x_star is None:
                means = obj.grad_exact_rows(spec, means)
            else:
                means -= x_star
            hit = None
            screened = np.einsum("ij,ij->i", means, means) <= threshold * (1.0 + 1e-9)
            for j in np.flatnonzero(screened).tolist():
                m = trajectory[j + 1] * inv_n
                if x_star is None:
                    m = obj.grad_exact(spec, m)
                else:
                    m -= x_star
                if m.dot(m) <= threshold:
                    hit = j + 1
                    break
            if hit is not None:
                # The state at the crossing: the block's deltas re-added
                # to its start, in order.
                for j in range(hit):
                    start_X[threads[j]] += deltas[j + 1]
                T_hit, hit_update, watch = times[hit - 1], k0 + hit, False
                # The crossing is recorded in k order. A run that stops
                # there records nothing after it: its final record is
                # the crossing's.
                later = [p for p in pending if p[0] > hit_update]
                pending = [p for p in pending if p[0] < hit_update]
                pending.append((hit_update, T_hit, start_X))
                if config.stop_at_threshold:
                    n_done, ends = hit, True
                else:
                    pending += later
        for args in pending:
            record(*args)
        # Update k draws its capture before it moves.
        while captures and captures[0] < k0 + n_done:
            c = captures.popleft()
            captured[c] = trajectory[c - k0] * inv_n
        if graph is not None:
            counts += np.bincount(threads[:n_done], minlength=rows)
        k = k0 + n_done
        if n_done:
            clock = times[n_done - 1]
        if ends:
            break
        # A run that diverges between records stops at its block's end.
        if not np.isfinite(sum_vec).all():
            raise DivergenceError(scheme, k, clock)

    record(k, clock, X.copy())
    final = records[-1]
    summary = RunSummary(
        T_hit=T_hit,
        threshold=threshold,
        final_U=final.U,
        final_Vbar=final.Vbar,
        final_f_gap=final.f_gap,
        final_grad_norm_sq=final.grad_norm_sq,
        seed=config.seed,
        scheme=scheme,
        n_updates=k,
        n_samples=k * batch,
        virtual_time=clock,
        wall_time=time.perf_counter() - started,
        hit_update=hit_update,
        per_thread_update_counts=None if graph is None else tuple(counts.tolist()),
    )
    return Trace(records=records, summary=summary, captured_means=captured)


def run_swarm(
    config: RunConfig,
    graph: topology.Graph,
    spec: obj.ObjectiveSpec,
    init: np.ndarray | None = None,
    on_record=None,
) -> Trace:
    """Event-driven swarm run over an interaction graph."""
    X = _swarm_positions(config, graph, spec.dim, init)
    return _run_loop(SCHEME_SWARM, config, spec, X, graph, on_record, _event_schedule)


def run_swarm_global_tick(
    config: RunConfig,
    graph: topology.Graph,
    spec: obj.ObjectiveSpec,
    init: np.ndarray | None = None,
    on_record=None,
) -> Trace:
    """Global-tick swarm run.

    Inter-update gaps are exponential with mean ``mean_sample_time / N``
    and the updating thread is uniform, which matches the event-driven
    scheme in distribution. Per block of ``BLOCK_ROWS`` updates the
    stream is consumed in the order: gaps, thread indices, oracle noise.
    """
    X = _swarm_positions(config, graph, spec.dim, init)
    return _run_loop(SCHEME_GLOBAL_TICK, config, spec, X, graph, on_record, _tick_schedule)


def run_centralized(
    config: RunConfig,
    spec: obj.ObjectiveSpec,
    init: np.ndarray | None = None,
    on_record=None,
) -> Trace:
    """Synchronized batch baseline.

    Every step draws one gradient sample per thread at the shared
    iterate and applies their average; the step duration is the maximum
    of the N sampling times, so a step of the baseline is exactly one
    synchronized round. ``init`` is the shared start point of shape
    (dim,); records and ``on_record`` see it as a (1, dim) array. Per
    block of ``max(1, BATCH_SAMPLES // N)`` steps the stream order is:
    the N sampling durations of every step, then the oracle noise of
    all the block's samples. The attraction is not used.
    """
    x = _positions(init, (spec.dim,))
    return _run_loop(SCHEME_CENTRALIZED, config, spec, x[None, :], None, on_record, _batch_schedule)


def write_trace_csv(trace: Trace, path: str) -> None:
    """Write trace records with full float round-trip precision."""
    lines = [TRACE_CSV_HEADER]
    for r in trace.records:
        lines.append(f"{r.k},{r.t!r},{r.U!r},{r.Vbar!r},{r.f_gap!r},{r.grad_norm_sq!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
