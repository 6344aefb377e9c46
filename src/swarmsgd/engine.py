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

A run is one loop over its schedule: per block it draws the oracle
noise, cuts the block at the horizon and the budget, and runs it in one
kernel step, which after each update tests the threshold watch on the
swarm sum it keeps, captures the listed means, and copies and evaluates
the state at each record point. One ``_Monitor`` keeps the books: the
update count and clock, the crossing, and the records, which wait until
at least ``BLOCK_ROWS`` updates are pending, or a crossing, a divergence
or the run's end; then ``on_record`` is handed their stacked positions,
never written again, in one call.

The update arithmetic, the watch, the record metrics and the event heap
run in ``_kernel``: one C function per block, in one stated summation
order, or where no C compiler builds it its numpy twin, which gives the
same bits. So neither the trajectories nor the records depend on the
BLAS build.
"""
from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
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
    # A step draws N durations and N feature rows; the top is the swarm's.
    "n_threads": Range(1, 4096, "an integer from 1 to 4096", integer=True),
    "max_updates": COUNT,
    # The kernel holds the record step and each capture index in an int64.
    "record_every": Range(1, 2**63 - 1, "an integer from 1 to 2**63 - 1", integer=True),
    **dict.fromkeys(("step_size", "mean_sample_time", "max_virtual_time", "threshold"), POSITIVE),
    "attraction": NONNEGATIVE,
    "seed": Range(-math.inf, math.inf, "an integer", integer=True),
}
_OPTIONAL = ("max_updates", "max_virtual_time", "threshold")  # may also be None
# the range of each capture index
_CAPTURE = {"capture_mean_at": Range(0, 2**63 - 1, "an integer from 0 to 2**63 - 1", integer=True)}


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

    The crossing is tested after every update, and each record is
    evaluated as ``metrics.snapshot`` would. The records wait until at
    least ``BLOCK_ROWS`` updates are pending, or a crossing, a divergence
    or the run's end. ``on_record(ks, ts, states)`` is then handed them:
    their update counts k and virtual times t, and the (R, N, dim) stack
    of the positions after each update k, never written again, which it
    may keep. Over the calls k strictly increases and ends at the final
    record. A record that is not finite ends the run with a
    ``DivergenceError`` once the stack rows before it are handed over.
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
        gap = self.mean_sample_time / self.n_threads  # the global tick's mean gap
        check([("mean_sample_time / n_threads", *POSITIVE)], [gap])


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


def _event_schedule(n_threads: int, mean_time: float, rng: np.random.Generator):
    """Who fires when in the event-driven scheme, a block at a time.

    A heap holds every thread's pending completion as (fire_time,
    thread_id), thread id breaking exact ties; the firing thread starts
    a new sample whose duration is the next pre-drawn one. Fire times
    never depend on positions, so a whole block is popped ahead of the
    updates that consume it. Yields (fire times list, thread ids array).
    """
    # A thread's first fire time is the duration of the sample it
    # starts computing at t = 0.
    pop_block = _kernel.event_heap(sampling_durations(rng, mean_time, n_threads))
    while True:
        yield pop_block(sampling_durations(rng, mean_time, BLOCK_ROWS))


def _tick_schedule(n_threads: int, mean_time: float, rng: np.random.Generator):
    """Who fires when in the global-tick scheme: gaps exponential with
    mean ``mean_time / N``, the updating thread uniform. Yields (fire
    times list, thread ids array), one block at a time."""
    clock = 0.0
    while True:
        gaps = sampling_durations(rng, mean_time / n_threads, BLOCK_ROWS)
        threads = rng.integers(n_threads, size=BLOCK_ROWS)
        # cumsum adds one gap at a time, as a scalar clock would.
        times = np.cumsum(np.concatenate(([clock], gaps)))[1:].tolist()
        clock = times[-1]
        yield times, threads


def _batch_schedule(n_threads: int, mean_time: float, rng: np.random.Generator):
    """Who moves when in the centralized scheme: a step ends when the
    slowest of its N samples arrives, and the row that moves is always
    the shared iterate, row 0. Yields (step end times list, rows array)
    of ``max(1, BATCH_SAMPLES // N)`` steps at a time."""
    steps = max(1, BATCH_SAMPLES // n_threads)
    rows = np.zeros(steps, dtype=np.int64)
    clock = 0.0
    while True:
        durations = sampling_durations(rng, mean_time, steps * n_threads)
        slowest = durations.reshape(steps, n_threads).max(axis=1)
        times = np.cumsum(np.concatenate(([clock], slowest)))[1:].tolist()
        clock = times[-1]
        yield times, rows


class _Monitor:
    """One run's books, a block at a time: its update count ``k`` and
    ``clock``, records, first crossing, captured means and thread counts.

    The kernel step has recorded each block's states, the first
    crossing's among them, in k order, with their metrics. Record points
    stay pending until at least ``BLOCK_ROWS`` updates are, or until a
    crossing, a failed divergence check on the swarm sum ``S`` or the
    run's end; then the records are made and ``on_record`` is handed the
    stack. ``captures`` maps each capture's update count to the row the
    kernel step writes the mean before that update into.
    """

    def __init__(self, scheme, config, S, graph, on_record, optimum, captures) -> None:
        self.scheme, self.config, self.S, self.on_record = scheme, config, S, on_record
        self.optimum, self.captures = optimum, captures
        self.records: list[TraceRecord] = []
        self.T_hit = self.hit_update = None
        self.counts = None if graph is None else np.zeros(graph.n_vertices, dtype=np.int64)
        self.k, self.clock, self.started = 0, 0.0, time.perf_counter()
        # The pending record points, their state stacks, their metrics and
        # the updates since the last records.
        self.points, self.stacks, self.metrics, self.pending = [], [], [], 0

    def record(self) -> None:
        """Record the pending points in k order and hand their stacked
        states to ``on_record``; a non-finite record ends the run with a
        DivergenceError once the rows before it are handed over."""
        points, stacks, values = self.points, self.stacks, self.metrics
        self.points, self.stacks, self.metrics, self.pending = [], [], [], 0
        if not points:
            return
        n = 0  # the finite records
        for (k, t), (U, Vbar, f_gap, grad_norm_sq) in zip(points, values):
            if not (math.isfinite(Vbar) and math.isfinite(grad_norm_sq)):
                break
            # U stays the math.nan object, which compares equal to itself.
            self.records.append(TraceRecord(
                k, t, U if self.optimum else math.nan, Vbar, f_gap, grad_norm_sq
            ))
            n += 1
        if self.on_record is not None and n:
            states = stacks[0] if len(stacks) == 1 else np.concatenate(stacks)
            ks, ts = zip(*points[:n])
            self.on_record(ks, ts, states[:n])
        if n < len(points):
            raise DivergenceError(self.scheme, *points[n])

    def block(self, times, threads, n_done, ends, hit, ks, states, metrics) -> bool:
        """Monitor the block's first ``n_done`` updates, which start at
        update ``self.k``, and the states after the update counts ``ks``
        that the kernel step recorded with their ``metrics``, a [U, Vbar,
        f_gap, grad_norm_sq] list each; ``hit`` is the first crossing's
        update count, 0 before it, where a stopping run ends. True when
        the run ends with them."""
        k0 = self.k
        if ks:
            # A state at k0 is the start or the final state of a run whose
            # horizon falls before the block's first update.
            self.points += [(k, times[k - k0 - 1] if k > k0 else self.clock) for k in ks]
            self.stacks.append(states)
            self.metrics += metrics
        crossed = hit > k0
        if crossed:
            self.T_hit, self.hit_update = times[hit - k0 - 1], hit
            if self.config.stop_at_threshold:
                n_done, ends = hit - k0, True
        if self.counts is not None:
            self.counts += np.bincount(threads[:n_done], minlength=self.counts.size)
        self.k = k0 + n_done
        self.pending += n_done
        if n_done:
            self.clock = times[n_done - 1]
        # A run that diverges between records stops at its block's end,
        # once the records before it are made.
        diverged = not (ends or np.isfinite(self.S).all())
        if ends or crossed or diverged or self.pending >= BLOCK_ROWS:
            self.record()
        if diverged:
            raise DivergenceError(self.scheme, self.k, self.clock)
        return ends

    def trace(self, batch: int) -> Trace:
        """The run's trace, once its last block is monitored; ``batch`` is
        the oracle samples per update."""
        final = self.records[-1]
        summary = RunSummary(
            T_hit=self.T_hit, threshold=self.config.threshold, final_U=final.U,
            final_Vbar=final.Vbar, final_f_gap=final.f_gap, final_grad_norm_sq=final.grad_norm_sq,
            seed=self.config.seed, scheme=self.scheme, n_updates=self.k, n_samples=self.k * batch,
            virtual_time=self.clock, wall_time=time.perf_counter() - self.started,
            hit_update=self.hit_update,
            per_thread_update_counts=None if self.counts is None else tuple(self.counts.tolist()),
        )
        # Update c draws its capture before it moves.
        captured = {c: mean for c, mean in self.captures.items() if c < self.k}
        return Trace(records=self.records, summary=summary, captured_means=captured)


def _block_step(config, spec, X, S, batch, graph, x_star, f_star, captures, captured):
    """The ``_kernel.mover`` step of one run, ``step(n_run, k0, ends,
    threads, features, noise)``, which takes the oracle draws as
    ``objective.draw_noise_block`` returns them.

    ``X`` holds the positions, N swarm threads or the one centralized
    iterate, and ``S`` their sum row; an update applies the mean of
    ``batch`` oracle samples. A swarm thread ``i`` moves by ``-gamma (g +
    a sum_j a_ij (x_i - x_j))`` with ``g`` one oracle sample at ``x_i``;
    with ``graph`` None the single row is the centralized iterate and
    ``g`` the mean of N samples. Past the oracle's noise, an update is the
    oracle term, then ``coef x_i``, whose coefficient folds every term
    linear in ``x_i``, then with weight ``gamma a`` the sum of the
    neighbours' rows, or on the complete graph the swarm sum.
    """
    gamma, (rows, dim), kind = config.step_size, X.shape, spec.kind
    # The coefficient of x in g, past ridge's data term and quadratic's Q x.
    linear, code = {
        obj.RIDGE: (2.0 * (spec.rho or 0.0), _kernel.RIDGE),  # g = 2 (u . x - c) u + 2 rho x
        obj.QUADRATIC: (0.0, _kernel.QUADRATIC),  # g = Q x + b + noise
        obj.NONCONVEX_SINE: (1.0, _kernel.SINE),  # g = x + 3 sin(2x) + noise
    }[kind]
    G = np.ascontiguousarray(-gamma * spec.Q) if kind == obj.QUADRATIC else None
    two_gamma = 2.0 * gamma / batch  # a mean of N samples scales ridge's data term by 1/N

    # The centralized iterate is one row with no neighbours and no pull.
    a = 0.0 if graph is None else config.attraction
    neighbours = None
    if graph is None or int(graph.degrees.min()) == rows - 1:
        # On the complete graph sum_j (x_i - x_j) = N x_i - the sum row.
        coef = [-gamma * (linear + a * rows)] * rows
    else:
        coef = [-gamma * (linear + a * d) for d in graph.degrees.tolist()]
        # Row i's neighbours are idx[starts[i]:starts[i + 1]], in index order.
        neighbours = np.cumsum([0, *graph.degrees]), np.flatnonzero(graph.adjacency) % rows
    pull = (_kernel.PULL_NONE if not gamma * a
            else _kernel.PULL_SUM if neighbours is None else _kernel.PULL_NEIGHBOURS)
    step = _kernel.mover(
        X, S, kind=code, coef=coef, tg=two_gamma, sine_coef=-3.0 * gamma, ga=gamma * a, pull=pull,
        neighbours=neighbours, G=G, batch=batch, spec=spec, x_star=x_star, f_star=f_star,
        record_every=config.record_every, threshold=config.threshold,
        stop=config.stop_at_threshold, captures=captures, captured=captured,
    )

    def move(n_run, k0, ends, threads, features, noise):
        if kind == obj.RIDGE:
            return step(n_run, k0, ends, threads, features, two_gamma * noise, None)
        shifts = -gamma * (noise.reshape(-1, batch, dim).mean(axis=1) if batch > 1 else noise)
        if kind == obj.QUADRATIC:
            shifts -= gamma * spec.b
        return step(n_run, k0, ends, threads, None, None, shifts)

    return move


# A diverging run is reported by its DivergenceError, not by numpy's
# warnings on the way there.
@np.errstate(over="ignore", invalid="ignore")
def _run_loop(scheme, config, spec, init, graph, on_record, schedule) -> Trace:
    """One run of ``scheme`` from ``init``, zeros when None, whose shape is
    decided here once: with a graph, N rows of one oracle sample per
    update; without, the centralized row that averages N samples. The
    thread count, the graph's size and ``init`` are checked in that order.
    Each block of ``schedule``, fire times and moving rows of ``X``, is
    cut at the horizon and the budget, run and handed to the monitor."""
    N = config.n_threads
    if graph is None:
        rows, batch, shape = 1, N, (spec.dim,)
    else:
        check([("n_threads", *topology.RANGES["n"])], [N])
        if graph.n_vertices != N:
            raise ValueError(f"graph has {graph.n_vertices} vertices for {N} threads")
        rows, batch, shape = N, 1, (N, spec.dim)
    X = np.zeros((rows, spec.dim))
    if init is not None:
        start = np.array(init, dtype=float)
        if start.shape != shape:
            raise ValueError(f"init has shape {start.shape}, expected {shape}")
        if not np.isfinite(start).all():
            raise ValueError("init has a non-finite entry")
        X[:] = start
    # One solve of the optimum gives both; sine has none, and f* is 0.
    x_star = obj.optimum(spec)
    f_star = obj.optimal_value(spec) if x_star is None else obj.value(spec, x_star)
    S = X.sum(axis=0)
    captures = sorted(set(config.capture_mean_at))
    captured = np.empty((len(captures), spec.dim))
    monitor = _Monitor(
        scheme, config, S, graph, on_record, x_star is not None, dict(zip(captures, captured))
    )
    step = _block_step(config, spec, X, S, batch, graph, x_star, f_star, captures, captured)
    max_updates, max_time = config.max_updates or math.inf, config.max_virtual_time or math.inf
    rng = make_rng(config.seed)
    for times, threads in schedule(N, config.mean_sample_time, rng):
        # Update j draws the samples j*batch .. j*batch + batch - 1.
        features, noise = obj.draw_noise_block(spec, len(times) * batch, rng)
        if times[0] < monitor.clock or times != sorted(times):
            raise EngineInvariantError("event fires before the current clock")
        # A step still in flight at the horizon is not applied, nor its
        # samples counted.
        k = monitor.k
        n_run = min(bisect.bisect_right(times, max_time), max_updates - k)
        ends = n_run < len(times) or k + n_run == max_updates
        ks, states, metric_rows, hit = step(n_run, k, ends, threads, features, noise)
        if monitor.block(times, threads, n_run, ends, hit, ks, states, metric_rows):
            return monitor.trace(batch)


def run_swarm(
    config: RunConfig,
    graph: topology.Graph,
    spec: obj.ObjectiveSpec,
    init: np.ndarray | None = None,
    on_record=None,
) -> Trace:
    """Event-driven swarm run over an interaction graph."""
    return _run_loop(SCHEME_SWARM, config, spec, init, graph, on_record, _event_schedule)


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
    return _run_loop(SCHEME_GLOBAL_TICK, config, spec, init, graph, on_record, _tick_schedule)


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
    (dim,); records and ``on_record`` see it as a (1, dim) state. Per
    block of ``max(1, BATCH_SAMPLES // N)`` steps the stream order is:
    the N sampling durations of every step, then the oracle noise of
    all the block's samples. The attraction is not used.
    """
    return _run_loop(SCHEME_CENTRALIZED, config, spec, init, None, on_record, _batch_schedule)


def write_trace_csv(trace: Trace, path: str) -> None:
    """Write trace records with full float round-trip precision."""
    lines = [TRACE_CSV_HEADER]
    for r in trace.records:
        lines.append(f"{r.k},{r.t!r},{r.U!r},{r.Vbar!r},{r.f_gap!r},{r.grad_norm_sq!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
