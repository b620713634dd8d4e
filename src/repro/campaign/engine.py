"""The campaign engine: expand a spec, execute it, checkpoint, cache.

:func:`run_campaign` is the one entry point every batch workload routes
through — the Fig. 3 sweeps, the power sweeps, the fading ensembles of
Section IV and the ``repro scenarios run`` CLI. It expands the declarative
grid into per-protocol unit batches, evaluates them through a pluggable
executor, and stores the result array in a content-addressed cache so a
repeated spec costs one file read.

Execution is *chunked* whenever a cache is in play: the flat grid is
split at global chunk boundaries (:func:`repro.campaign.spec.chunk_ranges`)
and every completed chunk is written to the cache immediately, so an
interrupted or partially-failed campaign resumes from its checkpoints
instead of restarting. The same mechanism makes campaigns *shardable*:
``run_campaign(spec, shard=spec.shard(i, n))`` evaluates only shard
``i``'s slice of the grid, independent shard processes coordinate solely
through the shared cache directory, and :func:`gather_campaign` merges
their chunk artifacts into a result bitwise-identical to an unsharded
run (executors are bitwise-equivalent and chunking is elementwise, so
how the grid was partitioned can never change the numbers).

There is one chunk loop (:func:`_run_chunked`) for every executor: it
hands each round of missing chunks to
:func:`repro.campaign.executors.chunk_outcomes`, which runs them as
concurrent futures on a pool executor and one by one on any other. The
loop owns the cache lookup, the checkpoint write, the retry accounting
and the deadline rule; the one fault hook is
:meth:`repro.faults.FaultToken.apply`, which travels with each job.

:func:`evaluate_ensemble` is the lower-level building block for callers
that already hold concrete channel realizations (e.g. the Monte-Carlo
drivers, which own their RNG): one executor call over the draws, with
no cache. Cacheable, resumable ensembles are specs run through
:func:`run_campaign` (the ``fading-ensemble`` scenario).
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from concurrent.futures import BrokenExecutor
from contextlib import ExitStack, closing, contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..channels.power import NodePowers
from ..core.protocols import Protocol
from ..exceptions import (
    CampaignTimeoutError,
    ChunkRetryExhaustedError,
    IncompleteCampaignError,
    InvalidParameterError,
    RetryableChunkError,
)
from ..faults import FaultInjector, FaultPlan, FaultToken
from .cache import CampaignCache
from .executors import (
    AsyncExecutor,
    ChunkFailure,
    SerialExecutor,
    UnitBatch,
    VectorizedExecutor,
    chunk_outcomes,
    get_executor,
)
from .kernel import KERNEL_VERSION
from .spec import DEFAULT_CHUNK_SIZE, CampaignShard, CampaignSpec, chunk_ranges

#: Executors whose outputs are bitwise-verified against each other; only
#: their results may be written to the shared content-addressed cache.
#: A user-supplied executor still *reads* cache entries (they are ground
#: truth for the spec) but must not poison them.
_CACHE_TRUSTED_EXECUTORS = (
    SerialExecutor,
    VectorizedExecutor,
    AsyncExecutor,
)

__all__ = [
    "CampaignResult",
    "RetryPolicy",
    "run_campaign",
    "gather_campaign",
    "evaluate_ensemble",
]


@dataclass(frozen=True)
class RetryPolicy:
    """How the engine retries chunks that fail *retryably*.

    Retryable means :class:`~repro.exceptions.RetryableChunkError` or a
    broken process pool (:class:`concurrent.futures.BrokenExecutor`);
    every other exception is fatal and propagates on the first occurrence.
    The backoff before attempt ``k+1`` is the capped, deterministic
    ``min(backoff_cap, backoff_base * 2**(k-1))`` seconds — no jitter, so
    a replayed campaign retries on an identical schedule.  When the budget
    runs out the engine raises
    :class:`~repro.exceptions.ChunkRetryExhaustedError` naming the chunk;
    chunks that already completed stay checkpointed in the cache.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise InvalidParameterError(
                f"need at least one attempt, got {self.max_attempts}"
            )
        if self.backoff_base < 0.0 or self.backoff_cap < 0.0:
            raise InvalidParameterError("backoff times must be >= 0")

    def delay(self, failures: int) -> float:
        """Seconds to wait after the ``failures``-th consecutive failure."""
        if failures < 1:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * 2 ** (failures - 1))


DEFAULT_RETRY_POLICY = RetryPolicy()

#: Failures the engine is allowed to retry; everything else is fatal.
_RETRYABLE_ERRORS = (RetryableChunkError, BrokenExecutor)


@dataclass
class _ExecutionContext:
    """Per-run fault, retry and deadline state threaded through the chunk loop."""

    plan: FaultPlan | None = None
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    deadline: float | None = None
    chunk_retries: int = 0


def _resolve_retry(retry) -> RetryPolicy:
    """Normalize the ``retry`` argument of :func:`run_campaign`."""
    if retry is None:
        return DEFAULT_RETRY_POLICY
    if isinstance(retry, RetryPolicy):
        return retry
    return RetryPolicy(max_attempts=int(retry))


def _check_deadline(ctx: _ExecutionContext, completed: int, total: int):
    """Abort at a chunk boundary once the campaign deadline has passed."""
    if ctx.deadline is not None and time.monotonic() >= ctx.deadline:
        raise CampaignTimeoutError(
            f"campaign deadline exceeded with {completed} of {total} cells "
            "evaluated; completed chunks are checkpointed, so rerunning "
            "resumes from them",
            completed=completed,
            total=total,
        )


def _chunk_jobs(tags, batches_for, plan, failures):
    """One round's chunk jobs, built only as the executor pulls them."""
    for tag in tags:
        token = None
        if plan is not None:
            token = FaultToken(plan, tag, failures.get(tag, 0))
        yield tag, batches_for(*tag), token


def _retry_exhausted(chunk, failures: int, error) -> ChunkRetryExhaustedError:
    lo, hi = chunk
    return ChunkRetryExhaustedError(
        f"chunk [{lo}, {hi}) still failing after {failures} attempts; "
        f"last error: {error}",
        chunk=chunk,
        attempts=failures,
    )


@dataclass(frozen=True)
class CampaignResult:
    """The evaluated campaign grid plus execution metadata.

    Attributes
    ----------
    spec:
        The spec that produced the values.
    values:
        Optimal sum rates, shape ``spec.grid_shape`` — the classic
        ``(protocols, powers, gains, draws)`` plus any extensible axes
        in spec order. For a shard run, cells outside the shard's unit
        range are ``NaN`` — the authoritative artifact of a shard run is
        the chunk entries it wrote to the cache, not this array.
    executor_name:
        Which executor computed the values ("cache" on a hit is *not*
        recorded — results are executor-independent by construction;
        ``"gather"`` marks a merge of shard artifacts).
    from_cache:
        Whether every evaluated cell was served from the on-disk store.
    elapsed_seconds:
        Wall-clock time of the evaluation (or cache read).
    shard:
        The grid slice this run evaluated (``None`` = the whole grid).
    cells_from_cache:
        Grid cells served from cached chunk or full entries.
    cells_computed:
        Grid cells freshly evaluated by the executor this run.
    unresolved_cells:
        Adaptive accounting: of the cells computed this run, how many
        exhausted their ``max_rounds`` budget without meeting
        ``target_rel_error`` (the silent-resolution bugfix). ``None``
        when unknown — the campaign is not adaptive, every cell came
        from cache (values alone cannot tell), or evaluation ran in
        worker processes outside the in-process tally.
    chunk_retries:
        Chunk dispatches that failed retryably and were re-dispatched
        this run (transient chunk errors, broken pools). Zero on a
        fault-free run; values are unaffected either way — a retried
        chunk recomputes the exact same numbers.
    pool_rebuilds:
        Broken process pools the executor replaced during this run (a
        dead worker breaks a ``concurrent.futures`` pool permanently).
        Completed chunks are never recomputed by a rebuild — they are
        already checkpointed in the cache.
    """

    spec: CampaignSpec
    values: np.ndarray
    executor_name: str
    from_cache: bool
    elapsed_seconds: float
    shard: CampaignShard | None = None
    cells_from_cache: int = 0
    cells_computed: int = 0
    unresolved_cells: int | None = None
    chunk_retries: int = 0
    pool_rebuilds: int = 0

    def _protocol_index(self, protocol: Protocol) -> int:
        try:
            return self.spec.protocols.index(protocol)
        except ValueError:
            raise InvalidParameterError(
                f"{protocol} is not part of this campaign"
            ) from None

    def _power_index(self, power_db: float) -> int:
        try:
            return self.spec.powers_db.index(float(power_db))
        except ValueError:
            raise InvalidParameterError(
                f"power {power_db} dB is not part of this campaign"
            ) from None

    def values_for(self, protocol: Protocol, power_db: float) -> np.ndarray:
        """Sum rates of one (protocol, power) slice.

        Shape ``(G, D)`` for a classic spec; specs with extensible axes
        keep those dimensions in front: ``(*extra, G, D)``.
        """
        return self.values[self._protocol_index(protocol), self._power_index(power_db)]

    def ergodic_mean(self, protocol: Protocol, power_db: float) -> float:
        """Ensemble/grid average sum rate of the slice."""
        return float(self.values_for(protocol, power_db).mean())

    def outage_rate(self, protocol: Protocol, power_db: float, epsilon: float) -> float:
        """ε-quantile of the slice's sum-rate distribution."""
        if not 0.0 <= epsilon <= 1.0:
            raise InvalidParameterError(
                f"outage level must lie in [0, 1], got {epsilon}"
            )
        return float(np.quantile(self.values_for(protocol, power_db), epsilon))

    def summary_rows(self, *, epsilon: float = 0.1) -> list:
        """Per (protocol, power) table rows for reports.

        Columns: protocol, power [dB], ergodic mean, std error, ε-outage
        rate, median.
        """
        rows = []
        for protocol in self.spec.protocols:
            for power_db in self.spec.powers_db:
                samples = self.values_for(protocol, power_db).ravel()
                std_error = (
                    float(samples.std(ddof=1) / np.sqrt(samples.size))
                    if samples.size > 1
                    else 0.0
                )
                rows.append(
                    [
                        protocol.name,
                        float(power_db),
                        float(samples.mean()),
                        std_error,
                        self.outage_rate(protocol, power_db, epsilon),
                        float(np.quantile(samples, 0.5)),
                    ]
                )
        return rows


@contextmanager
def _adaptive_tally(spec: CampaignSpec):
    """Install adaptive resolution accounting when the spec calls for it."""
    if spec.link is None or spec.link.target_rel_error is None:
        yield None
        return
    from ..simulation.montecarlo import collect_adaptive_accounting

    with collect_adaptive_accounting() as tally:
        yield tally


def _unresolved_count(tally, cells_computed: int) -> int | None:
    """Resolve the tally into a count, or ``None`` when it cannot be known.

    The tally only sees in-process evaluations; a process-pool executor
    computes cells the tally never observes, which shows up as a
    shortfall against ``cells_computed`` — reported as unknown rather
    than a wrong zero. All-cache runs are unknown too: cached values
    carry no resolution flags.
    """
    if tally is None or cells_computed == 0:
        return None
    if tally.adaptive_cells != cells_computed:
        return None
    return tally.unresolved_cells


def _cache_key(spec: CampaignSpec) -> str:
    return _hash_key(spec.spec_hash())


def _hash_key(spec_hash: str) -> str:
    """The store key of the spec whose content hash is ``spec_hash``."""
    return f"v{KERNEL_VERSION}-{spec_hash}"


def _resolve_cache(cache):
    """Normalize the ``cache`` argument of :func:`run_campaign`."""
    if cache is None or cache is False:
        return None
    if cache is True:
        return CampaignCache()
    if isinstance(cache, CampaignCache):
        return cache
    return CampaignCache(cache)


def _resolve_shard(spec: CampaignSpec, shard) -> CampaignShard | None:
    """Normalize the ``shard`` argument of :func:`run_campaign`."""
    if shard is None:
        return None
    if isinstance(shard, CampaignShard):
        if shard.spec != spec:
            raise InvalidParameterError("shard belongs to a different spec")
        return shard
    index, count = shard
    return spec.shard(int(index), int(count))


def _grid_batches(spec, flat_gains, start, stop):
    """Unit batches covering flat grid units ``[start, stop)``, in order.

    The flat C-order index factors as ``(block, channel)`` where a block
    fixes one value of every non-channel axis (protocol, power and each
    extensible axis) and a channel is one ``(geometry, draw)`` pair, so
    any contiguous range decomposes into one (possibly partial) piece
    per block. Block parameters come from :meth:`CampaignSpec.block_params`,
    which keeps this loop agnostic of how many axes the spec declares.

    Pieces are merged into one batch per maximal run of consecutive
    pieces sharing a protocol and a power layout: one shared power per
    unit, shape ``(n,)``, or per-node powers, shape ``(n, 3)``. The LP
    kernel then builds its tables once per protocol run (and bounds its
    own working set by slabs), and the fused link kernel decodes every
    power and extra-axis value of a protocol in one pipeline per wave;
    link specs reject per-node powers, so the layout never splits a link
    run. Units carry their own power and flat index, so the merge is a
    concatenation and cannot change a value.
    """
    n_channels = flat_gains.shape[0]
    runs = []
    for block in range(start // n_channels, (stop - 1) // n_channels + 1):
        lo = max(start, block * n_channels) - block * n_channels
        hi = min(stop, (block + 1) * n_channels) - block * n_channels
        protocol, power, gain_scale = spec.block_params(block)
        gab = flat_gains[lo:hi, 0]
        gar = flat_gains[lo:hi, 1]
        gbr = flat_gains[lo:hi, 2]
        if gain_scale is not None:
            gab = gab * gain_scale[0]
            gar = gar * gain_scale[1]
            gbr = gbr * gain_scale[2]
        indices = None
        if spec.link is not None:
            # Operational cells seed their simulations by flat grid index.
            base = block * n_channels
            indices = np.arange(base + lo, base + hi)
        if isinstance(power, NodePowers):
            # Allocation blocks carry an (n, 3) per-node power batch.
            power_array = np.tile(power.as_array(), (hi - lo, 1))
        else:
            power_array = np.full(hi - lo, power)
        piece = UnitBatch(
            protocol=protocol,
            gab=gab,
            gar=gar,
            gbr=gbr,
            power=power_array,
            link=spec.link,
            indices=indices,
        )
        if (
            runs
            and runs[-1][0].protocol == protocol
            and runs[-1][0].power.ndim == power_array.ndim
        ):
            runs[-1].append(piece)
        else:
            runs.append([piece])
    return [UnitBatch.concatenate(run) for run in runs]


def _run_chunked(
    key,
    unit_range,
    batches_for,
    meta,
    store,
    trusted,
    executor,
    chunk_size,
    progress,
    ctx=None,
):
    """Evaluate a flat unit range chunk by chunk, checkpointing each one.

    The engine's one chunk loop, for every executor. Every chunk is
    first looked up in ``store`` (a verified hit skips the executor
    entirely); the missing ones go to :func:`chunk_outcomes` as one lazy
    round of jobs. A pool executor runs them as concurrent futures
    (whichever worker frees up first steals the next chunk), an
    in-process one runs them in order; either way each finished chunk is
    checkpointed the moment its outcome arrives, when the executor is
    cache-trusted, and progress ticks once per chunk. Reassembly is by
    chunk range, so completion order cannot change the result.

    Failed chunks arrive as :class:`ChunkFailure` outcomes: retryable
    ones (transient chunk errors, a broken pool — by then healed by the
    executor) are re-submitted in the next round with per-chunk attempt
    accounting and deterministic backoff, everything else propagates
    immediately. Chunks that completed before a failure stay
    checkpointed either way. The deadline is checked before each round
    and after each outcome while chunks of the round remain; stopping
    early starts no further chunk. Retry, deadline and fault-injection
    state ride in ``ctx``. Returns ``(flat_values, cells_from_cache,
    cells_computed)``.
    """
    if ctx is None:
        ctx = _ExecutionContext()
    start, stop = unit_range
    total = stop - start
    ranges = chunk_ranges(start, stop, chunk_size)
    values_by_range = {}
    pending = []
    cells_from_cache = 0
    for lo, hi in ranges:
        values = store.load_chunk(key, lo, hi) if store is not None else None
        if values is None:
            pending.append((lo, hi))
        else:
            values_by_range[(lo, hi)] = values
            cells_from_cache += hi - lo
    done = cells_from_cache
    if progress is not None and total and (done or not pending):
        progress(done, total)
    cells_computed = 0
    failures: dict[tuple, int] = {}
    if pending:
        with ExitStack() as stack:
            reserve = getattr(executor, "reserve", None)
            if reserve is not None:
                stack.enter_context(reserve())
            while pending:
                _check_deadline(ctx, done, total)
                jobs = _chunk_jobs(pending, batches_for, ctx.plan, failures)
                remaining = len(pending)
                retry_tags = []
                with closing(chunk_outcomes(executor, jobs)) as outcomes:
                    for tag, outcome in outcomes:
                        remaining -= 1
                        if isinstance(outcome, ChunkFailure):
                            error = outcome.error
                            if not isinstance(error, _RETRYABLE_ERRORS):
                                raise error
                            count = failures.get(tag, 0) + 1
                            failures[tag] = count
                            if count >= ctx.policy.max_attempts:
                                raise _retry_exhausted(tag, count, error) from error
                            ctx.chunk_retries += 1
                            retry_tags.append(tag)
                        else:
                            lo, hi = tag
                            values_by_range[tag] = outcome
                            cells_computed += hi - lo
                            done += hi - lo
                            if store is not None and trusted:
                                store.store_chunk(key, lo, hi, outcome, meta)
                            if progress is not None:
                                progress(done, total)
                        if remaining:
                            _check_deadline(ctx, done, total)
                pending = retry_tags
                if pending:
                    delay = ctx.policy.delay(max(failures[t] for t in pending))
                    if delay > 0.0:
                        time.sleep(delay)
    flat = (
        np.concatenate([values_by_range[r] for r in ranges])
        if ranges
        else np.zeros(0)
    )
    return flat, cells_from_cache, cells_computed


def run_campaign(
    spec: CampaignSpec,
    *,
    executor=None,
    cache=None,
    progress=None,
    shard=None,
    chunk_size=None,
    fault_plan=None,
    retry=None,
    deadline=None,
) -> CampaignResult:
    """Evaluate a campaign spec end to end.

    Parameters
    ----------
    spec:
        The declarative grid to evaluate.
    executor:
        Executor name (``"serial"``, ``"vectorized"``, ``"async"`` or its
        alias ``"process"``) or instance; defaults to the vectorized fast
        path. The pool names evaluate chunk futures over a self-healing
        process pool; every name gives bitwise-identical values.
    cache:
        ``None``/``False`` disables caching, ``True`` uses the default
        cache directory, and a path or :class:`CampaignCache` selects an
        explicit store. Results are keyed by the spec hash, so any
        executor can serve any cache entry. With a cache, execution is
        chunked and every completed chunk is checkpointed immediately —
        an interrupted campaign resumes from cache instead of restarting.
    progress:
        Optional callable ``progress(done_units, total_units)`` invoked as
        evaluation advances (and once on a cache hit). A chunked run ticks
        once per completed chunk on every executor; the one-pass path (an
        in-process executor with no cache, shard, chunk size, fault plan
        or deadline) ticks at the executor's own granularity: once per
        protocol run on the vectorized executor, once per unit on the
        serial one. For a shard run the totals are shard-local.
    shard:
        ``None`` evaluates the whole grid. A :class:`CampaignShard` (or
        ``(index, count)`` pair, 0-based) evaluates only that balanced
        contiguous slice of the flat grid; combine with a shared ``cache``
        directory and :func:`gather_campaign` to split one campaign
        across processes or machines.
    chunk_size:
        Checkpoint granularity in grid cells (default
        :data:`repro.campaign.spec.DEFAULT_CHUNK_SIZE`). Chunk boundaries
        are aligned to the global grid, so all shards and the unsharded
        run produce interchangeable interior chunks.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` arming deterministic
        fault injection for this run (chaos testing only); defaults to
        the plan in the ``REPRO_FAULT_PLAN`` environment variable, or
        none. Injected faults never change values — a faulted run either
        completes bitwise-identical to the fault-free run or raises one
        typed error.
    retry:
        :class:`RetryPolicy` (or a bare ``max_attempts`` int) governing
        chunk retries on transient failures; defaults to three attempts
        with capped deterministic exponential backoff.
    deadline:
        Optional ``time.monotonic()`` timestamp after which the run
        aborts at the next chunk boundary with
        :class:`~repro.exceptions.CampaignTimeoutError`, on every
        executor; a pool's unstarted chunk futures are cancelled.
        Completed chunks stay checkpointed, and a fully-cached spec is
        still served even past the deadline (reads are cheap; only fresh
        compute is cut).
    """
    executor = get_executor(executor)
    store = _resolve_cache(cache)
    shard = _resolve_shard(spec, shard)
    if chunk_size is not None and chunk_size < 1:
        raise InvalidParameterError(f"chunk size must be positive, got {chunk_size}")
    plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
    ctx = _ExecutionContext(plan=plan, policy=_resolve_retry(retry), deadline=deadline)
    if plan is not None and store is not None and plan.has("torn-write"):
        store = store.with_injector(FaultInjector(plan))
    rebuilds_before = getattr(executor, "pool_rebuilds", 0)
    key = _cache_key(spec)

    started = time.perf_counter()
    if store is not None and (shard is None or shard.n_units > 0):
        cached = store.load(key)
        if cached is not None and cached.shape == spec.grid_shape:
            # A verified full entry serves any slice — including a shard
            # rerun whose chunk boundaries would not line up with the
            # entries on disk.
            if shard is None:
                values = cached
                served = spec.n_units
            else:
                lo, hi = shard.unit_range
                full = np.full(spec.n_units, np.nan)
                full[lo:hi] = cached.ravel()[lo:hi]
                values = full.reshape(spec.grid_shape)
                served = shard.n_units
            if progress is not None:
                progress(served, served)
            return CampaignResult(
                spec=spec,
                values=values,
                executor_name=executor.name,
                from_cache=True,
                elapsed_seconds=time.perf_counter() - started,
                shard=shard,
                cells_from_cache=served,
            )

    flat_gains = spec.sample_gain_draws().reshape(-1, 3)

    if (
        shard is None
        and store is None
        and chunk_size is None
        and plan is None
        and deadline is None
        and not hasattr(executor, "run_chunks")
    ):
        # Nothing to checkpoint, resume, inject or abort, and no pool to
        # heal: evaluate the grid in one pass in process. A pool executor
        # always takes the chunk loop, whose retry rounds recover a dead
        # worker.
        batches = _grid_batches(spec, flat_gains, 0, spec.n_units)
        with _adaptive_tally(spec) as tally:
            value_arrays = executor.run(batches, progress=progress)
        values = np.concatenate(value_arrays).reshape(spec.grid_shape)
        return CampaignResult(
            spec=spec,
            values=values,
            executor_name=executor.name,
            from_cache=False,
            elapsed_seconds=time.perf_counter() - started,
            cells_computed=spec.n_units,
            unresolved_cells=_unresolved_count(tally, spec.n_units),
        )

    unit_range = shard.unit_range if shard is not None else (0, spec.n_units)
    trusted = isinstance(executor, _CACHE_TRUSTED_EXECUTORS)

    def batches_for(lo: int, hi: int):
        return _grid_batches(spec, flat_gains, lo, hi)

    with _adaptive_tally(spec) as tally:
        flat, cells_from_cache, cells_computed = _run_chunked(
            key,
            unit_range,
            batches_for,
            spec.to_dict(),
            store,
            trusted,
            executor,
            chunk_size or DEFAULT_CHUNK_SIZE,
            progress,
            ctx,
        )

    if shard is None:
        values = flat.reshape(spec.grid_shape)
        if store is not None and (trusted or cells_computed == 0):
            store.store(key, values, spec.to_dict())
    else:
        lo, hi = unit_range
        full = np.full(spec.n_units, np.nan)
        full[lo:hi] = flat
        values = full.reshape(spec.grid_shape)

    total = unit_range[1] - unit_range[0]
    return CampaignResult(
        spec=spec,
        values=values,
        executor_name=executor.name,
        from_cache=total > 0 and cells_computed == 0,
        elapsed_seconds=time.perf_counter() - started,
        shard=shard,
        cells_from_cache=cells_from_cache,
        cells_computed=cells_computed,
        unresolved_cells=_unresolved_count(tally, cells_computed),
        chunk_retries=ctx.chunk_retries,
        pool_rebuilds=getattr(executor, "pool_rebuilds", 0) - rebuilds_before,
    )


def _uncovered_ranges(covered: np.ndarray):
    """Maximal ``(start, stop)`` runs of ``False`` in a coverage mask."""
    ranges = []
    run_start = None
    for index, is_covered in enumerate(covered):
        if not is_covered and run_start is None:
            run_start = index
        elif is_covered and run_start is not None:
            ranges.append((run_start, index))
            run_start = None
    if run_start is not None:
        ranges.append((run_start, covered.size))
    return tuple(ranges)


def gather_campaign(spec: CampaignSpec, cache=True) -> CampaignResult:
    """Merge shard chunk artifacts into the full campaign result.

    Reads every verified chunk entry under the spec's content key from
    ``cache``, reassembles the flat grid, stores the merged array as the
    campaign's full entry (so subsequent ``run_campaign`` calls hit it
    directly) and returns it. Because chunk entries are only ever written
    by bitwise-verified executors and chunking is elementwise, the merged
    result is bitwise-identical to an unsharded run of the same spec.

    Raises
    ------
    IncompleteCampaignError
        If the available chunks do not cover the whole grid; the
        exception's ``missing`` attribute lists the uncovered
        ``(start, stop)`` unit ranges.
    """
    store = _resolve_cache(cache)
    if store is None:
        raise InvalidParameterError("gather requires a cache directory")
    key = _cache_key(spec)

    started = time.perf_counter()
    cached = store.load(key)
    if cached is not None and cached.shape == spec.grid_shape:
        return CampaignResult(
            spec=spec,
            values=cached,
            executor_name="gather",
            from_cache=True,
            elapsed_seconds=time.perf_counter() - started,
            cells_from_cache=spec.n_units,
        )

    n_units = spec.n_units
    flat = np.zeros(n_units)
    covered = np.zeros(n_units, dtype=bool)
    for lo, hi, values in store.iter_chunks(key):
        if hi > n_units:
            continue  # stale entry from an older layout of this key
        flat[lo:hi] = values
        covered[lo:hi] = True
    if not covered.all():
        missing = _uncovered_ranges(covered)
        ranges_text = ", ".join(f"[{lo}, {hi})" for lo, hi in missing)
        raise IncompleteCampaignError(
            f"campaign {spec.spec_hash()[:12]} is missing "
            f"{int(n_units - covered.sum())} of {n_units} cells "
            f"(units {ranges_text}); run the remaining shards first",
            missing=missing,
        )

    values = flat.reshape(spec.grid_shape)
    store.store(key, values, spec.to_dict())
    return CampaignResult(
        spec=spec,
        values=values,
        executor_name="gather",
        from_cache=True,
        elapsed_seconds=time.perf_counter() - started,
        cells_from_cache=n_units,
    )


def evaluate_ensemble(
    protocol: Protocol,
    gains_ensemble,
    power,
    *,
    executor=None,
) -> np.ndarray:
    """Optimal sum rates of one protocol over concrete channel draws.

    Parameters
    ----------
    protocol:
        The protocol to evaluate.
    gains_ensemble:
        Iterable of :class:`~repro.channels.gains.LinkGains` (or an
        ``(n, 3)`` array of linear gains).
    power:
        Transmit power (linear): a scalar or per-draw ``(n,)`` array
        applies one shared power to every node; a
        :class:`~repro.channels.power.NodePowers`, a
        ``{"a": ..., "b": ..., "r": ...}`` mapping, or an ``(n, 3)``
        array in ``(a, b, r)`` order gives each node its own power.
    executor:
        Executor name or instance; defaults to the vectorized fast path.

    Returns
    -------
    np.ndarray
        One optimal sum rate per draw, in draw order.
    """
    executor = get_executor(executor)
    array = np.asarray(
        [
            (g.gab, g.gar, g.gbr) if hasattr(g, "gab") else tuple(g)
            for g in gains_ensemble
        ],
        dtype=float,
    )
    if array.ndim != 2 or array.shape[1] != 3:
        raise InvalidParameterError(
            f"expected an (n, 3) gain ensemble, got shape {array.shape}"
        )
    if isinstance(power, Mapping):
        power = NodePowers.from_mapping(power)
    if isinstance(power, NodePowers):
        power = np.tile(power.as_array(), (array.shape[0], 1))
    else:
        power = np.asarray(power, dtype=float)
        if power.ndim == 2:
            if power.shape != (array.shape[0], 3):
                raise InvalidParameterError(
                    f"a per-node power batch must have shape "
                    f"({array.shape[0]}, 3) in (a, b, r) order, got "
                    f"{power.shape}"
                )
            power = power.copy()
        else:
            power = np.broadcast_to(power, (array.shape[0],)).copy()
    if not (np.isfinite(array).all() and np.isfinite(power).all()):
        raise InvalidParameterError("ensemble gains and power must be finite")
    batch = UnitBatch(
        protocol=protocol,
        gab=array[:, 0],
        gar=array[:, 1],
        gbr=array[:, 2],
        power=power,
    )
    return executor.run([batch])[0]
