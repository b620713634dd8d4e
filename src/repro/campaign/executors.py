"""Pluggable execution backends for campaign work units.

Four executors share one numeric kernel
(:func:`repro.campaign.kernel.batched_sum_rates`):

* :class:`SerialExecutor` — one unit at a time, in process. The reference
  path every other executor must reproduce bit for bit.
* :class:`MultiprocessExecutor` — chunks units across a
  ``concurrent.futures`` process pool. Each worker evaluates its chunk
  with exactly the serial per-unit arithmetic, so results are bitwise
  identical to serial regardless of process count or chunking.
* :class:`VectorizedExecutor` — stacks whole batches through the kernel's
  batched linear algebra. The kernel is elementwise along the batch axis,
  so this too is bitwise identical to serial (asserted in the tests).
* :class:`AsyncExecutor` — schedules *chunk futures* over a
  ``concurrent.futures`` process pool: work units are claimed by whichever
  worker frees up first (work-stealing) instead of being pre-split, and
  the engine checkpoints each chunk the moment its future lands. Each
  future runs the serial per-unit arithmetic, so completion order can
  never change the numbers.

Because all executors agree exactly, cached campaign results are keyed by
the spec alone — never by how they were computed.

Both pool executors are *self-healing*: a dead worker (OOM kill, signal,
``os._exit``) breaks a ``concurrent.futures`` pool permanently, so when a
reserved pool surfaces :class:`concurrent.futures.BrokenExecutor` the
executor swaps in a fresh pool (counted in ``pool_rebuilds``) and reports
the failed chunks to the engine, which re-dispatches only those — completed
chunks are already checkpointed in the cache and are never recomputed.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..core.protocols import Protocol
from ..exceptions import InvalidParameterError
from .kernel import batched_sum_rates

__all__ = [
    "UnitBatch",
    "ChunkFailure",
    "SerialExecutor",
    "MultiprocessExecutor",
    "VectorizedExecutor",
    "AsyncExecutor",
    "EXECUTOR_NAMES",
    "get_executor",
]


class ChunkFailure:
    """A chunk job's failure, yielded by ``run_chunks`` in place of values.

    The chunk-future seam reports per-chunk outcomes rather than raising
    mid-iteration: the caller learns *which* chunk failed (its tag arrives
    with the failure) and can retry exactly that chunk while other chunks'
    results keep streaming in.  ``error`` is the underlying exception —
    :class:`~repro.exceptions.RetryableChunkError` and
    :class:`concurrent.futures.BrokenExecutor` are safe to retry, anything
    else is fatal.
    """

    __slots__ = ("error",)

    def __init__(self, error: BaseException):
        self.error = error

    def __repr__(self) -> str:
        return f"ChunkFailure({self.error!r})"


@dataclass(frozen=True)
class UnitBatch:
    """A contiguous run of work units sharing one protocol.

    The array fields are aligned: unit ``i`` of the batch is
    ``(protocol, gains=(gab[i], gar[i], gbr[i]), power=power[i])``.
    An analytic batch covers (part of) one grid block, so its power is
    uniform; an operational batch may span every block of a protocol
    run, so its power varies per unit.

    Operational (link-level) campaigns additionally carry the
    :class:`~repro.campaign.spec.LinkSimSpec` and each unit's flat grid
    index: the index seeds the unit's simulation generator, so a cell's
    value never depends on how the grid was batched, chunked or sharded.
    """

    protocol: Protocol
    gab: np.ndarray
    gar: np.ndarray
    gbr: np.ndarray
    power: np.ndarray
    link: object = None
    indices: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.gab.shape[0])

    def slice(self, start: int, stop: int) -> "UnitBatch":
        """The sub-batch covering units ``[start, stop)``."""
        return UnitBatch(
            protocol=self.protocol,
            gab=self.gab[start:stop],
            gar=self.gar[start:stop],
            gbr=self.gbr[start:stop],
            power=self.power[start:stop],
            link=self.link,
            indices=None if self.indices is None else self.indices[start:stop],
        )

    @staticmethod
    def concatenate(batches) -> "UnitBatch":
        """One batch holding ``batches``' units in order (same protocol)."""
        first = batches[0]
        if len(batches) == 1:
            return first
        indices = None
        if first.indices is not None:
            indices = np.concatenate([b.indices for b in batches])
        return UnitBatch(
            protocol=first.protocol,
            gab=np.concatenate([b.gab for b in batches]),
            gar=np.concatenate([b.gar for b in batches]),
            gbr=np.concatenate([b.gbr for b in batches]),
            power=np.concatenate([b.power for b in batches]),
            link=first.link,
            indices=indices,
        )


def _evaluate_link_units(batch: UnitBatch) -> np.ndarray:
    """Operational cells: independently seeded link campaigns, cells-fused.

    Every cell of the batch keeps its own ``(seed, flat index)``
    generator, but the decode arithmetic of all cells runs through one
    fused kernel pass per wave
    (:func:`repro.simulation.montecarlo.fused_link_values`) — bitwise
    identical to the historical per-cell loop, benchmark-asserted. The
    campaign engine hands over one batch per protocol run (every power
    and extra-axis block of a protocol within the requested range), so
    the fused width is that run as cut by the executor's batch slicing
    (``VectorizedExecutor.max_batch``, pool chunks, the serial unit
    loop).

    Cells whose link spec carries a ``TrafficSpec`` run the event-driven
    traffic simulation instead (:func:`repro.traffic.simulator
    .traffic_link_values`) — same seeding contract, so this one dispatch
    point covers every executor, chunking and sharding path.
    """
    from ..simulation.montecarlo import fused_link_values

    if batch.indices is None:
        raise InvalidParameterError(
            "operational unit batches need flat grid indices for seeding"
        )
    if batch.link.traffic is not None:
        from ..traffic.simulator import traffic_link_values

        return traffic_link_values(
            batch.protocol,
            batch.gab,
            batch.gar,
            batch.gbr,
            batch.power,
            link=batch.link,
            indices=batch.indices,
        )
    return fused_link_values(
        batch.protocol,
        batch.gab,
        batch.gar,
        batch.gbr,
        batch.power,
        link=batch.link,
        indices=batch.indices,
    )


def _evaluate_units_one_by_one(batch: UnitBatch) -> np.ndarray:
    """Evaluate every unit of a batch with batch-of-one kernel calls.

    This is the shared reference arithmetic: the serial executor calls it
    directly and pool workers call it on their chunks, which is what makes
    serial and multiprocess results bitwise identical by construction.
    Operational units are independently seeded by flat grid index, so the
    same argument covers them with no per-unit slicing needed.
    """
    if batch.link is not None:
        return _evaluate_link_units(batch)
    values = np.empty(len(batch))
    for i in range(len(batch)):
        values[i] = batched_sum_rates(
            batch.protocol,
            batch.gab[i : i + 1],
            batch.gar[i : i + 1],
            batch.gbr[i : i + 1],
            batch.power[i : i + 1],
        )[0]
    return values


class SerialExecutor:
    """Evaluate units one at a time in the calling process."""

    name = "serial"

    def run(self, batches, progress=None) -> list:
        """Evaluate ``batches`` and return one value array per batch."""
        total = sum(len(batch) for batch in batches)
        done = 0
        results = []
        for batch in batches:
            values = np.empty(len(batch))
            for i in range(len(batch)):
                values[i] = _evaluate_units_one_by_one(batch.slice(i, i + 1))[0]
                done += 1
                if progress is not None:
                    progress(done, total)
            results.append(values)
        return results


class _SelfHealingPoolMixin:
    """Reserved-pool lifecycle shared by the two process-pool executors.

    A ``concurrent.futures`` pool whose worker dies is *permanently* broken
    — every subsequent future raises :class:`BrokenExecutor`.  Reservations
    are counted (reentrant and thread-safe; the outermost one owns the
    pool's lifetime), and :meth:`_heal` swaps a broken reserved pool for a
    fresh one so the next dispatch round runs on live workers.  The swap is
    identity-guarded: concurrent failures on the same pool trigger exactly
    one rebuild, tallied in ``pool_rebuilds``.
    """

    def _init_pool_state(self):
        self._pool = None
        self._lock = threading.Lock()
        self._reservations = 0
        #: Broken pools replaced over this executor's lifetime.  The engine
        #: snapshots it around a campaign to report per-run rebuilds.
        self.pool_rebuilds = 0

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.processes)

    @contextmanager
    def reserve(self):
        """Hold one worker pool open across consecutive calls.

        The engine's chunk-checkpointed loop issues one dispatch per chunk;
        without a reservation every dispatch would spawn and tear down its
        own pool.  Reentrant and thread-safe — only the outermost
        reservation owns the pool's lifetime, so the serving daemon can
        reserve once at startup and let every concurrent request share the
        workers.  Exit tears down whatever pool is current, including one
        swapped in by :meth:`_heal`.
        """
        with self._lock:
            outermost = self._reservations == 0
            self._reservations += 1
            if outermost:
                self._pool = self._make_pool()
        try:
            yield self
        finally:
            closing = None
            with self._lock:
                self._reservations -= 1
                if self._reservations == 0:
                    closing, self._pool = self._pool, None
            if closing is not None:
                closing.shutdown(wait=True)

    def _reserved_pool(self):
        with self._lock:
            return self._pool

    def _heal(self, broken) -> bool:
        """Replace ``broken`` with a fresh pool if it is still the one.

        Returns whether a rebuild happened.  The identity check makes the
        call idempotent: many in-flight futures of one broken pool all
        report the breakage, but only the first caller rebuilds.  Unreserved
        (per-call) pools are never healed — the next call builds a fresh
        pool anyway.
        """
        with self._lock:
            if broken is None or self._pool is not broken:
                return False
            self._pool = self._make_pool()
            self.pool_rebuilds += 1
        broken.shutdown(wait=False)
        return True


class MultiprocessExecutor(_SelfHealingPoolMixin):
    """Evaluate chunks of units across a process pool.

    Parameters
    ----------
    processes:
        Worker count; defaults to ``os.cpu_count()``.
    chunksize:
        Units per dispatched chunk; defaults to spreading each batch over
        roughly ``4 × processes`` chunks (bounded below by 1) so progress
        stays responsive without drowning in IPC.
    """

    name = "process"
    supports_fault_injection = True

    def __init__(
        self, processes: int | None = None, chunksize: int | None = None
    ) -> None:
        if processes is not None and processes < 1:
            raise InvalidParameterError(f"need at least one process, got {processes}")
        if chunksize is not None and chunksize < 1:
            raise InvalidParameterError(f"chunk size must be positive, got {chunksize}")
        self.processes = processes or os.cpu_count() or 1
        self.chunksize = chunksize
        self._init_pool_state()

    def _chunks(self, batch: UnitBatch) -> list:
        chunksize = self.chunksize
        if chunksize is None:
            chunksize = max(1, -(-len(batch) // (4 * self.processes)))
        return [
            batch.slice(start, min(start + chunksize, len(batch)))
            for start in range(0, len(batch), chunksize)
        ]

    def _collect(self, pool, chunks, total, progress, fault) -> list:
        try:
            futures = [
                pool.submit(_evaluate_pool_chunk, chunk, fault) for chunk in chunks
            ]
            pieces = []
            done = 0
            for future in futures:
                piece = future.result()
                pieces.append(piece)
                done += piece.shape[0]
                if progress is not None:
                    progress(done, total)
            return pieces
        except BrokenExecutor:
            self._heal(pool)
            raise

    def run(self, batches, progress=None, fault=None) -> list:
        """Evaluate ``batches`` and return one value array per batch.

        ``fault`` is an optional :class:`repro.faults.FaultToken` forwarded
        into every worker invocation of this call (the engine arms it per
        chunk attempt).  A broken pool is healed before the failure
        propagates, so the engine's retry lands on live workers.
        """
        total = sum(len(batch) for batch in batches)
        chunks = []
        owners = []
        for bi, batch in enumerate(batches):
            for chunk in self._chunks(batch):
                chunks.append(chunk)
                owners.append(bi)
        reserved = self._reserved_pool()
        if reserved is not None:
            pieces = self._collect(reserved, chunks, total, progress, fault)
        else:
            with self._make_pool() as pool:
                pieces = self._collect(pool, chunks, total, progress, fault)
        results = []
        for bi in range(len(batches)):
            parts = [p for p, owner in zip(pieces, owners) if owner == bi]
            results.append(np.concatenate(parts) if parts else np.zeros(0))
        return results


class VectorizedExecutor:
    """Evaluate whole batches through the kernel's batched linear algebra.

    Parameters
    ----------
    max_batch:
        Optional upper bound on units per kernel call (memory control for
        very large ensembles); ``None`` sends each batch in one call. The
        bound applies to operational (link-level) batches too: a fused
        link evaluation never sees more than ``max_batch`` cells per
        kernel call, so the cap limits the fused decoder's working set
        exactly as it limits the analytic kernel's (regression-tested).
    """

    name = "vectorized"

    def __init__(self, max_batch: int | None = None) -> None:
        if max_batch is not None and max_batch < 1:
            raise InvalidParameterError(
                f"batch bound must be positive, got {max_batch}"
            )
        self.max_batch = max_batch

    def run(self, batches, progress=None) -> list:
        """Evaluate ``batches`` and return one value array per batch."""
        total = sum(len(batch) for batch in batches)
        done = 0
        results = []
        for batch in batches:
            step = self.max_batch or max(len(batch), 1)
            pieces = []
            for start in range(0, len(batch), step):
                piece = batch.slice(start, start + step)
                if piece.link is not None:
                    pieces.append(_evaluate_link_units(piece))
                else:
                    pieces.append(
                        batched_sum_rates(
                            piece.protocol, piece.gab, piece.gar, piece.gbr,
                            piece.power,
                        )
                    )
                done += len(piece)
                if progress is not None:
                    progress(done, total)
            results.append(np.concatenate(pieces) if pieces else np.zeros(0))
        return results


def _evaluate_pool_chunk(chunk: UnitBatch, fault=None) -> np.ndarray:
    """Worker entry of :class:`MultiprocessExecutor`: one chunk, serially.

    ``fault`` is an armed :class:`repro.faults.FaultToken` (or ``None``);
    applying it first means injected worker deaths and transient errors hit
    before any arithmetic, exactly like a crash on entry would.
    """
    if fault is not None:
        fault.apply(in_worker=True)
    return _evaluate_units_one_by_one(chunk)


def _evaluate_batch_list(batches, fault=None) -> np.ndarray:
    """Worker entry of a chunk future: serial arithmetic, concatenated.

    One pickled call evaluates a whole chunk's batches with exactly the
    per-unit reference arithmetic, so a chunk future's values are bitwise
    identical to the serial executor's regardless of which worker ran it
    or when it completed.  ``fault`` (an optional
    :class:`repro.faults.FaultToken`) is applied before evaluation.
    """
    if fault is not None:
        fault.apply(in_worker=True)
    return np.concatenate([_evaluate_units_one_by_one(batch) for batch in batches])


class AsyncExecutor(_SelfHealingPoolMixin):
    """Schedule chunk futures over a process pool with work-stealing.

    Where :class:`MultiprocessExecutor` pre-splits each ``run`` call over
    a pool, this executor exposes the *chunk-future seam* the engine and
    the serving daemon build on: :meth:`run_chunks` submits every pending
    chunk as one future and yields results **in completion order**, so

    * idle workers steal whichever chunk is next rather than being bound
      to a static ``--shard I/N`` split of the grid, and
    * the engine checkpoints each chunk the moment it lands — a slow
      chunk never delays the durability of a fast one.

    One reserved pool can be shared by many concurrent campaigns (the
    ``repro serve`` daemon holds one open for its lifetime), in which
    case chunks of all in-flight requests interleave across the workers.
    Every future runs the serial per-unit arithmetic
    (:func:`_evaluate_batch_list`), so scheduling, completion order and
    pool size can never change the numbers.

    Parameters
    ----------
    processes:
        Worker count; defaults to ``os.cpu_count()``.
    """

    name = "async"
    supports_fault_injection = True

    def __init__(self, processes: int | None = None) -> None:
        if processes is not None and processes < 1:
            raise InvalidParameterError(f"need at least one process, got {processes}")
        self.processes = processes or os.cpu_count() or 1
        self._init_pool_state()

    def _submit_completions(self, pool, jobs):
        """Submit one future per job; yield per-job outcomes as they land.

        A job whose future raises yields ``(tag, ChunkFailure(error))``
        instead of aborting the whole round — other chunks' values keep
        streaming, and the caller retries exactly the failed tags.  A
        broken pool is healed immediately (identity-guarded, so the many
        failures one dead worker causes rebuild only once).
        """
        futures = {}
        for job in jobs:
            tag, batches, *rest = job
            fault = rest[0] if rest else None
            try:
                futures[pool.submit(_evaluate_batch_list, batches, fault)] = tag
            except BrokenExecutor as error:
                self._heal(pool)
                yield tag, ChunkFailure(error)
        pending = set(futures)
        while pending:
            finished, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in finished:
                tag = futures[future]
                try:
                    values = future.result()
                except BrokenExecutor as error:
                    self._heal(pool)
                    yield tag, ChunkFailure(error)
                except Exception as error:
                    yield tag, ChunkFailure(error)
                else:
                    yield tag, values

    def run_chunks(self, jobs):
        """Evaluate chunk jobs, yielding outcomes in completion order.

        The engine's chunk-future seam: each job — ``(tag, batches)`` or
        ``(tag, batches, fault_token)`` — becomes one pool future and is
        yielded as ``(tag, values)`` the moment it completes, so the caller
        can checkpoint finished chunks while slower ones are still in
        flight.  A failed job yields ``(tag, ChunkFailure(error))`` rather
        than raising, so one bad chunk never discards its siblings' finished
        work.  Values per tag are bitwise identical to the serial
        executor's for the same batches.
        """
        jobs = list(jobs)
        if not jobs:
            return
        pool = self._reserved_pool()
        if pool is not None:
            yield from self._submit_completions(pool, jobs)
            return
        with self._make_pool() as own:
            yield from self._submit_completions(own, jobs)

    def run(self, batches, progress=None) -> list:
        """Evaluate ``batches`` and return one value array per batch.

        The plain-executor protocol (used for unchunked runs): each batch
        is sliced into roughly ``4 × processes`` sub-batches which are all
        submitted up front; workers drain them in whatever order they free
        up, and the results reassemble in submission order.
        """
        total = sum(len(batch) for batch in batches)
        jobs = []
        for bi, batch in enumerate(batches):
            step = max(1, -(-len(batch) // (4 * self.processes)))
            for start in range(0, len(batch), step):
                piece = batch.slice(start, min(start + step, len(batch)))
                jobs.append(((bi, start), [piece]))
        pieces = {}
        done = 0
        for (bi, start), values in self.run_chunks(jobs):
            if isinstance(values, ChunkFailure):
                raise values.error
            pieces[(bi, start)] = values
            done += values.shape[0]
            if progress is not None:
                progress(done, total)
        results = []
        for bi, batch in enumerate(batches):
            parts = [pieces[key] for key in sorted(pieces) if key[0] == bi]
            results.append(np.concatenate(parts) if parts else np.zeros(0))
        return results


#: Executor registry used by the engine and the CLI.
EXECUTOR_NAMES = ("serial", "process", "vectorized", "async")


def get_executor(executor, **kwargs):
    """Resolve an executor name (or pass through an executor instance).

    ``kwargs`` are forwarded to the named executor's constructor, e.g.
    ``get_executor("process", processes=4)``.
    """
    if executor is None:
        executor = "vectorized"
    if not isinstance(executor, str):
        return executor
    registry = {
        "serial": SerialExecutor,
        "process": MultiprocessExecutor,
        "vectorized": VectorizedExecutor,
        "async": AsyncExecutor,
    }
    if executor not in registry:
        raise InvalidParameterError(
            f"unknown executor {executor!r}; available: {EXECUTOR_NAMES}"
        )
    return registry[executor](**kwargs)
