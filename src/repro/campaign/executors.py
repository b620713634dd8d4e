"""Pluggable execution backends for campaign work units.

Three executors share one numeric kernel
(:func:`repro.campaign.kernel.batched_sum_rates`):

* :class:`SerialExecutor` — one unit at a time, in process: the only
  batch-of-one loop, and the reference every other executor must
  reproduce bit for bit.
* :class:`VectorizedExecutor` — sends whole batches through the kernel,
  one call per batch.
* :class:`AsyncExecutor` — schedules *chunk futures* over a
  ``concurrent.futures`` process pool: work units are claimed by whichever
  worker frees up first (work-stealing) instead of being pre-split, and
  the engine checkpoints each chunk the moment its future lands. Each
  future makes the same one-call-per-batch evaluation as the vectorized
  executor.

The batched executors equal serial because the kernel is batch-invariant:
it is elementwise along the batch axis, so a batch of ``n`` units is
bitwise equal to ``n`` batches of one (asserted in the tests). Batch
size, chunking, completion order and process count therefore never
change the numbers.

The registry knows one more name: ``"process"`` resolves to
:class:`MultiprocessExecutor`, an :class:`AsyncExecutor` that only reports
itself as ``"process"``.

Because all executors agree exactly, cached campaign results are keyed by
the spec alone — never by how they were computed.

The executor protocol is ``name`` plus ``run(batches, progress)``.  Pool
executors add ``run_chunks(jobs)``; :func:`chunk_outcomes` is the one
adapter the engine's chunk loop calls, and it serves a ``run``-only
executor chunk by chunk, so every executor — user-supplied ones too —
goes through the same loop, fault hook and deadline rule.

The pool is *self-healing*: a dead worker (OOM kill, signal, ``os._exit``)
breaks a ``concurrent.futures`` pool permanently, so when a reserved pool
surfaces :class:`concurrent.futures.BrokenExecutor` the executor swaps in a
fresh pool (counted in ``pool_rebuilds``) and reports the failed chunks to
the engine, which re-dispatches only those — completed chunks are already
checkpointed in the cache and are never recomputed.
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
    """A chunk job's failure, yielded by :func:`chunk_outcomes` in place of values.

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
    the fused width is that run as cut by the engine's chunks (and the
    serial unit loop); the fused driver itself caps rows per call at
    :data:`repro.simulation.montecarlo.DEFAULT_FUSED_ROWS`.

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


def _evaluate_batch(batch: UnitBatch) -> np.ndarray:
    """Evaluate one batch with one kernel call.

    A link batch goes to :func:`_evaluate_link_units`, an analytic batch to
    one :func:`~repro.campaign.kernel.batched_sum_rates` call. Every
    executor evaluates through here: serial on batches of one unit, the
    vectorized executor and pool workers on whole batches.
    """
    if batch.link is not None:
        return _evaluate_link_units(batch)
    return batched_sum_rates(
        batch.protocol, batch.gab, batch.gar, batch.gbr, batch.power
    )


class SerialExecutor:
    """Evaluate units one at a time in the calling process.

    The one batch-of-one loop: the independent oracle the batched
    executors are compared against.
    """

    name = "serial"

    def run(self, batches, progress=None) -> list:
        """Evaluate ``batches`` and return one value array per batch."""
        total = sum(len(batch) for batch in batches)
        done = 0
        results = []
        for batch in batches:
            values = np.empty(len(batch))
            for i in range(len(batch)):
                values[i] = _evaluate_batch(batch.slice(i, i + 1))[0]
                done += 1
                if progress is not None:
                    progress(done, total)
            results.append(values)
        return results


class VectorizedExecutor:
    """Evaluate whole batches in process, one kernel call per batch.

    Batch size is bounded upstream: the engine cuts batches at its
    ``chunk_size``, the kernel walks its cells in fixed-size passes and
    the fused link driver caps rows per call.
    """

    name = "vectorized"

    def run(self, batches, progress=None) -> list:
        """Evaluate ``batches`` and return one value array per batch."""
        total = sum(len(batch) for batch in batches)
        done = 0
        results = []
        for batch in batches:
            results.append(_evaluate_batch(batch))
            done += len(batch)
            if progress is not None:
                progress(done, total)
        return results


def _evaluate_batch_list(batches, fault=None) -> np.ndarray:
    """Worker entry of a chunk future: one kernel call per batch, concatenated.

    One pickled call evaluates a whole chunk's batches through
    :func:`_evaluate_batch`. Kernel batch invariance makes the values
    bitwise identical to the serial executor's, whichever worker ran the
    chunk and whenever it completed.  ``fault`` (an optional
    :class:`repro.faults.FaultToken`) is applied before evaluation.
    """
    if fault is not None:
        fault.apply(in_worker=True)
    return np.concatenate([_evaluate_batch(batch) for batch in batches])


class AsyncExecutor:
    """Schedule chunk futures over a process pool with work-stealing.

    This executor exposes the *chunk-future seam* the engine and the
    serving daemon build on: :meth:`run_chunks` submits every pending
    chunk as one future and yields results **in completion order**, so

    * idle workers steal whichever chunk is next rather than being bound
      to a static ``--shard I/N`` split of the grid, and
    * the engine checkpoints each chunk the moment it lands — a slow
      chunk never delays the durability of a fast one.

    One reserved pool can be shared by many concurrent campaigns (the
    ``repro serve`` daemon holds one open for its lifetime), in which
    case chunks of all in-flight requests interleave across the workers.
    Every future evaluates its chunk with one kernel call per batch
    (:func:`_evaluate_batch_list`); kernel batch invariance keeps the
    values bitwise equal to serial, so scheduling, completion order and
    pool size can never change the numbers.

    The pool is *self-healing*: a ``concurrent.futures`` pool whose worker
    dies is permanently broken — every subsequent future raises
    :class:`BrokenExecutor` — so :meth:`_heal` swaps a broken reserved
    pool for a fresh one and the next dispatch round runs on live workers.
    The swap is identity-guarded: concurrent failures on the same pool
    trigger exactly one rebuild, tallied in ``pool_rebuilds``.

    Parameters
    ----------
    processes:
        Worker count; defaults to ``os.cpu_count()``.
    """

    name = "async"

    def __init__(self, processes: int | None = None) -> None:
        if processes is not None and processes < 1:
            raise InvalidParameterError(f"need at least one process, got {processes}")
        self.processes = processes or os.cpu_count() or 1
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

        Without a reservation every ``run``/``run_chunks`` call spawns and
        tears down its own pool.  Reentrant and thread-safe — only the
        outermost reservation owns the pool's lifetime, so the serving
        daemon can reserve once at startup and let every concurrent request
        share the workers.  Exit tears down whatever pool is current,
        including one swapped in by :meth:`_heal`.
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

    def _submit_completions(self, pool, jobs):
        """Submit one future per job; yield per-job outcomes as they land.

        A job whose future raises yields ``(tag, ChunkFailure(error))``
        instead of aborting the whole round — other chunks' values keep
        streaming, and the caller retries exactly the failed tags.  A
        broken pool is healed immediately (identity-guarded, so the many
        failures one dead worker causes rebuild only once).  Closing the
        generator early cancels every future that has not started.
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
        try:
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
        finally:
            # A caller that stops early (deadline, fatal error) frees the
            # workers: futures that have not started never will.
            for future in pending:
                future.cancel()

    def run_chunks(self, jobs):
        """Evaluate chunk jobs, yielding outcomes in completion order.

        The pool side of :func:`chunk_outcomes`: each job — ``(tag, batches)`` or
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

        The plain-executor protocol, which
        :func:`~repro.campaign.engine.evaluate_ensemble` calls (campaigns
        take :meth:`run_chunks`): each batch is sliced into roughly
        ``4 × processes`` sub-batches which are all submitted up front;
        workers drain them in whatever order they free up, and the
        results reassemble in submission order.
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


def chunk_outcomes(executor, jobs):
    """Evaluate chunk jobs on any executor, yielding per-chunk outcomes.

    The engine's one chunk seam.  A pool executor's own ``run_chunks``
    serves the jobs concurrently, in completion order.  Any other
    executor — the in-process ones and user-supplied ``run``-only
    executors — evaluates one job at a time, in job order: the job's
    :class:`~repro.faults.FaultToken` (if not ``None``) is applied with
    ``in_worker=False``, then the chunk's batches go through
    ``executor.run``.  Either way a job ``(tag, batches, token)`` yields
    ``(tag, values)`` or ``(tag, ChunkFailure(error))``.

    Lazy on both sides: the next job is pulled only after the previous
    outcome was consumed, so a caller that stops iterating (a fatal
    error, a passed deadline) starts no further chunk.
    """
    if hasattr(executor, "run_chunks"):
        yield from executor.run_chunks(jobs)
        return
    for tag, batches, fault in jobs:
        try:
            if fault is not None:
                fault.apply(in_worker=False)
            outcome = np.concatenate(executor.run(batches))
        except Exception as error:
            outcome = ChunkFailure(error)
        yield tag, outcome


class MultiprocessExecutor(AsyncExecutor):
    """The ``"process"`` name of :class:`AsyncExecutor`.

    Same pool, same chunk futures, same values; only the name differs, so
    results and CLI output keep reporting the executor the user asked for.
    """

    name = "process"


#: Executor registry used by the engine and the CLI.
EXECUTOR_NAMES = ("serial", "process", "vectorized", "async")


def get_executor(executor, *, processes: int | None = None):
    """Resolve an executor name (or pass through an executor instance).

    ``processes`` sizes a pool executor (``"process"`` or ``"async"``;
    ``None`` = CPU count) and is ignored by the in-process ones, so the
    CLI and the serving daemon resolve ``--processes`` the same way for
    every name.
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
    if issubclass(registry[executor], AsyncExecutor):
        return registry[executor](processes=processes)
    return registry[executor]()
