"""The ``repro serve`` daemon: campaign evaluation as a local service.

One long-lived process owns the campaign machinery — a warm executor
pool, the content-addressed cache — and answers scenario evaluation
requests over a Unix-domain socket speaking the JSON-lines protocol of
:mod:`repro.serve.protocol`. What the daemon adds over calling
:func:`repro.api.evaluate` in-process:

* **Request deduplication.** In-flight jobs are keyed by the lowered
  campaign spec's content hash; a request for a grid that is already
  being evaluated *joins* that job instead of starting a second one, and
  both clients receive the identical result (``served_from: "joined"``
  for the latecomer).
* **A hot cache path.** A request whose full grid already sits in the
  content-addressed store is answered straight from disk
  (``served_from: "cache"``) without touching the job table.
* **Work-stealing concurrency.** The daemon holds one reserved
  :class:`~repro.campaign.executors.AsyncExecutor` process pool for its
  whole lifetime; concurrent jobs submit chunk futures into the shared
  pool, so workers drain whichever job has chunks left instead of being
  statically partitioned per request.
* **Graceful degradation.** The in-flight job table is bounded
  (``max_pending``): excess evaluate requests are refused immediately
  with a ``busy`` error rather than queueing without bound. Every
  request can carry a deadline, enforced server-side with a ``timeout``
  error. Shutdown stops accepting work, drains in-flight jobs for up to
  ``drain_timeout`` seconds, then cancels stragglers.

Determinism is inherited, not re-proven: jobs run through
:func:`repro.campaign.engine.run_campaign` with a bitwise-trusted
executor, and the wire protocol ships each double's exact bytes, so a served
result is byte-identical to a local ``evaluate()`` of the same scenario.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import os
import socket as socket_module
import time
from dataclasses import dataclass

from ..campaign.engine import _hash_key, _resolve_cache, run_campaign
from ..campaign.executors import get_executor
from ..exceptions import CampaignTimeoutError, InvalidParameterError, ReproError
from ..faults import FaultInjector, FaultPlan
from ..scenarios.wire import request_to_scenario
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    accepted_event,
    decode_frame,
    encode_frame,
    error_event,
    parse_request,
    progress_event,
    result_event,
    result_payload,
)

__all__ = ["ServeConfig", "CampaignServer", "serve"]


@dataclass(frozen=True)
class ServeConfig:
    """Operator-facing daemon configuration.

    Attributes
    ----------
    socket_path:
        Filesystem path of the Unix-domain socket to listen on.
    cache:
        Cache selector as accepted by :func:`repro.campaign.run_campaign`
        (``True`` = the default content-addressed store). The daemon is
        most useful *with* a cache — the hot path and cross-restart reuse
        both live there — but ``False`` runs compute-only.
    executor:
        Campaign executor name or instance used for jobs that do not
        override it. The default ``"async"`` pool is what enables
        work-stealing across concurrent requests.
    processes:
        Worker processes of a pool executor (``"async"`` or
        ``"process"``; ``None`` = CPU count).
    max_pending:
        Bound on concurrently in-flight evaluate jobs; requests beyond
        it are refused with a ``busy`` error (backpressure).
    request_timeout:
        Default per-request deadline in seconds (``None`` = no deadline);
        a request's ``timeout`` option overrides it.
    drain_timeout:
        Seconds shutdown waits for in-flight jobs before cancelling.
    chunk_size:
        Default checkpoint granularity for jobs (``None`` = engine
        default); a request's ``chunk_size`` option overrides it.
    """

    socket_path: str
    cache: object = True
    executor: object = "async"
    processes: int | None = None
    max_pending: int = 4
    request_timeout: float | None = None
    drain_timeout: float = 30.0
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        if not self.socket_path:
            raise InvalidParameterError("a socket path is required")
        if self.max_pending < 1:
            raise InvalidParameterError(
                f"need room for at least one pending job, got {self.max_pending}"
            )
        if self.request_timeout is not None and not (
            math.isfinite(self.request_timeout) and self.request_timeout > 0
        ):
            raise InvalidParameterError(
                f"request timeout must be finite and > 0, got {self.request_timeout}"
            )
        if not (math.isfinite(self.drain_timeout) and self.drain_timeout >= 0):
            raise InvalidParameterError(
                f"drain timeout must be finite and >= 0, got {self.drain_timeout}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise InvalidParameterError(
                f"chunk size must be positive, got {self.chunk_size}"
            )


class _Job:
    """One in-flight evaluation, shared by every request that joins it."""

    def __init__(self, key: str, scenario, spec, spec_hash: str) -> None:
        self.key = key
        self.scenario = scenario
        self.spec = spec
        self.spec_hash = spec_hash
        self.subscribers: list[asyncio.Queue] = []
        self.task: asyncio.Task | None = None

    def subscribe(self) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue()
        self.subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        with contextlib.suppress(ValueError):
            self.subscribers.remove(queue)

    def publish(self, item: tuple) -> None:
        for queue in self.subscribers:
            queue.put_nowait(item)


def _socket_in_use(path: str) -> bool:
    """Whether a live server is already listening on ``path``."""
    probe = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
    try:
        probe.settimeout(0.25)
        probe.connect(path)
    except OSError:
        return False
    else:
        return True
    finally:
        probe.close()


class CampaignServer:
    """The asyncio Unix-socket daemon. See the module docstring."""

    def __init__(self, config: ServeConfig, fault_plan: FaultPlan | None = None):
        self.config = config
        self._store = _resolve_cache(config.cache)
        self._executor = get_executor(config.executor, processes=config.processes)
        # Chaos-testing seam: an armed plan injects engine faults into
        # jobs and socket faults into outbound frames.  Defaults to the
        # REPRO_FAULT_PLAN environment variable so subprocess tests can
        # arm a daemon without new CLI surface.
        self._fault_plan = (
            fault_plan if fault_plan is not None else FaultPlan.from_env()
        )
        self._faults = (
            FaultInjector(self._fault_plan) if self._fault_plan is not None else None
        )
        self._jobs: dict[str, _Job] = {}
        self._connections: set[asyncio.Task] = set()
        self._server: asyncio.base_events.Server | None = None
        self._stop_event: asyncio.Event | None = None
        self._reservation: contextlib.ExitStack | None = None
        self._closing = False
        self.stats = {
            "requests": 0,
            "served_from_cache": 0,
            "computed": 0,
            "deduplicated": 0,
            "rejected_busy": 0,
            "timeouts": 0,
            "failed": 0,
            "chunk_retries": 0,
            "pool_rebuilds": 0,
        }

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start accepting connections."""
        path = self.config.socket_path
        if os.path.exists(path):
            if _socket_in_use(path):
                raise ReproError(f"another server is already listening on {path}")
            os.unlink(path)  # stale socket left by an unclean exit
        self._stop_event = asyncio.Event()
        self._reservation = contextlib.ExitStack()
        reserve = getattr(self._executor, "reserve", None)
        if reserve is not None:
            # One pool for the daemon's lifetime: concurrent jobs share
            # its workers, which is what makes work steal across requests.
            self._reservation.enter_context(reserve())
        try:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path
            )
        except OSError:
            self._reservation.close()
            self._reservation = None
            raise

    def request_stop(self) -> None:
        """Begin a graceful shutdown: refuse new work, drain, exit."""
        self._closing = True
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_forever(self) -> None:
        """Run until :meth:`request_stop` (or a ``shutdown`` op), then drain."""
        if self._server is None:
            await self.start()
        try:
            await self._stop_event.wait()
        finally:
            self._closing = True
            self._server.close()
            await self._server.wait_closed()
            await self._drain()
            if self._reservation is not None:
                self._reservation.close()
                self._reservation = None
            with contextlib.suppress(OSError):
                os.unlink(self.config.socket_path)

    async def _drain(self) -> None:
        """Let in-flight work finish, bounded by ``drain_timeout``."""
        job_tasks = [job.task for job in self._jobs.values() if job.task is not None]
        if job_tasks:
            await asyncio.wait(job_tasks, timeout=self.config.drain_timeout)
        if self._connections:
            # Results are computed; give handlers a moment to flush them.
            await asyncio.wait(self._connections, timeout=5.0)
        for task in [*job_tasks, *self._connections]:
            if not task.done():
                task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    # -- connection handling ------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            await self._converse(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing left to tell it
        except asyncio.CancelledError:
            pass  # drain-timeout cancellation; close the transport and go
        finally:
            self._connections.discard(task)
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()

    async def _converse(self, reader, writer) -> None:
        """Serve one connection: one request frame in, one event stream out.

        The connection closes after the terminal event rather than
        looping for more requests: the handler's lifetime then never
        depends on noticing the client's EOF — which can be delayed
        indefinitely when executor worker processes forked mid-request
        hold inherited duplicates of the connection's descriptor.
        """
        line = b""
        while not line.strip():
            try:
                line = await reader.readline()
            except ValueError:
                await self._send(writer, error_event("", "invalid", "frame too long"))
                return
            if not line:
                return  # client closed the connection
        frame = None
        try:
            frame = decode_frame(line)
            request = parse_request(frame)
        except ProtocolError as error:
            # Echo a well-formed id so the client can tie the error to
            # its request even when another field was refused.
            rid = frame.get("id") if frame is not None else None
            rid = rid if isinstance(rid, str) else ""
            await self._send(writer, error_event(rid, "invalid", str(error)))
            return
        self.stats["requests"] += 1
        if request.op == "ping":
            await self._send(
                writer,
                {
                    "event": "pong",
                    "id": request.id,
                    "protocol_version": PROTOCOL_VERSION,
                    "draining": self._closing,
                },
            )
        elif request.op == "stats":
            await self._send(writer, self._stats_frame(request.id))
        elif request.op == "shutdown":
            await self._send(writer, {"event": "bye", "id": request.id})
            self.request_stop()
        else:
            await self._handle_evaluate(request, writer)

    def _stats_frame(self, request_id: str) -> dict:
        """Serving counters plus a liveness snapshot of pool, queue and faults."""
        executor = self._executor
        return {
            "event": "stats",
            "id": request_id,
            "status": "draining" if self._closing else "ok",
            "protocol_version": PROTOCOL_VERSION,
            "in_flight": len(self._jobs),
            "max_pending": self.config.max_pending,
            "executor": getattr(executor, "name", type(executor).__name__),
            "processes": getattr(executor, "processes", None),
            "pool_rebuilds": getattr(executor, "pool_rebuilds", 0),
            "cache": self._store is not None,
            "faults_injected": dict(self._faults.fired) if self._faults else {},
            "stats": dict(self.stats),
        }

    async def _send(self, writer, frame: dict) -> None:
        if self._faults is not None:
            await self._inject_socket_fault(writer, frame)
        writer.write(encode_frame(frame))
        await writer.drain()

    async def _inject_socket_fault(self, writer, frame: dict) -> None:
        """Apply an armed socket fault rule to one outbound frame.

        ``socket-delay`` just sleeps; ``socket-drop`` writes roughly half
        the encoded frame before severing; ``socket-close`` severs before
        any byte.  Severing raises ``ConnectionResetError``, which rides
        the same handling as a genuinely vanished client — the connection
        closes mid-stream and the client sees a torn or missing frame.
        """
        action = self._faults.socket_event(str(frame.get("event", "")))
        if action is None:
            return
        kind, rule = action
        if kind == "socket-delay":
            await asyncio.sleep(rule.delay_seconds)
            return
        if kind == "socket-drop":
            data = encode_frame(frame)
            writer.write(data[: max(1, len(data) // 2)])
            with contextlib.suppress(ConnectionError):
                await writer.drain()
        # A transport-level shutdown sends the FIN immediately even when
        # pool workers forked mid-request hold inherited duplicates of
        # this connection's descriptor — without it the client would only
        # notice the severed stream at its socket timeout.
        sock = writer.get_extra_info("socket")
        if sock is not None:
            with contextlib.suppress(OSError):
                sock.shutdown(socket_module.SHUT_RDWR)
        raise ConnectionResetError(
            f"injected {kind} before {frame.get('event')!r} frame"
        )

    # -- evaluation ---------------------------------------------------

    async def _handle_evaluate(self, request, writer) -> None:
        rid = request.id
        if self._closing:
            await self._send(
                writer,
                error_event(rid, "shutting-down", "the server is draining"),
            )
            return
        try:
            scenario = request_to_scenario(request.scenario)
            if request.options.get("executor") is not None:
                get_executor(request.options["executor"])  # fail fast on bad names
        except (InvalidParameterError, ProtocolError) as error:
            await self._send(writer, error_event(rid, "invalid", str(error)))
            return
        spec = scenario.to_campaign_spec()
        # spec_hash() is not memoized and costs tens of microseconds:
        # compute it once for the key and both frames.
        spec_hash = spec.spec_hash()
        key = _hash_key(spec_hash)

        # Hot path: the full grid is already in the store — answer from
        # disk without occupying a job slot.  The read runs inline: it is
        # one small flat file plus a digest check, so a worker thread
        # would add its hop without letting anything else run meanwhile.
        if self._store is not None:
            cached = self._store.load(key)
            if cached is not None and cached.shape == spec.grid_shape:
                self.stats["served_from_cache"] += 1
                await self._send(
                    writer,
                    accepted_event(
                        rid,
                        spec_hash=spec_hash,
                        n_units=spec.n_units,
                        deduplicated=False,
                    ),
                )
                payload = result_payload(
                    scenario_name=scenario.name,
                    objective=scenario.objective,
                    spec_hash=spec_hash,
                    values=cached,
                    served_from="cache",
                    executor_name="cache",
                    cells_from_cache=spec.n_units,
                    cells_computed=0,
                    elapsed_seconds=0.0,
                )
                await self._send(writer, result_event(rid, payload))
                return

        job = self._jobs.get(key)
        deduplicated = job is not None
        if job is None:
            if len(self._jobs) >= self.config.max_pending:
                self.stats["rejected_busy"] += 1
                await self._send(
                    writer,
                    error_event(
                        rid,
                        "busy",
                        f"{len(self._jobs)} jobs in flight "
                        f"(max_pending={self.config.max_pending}); retry later",
                    ),
                )
                return
            job = _Job(key, scenario, spec, spec_hash)
            self._jobs[key] = job
            job.task = asyncio.create_task(self._run_job(job, request.options))
        else:
            self.stats["deduplicated"] += 1

        queue = job.subscribe()
        await self._send(
            writer,
            accepted_event(
                rid,
                spec_hash=spec_hash,
                n_units=spec.n_units,
                deduplicated=deduplicated,
            ),
        )
        loop = asyncio.get_running_loop()
        timeout = request.options.get("timeout", self.config.request_timeout)
        deadline = None if timeout is None else loop.time() + float(timeout)
        try:
            while True:
                remaining = None if deadline is None else deadline - loop.time()
                if remaining is not None and remaining <= 0:
                    raise asyncio.TimeoutError
                item = await asyncio.wait_for(queue.get(), remaining)
                kind = item[0]
                if kind == "progress":
                    await self._send(writer, progress_event(rid, item[1], item[2]))
                elif kind == "result":
                    payload = dict(item[1])
                    if deduplicated:
                        payload["served_from"] = "joined"
                        payload["chunk_retries"] = 0
                        payload["pool_rebuilds"] = 0
                    await self._send(writer, result_event(rid, payload))
                    return
                else:
                    await self._send(
                        writer,
                        error_event(rid, item[1], item[2], retryable=item[3]),
                    )
                    return
        except asyncio.TimeoutError:
            self.stats["timeouts"] += 1
            await self._send(
                writer,
                # Retryable: an identical re-request joins the still-running
                # job (or resumes from its checkpointed chunks once the job's
                # own deadline stopped it) — it never forks a divergent
                # second evaluation.
                error_event(
                    rid,
                    "timeout",
                    f"no result within {timeout} s; a retry joins the job "
                    "or resumes from its checkpointed chunks",
                    retryable=True,
                ),
            )
        finally:
            job.unsubscribe(queue)

    async def _run_job(self, job: _Job, options: dict) -> None:
        """Evaluate one job in a worker thread; publish to subscribers."""
        loop = asyncio.get_running_loop()

        def progress(done: int, total: int) -> None:
            loop.call_soon_threadsafe(job.publish, ("progress", done, total))

        try:
            result = await asyncio.to_thread(
                self._evaluate, job.spec, options, progress
            )
        except CampaignTimeoutError as error:
            # The propagated deadline stopped the chunk loop; completed
            # chunks are checkpointed, so with a cache a retry resumes.
            self.stats["timeouts"] += 1
            outcome = ("error", "timeout", str(error), self._store is not None)
        except InvalidParameterError as error:
            self.stats["failed"] += 1
            outcome = ("error", "invalid", str(error), False)
        except Exception as error:  # noqa: BLE001 - the daemon must survive jobs
            self.stats["failed"] += 1
            outcome = ("error", "internal", f"{type(error).__name__}: {error}", False)
        else:
            served_from = "cache" if result.from_cache else "computed"
            self.stats["served_from_cache" if result.from_cache else "computed"] += 1
            self.stats["chunk_retries"] += result.chunk_retries
            self.stats["pool_rebuilds"] += result.pool_rebuilds
            outcome = (
                "result",
                result_payload(
                    scenario_name=job.scenario.name,
                    objective=job.scenario.objective,
                    spec_hash=job.spec_hash,
                    values=result.values,
                    served_from=served_from,
                    executor_name=result.executor_name,
                    cells_from_cache=result.cells_from_cache,
                    cells_computed=result.cells_computed,
                    elapsed_seconds=result.elapsed_seconds,
                    chunk_retries=result.chunk_retries,
                    pool_rebuilds=result.pool_rebuilds,
                ),
            )
        # Pop before publishing (both happen without an await between
        # them, so no subscriber can join a finished job): the next
        # identical request starts fresh and hits the cache hot path.
        self._jobs.pop(job.key, None)
        job.publish(outcome)

    def _evaluate(self, spec, options: dict, progress):
        """Run one campaign synchronously (called in a worker thread).

        The request's timeout propagates into the chunk loop as a
        monotonic deadline: on every executor the engine aborts between
        chunks once it passes and cancels the pool futures that have not
        started, so an abandoned request stops consuming pool workers
        instead of computing to completion for nobody.  Completed chunks
        stay checkpointed — a retry resumes from them.
        """
        executor = self._executor
        if options.get("executor") is not None:
            executor = get_executor(options["executor"])
        timeout = options.get("timeout", self.config.request_timeout)
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        return run_campaign(
            spec,
            executor=executor,
            cache=self._store,
            progress=progress,
            chunk_size=options.get("chunk_size", self.config.chunk_size),
            fault_plan=self._fault_plan,
            deadline=deadline,
        )


def serve(config: ServeConfig) -> None:
    """Run a campaign server to completion (blocking convenience door)."""
    server = CampaignServer(config)
    asyncio.run(server.serve_forever())
