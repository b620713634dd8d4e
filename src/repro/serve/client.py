"""A synchronous client for the ``repro serve`` daemon.

One :class:`ServeClient` call is one connection: connect to the daemon's
Unix socket, write the request frame, consume the event stream, return
the terminal event's contents. Progress events are surfaced through an
optional callback, terminal ``error`` events raise :class:`ServeError`
carrying the daemon's error code, and result grids are reassembled into
arrays bitwise-identical to a local evaluation (the protocol ships each
double's bytes; see :mod:`repro.serve.protocol`).

With ``retries > 0`` the client transparently reconnects and re-sends
after *retryable* failures — a connection that died mid-stream, a torn
frame, or a terminal error the daemon flagged ``retryable`` (e.g.
``busy``).  Re-sending an identical request is safe by construction:
requests dedup on the spec's cache key server-side, so a retry joins the
still-running job or reads the finished result from the cache — it can
never fork a second divergent evaluation.  A *refused connection* is not
retried: no daemon is listening, and that needs an operator, not
patience.
"""

from __future__ import annotations

import itertools
import math
import socket as socket_module
import time

import numpy as np

from ..exceptions import InvalidParameterError, ReproError
from ..scenarios.wire import scenario_to_request
from .protocol import ProtocolError, decode_frame, encode_frame, values_from_payload

__all__ = ["ServeError", "ServeClient", "ServedResult"]

#: Grace added to the client socket timeout over the server-side request
#: deadline, so the server's ``timeout`` error arrives before the socket
#: gives up.
_TIMEOUT_GRACE_SECONDS = 5.0

#: Client-side codes whose failures default to retryable.  ``unreachable``
#: (connection refused — no daemon) is deliberately NOT here.
_RETRYABLE_CLIENT_CODES = frozenset({"disconnected", "busy"})


def _check_timeout(timeout: float | None, what: str) -> float | None:
    """``timeout`` as float seconds: ``None`` or finite and > 0, else an error."""
    if timeout is None:
        return None
    seconds = float(timeout)
    if not (math.isfinite(seconds) and seconds > 0):
        raise InvalidParameterError(
            f"{what} must be finite and > 0 seconds (or None), got {timeout!r}"
        )
    return seconds


class ServeError(ReproError):
    """The daemon answered with an error event (or the wire broke).

    Attributes
    ----------
    code:
        The protocol error code (see
        :data:`repro.serve.protocol.ERROR_CODES`), ``"disconnected"``
        when the connection died without a terminal event, or
        ``"unreachable"`` when no daemon accepted the connection at all.
    retryable:
        Whether re-sending the identical request is a sensible recovery.
        Server error events carry the flag explicitly; client-detected
        failures default by code (:data:`_RETRYABLE_CLIENT_CODES`).
    """

    def __init__(
        self,
        message: str,
        *,
        code: str = "disconnected",
        retryable: bool | None = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        if retryable is None:
            retryable = code in _RETRYABLE_CLIENT_CODES
        self.retryable = bool(retryable)


class ServedResult:
    """A daemon-evaluated grid plus its serving metadata.

    Attributes
    ----------
    values:
        The evaluated grid, shape ``spec.grid_shape`` — bitwise-identical
        to a local evaluation of the same scenario.
    payload:
        The raw result payload (scenario name, objective, spec hash,
        serving accounting).
    """

    def __init__(self, payload: dict) -> None:
        self.payload = payload
        self.values: np.ndarray = values_from_payload(payload)

    @property
    def served_from(self) -> str:
        """``"cache"``, ``"computed"`` or ``"joined"`` (deduplicated)."""
        return self.payload.get("served_from", "computed")

    @property
    def spec_hash(self) -> str:
        """Content hash of the campaign spec that was evaluated."""
        return self.payload.get("spec_hash", "")

    @property
    def elapsed_seconds(self) -> float:
        """Server-side wall-clock seconds of the evaluation."""
        return float(self.payload.get("elapsed_seconds", 0.0))


class ServeClient:
    """Talk to a :class:`~repro.serve.daemon.CampaignServer` socket.

    Parameters
    ----------
    socket_path:
        The daemon's Unix-domain socket.
    timeout:
        Client-side socket timeout in seconds, finite and positive
        (``None`` = block).
    retries:
        How many times a *retryable* failure is retried by reconnecting
        and re-sending the identical request (safe — see the module
        docstring).  The default 0 preserves strict one-shot semantics;
        the CLI front door passes 2.
    backoff_base / backoff_cap:
        Deterministic exponential backoff between retries:
        ``min(cap, base * 2**(k-1))`` seconds after the ``k``-th failure.
        No jitter — retry schedules replay exactly.
    """

    def __init__(
        self,
        socket_path: str,
        *,
        timeout: float | None = None,
        retries: int = 0,
        backoff_base: float = 0.1,
        backoff_cap: float = 2.0,
    ) -> None:
        if retries < 0:
            raise InvalidParameterError(f"retries must be >= 0, got {retries}")
        self.socket_path = socket_path
        self.timeout = _check_timeout(timeout, "client timeout")
        self.retries = int(retries)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self._request_ids = itertools.count(1)

    # -- operations ---------------------------------------------------

    def evaluate(
        self,
        scenario_or_name,
        *,
        executor: str | None = None,
        chunk_size: int | None = None,
        timeout: float | None = None,
        progress=None,
    ) -> ServedResult:
        """Evaluate a scenario on the daemon and return its grid.

        ``scenario_or_name`` is a registered name or a
        :class:`~repro.scenarios.base.Scenario` (shipped inline).
        ``timeout`` (finite seconds > 0, or ``None``) is enforced
        server-side; ``progress`` receives the daemon's per-chunk
        ``(done, total)`` ticks. Raises :class:`ServeError` on any
        terminal error event.
        """
        timeout = _check_timeout(timeout, "request timeout")
        options = {}
        if executor is not None:
            options["executor"] = executor
        if chunk_size is not None:
            options["chunk_size"] = chunk_size
        if timeout is not None:
            options["timeout"] = timeout
        frame = {
            "op": "evaluate",
            "id": self._next_id(),
            "scenario": scenario_to_request(scenario_or_name),
        }
        if options:
            frame["options"] = options
        socket_timeout = self.timeout
        if timeout is not None:
            socket_timeout = timeout + _TIMEOUT_GRACE_SECONDS
        event = self._roundtrip(frame, progress=progress, timeout=socket_timeout)
        return ServedResult(event["result"])

    def ping(self) -> dict:
        """Liveness probe; returns the daemon's ``pong`` frame."""
        return self._roundtrip({"op": "ping", "id": self._next_id()})

    def stats(self) -> dict:
        """The daemon's ``stats`` frame.

        Its ``stats`` mapping holds the serving counters (requests,
        dedup, cache hits...); the frame also carries ``status``,
        ``in_flight``, ``max_pending``, the executor and its pool size,
        ``pool_rebuilds``, ``cache`` and ``faults_injected``.
        """
        return self._roundtrip({"op": "stats", "id": self._next_id()})

    def shutdown(self) -> dict:
        """Ask the daemon to drain and exit; returns its ``bye`` frame."""
        return self._roundtrip({"op": "shutdown", "id": self._next_id()})

    # -- plumbing -----------------------------------------------------

    def _next_id(self) -> str:
        return f"req-{next(self._request_ids)}"

    def _roundtrip(self, frame: dict, *, progress=None, timeout=None) -> dict:
        """One request through the retry loop; returns the terminal event.

        Each attempt is a fresh connection sending the identical frame.
        Only failures marked retryable are retried, up to ``self.retries``
        times, with the deterministic backoff schedule; a retried
        evaluate's progress ticks restart from the daemon's current state
        (usually further along — completed chunks are checkpointed).
        """
        failures = 0
        while True:
            try:
                return self._attempt(frame, progress=progress, timeout=timeout)
            except ServeError as error:
                if not error.retryable or failures >= self.retries:
                    raise
                failures += 1
                delay = min(self.backoff_cap, self.backoff_base * 2 ** (failures - 1))
                if delay > 0.0:
                    time.sleep(delay)

    def _attempt(self, frame: dict, *, progress=None, timeout=None) -> dict:
        """One request, one event stream, one terminal event."""
        if timeout is None:
            timeout = self.timeout
        sock = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
        try:
            sock.settimeout(timeout)
            try:
                sock.connect(self.socket_path)
            except OSError as error:
                # Nobody listening (missing/stale socket, refused
                # connection): not retryable — start the daemon first.
                raise ServeError(
                    f"daemon not running at {self.socket_path} ({error})",
                    code="unreachable",
                ) from error
            sock.sendall(encode_frame(frame))
            with sock.makefile("rb") as stream:
                for line in stream:
                    try:
                        event = decode_frame(line)
                    except ProtocolError as error:
                        # A torn frame: the server died (or the injected
                        # chaos plan severed the socket) mid-write.
                        raise ServeError(
                            f"malformed frame from {self.socket_path}: {error}",
                            code="disconnected",
                        ) from error
                    kind = event.get("event")
                    if kind == "progress":
                        if progress is not None:
                            progress(event.get("done", 0), event.get("total", 0))
                        continue
                    if kind == "accepted":
                        continue
                    if kind == "error":
                        raise ServeError(
                            event.get("message", "request failed"),
                            code=event.get("code", "internal"),
                            retryable=event.get("retryable"),
                        )
                    return event
        except socket_module.timeout as error:
            raise ServeError(
                f"no response from {self.socket_path} within {timeout} s",
                code="disconnected",
            ) from error
        except OSError as error:
            raise ServeError(
                f"connection to {self.socket_path} failed mid-stream: {error}",
                code="disconnected",
            ) from error
        finally:
            sock.close()
        raise ServeError(
            "the server closed the connection before a terminal event",
            code="disconnected",
        )
