"""The serve wire protocol: JSON-lines frames over a local socket.

One connection carries one conversation: the client writes a single
request frame (one JSON object, one line), the daemon answers with a
stream of event frames and closes the exchange with a terminal event.
Frames are UTF-8 JSON objects separated by ``\\n``; no frame may exceed
:data:`MAX_FRAME_BYTES`.

Request frames (``op`` selects the operation)::

    {"op": "evaluate", "id": "r-1", "scenario": {...}, "options": {...}}
    {"op": "ping", "id": "r-2"}
    {"op": "stats", "id": "r-3"}
    {"op": "shutdown", "id": "r-4"}

The ``scenario`` mapping is the scenario reference format of
:mod:`repro.scenarios.wire` (registered name or inline campaign spec);
``options`` may carry ``executor`` (campaign executor name),
``chunk_size`` (checkpoint granularity) and ``timeout`` (seconds the
client is willing to wait for the result).

Event frames for an ``evaluate`` request, in order::

    {"event": "accepted", "id": ..., "spec_hash": ..., "n_units": ...,
     "deduplicated": false}
    {"event": "progress", "id": ..., "done": 128, "total": 400}   # repeated
    {"event": "result", "id": ..., "result": {...}}               # terminal

or the terminal ``{"event": "error", "id": ..., "code": ..., "message":
..., "retryable": ...}`` with ``code`` one of :data:`ERROR_CODES` and
``retryable`` telling the client whether an identical re-request is a
sensible recovery (safe by construction: identical requests dedup on the
spec's cache key, so a retry joins or re-reads, never recomputes
divergently). ``ping`` answers ``pong``, ``stats`` answers ``stats``
(the serving counters plus a liveness snapshot: status, queue, pool and
fault-injection counters) and ``shutdown`` answers ``bye``.

Result payloads ship the grid as ``values`` — the base64 text of its
C-order little-endian IEEE-754 float64 bytes — next to its ``shape``.
The transport is exact at the byte level: every value, NaN sign and
payload bits included, reaches the client as the same eight bytes the
daemon held, so a served grid is bitwise-identical to the locally
computed one, the same guarantee the executors give each other.  JSON
floats could not promise that: JSON has a single ``NaN`` token, which
drops a NaN's sign and payload (``inf - inf`` is the sign-set NaN on
x86).
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ReproError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "OPS",
    "ERROR_CODES",
    "RETRYABLE_ERROR_CODES",
    "ProtocolError",
    "Request",
    "encode_frame",
    "decode_frame",
    "parse_request",
    "accepted_event",
    "progress_event",
    "result_event",
    "error_event",
    "result_payload",
    "values_from_payload",
]

#: Version stamped into ``ping`` responses; bumped on breaking changes.
PROTOCOL_VERSION = 2

#: Upper bound on one frame's encoded size (a line, including newline).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Supported request operations.
OPS = ("evaluate", "ping", "stats", "shutdown")

#: Error codes a terminal ``error`` event may carry.
#:
#: * ``invalid`` — malformed frame, unknown scenario, bad options;
#: * ``busy`` — the daemon's in-flight job table is full (backpressure:
#:   retry later or raise ``max_pending``);
#: * ``timeout`` — the request's deadline passed before the result;
#: * ``shutting-down`` — the daemon is draining and accepts no new work;
#: * ``internal`` — the evaluation itself failed.
ERROR_CODES = ("invalid", "busy", "timeout", "shutting-down", "internal")

#: Codes whose default ``retryable`` flag is true: the failure is a
#: transient condition of the daemon (load), not of the request.  The
#: daemon may override per event — e.g. a ``timeout`` becomes retryable
#: when the aborted campaign left checkpoints a retry would resume from.
RETRYABLE_ERROR_CODES = frozenset({"busy"})

#: Keys an ``evaluate`` request's ``options`` mapping may carry.
OPTION_KEYS = frozenset({"executor", "chunk_size", "timeout"})


class ProtocolError(ReproError):
    """A frame violated the serve wire protocol."""


@dataclass(frozen=True)
class Request:
    """A parsed, structurally valid request frame."""

    op: str
    id: str
    scenario: dict | None = None
    options: dict = field(default_factory=dict)


def encode_frame(frame: dict) -> bytes:
    """Serialize one frame to its wire form (JSON line, UTF-8)."""
    data = json.dumps(frame, separators=(",", ":"), allow_nan=True)
    encoded = data.encode("utf-8") + b"\n"
    if len(encoded) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(encoded)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return encoded


def decode_frame(line: bytes | str) -> dict:
    """Parse one wire line back into a frame mapping."""
    if isinstance(line, bytes):
        if len(line) > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame of {len(line)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
            )
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"frame is not valid UTF-8: {error}") from error
    try:
        frame = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"frame is not valid JSON: {error}") from error
    if not isinstance(frame, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(frame).__name__}")
    return frame


def parse_request(frame: dict) -> Request:
    """Validate a request frame's structure (not its scenario semantics).

    Scenario resolution is deliberately left to the daemon — it owns the
    registry — so this layer only guarantees shape: a known ``op``, a
    string ``id``, a mapping ``scenario`` exactly when the op needs one,
    and only recognized option keys with sane types.
    """
    op = frame.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; supported: {OPS}")
    request_id = frame.get("id", "")
    if not isinstance(request_id, str):
        raise ProtocolError(f"request id must be a string, got {request_id!r}")
    scenario = frame.get("scenario")
    if op == "evaluate":
        if not isinstance(scenario, dict):
            raise ProtocolError("an evaluate request carries a 'scenario' mapping")
    elif scenario is not None:
        raise ProtocolError(f"op {op!r} takes no scenario")
    options = frame.get("options", {})
    if not isinstance(options, dict):
        raise ProtocolError(f"options must be a mapping, got {options!r}")
    unknown = set(options) - OPTION_KEYS
    if unknown:
        raise ProtocolError(
            f"unknown option keys {sorted(unknown)}; supported: {sorted(OPTION_KEYS)}"
        )
    executor = options.get("executor")
    if executor is not None and not isinstance(executor, str):
        raise ProtocolError(f"option 'executor' must be a string, got {executor!r}")
    chunk_size = options.get("chunk_size")
    if chunk_size is not None:
        if not isinstance(chunk_size, int) or isinstance(chunk_size, bool):
            raise ProtocolError(
                f"option 'chunk_size' must be an integer, got {chunk_size!r}"
            )
        if chunk_size < 1:
            raise ProtocolError(
                f"option 'chunk_size' must be positive, got {chunk_size}"
            )
    timeout = options.get("timeout")
    if timeout is not None:
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
            raise ProtocolError(f"option 'timeout' must be a number, got {timeout!r}")
        try:
            finite = math.isfinite(timeout)
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite or timeout <= 0:
            raise ProtocolError(
                f"option 'timeout' must be a positive finite number, got {timeout}"
            )
    return Request(op=op, id=request_id, scenario=scenario, options=dict(options))


def accepted_event(
    request_id: str, *, spec_hash: str, n_units: int, deduplicated: bool
) -> dict:
    """The daemon's first answer: the request is queued (or joined)."""
    return {
        "event": "accepted",
        "id": request_id,
        "spec_hash": spec_hash,
        "n_units": int(n_units),
        "deduplicated": bool(deduplicated),
    }


def progress_event(request_id: str, done: int, total: int) -> dict:
    """A per-chunk progress tick: ``done`` of ``total`` grid cells."""
    return {
        "event": "progress",
        "id": request_id,
        "done": int(done),
        "total": int(total),
    }


def result_event(request_id: str, payload: dict) -> dict:
    """The terminal success event carrying the result payload."""
    return {"event": "result", "id": request_id, "result": payload}


def error_event(
    request_id: str, code: str, message: str, *, retryable: bool | None = None
) -> dict:
    """The terminal failure event.

    ``retryable`` defaults from the code (:data:`RETRYABLE_ERROR_CODES`);
    pass an explicit value when the daemon knows better — the structured
    flag is what lets clients retry transient failures without having to
    pattern-match message text.
    """
    if code not in ERROR_CODES:
        raise ProtocolError(f"unknown error code {code!r}; supported: {ERROR_CODES}")
    if retryable is None:
        retryable = code in RETRYABLE_ERROR_CODES
    return {
        "event": "error",
        "id": request_id,
        "code": code,
        "message": str(message),
        "retryable": bool(retryable),
    }


def result_payload(
    *,
    scenario_name: str,
    objective: str,
    spec_hash: str,
    values: np.ndarray,
    served_from: str,
    executor_name: str,
    cells_from_cache: int,
    cells_computed: int,
    elapsed_seconds: float,
    chunk_retries: int = 0,
    pool_rebuilds: int = 0,
) -> dict:
    """Build a result payload from an evaluated grid.

    ``served_from`` records how the daemon satisfied the request:
    ``"cache"`` (read straight from the content-addressed store),
    ``"computed"`` (this request triggered the evaluation) or
    ``"joined"`` (deduplicated onto another request's in-flight
    evaluation).  ``chunk_retries``/``pool_rebuilds`` carry the engine's
    fault-recovery accounting for the computing run (zero for cache and
    joined serves — recovery happened, if at all, on the computing side).
    """
    array = np.asarray(values, dtype=float)
    encoded = np.ascontiguousarray(array, dtype="<f8").tobytes()
    return {
        "scenario": scenario_name,
        "objective": objective,
        "spec_hash": spec_hash,
        "shape": list(array.shape),
        "values": base64.b64encode(encoded).decode("ascii"),
        "served_from": served_from,
        "executor": executor_name,
        "cells_from_cache": int(cells_from_cache),
        "cells_computed": int(cells_computed),
        "elapsed_seconds": float(elapsed_seconds),
        "chunk_retries": int(chunk_retries),
        "pool_rebuilds": int(pool_rebuilds),
    }


def values_from_payload(payload: dict) -> np.ndarray:
    """Decode a payload's base64 ``values`` into its grid array.

    The result is a fresh, writable, native-order, C-contiguous float64
    array.  Anything but a v2 encoding of exactly ``prod(shape)``
    doubles — a v1 float list, text that is not strict base64, a byte
    count that is not a whole number of doubles — raises
    :class:`ProtocolError`.
    """
    try:
        shape = tuple(int(n) for n in payload["shape"])
        encoded = payload["values"]
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"malformed result payload: {error}") from error
    if any(n < 0 for n in shape):
        raise ProtocolError(f"payload shape {shape} has a negative extent")
    if not isinstance(encoded, str):
        raise ProtocolError(
            "payload values must be base64 float64 bytes (protocol "
            f"v{PROTOCOL_VERSION}), got {type(encoded).__name__}"
        )
    try:
        raw = base64.b64decode(encoded, validate=True)
    except ValueError as error:  # binascii.Error, or non-ASCII text
        raise ProtocolError(f"payload values are not valid base64: {error}") from error
    expected = 8 * math.prod(shape)
    if len(raw) != expected:
        raise ProtocolError(
            f"payload carries {len(raw)} value bytes but shape {shape} needs {expected}"
        )
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
