"""Deterministic fault injection for campaigns, caches, and the serve daemon.

The chaos suite's contract is that every injected failure is *replayable*:
given the same :class:`FaultPlan` and the same campaign, the same faults fire
at the same sites in the same order, with no wall-clock randomness anywhere.
Three ingredients make that true:

* **Sites are logical, not temporal.**  A chunk fault site is the global unit
  range ``[lo, hi)`` of the chunk plus the zero-based retry ``attempt``; a
  cache-write site is the entry filename plus the per-file write ordinal; a
  socket site is the frame's event kind plus the per-kind send ordinal.
* **Probabilistic rules hash, they do not sample.**  A rule with
  ``probability < 1`` fires iff a SHA-256 hash of
  ``(seed, kind, site, attempt)`` — mapped to ``[0, 1)`` — falls below the
  probability.  Two processes evaluating the same site agree without sharing
  any RNG state.
* **Plans are inert data.**  A plan is a frozen, JSON-serializable value that
  does nothing until a hook seam consults it: ``run_campaign(fault_plan=)``,
  ``CampaignServer(fault_plan=)``, or the ``REPRO_FAULT_PLAN`` environment
  variable (read by both, so subprocess tests can arm faults without
  plumbing arguments through the CLI).  Production code paths never pay for
  injection when no plan is armed.

Fault kinds
-----------

``chunk-error``
    Raise :class:`InjectedChunkError` (a :class:`RetryableChunkError`) from
    chunk evaluation.  Every executor fires it through the same hook,
    :meth:`FaultToken.apply`: in the pool worker for pool executors, and
    just before ``executor.run`` for in-process ones.
``worker-death``
    ``os._exit`` inside the pool worker evaluating the chunk, breaking the
    process pool.  Only fires inside a worker (``in_worker=True``); for
    in-process executors it is a no-op rather than killing the test runner.
``torn-write``
    Sabotage a cache entry write.  ``mode="crash"`` simulates a writer dying
    before publication (the temp file is discarded and ``os.replace`` never
    runs); ``mode="corrupt"`` (the default) truncates the entry *after*
    publication, which SHA-256 verification must catch on the next read.
``socket-drop``
    Write roughly half of an outbound serve frame, then sever the
    connection mid-frame.
``socket-close``
    Sever the connection before the frame is written at all.
``socket-delay``
    Sleep ``delay_seconds`` before writing the frame (exercises client-side
    socket timeouts without touching the transport's integrity).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass

from .exceptions import InvalidParameterError, RetryableChunkError

__all__ = [
    "FAULT_KINDS",
    "FAULT_PLAN_ENV",
    "TORN_WRITE_MODES",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "FaultToken",
    "InjectedChunkError",
    "chunk_site",
]

FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

FAULT_KINDS = (
    "chunk-error",
    "worker-death",
    "torn-write",
    "socket-drop",
    "socket-close",
    "socket-delay",
)

TORN_WRITE_MODES = ("corrupt", "crash")


class InjectedChunkError(RetryableChunkError):
    """The transient chunk failure raised by ``chunk-error`` fault rules."""


def chunk_site(lo: int, hi: int) -> str:
    """Canonical site string for the chunk covering global units [lo, hi)."""

    return f"chunk[{int(lo)},{int(hi)})"


@dataclass(frozen=True)
class FaultRule:
    """One deterministic trigger: fire ``kind`` at matching sites/attempts.

    ``site`` is a substring filter on the canonical site string (``None``
    matches every site).  The rule is eligible on attempts ``after <=
    attempt < after + times`` (``times=None`` means every attempt from
    ``after`` on).  ``probability`` thins eligible firings via the plan's
    seeded hash; 1.0 always fires.  ``mode`` selects the ``torn-write``
    flavor, ``delay_seconds`` parameterizes ``socket-delay``, and
    ``exit_code`` is the ``os._exit`` status for ``worker-death``.
    """

    kind: str
    site: str | None = None
    after: int = 0
    times: int | None = 1
    probability: float = 1.0
    mode: str | None = None
    delay_seconds: float = 0.0
    exit_code: int = 23

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise InvalidParameterError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.after < 0:
            raise InvalidParameterError("FaultRule.after must be >= 0")
        if self.times is not None and self.times < 1:
            raise InvalidParameterError("FaultRule.times must be >= 1 or None")
        if not 0.0 <= self.probability <= 1.0:
            raise InvalidParameterError("FaultRule.probability must lie in [0, 1]")
        if self.mode is not None and self.mode not in TORN_WRITE_MODES:
            raise InvalidParameterError(
                f"unknown torn-write mode {self.mode!r}; "
                f"expected one of {TORN_WRITE_MODES}"
            )
        if self.delay_seconds < 0.0:
            raise InvalidParameterError("FaultRule.delay_seconds must be >= 0")

    def matches(self, site: str, attempt: int) -> bool:
        """Whether this rule is eligible at ``site`` on ``attempt``.

        Probability thinning is *not* applied here — that needs the plan's
        seed — only the site filter and the attempt window.
        """

        if self.site is not None and self.site not in site:
            return False
        if attempt < self.after:
            return False
        if self.times is not None and attempt >= self.after + self.times:
            return False
        return True

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        # Only drop fields whose *default* is None — for ``times``, None is
        # meaningful (unbounded) and must survive the round trip.
        for key in ("site", "mode"):
            if payload[key] is None:
                del payload[key]
        return payload


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, seeded collection of :class:`FaultRule` triggers.

    The plan is pure data: hashable, picklable (it rides into pool workers
    inside :class:`FaultToken`), and JSON round-trippable so subprocess
    tests can arm it through the :data:`FAULT_PLAN_ENV` environment
    variable.  ``decide`` is a pure function of ``(seed, rules, kind, site,
    attempt)`` — calling it twice, in two processes, yields the same answer.
    """

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))

    def has(self, *kinds: str) -> bool:
        """Whether any rule targets one of ``kinds`` (cheap arming check)."""

        return any(rule.kind in kinds for rule in self.rules)

    def _chance(self, kind: str, site: str, attempt: int) -> float:
        token = f"{self.seed}|{kind}|{site}|{attempt}".encode()
        digest = hashlib.sha256(token).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def decide(self, kind: str, site: str, attempt: int) -> FaultRule | None:
        """First rule of ``kind`` that fires at ``(site, attempt)``, if any."""

        for rule in self.rules:
            if rule.kind != kind or not rule.matches(site, attempt):
                continue
            if rule.probability >= 1.0:
                return rule
            if self._chance(kind, site, attempt) < rule.probability:
                return rule
        return None

    def to_dict(self) -> dict:
        return {"seed": self.seed, "rules": [rule.to_dict() for rule in self.rules]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> FaultPlan:
        if not isinstance(payload, dict):
            raise InvalidParameterError("fault plan payload must be a JSON object")
        rules = payload.get("rules", ())
        if not isinstance(rules, (list, tuple)):
            raise InvalidParameterError("fault plan 'rules' must be a list")
        return cls(
            rules=tuple(FaultRule(**rule) for rule in rules),
            seed=int(payload.get("seed", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> FaultPlan:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise InvalidParameterError(f"invalid fault plan JSON: {error}") from error
        return cls.from_dict(payload)

    @classmethod
    def from_env(cls, environ=None) -> FaultPlan | None:
        """Plan armed via :data:`FAULT_PLAN_ENV`, or ``None`` when unset.

        The value is either inline JSON (starts with ``{``) or the path of a
        JSON file — the latter keeps shell quoting sane in CI scripts.
        """

        value = (environ if environ is not None else os.environ).get(FAULT_PLAN_ENV)
        if not value:
            return None
        value = value.strip()
        if not value.startswith("{"):
            with open(value, "r", encoding="utf-8") as handle:
                value = handle.read()
        return cls.from_json(value)


@dataclass(frozen=True)
class FaultToken:
    """A plan bound to one chunk attempt, picklable into pool workers.

    The one chunk fault hook.  Pool executors forward the token to their
    worker entry point, which calls :meth:`apply` before evaluating — so
    ``worker-death`` genuinely kills a pool process and ``chunk-error``
    raises from inside the worker, exercising the real failure paths rather
    than simulations of them.  In-process executors apply it with
    ``in_worker=False`` (:func:`repro.campaign.executors.chunk_outcomes`).
    """

    plan: FaultPlan
    chunk: tuple[int, int]
    attempt: int

    def apply(self, *, in_worker: bool = True):
        """Fire this chunk attempt's faults before it is evaluated.

        ``worker-death`` only fires when ``in_worker`` is true — in-process
        executors must not take the whole interpreter down.  ``chunk-error``
        raises :class:`InjectedChunkError` wherever evaluation runs.
        """

        site = chunk_site(*self.chunk)
        rule = self.plan.decide("worker-death", site, self.attempt)
        if rule is not None and in_worker:
            os._exit(rule.exit_code)
        if self.plan.decide("chunk-error", site, self.attempt) is not None:
            raise InjectedChunkError(
                f"injected transient fault at {site} on attempt {self.attempt}"
            )


class FaultInjector:
    """Stateful plan evaluator for sites that need occurrence counting.

    Chunk sites carry their own attempt number, but cache writes and socket
    sends do not — their "attempt" is *how many times this site has been
    visited*, which is inherently per-run state.  The injector keeps those
    ordinals (and a tally of fired faults, keyed by kind) so a fresh
    injector replays a run's faults exactly.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._ordinals: dict[tuple[str, str], int] = {}
        self.fired: dict[str, int] = {}

    def _next_ordinal(self, group: str, site: str) -> int:
        key = (group, site)
        ordinal = self._ordinals.get(key, 0)
        self._ordinals[key] = ordinal + 1
        return ordinal

    def _record(self, kind: str):
        self.fired[kind] = self.fired.get(kind, 0) + 1

    def cache_write(self, name: str) -> FaultRule | None:
        """Torn-write rule for the ``name``-th entry write, if one fires."""

        ordinal = self._next_ordinal("cache-write", name)
        rule = self.plan.decide("torn-write", name, ordinal)
        if rule is not None:
            self._record("torn-write")
        return rule

    def socket_event(self, event: str) -> tuple[str, FaultRule] | None:
        """Socket fault for the next outbound frame of ``event`` kind.

        Returns ``(kind, rule)`` for the first socket rule that fires, or
        ``None``.  All three socket kinds share the per-event ordinal so a
        plan can reason about "the second result frame" unambiguously.
        """

        ordinal = self._next_ordinal("socket", event)
        for kind in ("socket-close", "socket-drop", "socket-delay"):
            rule = self.plan.decide(kind, event, ordinal)
            if rule is not None:
                self._record(kind)
                return kind, rule
        return None
