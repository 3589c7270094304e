"""Supervision primitives for the parallel runtime.

The paper treats correctness validation as a first-class phase (generated
parallel unit tests plus interleaving exploration, section 2.1), but the
runtime its generated code instantiates was fail-fast only: the first
stage error won, a wedged stage blocked forever, and there was no
retry/timeout/cancellation story.  This module supplies the missing
contract pieces, kept dependency-free so every runtime module can import
them:

* :class:`CancellationToken` — a shared, race-free "stop now" signal that
  wakes threads blocked on registered condition variables;
* :class:`FaultPolicy` — per stage / per worker / per loop body fault
  handling: bounded retries with deterministic seeded exponential
  backoff, a per-element deadline (``item_timeout``), and an ``on_error``
  mode of ``fail_fast`` / ``skip`` / ``fallback``.  The knobs are
  addressable as tuning parameters (``Retries@<stage>`` etc.) so they
  flow through tuning files exactly like the paper's performance knobs;
* :class:`ErrorRecord` / :class:`StageCounters` — the aggregation layer
  replacing first-error-only reporting: every ``(stage, element_seq,
  exception)`` triple survives, alongside delivered/retried/skipped
  accounting.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

#: the three supported poison-element dispositions
ON_ERROR_MODES = ("fail_fast", "skip", "fallback")


class CancelledError(RuntimeError):
    """A supervised operation was cancelled (token fired)."""


class BufferTimeout(RuntimeError):
    """A bounded-buffer ``put``/``get`` exceeded its deadline."""


class ItemTimeoutError(RuntimeError):
    """A stage exceeded its per-element deadline (``ItemTimeout``)."""


class CancellationToken:
    """A one-shot cancellation signal shared by a group of threads.

    The first :meth:`cancel` wins and records its reason; later calls are
    no-ops.  Condition variables registered via :meth:`register` are
    notified on cancellation, so threads blocked in
    :class:`~repro.runtime.buffer.BoundedBuffer` waits wake immediately
    instead of polling.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._reason: str | None = None
        self._lock = threading.Lock()
        self._conditions: list[threading.Condition] = []

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> str | None:
        return self._reason

    def cancel(self, reason: str = "cancelled") -> bool:
        """Fire the token; returns True if this call was the first."""
        with self._lock:
            if self._event.is_set():
                return False
            self._reason = reason
            self._event.set()
            conditions = list(self._conditions)
        # wake every registered waiter; notify_all requires the lock, and
        # waiters hold it across their check-then-wait, so no lost wakeup
        for cond in conditions:
            with cond:
                cond.notify_all()
        return True

    def register(self, condition: threading.Condition) -> None:
        with self._lock:
            self._conditions.append(condition)

    def unregister(self, condition: threading.Condition) -> None:
        with self._lock:
            try:
                self._conditions.remove(condition)
            except ValueError:
                pass

    def raise_if_cancelled(self) -> None:
        # goes through the property so subclasses that widen the fired
        # check (e.g. the process-shared token) are honoured everywhere
        if self.cancelled:
            raise CancelledError(self._reason or "cancelled")

    def wait(self, timeout: float) -> bool:
        """Sleep up to ``timeout`` seconds; True if cancelled meanwhile."""
        return self._event.wait(timeout)


def raise_if_stopped(
    errors: Sequence[BaseException],
    cancel: CancellationToken | None,
    trace: Any = None,
    stage: str = "loop",
) -> None:
    """Raise a supervised run's first error, else a fired ``cancel`` as
    :class:`CancelledError` — recorded as a ``cancel`` span on the
    duck-typed ``trace`` collector."""
    if errors:
        raise errors[0]
    if cancel is not None and cancel.cancelled:
        if trace is not None:
            trace.instant(
                "cancel", stage, -1, reason=cancel.reason or "cancelled"
            )
        raise CancelledError(cancel.reason or "cancelled")


@dataclass
class Outcome:
    """What became of one element under a :class:`FaultPolicy`."""

    action: str  # "delivered" | "skipped" | "fallback" | "failed"
    value: Any
    attempts: int
    error: BaseException | None

    @property
    def retried(self) -> int:
        return self.attempts - 1


@dataclass
class FaultPolicy:
    """Per-stage (or per-loop-body) fault handling contract.

    ``retries`` bounds re-execution of a failing element; waits between
    attempts grow exponentially from ``backoff`` with deterministic
    seeded jitter, so fault handling is reproducible under test.
    ``item_timeout`` is a per-element deadline: an attempt whose wall
    time exceeds it is treated as a fault (its result is discarded) —
    complete wedges are the pipeline stall watchdog's job.  ``on_error``
    decides the exhausted-retries disposition: re-raise (``fail_fast``,
    the historical behaviour), drop and count the poison element
    (``skip``), or substitute ``fallback``.
    """

    retries: int = 0
    backoff: float = 0.01
    backoff_factor: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    item_timeout: float | None = None
    on_error: str = "fail_fast"
    fallback: Any = None
    #: how many dead process-pool workers may be respawned per run
    #: (``PoolRestarts``); 0 keeps the historical fail-on-loss behaviour
    pool_restarts: int = 0

    def __post_init__(self) -> None:
        if self.on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, "
                f"got {self.on_error!r}"
            )
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.pool_restarts < 0:
            raise ValueError("pool_restarts must be >= 0")

    def delays(self) -> list[float]:
        """The deterministic backoff schedule for one element."""
        rng = random.Random(self.seed)
        return [
            self.backoff
            * (self.backoff_factor ** k)
            * (1.0 + self.jitter * rng.random())
            for k in range(self.retries)
        ]

    def execute(
        self,
        fn: Callable[[Any], Any],
        value: Any,
        cancel: CancellationToken | None = None,
        trace: Any = None,
        stage: str = "",
        seq: int = -1,
        metrics: Any = None,
    ) -> Outcome:
        """Run ``fn(value)`` under this policy; never raises user errors.

        Cancellation is the one exception that propagates: a fired token
        aborts retries (and their backoff sleeps) immediately.

        ``trace`` is duck-typed (anything with a
        ``TraceCollector``-shaped ``add``) so this module stays
        dependency-free: each attempt becomes an ``execute`` (first) or
        ``retry`` (later) span — carrying ``error=repr(exc)`` on failure,
        the cross-reference to its :class:`ErrorRecord` — a missed
        deadline a ``timeout`` span, and each inter-attempt sleep a
        ``backoff`` span.  ``None`` (the default) costs one ``is None``
        check per attempt.

        ``metrics`` is likewise duck-typed (a
        ``MetricsRegistry``-shaped ``inc``): every policy *fire* — a
        retry attempt, a missed deadline, a backoff sleep — bumps a
        counter, so aggregate fault pressure is visible without reading
        spans.
        """
        schedule = self.delays()
        attempts = 0
        last: BaseException | None = None
        while True:
            if cancel is not None:
                cancel.raise_if_cancelled()
            attempts += 1
            started = time.monotonic()
            try:
                result = fn(value)
                elapsed = time.monotonic() - started
                if self.item_timeout and elapsed > self.item_timeout:
                    raise ItemTimeoutError(
                        f"element took {elapsed:.3f}s, deadline "
                        f"{self.item_timeout:.3f}s"
                    )
                if metrics is not None and attempts > 1:
                    metrics.inc("policy_retries", stage=stage)
                if trace is not None:
                    trace.add(
                        "execute" if attempts == 1 else "retry",
                        stage,
                        seq,
                        started,
                        attempt=attempts,
                    )
                return Outcome("delivered", result, attempts, None)
            except CancelledError:
                raise
            except BaseException as exc:
                last = exc
                if metrics is not None:
                    if isinstance(exc, ItemTimeoutError):
                        metrics.inc("policy_timeouts", stage=stage)
                    if attempts > 1:
                        metrics.inc("policy_retries", stage=stage)
                if trace is not None:
                    if isinstance(exc, ItemTimeoutError):
                        kind = "timeout"
                    else:
                        kind = "execute" if attempts == 1 else "retry"
                    trace.add(
                        kind,
                        stage,
                        seq,
                        started,
                        attempt=attempts,
                        error=repr(exc),
                    )
            if attempts <= self.retries:
                delay = schedule[attempts - 1]
                slept = time.monotonic()
                if cancel is not None:
                    if cancel.wait(delay):
                        cancel.raise_if_cancelled()
                elif delay > 0:
                    time.sleep(delay)
                if metrics is not None:
                    metrics.inc("policy_backoffs", stage=stage)
                if trace is not None:
                    trace.add(
                        "backoff",
                        stage,
                        seq,
                        slept,
                        attempt=attempts,
                        delay=delay,
                    )
                continue
            if self.on_error == "skip":
                return Outcome("skipped", None, attempts, last)
            if self.on_error == "fallback":
                return Outcome("fallback", self.fallback, attempts, last)
            return Outcome("failed", None, attempts, last)


@dataclass
class ErrorRecord:
    """One recorded stage failure: the aggregation unit that replaces
    first-error-only reporting."""

    stage: str
    seq: int
    error: BaseException
    attempts: int = 1

    def describe(self) -> str:
        retried = f" after {self.attempts} attempts" if self.attempts > 1 else ""
        return f"stage {self.stage!r} element {self.seq}: {self.error!r}{retried}"


class StageCounters:
    """Thread-safe per-stage delivery accounting."""

    __slots__ = ("_lock", "delivered", "retried", "skipped", "fallbacks", "failed")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.delivered = 0
        self.retried = 0
        self.skipped = 0
        self.fallbacks = 0
        self.failed = 0

    def account(self, outcome: Outcome) -> None:
        with self._lock:
            self.retried += outcome.retried
            if outcome.action == "delivered":
                self.delivered += 1
            elif outcome.action == "skipped":
                self.skipped += 1
            elif outcome.action == "fallback":
                self.fallbacks += 1
                self.delivered += 1
            else:
                self.failed += 1

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return {
                "delivered": self.delivered,
                "retried": self.retried,
                "skipped": self.skipped,
                "fallbacks": self.fallbacks,
                "failed": self.failed,
            }


# canonical tuning-parameter names for the fault knobs (the performance
# knobs' siblings; see repro.patterns.tuning for those)
RETRIES = "Retries"
ITEM_TIMEOUT = "ItemTimeout"
ON_ERROR = "OnError"
STALL_TIMEOUT = "StallTimeout"
POOL_RESTARTS = "PoolRestarts"
