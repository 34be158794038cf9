"""Deadlines, structured failure records and resilience counters.

The long-running subsystems (``parcoach serve``/``watch`` and ``project
serve``) route their fault handling through this module, so recovery
behaviour is uniform and — because the clock is injectable —
byte-deterministically testable.  Three pieces:

* :class:`Deadline` — a monotonic per-request time budget.  Work that can
  take unbounded time calls :meth:`Deadline.check` at its phase
  boundaries; expiry raises :class:`DeadlineExceeded` naming the site
  that noticed, which callers convert into a ``timeout`` report and a
  graceful-degradation retry (see ``docs/resilience.md``).

* :class:`Failure` — a structured record of one caught exception (site,
  attempt, type, message, traceback digest) suitable for embedding in a
  Report IR summary: the digest is content-addressed, the full traceback
  never leaks into the byte-stable output.

* :class:`ResilienceCounters` — the counters every serve daemon keeps
  (``recoveries``, ``rebuilds``, ``timeouts``, ``degraded``) and its
  bounded ``failures`` trail, surfaced by the ``stats`` command.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List


class DeadlineExceeded(Exception):
    """A :class:`Deadline` expired.  ``site`` names the checkpoint that
    noticed — useful for telling a slow parse from a slow analysis."""

    def __init__(self, site: str, budget: float, elapsed: float) -> None:
        super().__init__(
            f"deadline exceeded at {site or '<unnamed>'}: "
            f"{elapsed * 1000.0:.0f}ms elapsed of {budget * 1000.0:.0f}ms")
        self.site = site
        self.budget = budget
        self.elapsed = elapsed


class Deadline:
    """A monotonic time budget, started at construction.

    The clock is injectable so deadline behaviour is deterministic under
    test (a fake clock advances exactly when the test says so)."""

    __slots__ = ("budget", "_clock", "_start")

    def __init__(self, seconds: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.budget = float(seconds)
        self._clock = clock
        self._start = clock()

    @classmethod
    def after_ms(cls, ms: float,
                 clock: Callable[[], float] = time.monotonic) -> "Deadline":
        return cls(ms / 1000.0, clock=clock)

    def elapsed(self) -> float:
        return self._clock() - self._start

    def remaining(self) -> float:
        return self.budget - self.elapsed()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, site: str = "") -> None:
        """Raise :class:`DeadlineExceeded` when the budget is spent."""
        elapsed = self.elapsed()
        if elapsed >= self.budget:
            raise DeadlineExceeded(site, self.budget, elapsed)


@dataclass(frozen=True)
class Failure:
    """One caught exception, structured for counters and reports."""

    site: str
    attempt: int
    error_type: str
    message: str
    #: SHA-256[:16] of the formatted traceback — stable for identical
    #: failures, never leaks stack frames into byte-stable output.
    traceback_digest: str

    @classmethod
    def from_exception(cls, site: str, attempt: int,
                       exc: BaseException) -> "Failure":
        tb = "".join(traceback.format_exception(type(exc), exc,
                                                exc.__traceback__))
        return cls(
            site=site, attempt=attempt, error_type=type(exc).__name__,
            message=str(exc),
            traceback_digest=hashlib.sha256(
                tb.encode("utf-8")).hexdigest()[:16],
        )

    def as_dict(self) -> dict:
        return {
            "site": self.site,
            "attempt": self.attempt,
            "error_type": self.error_type,
            "message": self.message,
            "traceback_digest": self.traceback_digest,
        }


class ResilienceCounters:
    """What the serve loop's self-heal and deadline ladders did: requests
    healed by a targeted ``recover_file``, full ``rebuild``s, deadline
    expiries, requests answered by a degraded analysis, and the most
    recent failures (bounded: the trail is diagnostic, not a log)."""

    MAX_FAILURES = 8

    def __init__(self) -> None:
        self.recoveries = 0
        self.rebuilds = 0
        self.timeouts = 0
        self.degraded = 0
        self.failures: List[Failure] = []

    def record_failure(self, site: str, exc: BaseException,
                       attempt: int = 1) -> Failure:
        failure = Failure.from_exception(site, attempt, exc)
        self.failures.append(failure)
        del self.failures[:-self.MAX_FAILURES]
        return failure

    def resilience_stats(self) -> Dict[str, object]:
        return {
            "recoveries": self.recoveries,
            "rebuilds": self.rebuilds,
            "timeouts": self.timeouts,
            "degraded": self.degraded,
            "failures": [f.as_dict() for f in self.failures],
        }


__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "Failure",
    "ResilienceCounters",
]
