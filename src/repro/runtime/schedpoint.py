"""The SchedPoint hook API — every blocking decision point of the runtime.

The simulator's blocking primitives (collective rounds, ``MPI_Recv``, team
barriers, ``single`` claims, critical sections, fork/join, the inserted
checks) all funnel through three world-level hooks instead of raw
``Condition.wait``/busy-poll loops:

* ``yield_point(kind, detail)`` — a scheduling-relevant instant where a
  context switch may be *observed* (entering a collective, claiming a
  ``single``, ...).  A no-op under normal threaded execution; under a
  cooperative scheduler it is a decision point.
* ``wait(cond, describe, predicate)`` — block the calling thread until the
  condition's state may have changed.  Call sites keep their classic
  ``while not <state>: wait(...)`` loops, so the threaded implementation can
  ignore ``predicate`` and rely on notification plus a coarse fallback
  timeout, while a scheduler uses it for precise wake-ups and the wait-for
  state that makes virtual-clock deadlock reports exact.
* ``notify(cond)`` — state guarded by ``cond`` changed; wake its waiters.

:class:`ThreadedHooks` is the default implementation: real OS threads,
condition notification on abort (no 20 ms busy-polling), and a coarse
``_FALLBACK_WAIT`` re-check as a safety net against lost notifications.
``repro.explore.Scheduler`` implements the same interface cooperatively —
exactly one logical thread runs at a time, every decision is recorded, and
runs are reproducible from their choice sequence.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional


class SchedPoint:
    """Kinds of scheduling decision points (trace/labels only)."""

    START = "start"
    COLLECTIVE = "collective"
    SEND = "send"
    RECV = "recv"
    OMP_BARRIER = "omp-barrier"
    CLAIM = "claim"
    CRITICAL = "critical"
    CHECK = "check"
    JOIN = "join"
    EXIT = "exit"
    BLOCK = "block"


#: Seconds between safety re-checks while blocked in threaded mode.  Waits
#: are woken by notification (including on abort); the fallback only bounds
#: the damage of a lost wakeup or a contended abort-time notify.
_FALLBACK_WAIT = 0.2


class ExecutionHooks:
    """Interface the world delegates its blocking decision points to."""

    #: True when exactly one logical thread runs at a time (scheduler mode).
    cooperative = False

    # -- time ----------------------------------------------------------------

    def clock(self) -> float:
        return time.monotonic()

    # -- decision points -----------------------------------------------------

    def yield_point(self, world, kind: str, detail: str = "") -> None:
        pass

    def wait(self, world, cond: threading.Condition, describe: str = "",
             predicate: Optional[Callable[[], bool]] = None) -> None:
        raise NotImplementedError

    def notify(self, world, cond: threading.Condition) -> None:
        raise NotImplementedError

    # -- footprints / observations (no-ops in threaded mode) -----------------

    def note_access(self, obj: str, mode: str = "w") -> None:
        """The running logical thread touched shared object ``obj``."""

    def note_observation(self, value) -> None:
        """The running logical thread observed ``value`` (recv/collective
        result, shared read, claim outcome) — folded into its state hash."""

    # -- logical-thread lifecycle (no-ops in threaded mode) ------------------

    def child_names(self, size: int) -> List[Optional[str]]:
        """Deterministic names for a team's worker threads (index = tid;
        entry 0 is the master and always ``None``)."""
        return [None] * size

    def attach(self, name: str) -> None:
        pass

    def detach(self) -> None:
        pass

    def await_children(self, names) -> None:
        pass

    def await_detached(self, timeout: Optional[float]) -> bool:
        """Block until every logical thread has detached — the end of a
        scheduled run, which may come after the rank threads return (a
        team's workers still unwinding an abort).  False on timeout."""
        return True

    def start(self, world) -> None:
        pass

    def on_abort(self, world) -> None:
        pass

    def join_timeout(self, timeout: float) -> float:
        """Wall-clock guard for joining the rank threads."""
        return timeout * 3


class ThreadedHooks(ExecutionHooks):
    """Default execution: free-running OS threads, notified conditions."""

    cooperative = False

    def wait(self, world, cond, describe="", predicate=None):
        world.register_wait_cond(cond)
        cond.wait(_FALLBACK_WAIT)

    def notify(self, world, cond):
        cond.notify_all()


#: Shared stateless default (per-world state lives on the world itself).
THREADED_HOOKS = ThreadedHooks()
