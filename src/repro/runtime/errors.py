"""Runtime error taxonomy.

:class:`ValidationError` subclasses are *verdicts* — what the dynamic checks
(or the simulator acting as the "machine") report.  :class:`AbortedError` is
the secondary unwind used to stop all other threads once a verdict exists;
it never surfaces as a result.
"""

from __future__ import annotations

from typing import Optional


class ValidationError(Exception):
    """Base class for every error the runtime can report."""

    #: "CC" / "thread-check" for instrumentation verdicts, "simulator" when
    #: only the simulated machine could tell (i.e. what a real run would
    #: experience as a deadlock or crash).
    detected_by: str = "simulator"

    def __init__(self, message: str, rank: Optional[int] = None,
                 line: Optional[int] = None) -> None:
        super().__init__(message)
        self.rank = rank
        self.line = line

    def describe(self) -> str:
        where = f" [rank {self.rank}]" if self.rank is not None else ""
        at = f" (line {self.line})" if self.line else ""
        return f"{type(self).__name__}{where}{at}: {self}"


class CollectiveMismatchError(ValidationError):
    """CC found min ≠ max: processes are about to execute different
    collectives (or one returns).  Reported *before* the deadlock."""

    detected_by = "CC"


class ThreadContextError(ValidationError):
    """≥2 threads of one process executed a collective node concurrently
    (phase-1 instrumentation verdict)."""

    detected_by = "thread-check"


class ConcurrentCollectiveError(ValidationError):
    """Two concurrent monothreaded regions executed collectives
    simultaneously (phase-2 instrumentation verdict), or the simulator saw
    two in-flight collectives on one communicator from one process."""

    detected_by = "thread-check"


class ThreadLevelError(ValidationError):
    """MPI called in a way the requested thread support level forbids."""

    detected_by = "simulator"


class DeadlockError(ValidationError):
    """The simulated machine deadlocked (mismatched collectives without
    instrumentation, a rank exiting while others wait, every thread
    blocked, a livelock past the step budget, a stalled run...)."""

    detected_by = "simulator"


class MpiRuntimeError(ValidationError):
    """Other MPI usage errors (operation on finalized MPI, bad root...)."""

    detected_by = "simulator"


class AbortedError(Exception):
    """Secondary unwind once the world has aborted; not a verdict."""
