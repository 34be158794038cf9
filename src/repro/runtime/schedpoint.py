"""The SchedPoint API — every blocking decision point of the runtime.

The simulator's blocking primitives (collective rounds, ``MPI_Recv``, team
barriers, ``single`` claims, critical sections, fork/join, the inserted
checks) all funnel through three calls of the world's cooperative
scheduler (``repro.explore.Scheduler``, with ``DefaultStrategy`` unless
the caller installs another), ``world.scheduler``:

* ``yield_point(world, kind, detail)`` — a scheduling decision: the
  running logical thread may be switched out here (entering a
  collective, claiming a ``single``, ...).
* ``wait(world, cond, describe, predicate)`` — park the running thread
  until a ``notify(cond)`` finds ``predicate`` true (``cond`` is any
  object the waiters and the notifier agree on).  Call sites keep their
  classic ``while not <state>: wait(...)`` loops; ``describe`` is the
  wait-for text a deadlock report names.
* ``notify(cond)`` — state the waiters on ``cond`` test changed; those
  whose predicate now holds become runnable.

The first two are generators, driven with ``yield from`` up to the logical
thread's own generator: a park is a ``yield``.  The scheduler resumes one
logical thread at a time on the OS thread that called ``MpiWorld.run``
and records every decision, so a run is reproducible from its choice
sequence.  Time is virtual, one tick per scheduling step, and deadlock
detection is structural: the instant no logical thread is runnable, the
run aborts with every blocked thread's wait-for description.
"""

from __future__ import annotations


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
