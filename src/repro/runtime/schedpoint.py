"""The SchedPoint API — every blocking decision point of the runtime.

The simulator's blocking primitives (collective rounds, ``MPI_Recv``, team
barriers, ``single`` claims, critical sections, fork/join, the inserted
checks) all funnel through three world-level calls instead of raw
``Condition.wait``/busy-poll loops:

* ``yield_point(kind, detail)`` — a scheduling decision: the running
  logical thread may be switched out here (entering a collective,
  claiming a ``single``, ...).
* ``wait(cond, describe, predicate)`` — park the calling thread until
  ``predicate`` may hold.  Call sites keep their classic
  ``while not <state>: wait(...)`` loops; ``describe`` is the wait-for
  text a deadlock report names.
* ``notify(cond)`` — state guarded by ``cond`` changed; the waiters whose
  predicate now holds become runnable.

The world forwards them to its cooperative scheduler
(``repro.explore.Scheduler``, with ``DefaultStrategy`` unless the caller
installs another strategy): exactly one logical thread runs at a time,
every decision is recorded, and a run is reproducible from its choice
sequence.  Time is virtual, one tick per scheduling step, and deadlock
detection is structural: the instant no logical thread is runnable, the
run aborts with every blocked thread's wait-for description.

Logical threads (rank mains, team workers) run on carriers, the reused OS
threads of :mod:`repro.runtime.carrier`.  The spawner announces its
children with ``register(names)`` before it hands them to carriers, so the
next decision already counts them runnable; each child's first act on its
carrier is ``attach(name)``, which binds the name and parks it until it is
scheduled.  No thread ever waits for another to check in.
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
