"""The cooperative scheduler — deterministic execution of the simulator.

Every :class:`~repro.runtime.simmpi.world.MpiWorld` runs under one (built
with :class:`~repro.explore.strategies.DefaultStrategy` when the caller
installs none).  It serializes every logical thread of the run (rank main
threads and all OpenMP team workers) onto a single token: exactly one
thread executes at a time, and control changes hands only at SchedPoints
— entering a collective/recv/send, claiming a ``single``, team barriers,
check enters, blocking waits, thread exits.
A run is therefore *fully determined* by the sequence of answers the
installed :class:`~repro.explore.strategies.Strategy` gives at branching
decisions, which the scheduler records for trace replay.

Logical threads get deterministic hierarchical names: rank main threads are
``r0, r1, ...``; the ``tid``-th worker of the ``k``-th team spawned by
parent ``P`` is ``P/k.t``.  Candidate sets are always sorted, so equal
choice sequences reproduce equal runs bit for bit.

Beyond the decision log the scheduler also records the run's *event* list
for partial-order reduction: one event per executed segment (everything a
thread does between two parks), carrying the access footprint of the
operation it resumed into (see :mod:`repro.explore.footprint`) unioned with
every shared-state access the runtime reported via :meth:`note_access`
while the segment ran.  ``decision_event_index[i]`` maps decision ``i`` to
the index of the first event executed after it, so
``events[decision_event_index[i]]`` is exactly the step taken by the chosen
thread.  Partial-order reduction works from these footprints alone; no
state is hashed.

Every logical thread is a generator, registered with the scheduler by
its spawner (:meth:`register`); :meth:`run` resumes the granted one on the
OS thread that called ``MpiWorld.run``.  A grant sets the next thread to
resume, a park is a ``yield``, and :attr:`running` names the thread whose
code executes.  The run ends when its last logical thread detaches, so
team workers still unwinding an abort have logged their decisions and
events by the time :meth:`run` returns.

Time is virtual — one tick per scheduling step — and deadlock detection
is structural: the moment a decision finds no runnable thread while some
are blocked, the run aborts *immediately* with the full wait-for state
(every blocked thread's self-description), with no wall-clock timeout
involved.  A livelock (threads that keep stepping without ever finishing)
ends when the clock passes :data:`DEFAULT_STEP_BUDGET`; the one place the
clock advances checks it.

Simulated compute has a second clock, one per logical thread: ``work(n)``
advances the caller's by ``n`` units and ``MPI_Wtime`` reads it
(:meth:`compute`).  A team worker starts at its spawner's value and
nothing else moves it; a barrier, a collective or a join does not join
clocks.  A thread's clock therefore depends only on its own history and
its fork, and reads the same in every schedule of a trace, so it needs no
footprint.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import (Callable, Dict, Generator, List, Optional, Sequence, Set,
                    Tuple)

from ..runtime.errors import DeadlockError
from ..runtime.schedpoint import SchedPoint
from .footprint import Footprint, point_footprint
from .strategies import Decision, DefaultStrategy, Strategy

_READY = "ready"
_RUNNING = "running"
_BLOCKED = "blocked"

_EMPTY_FP: Footprint = frozenset()

#: Scheduling steps one run may take.  Deadlocks end runs structurally
#: long before this; only a livelock reaches it.  The examples, benchmarks
#: and tests stay below 2,100 steps per run.
DEFAULT_STEP_BUDGET = 1_000_000



class _Logical:
    __slots__ = ("name", "state", "body", "cond", "predicate", "describe",
                 "pending_fp", "accesses", "compute")

    def __init__(self, name: str, body: Generator, compute: int = 0) -> None:
        self.name = name
        self.state = _READY
        self.body = body
        #: What the thread waits on while blocked (any object; identity).
        self.cond: Optional[object] = None
        self.predicate: Optional[Callable[[], bool]] = None
        self.describe = ""
        #: Base footprint of the operation the next segment resumes into.
        self.pending_fp: Footprint = _EMPTY_FP
        #: Shared-state accesses reported while the current segment runs.
        self.accesses: Set[Tuple[str, str]] = set()
        #: Simulated compute units: the spawner's at registration plus
        #: what this thread's own ``work`` calls added.
        self.compute = compute


class Scheduler:
    """One run's cooperative schedule: strategy in, decision log out."""

    def __init__(self, strategy: Optional[Strategy] = None) -> None:
        self.strategy = strategy or DefaultStrategy()
        self._threads: Dict[str, _Logical] = {}
        self._ready_list: List[str] = []  # sorted; maintained incrementally
        #: ``id(cond)`` -> the threads blocked on ``cond``, in blocking order.
        self._waiters: Dict[int, List[_Logical]] = {}
        self._spawn_counts: Dict[Optional[str], int] = {}
        #: The logical thread whose code is executing.
        self.running: Optional[str] = None
        #: The logical thread granted the token: the next one resumed.
        self._current: Optional[str] = None
        self._world = None
        self._vtime = 0
        #: Branching decisions, in order — the run's schedule trace.
        self.decisions: List[Decision] = []
        #: Executed segments, in order: ``(thread, footprint)``.
        self.events: List[Tuple[str, Footprint]] = []
        #: ``decision_event_index[i]`` = index into :attr:`events` of the
        #: first event executed after decision ``i``.
        self.decision_event_index: List[int] = []
        #: Decision count at the moment the run aborted, if it did —
        #: decisions past this index only reorder the unwinding.
        self.abort_decision: Optional[int] = None
        #: Threads that were ready (not running, not blocked) when the run
        #: aborted: the abort cut off the step each was about to take.
        self.ready_at_abort: Tuple[str, ...] = ()

    # -- logical-thread lifecycle -------------------------------------------

    def child_names(self, size: int) -> List[str]:
        """Deterministic names of a team's workers, tids 1 to ``size - 1``
        (the master, tid 0, is the spawner itself)."""
        parent = self.running
        seq = self._spawn_counts.get(parent, 0)
        self._spawn_counts[parent] = seq + 1
        return [f"{parent}/{seq}.{tid}" for tid in range(1, size)]

    def register(self, names: Sequence[str],
                 bodies: Sequence[Generator]) -> None:
        """The spawner announces logical threads ``names`` as runnable,
        each with the generator ``bodies[i]`` that runs it; each starts its
        compute clock at the spawner's (0 for rank mains)."""
        spawner = self._threads.get(self.running)
        compute = spawner.compute if spawner is not None else 0
        for name, body in zip(names, bodies):
            self._threads[name] = _Logical(name, body, compute)
            insort(self._ready_list, name)

    def detach(self) -> None:
        """Last act of the running logical thread: it leaves the run and
        the token passes on."""
        me = self.running
        self.running = None
        lt = self._threads.pop(me, None)
        if lt is not None:
            if "/" not in me:
                # A rank main exiting mutates world-level accounting
                # (finished_ranks, open-round deadlock checks).
                lt.accesses.add(("procs", "w"))
            self._close_segment(lt, None)  # running, so not in the ready list
        if self._current == me:
            self._current = None
            if self._world is not None:
                self._schedule_next(self._world, SchedPoint.EXIT, me)

    def run(self, world) -> None:
        """Run ``world``'s registered threads: resume the granted one until
        the last one detaches.  On an exception that ends the drive
        (``KeyboardInterrupt``), every thread still registered is closed
        here, so no suspended generator is left for the garbage collector."""
        self._world = world
        threads = self._threads
        try:
            self._schedule_next(world, SchedPoint.START, "")
            while self._current is not None:
                lt = threads[self._current]
                self.running = lt.name
                try:
                    lt.body.send(None)
                except StopIteration:
                    pass
        except BaseException:
            self._world = None  # a detach now only drops its thread
            self._waiters.clear()
            while threads:
                lt = threads.pop(min(threads))
                self.running = lt.name
                lt.body.close()
            raise
        finally:
            self.running = None
            self._world = None

    def on_abort(self, world) -> None:
        if self.abort_decision is None:
            self.abort_decision = len(self.decisions)
            self.ready_at_abort = tuple(self._ready_list)
        me = self.running
        aborter = self._threads.get(me) if me is not None else None
        if aborter is not None:
            # First-writer-wins on the verdict: whichever segment aborts
            # first fixes it, so aborting segments never commute.
            aborter.accesses.add(("abort", "w"))
        for lt in self._threads.values():
            if lt.state == _BLOCKED:
                lt.cond = None
                lt.predicate = None
                self._mark_ready(lt)
        self._waiters.clear()

    # -- footprint hook ---------------------------------------------------------

    def note_access(self, obj: str, mode: str = "w") -> None:
        """The running segment touched shared object ``obj`` (mode r/w)."""
        lt = self._threads.get(self.running)
        if lt is not None:
            lt.accesses.add((obj, mode))

    def compute(self, units: int = 0) -> int:
        """Advance the running logical thread's compute clock by ``units``
        and return it (0 when no logical thread runs)."""
        lt = self._threads.get(self.running)
        if lt is None:
            return 0
        lt.compute += units
        return lt.compute

    # -- decision points (generators: a park is a yield) ------------------------

    def yield_point(self, world, kind: str, detail: str = ""):
        """A scheduling decision at SchedPoint ``kind:detail``: the running
        thread may switch out here."""
        point = f"{kind}:{detail}" if detail else kind
        me = self.running
        lt = self._threads[me]
        # The yield ends the current segment; the next one (whoever runs
        # it first) begins by executing this point's operation.
        self._close_segment(lt, point_footprint(point))
        # The running thread is never in the ready list.
        ready = self._ready_list
        chosen = me  # the sole candidate: no decision
        if ready:
            i = bisect_left(ready, me)
            chosen = self._choose(point, me, (*ready[:i], me, *ready[i:]))
        if chosen != me:
            lt.state = _READY
            insort(ready, me)
            ready.remove(chosen)
            self._threads[chosen].state = _RUNNING
            self._current = chosen
        self._vtime += 1
        if self._vtime > DEFAULT_STEP_BUDGET and not world.aborted:
            self._livelock(world)
        if chosen != me:
            yield

    def wait(self, world, cond, describe="", predicate=None):
        """Park the running thread on ``cond`` until a :meth:`notify` of it
        finds ``predicate`` true (or an abort); callers loop on their own
        condition."""
        me = self.running
        lt = self._threads[me]
        if world.aborted:
            return  # caller's loop re-checks the abort flag first
        lt.state = _BLOCKED
        lt.cond = cond
        lt.predicate = predicate
        lt.describe = describe or me
        self._waiters.setdefault(id(cond), []).append(lt)
        # Park ends the segment; keep pending_fp — on wake the thread
        # resumes *inside* the same logical operation (e.g. the recv
        # loop re-checking and popping the queue).
        self._close_segment(lt, None)
        # Hand the token over (may grant it straight back if the handoff
        # detects a structural deadlock and aborts).
        self._schedule_next(world, SchedPoint.BLOCK, describe)
        if self._current != me:
            yield

    def notify(self, cond) -> None:
        """State the waiters on ``cond`` test changed."""
        # In any order: predicates only read state, and the ready list
        # stays sorted.
        for lt in self._waiters.pop(id(cond), ()):
            if lt.predicate is None or lt.predicate():
                lt.cond = lt.predicate = None
                self._mark_ready(lt)
            else:
                self._waiters.setdefault(id(cond), []).append(lt)

    # -- internals -------------------------------------------------------------

    def _close_segment(self, lt: _Logical,
                       next_fp: Optional[Footprint]) -> None:
        fp = lt.pending_fp
        if lt.accesses:
            fp = fp | frozenset(lt.accesses)
            lt.accesses.clear()
        self.events.append((lt.name, fp))
        if next_fp is not None:
            lt.pending_fp = next_fp

    def _mark_ready(self, lt: _Logical) -> None:
        if lt.state != _READY:
            lt.state = _READY
            insort(self._ready_list, lt.name)

    def _choose(self, point: str, current: Optional[str],
                candidates: Tuple[str, ...]) -> str:
        """The strategy's choice among two or more ``candidates``, logged."""
        index = len(self.decisions)
        chosen = self.strategy.choose(index, candidates, current, point)
        if chosen not in candidates:
            chosen = candidates[0]
        self.decision_event_index.append(len(self.events))
        # ``tuple.__new__`` builds the same decision as ``Decision(...)``
        # without a call to the named tuple's Python-level ``__new__``.
        self.decisions.append(tuple.__new__(
            Decision, (index, point, current, candidates, chosen)))
        return chosen

    def _livelock(self, world) -> None:
        running = sorted(n for n, lt in self._threads.items()
                         if lt.state != _BLOCKED)
        blocked = "; ".join(self._threads[n].describe or n
                            for n in sorted(self._threads)
                            if self._threads[n].state == _BLOCKED)
        world.abort(DeadlockError(
            f"livelock: step budget of {DEFAULT_STEP_BUDGET:,} "
            f"scheduling steps exhausted — running: "
            f"{', '.join(running) or 'none'}; blocked: "
            f"{blocked or 'none'}"
        ))

    def _schedule_next(self, world, kind: str, detail: str) -> None:
        self._current = None
        ready = self._ready_list or self._unblock(world)
        if not ready:
            return
        chosen = ready[0] if len(ready) == 1 else self._choose(
            f"{kind}:{detail}" if detail else kind, None, tuple(ready))
        self._threads[chosen].state = _RUNNING
        self._ready_list.remove(chosen)
        self._current = chosen
        self._vtime += 1
        if self._vtime > DEFAULT_STEP_BUDGET and not world.aborted:
            self._livelock(world)

    def _unblock(self, world) -> List[str]:
        """No thread is ready: abort a deadlock (or finish unwinding an
        abort) so the blocked threads unwind, and return the ready ones
        (none once every logical thread has exited: the run is over)."""
        blocked = sorted(n for n, lt in self._threads.items()
                         if lt.state == _BLOCKED)
        if not blocked:
            return []
        if not world.aborted:
            state = "; ".join(self._threads[n].describe or n
                              for n in blocked)
            world.abort(DeadlockError(
                f"deadlock: every logical thread is blocked — {state}"
            ))  # on_abort marked them ready so they can unwind
        else:
            self.on_abort(world)
        return self._ready_list
