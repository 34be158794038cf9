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
thread.  With ``fingerprint_from=n`` each branching decision from index
``n`` on additionally hashes the quiescent global state (thread positions +
observation hashes, mailbox contents, collective-round state, shared cells)
so drivers can prune revisited states — until the run aborts: decisions
after that only reorder the unwinding, and no driver reads their hashes.

Logical threads run on carriers (reused OS threads, see
:mod:`repro.runtime.carrier`).  The spawning thread — the world's caller
for rank mains, the token holder for team workers — registers each child
as runnable (:meth:`register`) before handing it to a carrier; the child
only binds its name and parks (:meth:`attach`).  The token passes through
one raw ``_thread`` lock per logical thread: the holder releases the
chosen thread's lock and parks on its own.

A scheduled run ends when its last logical thread detaches, not when the
rank threads return: a rank that aborts inside a parallel region leaves
its team's workers unwinding, and they still append decisions and events.
:meth:`await_detached` lets the world wait for that moment, so the logs
are complete and stable once ``run_program`` returns.

Time is virtual — one tick per scheduling step — and deadlock detection
is structural: the moment a decision finds no runnable thread while some
are blocked, the run aborts *immediately* with the full wait-for state
(every blocked thread's self-description), with no wall-clock timeout
involved.  A livelock (threads that keep stepping without ever finishing)
ends when the clock passes :data:`DEFAULT_STEP_BUDGET`; the one place the
clock advances checks it.
"""

from __future__ import annotations

import _thread
import hashlib
import threading
import zlib
from bisect import bisect_left, insort
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..runtime.errors import DeadlockError
from ..runtime.schedpoint import SchedPoint
from ..util.brepr import bounded_repr
from .footprint import Footprint, footprint_to_list, point_footprint
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
    __slots__ = ("name", "state", "token", "cond", "predicate", "describe",
                 "pending_fp", "accesses", "obs")

    def __init__(self, name: str) -> None:
        self.name = name
        self.state = _READY
        #: Held while the thread is parked; released to grant it the token.
        self.token = _thread.allocate_lock()
        self.token.acquire()
        self.cond: Optional[threading.Condition] = None
        self.predicate: Optional[Callable[[], bool]] = None
        self.describe = ""
        #: Base footprint of the operation the next segment resumes into.
        self.pending_fp: Footprint = _EMPTY_FP
        #: Shared-state accesses reported while the current segment runs.
        self.accesses: Set[Tuple[str, str]] = set()
        #: Rolling hash of everything this thread has observed (shared
        #: reads, collective/recv results, claim outcomes) — a sound proxy
        #: for its local state, since thread locals are a deterministic
        #: function of the observation sequence.
        self.obs = 0


class Scheduler:
    """One run's cooperative schedule: strategy in, decision log out."""

    def __init__(self, strategy: Optional[Strategy] = None,
                 fingerprint_from: Optional[int] = None) -> None:
        self.strategy = strategy or DefaultStrategy()
        #: First decision index to hash the state at; None hashes none.
        self.fingerprint_from = fingerprint_from
        self._lock = threading.RLock()
        self._threads: Dict[str, _Logical] = {}
        #: Set when the last logical thread detaches: the run is over.
        self._detached = threading.Event()
        self._ready_list: List[str] = []  # sorted; maintained incrementally
        self._spawn_counts: Dict[Optional[str], int] = {}
        self._tls = threading.local()
        self._current: Optional[str] = None
        self._started = False
        self._world = None
        self._vtime = 0
        #: Branching decisions, in order — the run's schedule trace.
        self.decisions: List[Decision] = []
        #: Executed segments, in order: ``(thread, footprint)``.
        self.events: List[Tuple[str, Footprint]] = []
        #: ``decision_event_index[i]`` = index into :attr:`events` of the
        #: first event executed after decision ``i``.
        self.decision_event_index: List[int] = []
        #: Per-decision state fingerprint (None outside the hashed window:
        #: before ``fingerprint_from`` and from the abort on).
        self.state_fingerprints: List[Optional[str]] = []
        #: Decision count at the moment the run aborted, if it did —
        #: decisions past this index only reorder the unwinding.
        self.abort_decision: Optional[int] = None
        #: Wait-for description when structural deadlock was detected.
        self.deadlock_state: Optional[str] = None

    # -- logical-thread lifecycle -------------------------------------------

    def _me(self) -> Optional[str]:
        return getattr(self._tls, "name", None)

    def child_names(self, size: int) -> List[Optional[str]]:
        """Deterministic names for a team's worker threads (index = tid;
        entry 0 is the master and always ``None``)."""
        parent = self._me()
        with self._lock:
            seq = self._spawn_counts.get(parent, 0)
            self._spawn_counts[parent] = seq + 1
        return [None] + [f"{parent}/{seq}.{tid}" for tid in range(1, size)]

    def register(self, names: Sequence[Optional[str]]) -> None:
        """The spawning thread announces logical threads ``names`` (``None``
        entries skipped) as runnable before handing them to carriers."""
        with self._lock:
            for name in names:
                if name is not None:
                    self._threads[name] = _Logical(name)
                    insort(self._ready_list, name)

    def attach(self, name: Optional[str]) -> None:
        """First call of a logical thread on its carrier: bind ``name`` to
        the calling OS thread and park until scheduled."""
        self._tls.name = name
        self._threads[name].token.acquire()  # parked until first scheduled

    def detach(self) -> None:
        me = self._me()
        self._tls.name = None
        with self._lock:
            lt = self._threads.pop(me, None)
            if lt is not None:
                if "/" not in me:
                    # A rank main exiting mutates world-level accounting
                    # (finished_ranks, open-round deadlock checks).
                    lt.accesses.add(("procs", "w"))
                self._close_segment_locked(lt, None)
                self._ready_remove_locked(me)
            if self._current == me:
                self._current = None
                if self._world is not None:
                    self._schedule_next_locked(self._world, SchedPoint.EXIT, me)
            if not self._threads:
                self._detached.set()

    def await_detached(self, timeout: Optional[float]) -> bool:
        """Block until every logical thread has detached — the end of the
        run, which may come after the rank threads return (a team's
        workers still unwinding an abort).  False on timeout."""
        return self._detached.wait(timeout)

    def start(self, world) -> None:
        with self._lock:
            self._world = world
            self._started = True
            self._schedule_next_locked(world, SchedPoint.START, "")

    def on_abort(self, world) -> None:
        with self._lock:
            if self.abort_decision is None:
                self.abort_decision = len(self.decisions)
            me = self._me()
            aborter = self._threads.get(me) if me is not None else None
            if aborter is not None:
                # First-writer-wins on the verdict: whichever segment aborts
                # first fixes it, so aborting segments never commute.
                aborter.accesses.add(("abort", "w"))
            for lt in self._threads.values():
                if lt.state == _BLOCKED:
                    lt.cond = None
                    lt.predicate = None
                    self._mark_ready_locked(lt)

    # -- footprint / observation hooks ----------------------------------------

    def note_access(self, obj: str, mode: str = "w") -> None:
        """The running segment touched shared object ``obj`` (mode r/w)."""
        me = self._me()
        if me is None:
            return
        lt = self._threads.get(me)
        if lt is not None:
            lt.accesses.add((obj, mode))

    def note_observation(self, value: object) -> None:
        """The running thread observed ``value`` (shared read, collective or
        recv result, claim outcome) — folds into its local-state hash."""
        me = self._me()
        if me is None:
            return
        lt = self._threads.get(me)
        if lt is not None:
            # bounded_repr: a fuzzed ``x = x * x`` loop mints ints past
            # CPython's 4300-digit str limit; plain repr would kill the
            # rank thread mid-observation (found by the fuzz campaign).
            lt.obs = zlib.crc32(
                bounded_repr(value).encode("utf-8", "replace"), lt.obs)

    # -- decision points ------------------------------------------------------

    def yield_point(self, world, kind: str, detail: str = "") -> None:
        me = self._me()
        if me is None or not self._started:
            return
        point = f"{kind}:{detail}" if detail else kind
        with self._lock:
            lt = self._threads[me]
            # The yield ends the current segment; the next one (whoever runs
            # it first) begins by executing this point's operation.
            self._close_segment_locked(lt, point_footprint(point))
            candidates = self._ready_locked(include=me)
            chosen = self._choose_locked(kind, detail, me, candidates, world)
            if chosen == me:
                self._tick_locked(world)
                return
            self._mark_ready_locked(lt)
            self._grant_locked(world, chosen)
        lt.token.acquire()

    def wait(self, world, cond, describe="", predicate=None):
        me = self._me()
        if me is None:  # a plain OS thread, not a logical one: poll
            cond.wait(0.05)
            return
        lt = self._threads[me]
        with self._lock:
            if world.aborted.is_set():
                return  # caller's loop re-checks the abort flag first
            lt.state = _BLOCKED
            lt.cond = cond
            lt.predicate = predicate
            lt.describe = describe or me
            # Park ends the segment; keep pending_fp — on wake the thread
            # resumes *inside* the same logical operation (e.g. the recv
            # loop re-checking and popping the queue).
            self._close_segment_locked(lt, None)
        # Fully release the caller-held condition while parked, exactly like
        # Condition.wait does, so the thread we hand the token to can enter.
        saved = cond._release_save()
        try:
            with self._lock:
                # Hand the token over (may wake us straight back up if the
                # handoff detects a structural deadlock and aborts).
                self._schedule_next_locked(world, SchedPoint.BLOCK, describe)
            lt.token.acquire()
        finally:
            cond._acquire_restore(saved)

    def notify(self, world, cond):
        with self._lock:
            for name in sorted(self._threads):
                lt = self._threads[name]
                if lt.state == _BLOCKED and lt.cond is cond:
                    if lt.predicate is None or lt.predicate():
                        lt.cond = None
                        lt.predicate = None
                        self._mark_ready_locked(lt)

    # -- internals -------------------------------------------------------------

    def _close_segment_locked(self, lt: _Logical,
                              next_fp: Optional[Footprint]) -> None:
        fp = lt.pending_fp
        if lt.accesses:
            fp = fp | frozenset(lt.accesses)
            lt.accesses.clear()
        self.events.append((lt.name, fp))
        if next_fp is not None:
            lt.pending_fp = next_fp

    def _mark_ready_locked(self, lt: _Logical) -> None:
        if lt.state != _READY:
            lt.state = _READY
            insort(self._ready_list, lt.name)

    def _ready_remove_locked(self, name: str) -> None:
        i = bisect_left(self._ready_list, name)
        if i < len(self._ready_list) and self._ready_list[i] == name:
            self._ready_list.pop(i)

    def _ready_locked(self, include: Optional[str] = None) -> List[str]:
        names = list(self._ready_list)
        if include is not None:
            i = bisect_left(names, include)
            if i >= len(names) or names[i] != include:
                names.insert(i, include)
        return names

    def _choose_locked(self, kind: str, detail: str, current: Optional[str],
                       candidates: List[str], world=None) -> str:
        point = f"{kind}:{detail}" if detail else kind
        if len(candidates) == 1:
            return candidates[0]
        index = len(self.decisions)
        chosen = self.strategy.choose(index, candidates, current, point)
        if chosen not in candidates:
            chosen = candidates[0]
        self.decision_event_index.append(len(self.events))
        hashed = (self.fingerprint_from is not None
                  and index >= self.fingerprint_from
                  and self.abort_decision is None and world is not None)
        self.state_fingerprints.append(
            self._fingerprint_locked(world) if hashed else None)
        self.decisions.append(Decision(index, point, current,
                                       tuple(candidates), chosen))
        return chosen

    def _fingerprint_locked(self, world) -> str:
        """Canonical hash of the quiescent state at a branching decision.

        All logical threads are parked here (single token), so the state is
        fully described by: each thread's park position (pending footprint +
        blocked/ready + wait description) and observation hash, plus the
        world's shared state (mailbox queues, collective-round progress,
        shared interpreter cells, finished ranks) as reported by
        ``world.fingerprint_state()``.
        """
        parts = []
        for name in sorted(self._threads):
            lt = self._threads[name]
            parts.append((name, lt.state,
                          lt.describe if lt.state == _BLOCKED else "",
                          lt.obs, footprint_to_list(lt.pending_fp)))
        state = getattr(world, "fingerprint_state", None)
        world_state = state() if state is not None else "?"
        blob = repr((parts, world_state)).encode("utf-8", "replace")
        return hashlib.sha256(blob).hexdigest()[:16]

    def _tick_locked(self, world) -> None:
        """Advance the virtual clock one step; past the step budget the run
        is a livelock and aborts (once — the unwinding steps on)."""
        self._vtime += 1
        if self._vtime > DEFAULT_STEP_BUDGET and not world.aborted.is_set():
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

    def _grant_locked(self, world, name: str) -> None:
        lt = self._threads[name]
        lt.state = _RUNNING
        self._ready_remove_locked(name)
        self._current = name
        self._tick_locked(world)
        lt.token.release()

    def _schedule_next_locked(self, world, kind: str, detail: str) -> None:
        self._current = None
        ready = self._ready_locked()
        if not ready:
            blocked = sorted(n for n, lt in self._threads.items()
                             if lt.state == _BLOCKED)
            if not blocked:
                return  # every logical thread has exited: the run is over
            if not world.aborted.is_set():
                state = "; ".join(self._threads[n].describe or n
                                  for n in blocked)
                self.deadlock_state = state
                world.abort(DeadlockError(
                    f"deadlock: every logical thread is blocked — {state}"
                ))  # on_abort marked them ready so they can unwind
            else:
                self.on_abort(world)
            ready = self._ready_locked()
            if not ready:
                return
        chosen = self._choose_locked(kind, detail, None, ready, world)
        self._grant_locked(world, chosen)
