"""Dynamic partial-order reduction that runs each trace once.

:func:`~repro.explore.strategies.dfs_prefixes` expands *every* untried
sibling at every branching decision.  :class:`DporStrategy` aims at one
schedule per Mazurkiewicz trace instead, with the source sets and wakeup
sequences of Abdulla, Aronis, Jonsson and Sagonas, "Optimal dynamic
partial order reduction" (POPL 2014), over the scheduler's recorded event
footprints (:mod:`repro.explore.footprint`).  A trace is the run's steps
up to its abort; ``docs/explore.md`` spells out each rule.

* **Dependence**: conflicting footprints; either step aborts the run; one
  blocked its thread and the other woke it, unless the waking step woke
  several threads blocked on the same step.  **Happens-before** closes it
  with program order and the step after which a thread became runnable;
  each thread the abort found ready adds one wildcard step.
* **Races** are dependent steps ``(e, e')`` of different threads that no
  third step orders (a thread's earlier steps ordered only by its own
  later ones included), where ``e`` did not make ``e'``'s thread
  runnable.  The wakeup sequence ``notdep(e).e'`` is queued at the last
  branching decision at or before ``e``, unless a thread explored, queued
  or asleep there is a *weak initial* of it (that branch holds the trace),
  or it needs more preemptions than the bound allows (``bound_skips``).
* **Sleep sets**: a queued branch sleeps the branches explored or queued
  before it at its decision and everything asleep there, until an
  executed step depends on a sleeper's next step.  A sleeper also carries
  how many more preemptions its covering branch spends than the current
  path, and wakes where the preemptions spent plus that excess pass the
  bound: that branch could not afford the trace (compare Coons, Musuvathi
  and McKinley, "Bounded partial-order reduction", OOPSLA 2013).

A run (:class:`GuidedRun`) is forced through its node's prefix and wakeup
sequence, then continues with the default schedule but never schedules a
sleeping thread while another one fits the bound; from the abort on it is
the plain default.  No state is hashed: every branch a run takes before
its abort is recorded at its decision, so no schedule runs twice.  Nodes
run in FIFO waves and every expansion happens in the driver, in push
order, so ``explore --jobs N`` is byte-identical to the serial sweep.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .footprint import (WILDCARD, Footprint, conflicts, is_wildcard,
                        modes_conflict)
from .strategies import Decision, Strategy, preemption_counts

#: One executed (or expected) step: ``(thread, footprint)``.
Step = Tuple[str, Footprint]


@dataclass
class RunRecord:
    """Everything DPOR needs from one executed run (picklable)."""

    decisions: List[Decision]
    events: List[Step]
    event_index: List[int]          # per decision: first event after it
    abort_decision: Optional[int]
    ready_at_abort: Tuple[str, ...] = ()

    @classmethod
    def from_scheduler(cls, scheduler) -> "RunRecord":
        return cls(
            decisions=scheduler.decisions,
            events=scheduler.events,
            event_index=scheduler.decision_event_index,
            abort_decision=scheduler.abort_decision,
            ready_at_abort=scheduler.ready_at_abort,
        )


@dataclass
class DporStats:
    """Why the reduced tree is smaller than the raw one."""

    runs: int = 0
    expanded: int = 0           # wakeup sequences queued as new runs
    sleep_skips: int = 0        # reversals a sleeping thread already covers
    independent_skips: int = 0  # reversals an explored branch already covers
    bound_skips: int = 0        # reversals past the preemption bound

    def as_dict(self) -> Dict[str, int]:
        return {
            "runs": self.runs,
            "expanded": self.expanded,
            "sleep_skips": self.sleep_skips,
            "independent_skips": self.independent_skips,
            "bound_skips": self.bound_skips,
        }


def race_lists(events: Sequence[Step],
               wild: Dict[Footprint, bool]) -> List[List[int]]:
    """``result[k]``: the earlier events of other threads whose footprints
    :func:`conflicts` with event ``k``'s, ascending.

    One pass over the events.  Earlier accesses are indexed by shared
    object, so an event is only tested against earlier events of other
    threads that touch one of its objects (under
    :func:`~repro.explore.footprint.modes_conflict`), plus every earlier
    wildcard event; a wildcard event conflicts with every earlier
    non-empty event of another thread.  ``wild`` caches which footprints
    are wildcards."""
    by_obj: Dict[str, List[Tuple[int, str, str]]] = {}
    wilds: List[Tuple[int, str]] = []
    lists: List[List[int]] = []
    for k, (tk, fpk) in enumerate(events):
        if fpk and fpk not in wild:
            wild[fpk] = is_wildcard(fpk)
        if not fpk:
            hits = []
        elif wild[fpk]:
            hits = [j for j in range(k) if events[j][1] and events[j][0] != tk]
            wilds.append((k, tk))
        else:
            found = {j for j, tj in wilds if tj != tk} if wilds else set()
            for obj, mode in fpk:
                earlier = by_obj.setdefault(obj, [])
                for j, tj, other in earlier:
                    if tj != tk and modes_conflict(other, mode):
                        found.add(j)
                earlier.append((k, tk, mode))  # k's thread never hits
            hits = sorted(found)
        lists.append(hits)
    return lists


def race_pairs(events: Sequence[Step]) -> Iterator[Tuple[int, int]]:
    """Every conflicting pair of a run (:func:`race_lists`): the pairs
    ``(j, k)``, ``j < k``, ordered by ``k`` then ``j``."""
    for k, hits in enumerate(race_lists(events, {})):
        for j in hits:
            yield j, k


_ABORT = ("abort", "w")


def depends(a: Footprint, b: Footprint) -> bool:
    """Steps of two threads that do not commute: conflicting footprints,
    or either aborts the run — the abort cuts off the other's step."""
    return _ABORT in a or _ABORT in b or conflicts(a, b)


#: A sleeper's next step, and the preemptions its branch spends over ours.
Sleeper = Tuple[Footprint, int]


def wake(sleep: Dict[str, Sleeper], thread: str, fp: Footprint) -> bool:
    """Step ``(thread, fp)`` ran: wake ``thread`` and every sleeper whose
    next step depends on it.  True when any woke."""
    woken = [u for u, (fu, _) in sleep.items()
             if u == thread or depends(fu, fp)]
    for u in woken:
        del sleep[u]
    return bool(woken)


def wake_unaffordable(sleep: Dict[str, Sleeper], spent: int,
                      bound: int) -> bool:
    """Wake every sleeper whose branch cannot afford ``spent`` preemptions
    more.  True when any woke."""
    woken = [u for u, (_, extra) in sleep.items() if spent + extra > bound]
    for u in woken:
        del sleep[u]
    return bool(woken)


def _weak_initial(thread: str, next_fp: Footprint,
                  wakeup: Sequence[Step]) -> bool:
    """True when ``thread`` can go first in ``wakeup`` without changing its
    trace: its first step there commutes with every step before it, or,
    when it has none there, its next step ``next_fp`` commutes with all."""
    fp = next((f for t, f in wakeup if t == thread), next_fp)
    for t, f in wakeup:
        if t == thread:
            return True
        if depends(f, fp):
            return False
    return True


class Node(NamedTuple):
    """One queued run: forced ``prefix`` choices, then the ``wakeup``
    steps, with ``sleep`` — ``(thread, next footprint)`` pairs — asleep
    from the wakeup's first step on."""

    prefix: Tuple[str, ...]
    wakeup: Tuple[Step, ...] = ()
    sleep: Tuple[Tuple[str, Footprint, int], ...] = ()


class GuidedRun(Strategy):
    """Schedules one DPOR run (see the module docstring).

    The wakeup sequence is followed as a trace: at each decision the first
    of its threads whose next step commutes with every step before it is
    chosen, and each executed step (forced ones too, read off the
    scheduler's event log) is matched and removed the same way.  A step
    the sequence cannot absorb, or a choice past the preemption bound,
    ends it; the run goes on sleep-aware."""

    name = "dpor"

    def __init__(self, scheduler, node: Node, preemption_bound: int) -> None:
        self.scheduler = scheduler
        self.prefix = node.prefix
        self.wakeup = list(node.wakeup)
        self.sleep = {u: (fp, extra) for u, fp, extra in node.sleep}
        self.preemption_bound = preemption_bound
        self.spent = 0
        self._seen: Optional[int] = None

    def choose(self, index, candidates, current, point):
        voluntary = current is not None and current in candidates
        default = current if voluntary else candidates[0]
        if index < len(self.prefix):
            chosen = self.prefix[index]
        elif not (self.wakeup or self.sleep) \
                or self.scheduler.abort_decision is not None:
            chosen = default
        else:
            self._absorb()
            wake_unaffordable(self.sleep, self.spent, self.preemption_bound)
            affordable = not voluntary or self.spent < self.preemption_bound
            chosen = self._next_wakeup(candidates, current, affordable)
            if chosen is None:
                chosen = default
                if default in self.sleep:
                    chosen = next(
                        (c for c in candidates if c not in self.sleep
                         and (affordable or c == current)), default)
        if voluntary and chosen != current:
            self.spent += 1
        return chosen

    def _absorb(self) -> None:
        events = self.scheduler.events
        if self._seen is None:
            self._seen = len(events)  # the sleep set starts here
        for thread, fp in events[self._seen:]:
            wake(self.sleep, thread, fp)
            if not self.wakeup:
                continue
            for j, (t, f) in enumerate(self.wakeup):
                if t == thread:
                    del self.wakeup[j]
                    break
                if depends(f, fp):
                    self.wakeup = []
                    break
            else:
                self.wakeup = []
        self._seen = len(events)

    def _next_wakeup(self, candidates, current, affordable) -> Optional[str]:
        earlier: List[Footprint] = []
        seen = set()
        for t, fp in self.wakeup:
            if t not in seen:
                seen.add(t)
                if (t in candidates and (affordable or t == current)
                        and not any(depends(f, fp) for f in earlier)):
                    return t
            earlier.append(fp)
        self.wakeup = []
        return None


class _Point:
    """A branching decision of the explored tree: the sleep set in effect
    there and its branches, in the order they were explored or queued.
    ``step`` is the footprint of the step that leads here, and ``cost`` its
    preemptions: one to take it, one to leave its thread still runnable."""

    __slots__ = ("sleep", "step", "cost", "branches")

    def __init__(self, step: Footprint, cost: int) -> None:
        self.sleep: Optional[Dict[str, Sleeper]] = None
        self.step = step
        self.cost = cost
        self.branches: Dict[str, "_Point"] = {}


class DporStrategy:
    """Driver for the reduced enumeration; see the module docstring.

    ``explore(execute_wave, max_runs, wave_size)`` hands up to ``wave_size``
    queued :class:`Node` s to ``execute_wave``, which returns their
    :class:`RunRecord` s in order (``None`` for a run that could not run),
    expands each in FIFO order and yields the run count after each wave."""

    name = "dpor"

    def __init__(self, preemption_bound: int = 2) -> None:
        self.preemption_bound = preemption_bound
        self.stats = DporStats()
        #: The explored tree's first branching decision.
        self._root = _Point(frozenset(), 0)
        self._root.sleep = {}
        #: Footprint -> its blocked-step form (see ``_expand``).
        self._blocking: Dict[Footprint, Footprint] = {}
        #: Footprint -> whether it is a wildcard (see :func:`race_lists`).
        self._wild: Dict[Footprint, bool] = {}

    # -- enumeration ----------------------------------------------------------

    def explore(
        self,
        execute_wave: Callable[[List[Node]], Sequence[Optional[RunRecord]]],
        max_runs: int,
        wave_size: int = 1,
    ):
        frontier = deque([Node(())])
        while frontier and self.stats.runs < max_runs:
            take = min(len(frontier), max(1, wave_size),
                       max_runs - self.stats.runs)
            nodes = [frontier.popleft() for _ in range(take)]
            records = execute_wave(nodes)
            for left, node, record in zip(range(take - 1, -1, -1), nodes,
                                          records):
                self.stats.runs += 1
                # Nodes queued behind as many as the runs left never run.
                if record is not None and \
                        len(frontier) + left < max_runs - self.stats.runs:
                    self._expand(node, record, frontier)
            yield self.stats.runs

    # -- expansion ------------------------------------------------------------

    def _expand(self, node: Node, record: RunRecord, frontier: deque) -> None:
        decisions = record.decisions
        events = record.events
        eb = record.event_index
        limit = len(decisions)
        if record.abort_decision is not None:
            limit = min(limit, record.abort_decision)
        cut = eb[limit] if limit < len(eb) else len(events)
        start = len(node.prefix)
        choices = tuple(d.chosen for d in decisions)
        spent = preemption_counts(decisions)
        bound = self.preemption_bound

        # The runnable threads at the point before each step (none past
        # the abort: its decisions only unwind it).
        decision_at = {eb[i]: decisions[i] for i in range(limit)}
        runnable = [decision_at[k].runnable if k in decision_at
                    else (events[k][0],) for k in range(cut)] + [()]

        # The run's decisions: the sleep set in effect at each from its
        # node on (the node's, woken by every step since and by the bound)
        # and the branch taken, as executed.  A step that blocked read the
        # synchronization state any other access of its objects changes,
        # so a branch or sleeper remembers its symmetric arrivals as writes.
        sleep = {u: (fp, extra) for u, fp, extra in node.sleep}
        shared = None  # the last sleep set stored, while unchanged
        q = eb[start] if start < limit else cut
        path: List[_Point] = []
        point = self._root
        for i in range(limit):
            if i >= start:
                while sleep and q < eb[i]:  # once empty, it stays empty
                    if wake(sleep, *events[q]):
                        shared = None
                    q += 1
                if sleep and wake_unaffordable(sleep, spent[i], bound):
                    shared = None
                if point.sleep is None:
                    if shared is None:
                        shared = dict(sleep)
                    point.sleep = shared
                k = eb[i]
                fp = events[k][1]
                blocked = k + 1 < cut and choices[i] not in runnable[k + 1]
                if blocked:
                    fp = self._blocking.get(fp) or self._blocking.setdefault(
                        fp, frozenset((obj, "w" if mode.startswith("c:")
                                       else mode) for obj, mode in fp))
                cost = spent[i + 1] - spent[i] + (not blocked)
                child = point.branches.get(choices[i])
                if child is None:
                    child = point.branches[choices[i]] = _Point(fp, cost)
                child.step, child.cost = fp, cost
            path.append(point)
            point = point.branches[choices[i]]

        # Happens-before over the steps up to the abort, then one unknown
        # (wildcard) step per thread the abort found ready: the abort cut
        # that step off.  ``past[k]`` has bit ``j`` set when step ``j``
        # happens before (or is) step ``k``; ``deps[k]`` lists the steps
        # before it that step ``k`` depends on.
        steps = events[:cut] + [(t, WILDCARD) for t in record.ready_at_abort]
        deps = race_lists(steps, self._wild)
        past: List[int] = []
        enabler: List[int] = []
        previous: List[int] = []
        ready: Dict[str, int] = {}
        last: Dict[str, int] = {}
        for k, (t, fp) in enumerate(steps):
            after = deps[k]
            if k < cut:
                if len(runnable[k]) == 1:  # forced: no other thread ready
                    en = ready.get(t, k - 1)
                    ready = {}
                else:
                    ready = {u: ready.get(u, k - 1) for u in runnable[k]}
                    en = ready.pop(t)
                if _ABORT in fp:
                    # The abort cuts off every other thread's next step.
                    after += [j for u, j in last.items() if u != t]
                woke = [u for u in runnable[k + 1]
                        if u != t and u not in ready and u in last]
                for u in woke:
                    if len(woke) == 1 or steps[last[u]][1] != fp:
                        # Step k woke u, which blocked after its last step:
                        # the two depend (in the other order u would not
                        # have blocked), unless k woke several threads
                        # blocked on the same step.
                        after.append(last[u])
            else:
                deps[k] = after = [j for j in after if j < cut]
                en = ready.get(t, cut - 1)
            before = last.get(t, -1)
            mask = 1 << k
            for p in after + [before, en]:
                if p >= 0:
                    mask |= past[p]
            past.append(mask)
            enabler.append(en)
            previous.append(before)
            if k < cut:
                last[t] = k

        # Races whose later step is new in this run: the earlier steps
        # repeat the run that queued it, which reversed their races.  A
        # thread's steps that only its own later conflicting ones order
        # race too: a run cap would reach them one reversal per run.  The
        # ordering test takes one mask per candidate thread (see
        # docs/explore.md).
        for k in range(eb[start] if start < limit else cut, len(steps)):
            conflicting = set(deps[k])
            if not conflicting:
                continue
            candidates = sorted(conflicting)
            en = enabler[k]
            base = past[previous[k]] if previous[k] >= 0 else 0
            if en >= 0 and en not in conflicting:
                base |= past[en]
            masks: Dict[str, int] = {}
            for j in candidates:
                masks[steps[j][0]] = masks.get(steps[j][0], 0) | past[j]
            latest = {steps[j][0]: j for j in candidates}
            for j in sorted(latest.values()):
                tj = steps[j][0]
                mask = base
                for u, past_u in masks.items():
                    if u != tj:
                        mask |= past_u
                if j == en or mask >> j & 1:
                    continue  # not reversible, or ordered by a third step
                for r in [j] + [f for f in candidates if f < j and
                                steps[f][0] == tj and f != en
                                and not mask >> f & 1]:
                    self._reverse(r, k, steps, past, runnable, path, eb,
                                  decisions, choices, spent, frontier)

    def _reverse(self, j, k, steps, past, runnable, path, eb, decisions,
                 choices, spent, frontier) -> None:
        """Queue ``notdep(e).e'`` for the race of steps ``j`` and ``k`` at
        the last branching decision at or before ``j``."""
        i = bisect_right(eb, j) - 1
        if i < 0:
            return
        bit = 1 << j
        start = next((f for f in range(j + 1, k) if not past[f] & bit), k)
        first = steps[start][0]
        point, d = path[i], decisions[i]
        # Most reversals start with a thread already explored, queued or
        # asleep at the decision: its subtree holds the trace.
        if first in point.branches:
            self.stats.independent_skips += 1
            return
        if first in point.sleep:
            self.stats.sleep_skips += 1
            return
        if first not in d.runnable:
            return
        order = [f for f in range(start, k) if not past[f] & bit] + [k]
        wakeup = tuple(steps[f] for f in order)
        current = d.current if d.current in d.runnable else None
        cost = spent[i]
        for f in order:
            t = steps[f][0]
            if current is not None and t != current:
                cost += 1
            current = t if f + 1 < len(runnable) and t in runnable[f + 1] \
                else None
        if cost > self.preemption_bound:
            self.stats.bound_skips += 1
            return
        # The earlier step's thread never goes first: its step races e'.
        tj = steps[j][0]
        if any(u != tj and _weak_initial(u, child.step, wakeup)
               for u, child in point.branches.items()):
            self.stats.independent_skips += 1
            return
        if any(u != tj and _weak_initial(u, fu, wakeup)
               for u, (fu, _) in point.sleep.items()):
            self.stats.sleep_skips += 1
            return
        # Preemptions the queued branch takes to start: the cost excess of
        # each branch explored or queued before it, now its sleeper.
        switch = int(d.current in d.runnable and first != d.current)
        asleep = dict(point.sleep)
        asleep.update((u, (child.step, child.cost - switch))
                      for u, child in point.branches.items())
        queued = Node(choices[:i], wakeup, tuple(
            (u, fu, extra) for u, (fu, extra) in sorted(asleep.items())))
        frontier.append(queued)
        point.branches[first] = _Point(wakeup[0][1], switch + 1)
        self.stats.expanded += 1
