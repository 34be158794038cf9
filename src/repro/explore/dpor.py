"""Dynamic partial-order reduction over recorded schedule trees.

:func:`~repro.explore.strategies.dfs_prefixes` expands *every* untried
sibling at every branching decision — most of which are commutative
permutations of independent steps that provably reach the same state.
:class:`DporStrategy` replaces that blind expansion with three classic
prunings driven by the scheduler's recorded event footprints
(:mod:`repro.explore.footprint`):

* **race reversal** (Flanagan/Godefroid backtrack sets): after each run,
  every pair of conflicting steps by different threads is a detected race;
  the decision that scheduled the *earlier* step gets a backtrack entry for
  the *later* step's thread (or, when that thread is not schedulable there,
  conservatively for every alternative).  Only backtrack entries are
  explored — an alternative no race asks for commutes into a schedule the
  sweep already has.  :func:`race_pairs` finds the races in one pass over
  the run's events, indexing earlier accesses by shared object;
* **sleep sets**: after exploring choice ``c`` at a node, ``c`` is put to
  sleep in every sibling subtree and stays asleep until some executed step
  conflicts with its next step — schedules that begin with a sleeping
  thread are permutations of already-explored ones;
* **state fingerprinting** (optional): when the scheduler hashes the
  quiescent state at a decision, a node whose fingerprint was already
  visited with a sleep set no larger than the current one is not expanded
  at all — its subtree was explored from the earlier visit.  Expansion
  reads a run's hashes only from the end of its forced prefix (earlier
  states repeat the parent run's) up to its abort, so the scheduler takes
  them only there (``Scheduler(fingerprint_from=len(prefix))``).

The driver enumerates prefixes in FIFO (breadth-first) wave order and all
pruning state lives in the driver, so executing a wave's runs on worker
processes (``explore --jobs N``) yields *byte-identical* results to the
serial sweep: expansion order, run order and counts never depend on how
many workers raced through a wave.

Aborted runs stop expanding at the abort decision: once the verdict is
fixed (first abort wins), later decisions only reorder the unwinding.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, Iterator, List, Optional,
                    Sequence, Tuple)

from .footprint import Footprint, conflicts, is_wildcard, modes_conflict
from .strategies import Decision, preemption_counts


@dataclass
class RunRecord:
    """Everything DPOR needs from one executed run (picklable)."""

    decisions: List[Decision]
    events: List[Tuple[str, Footprint]]
    event_index: List[int]          # per decision: first event after it
    fingerprints: List[Optional[str]]
    abort_decision: Optional[int]

    @classmethod
    def from_scheduler(cls, scheduler) -> "RunRecord":
        return cls(
            decisions=list(scheduler.decisions),
            events=list(scheduler.events),
            event_index=list(scheduler.decision_event_index),
            fingerprints=list(scheduler.state_fingerprints),
            abort_decision=scheduler.abort_decision,
        )


@dataclass
class DporStats:
    """Why the reduced tree is smaller than the raw one."""

    runs: int = 0
    expanded: int = 0           # children actually pushed
    sleep_skips: int = 0        # siblings skipped: thread was asleep
    independent_skips: int = 0  # siblings skipped: no race requires them
    fingerprint_prunes: int = 0  # nodes cut: state already visited
    bound_skips: int = 0        # siblings skipped: preemption bound

    def as_dict(self) -> Dict[str, int]:
        return {
            "runs": self.runs,
            "expanded": self.expanded,
            "sleep_skips": self.sleep_skips,
            "independent_skips": self.independent_skips,
            "fingerprint_prunes": self.fingerprint_prunes,
            "bound_skips": self.bound_skips,
        }


def race_pairs(events: Sequence[Tuple[str, Footprint]]
               ) -> Iterator[Tuple[int, int]]:
    """Every race of a run: the pairs ``(j, k)``, ``j < k``, of events by
    different threads whose footprints :func:`conflicts`, ordered by ``k``
    then ``j``.

    One pass over the events.  Earlier accesses are indexed by shared
    object, so an event is only tested against earlier events of other
    threads that touch one of its objects (under
    :func:`~repro.explore.footprint.modes_conflict`), plus every earlier
    wildcard event; a wildcard event races every earlier non-empty event
    of another thread."""
    by_obj: Dict[str, List[Tuple[int, str, str]]] = {}
    wild: List[Tuple[int, str]] = []
    busy: List[Tuple[int, str]] = []
    for k, (tk, fpk) in enumerate(events):
        if not fpk:
            continue
        if is_wildcard(fpk):
            hits = [j for j, tj in busy if tj != tk]
            wild.append((k, tk))
        else:
            found = {j for j, tj in wild if tj != tk}
            for obj, mode in fpk:
                for j, tj, other in by_obj.get(obj, ()):
                    if tj != tk and modes_conflict(other, mode):
                        found.add(j)
            hits = sorted(found)
            for obj, mode in fpk:
                by_obj.setdefault(obj, []).append((k, tk, mode))
        busy.append((k, tk))
        for j in hits:
            yield j, k


@dataclass
class _Node:
    prefix: Tuple[str, ...]
    sleep: FrozenSet[str] = frozenset()


class DporStrategy:
    """Driver for the reduced enumeration; see the module docstring.

    ``explore(execute_wave, max_runs, wave_size)`` pulls up to ``wave_size``
    pending prefixes per iteration, hands them to ``execute_wave`` (which
    runs each — serially or on a pool — and returns their
    :class:`RunRecord` s *in order*, ``None`` for a run that could not be
    executed), then expands each record in FIFO order.  Yields the run
    count after every wave.
    """

    name = "dpor"

    def __init__(self, preemption_bound: int = 2,
                 use_fingerprints: bool = True) -> None:
        self.preemption_bound = preemption_bound
        self.use_fingerprints = use_fingerprints
        self.stats = DporStats()
        #: fingerprint -> smallest sleep set it was ever expanded with.
        self._visited: Dict[str, FrozenSet[str]] = {}
        #: every prefix ever scheduled — two runs may detect the same race.
        self._pushed: set = {()}

    # -- enumeration ----------------------------------------------------------

    def explore(
        self,
        execute_wave: Callable[[List[List[str]]], Sequence[Optional[RunRecord]]],
        max_runs: int,
        wave_size: int = 1,
    ):
        frontier = deque([_Node(())])
        while frontier and self.stats.runs < max_runs:
            take = min(len(frontier), max(1, wave_size),
                       max_runs - self.stats.runs)
            nodes = [frontier.popleft() for _ in range(take)]
            records = execute_wave([list(n.prefix) for n in nodes])
            for node, record in zip(nodes, records):
                self.stats.runs += 1
                if record is not None:
                    self._expand(node, record, frontier)
            yield self.stats.runs

    # -- expansion ------------------------------------------------------------

    def _expand(self, node: _Node, record: RunRecord, frontier: deque) -> None:
        decisions = record.decisions
        events = record.events
        eb = record.event_index
        start = len(node.prefix)
        limit = len(decisions)
        if record.abort_decision is not None:
            # The verdict is already fixed; deeper decisions only permute
            # the unwinding of the abort.
            limit = min(limit, record.abort_decision)
        choices = [d.chosen for d in decisions]
        spent = preemption_counts(decisions)

        positions: Dict[str, List[int]] = {}
        for k, (thread, _) in enumerate(events):
            positions.setdefault(thread, []).append(k)

        def next_event(thread: str, k: int):
            """Thread's first recorded event at index >= k, or None."""
            idxs = positions.get(thread)
            if idxs:
                j = bisect_left(idxs, k)
                if j < len(idxs):
                    return events[idxs[j]][1], idxs[j]
            return None

        # -- race detection (Flanagan/Godefroid) ------------------------------
        # Every pair of conflicting steps by different threads is a race the
        # sweep must try to reverse: revisit the decision that scheduled the
        # earlier step with the later step's thread instead.  A reordering
        # no race asks for commutes into this very schedule — skip it.
        dec_of_event = {eb[i]: i for i in range(min(limit, len(eb)))}
        backtrack: Dict[int, set] = {}
        for j, k in race_pairs(events):
            i = dec_of_event.get(j)
            if i is None:
                continue
            d = decisions[i]
            alts = [a for a in d.runnable if a != d.chosen]
            if not alts:
                continue
            # The racing thread itself when schedulable there; otherwise
            # conservatively every alternative ("add all enabled").
            tk = events[k][0]
            targets = [tk] if tk in alts else alts
            backtrack.setdefault(i, set()).update(targets)

        def push(i: int, alt: str, child_sleep) -> None:
            prefix = tuple(choices[:i]) + (alt,)
            if prefix in self._pushed:
                return
            self._pushed.add(prefix)
            frontier.append(_Node(prefix, frozenset(child_sleep)))
            self.stats.expanded += 1

        def cost_ok(i: int, alt: str) -> bool:
            d = decisions[i]
            voluntary = d.current is not None and d.current in d.runnable
            return spent[i] + (1 if voluntary and alt != d.current else 0) \
                <= self.preemption_bound

        # Races whose earlier step sits inside the inherited prefix: the
        # parent could not have seen them (the later step may exist only in
        # this branch), so push them from here; ``_pushed`` dedupes the many
        # runs that re-detect the same race.
        for i in sorted(b for b in backtrack if b < start):
            for alt in sorted(backtrack[i]):
                if cost_ok(i, alt):
                    push(i, alt, set())
                else:
                    self.stats.bound_skips += 1

        sleep = set(node.sleep)

        def advance(k: int) -> None:
            """Executed step ``events[k]`` — wake every sleeper whose next
            step it conflicts with (a sleeper with no recorded next step is
            conservatively woken)."""
            thread, fp = events[k]
            sleep.discard(thread)
            for u in list(sleep):
                info = next_event(u, k)
                if info is None or conflicts(info[0], fp):
                    sleep.discard(u)

        # node.sleep is the sleep set in effect right after the prefix's
        # last forced choice executed its step; advance it over everything
        # that ran since (including non-branching segments).
        q = eb[start - 1] + 1 if start > 0 else 0

        for i in range(start, limit):
            while q < eb[i]:
                advance(q)
                q += 1
            d = decisions[i]

            if self.use_fingerprints:
                fp = record.fingerprints[i] if i < len(record.fingerprints) \
                    else None
                if fp is not None:
                    prev = self._visited.get(fp)
                    here = frozenset(sleep)
                    if prev is not None and prev <= here:
                        # This state was already expanded with at least as
                        # much freedom — the whole subtree is covered.
                        self.stats.fingerprint_prunes += 1
                        return
                    self._visited[fp] = prev & here if prev is not None \
                        else here

            wanted = backtrack.get(i, ())
            pushed_here: List[str] = []
            for alt in d.runnable:
                if alt == d.chosen:
                    continue
                if alt not in wanted:
                    self.stats.independent_skips += 1
                    continue
                if alt in sleep:
                    self.stats.sleep_skips += 1
                    continue
                if not cost_ok(i, alt):
                    self.stats.bound_skips += 1
                    continue
                info = next_event(alt, eb[i])
                child_sleep = set()
                if info is not None:
                    alt_fp = info[0]
                    # Transitions already explored from this node (the run's
                    # own choice plus earlier-pushed siblings) go to sleep in
                    # this child — unless their step conflicts with alt's.
                    for u in sleep | {d.chosen} | set(pushed_here):
                        if u == alt:
                            continue
                        uinfo = next_event(u, eb[i])
                        if uinfo is not None and \
                                not conflicts(uinfo[0], alt_fp):
                            child_sleep.add(u)
                push(i, alt, child_sleep)
                pushed_here.append(alt)
