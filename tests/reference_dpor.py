"""All-pairs DPOR race detection: the test-only reference for
:func:`repro.explore.dpor.race_pairs` and :class:`DporStrategy`.

:func:`reference_race_pairs` and :meth:`ReferenceDporStrategy._expand` are
the original expansion, which tested every pair of events by different
threads with the original :func:`conflicts`; they are kept so the
object-indexed scan can be checked against them race for race and the
driver push for push.  :class:`EveryDecisionScheduler` likewise restores
the original hashing of the state at every decision, so the fingerprint
window can be checked against complete hash logs.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.explore.dpor import DporStrategy, RunRecord, _Node
from repro.explore.footprint import Footprint
from repro.explore.sched import Scheduler
from repro.explore.strategies import preemption_counts


def conflicts(a: Footprint, b: Footprint) -> bool:
    """True when the two steps do **not** commute."""
    if not a or not b:
        return False
    by_obj = {}
    for obj, mode in b:
        if obj == "*":
            return True
        by_obj.setdefault(obj, []).append(mode)
    for obj, mode in a:
        if obj == "*":
            return True
        for other in by_obj.get(obj, ()):
            if mode == "r" and other == "r":
                continue
            if mode.startswith("c:") and mode == other:
                continue
            return True
    return False


def reference_race_pairs(events: Sequence[Tuple[str, Footprint]]
                         ) -> Iterator[Tuple[int, int]]:
    """Every ``(j, k)``, ``j < k``, of conflicting events by different
    threads, by testing all pairs."""
    for k in range(1, len(events)):
        tk, fpk = events[k]
        if not fpk:
            continue
        for j in range(k):
            tj, fpj = events[j]
            if tj == tk or not fpj or not conflicts(fpj, fpk):
                continue
            yield j, k


class ReferenceDporStrategy(DporStrategy):
    """:class:`DporStrategy` with the original all-pairs expansion."""

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
        for k in range(1, len(events)):
            tk, fpk = events[k]
            if not fpk:
                continue
            for j in range(k):
                tj, fpj = events[j]
                if tj == tk or not fpj or not conflicts(fpj, fpk):
                    continue
                i = dec_of_event.get(j)
                if i is None:
                    continue
                d = decisions[i]
                alts = [a for a in d.runnable if a != d.chosen]
                if not alts:
                    continue
                # The racing thread itself when schedulable there; otherwise
                # conservatively every alternative ("add all enabled").
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


class EveryDecisionScheduler(Scheduler):
    """A scheduler that hashes the state at every decision, inside and
    outside the window the DPOR driver reads."""

    def _choose_locked(self, kind, detail, current, candidates, world=None):
        count = len(self.decisions)
        chosen = super()._choose_locked(kind, detail, current, candidates,
                                        world)
        if len(self.decisions) > count and world is not None \
                and self.state_fingerprints[-1] is None:
            # Nothing has run since the decision: this is its state.
            self.state_fingerprints[-1] = self._fingerprint_locked(world)
        return chosen
