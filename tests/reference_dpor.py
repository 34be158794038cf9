"""Test-only references for :mod:`repro.explore.dpor`.

:func:`reference_race_pairs` is the original scan, which tested every pair
of events by different threads with the original :func:`conflicts`; it is
kept so the object-indexed scan can be checked against it race for race.

:class:`ReferenceDpor` is :class:`~repro.explore.dpor.DporStrategy` with
the original expansion: it rescans a step's predecessors for every race
candidate, rebuilds the readiness of every step and replays the sleep set
at every decision.  ``tests/test_dpor_identity.py`` holds the current
expansion to it push for push.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.explore.dpor import (_ABORT, DporStrategy, Node, RunRecord,
                                _Point, _weak_initial, race_pairs, wake,
                                wake_unaffordable)
from repro.explore.footprint import WILDCARD, Footprint
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


class ReferenceDpor(DporStrategy):
    """:class:`~repro.explore.dpor.DporStrategy` with the original
    ``_expand`` and ``_reverse``."""

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
                while q < eb[i]:
                    if sleep and wake(sleep, *events[q]):
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
                cost = decisions[i].preemptive + (not blocked)
                child = point.branches.get(choices[i])
                if child is None:
                    child = point.branches[choices[i]] = _Point(fp, cost)
                child.step, child.cost = fp, cost
            path.append(point)
            point = point.branches[choices[i]]

        # Happens-before over the steps up to the abort, then one unknown
        # (wildcard) step per thread the abort found ready: the abort cut
        # that step off.  ``past[k]`` has bit ``j`` set when step ``j``
        # happens before (or is) step ``k``.
        steps = events[:cut] + [(t, WILDCARD) for t in record.ready_at_abort]
        depends_on: Dict[int, List[int]] = {}
        for j, k in race_pairs(steps):
            if j < cut:
                depends_on.setdefault(k, []).append(j)
        past: List[int] = []
        enabler: List[int] = []
        previous: List[int] = []
        ready: Dict[str, int] = {}
        last: Dict[str, int] = {}
        for k, (t, fp) in enumerate(steps):
            after = depends_on.setdefault(k, [])
            if k < cut:
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
        # race too: a run cap would reach them one reversal per run.
        for k in range(eb[start] if start < limit else cut, len(steps)):
            conflicting = set(depends_on[k])
            candidates = sorted(conflicting)
            preds = candidates + [p for p in (previous[k], enabler[k])
                                  if p >= 0]

            def ordered(j: int) -> bool:
                bit, tj = 1 << j, steps[j][0]
                return enabler[k] == j or any(
                    p > j and past[p] & bit
                    and (p not in conflicting or steps[p][0] != tj)
                    for p in preds)

            latest = {steps[j][0]: j for j in candidates}
            for j in sorted(latest.values()):
                if ordered(j):
                    continue  # not reversible, or ordered by a third step
                tj = steps[j][0]
                for r in [j] + [f for f in candidates if f < j and
                                steps[f][0] == tj and not ordered(f)]:
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
