"""Schedule-choice strategies.

A strategy answers one question, repeatedly: *given the sorted set of
runnable logical threads at a branching decision point, which one runs
next?*  Everything else — blocking, waking, deadlock detection — is the
scheduler's job, so a run is fully determined by the strategy's answers
(the *choice sequence*), which is what traces record and replays feed back.

* :class:`DefaultStrategy` — run-to-completion: stick with the current
  thread until it blocks, then take the first runnable in sorted order.
  This is the canonical "default schedule" a single (lucky) run explores.
* :class:`RandomStrategy` — seeded uniform sampling, optionally preemption
  bounded; distinct seeds give distinct reproducible schedules.
* :class:`ScriptedStrategy` — replay a recorded choice sequence; after it
  is exhausted (or a choice is infeasible in lenient mode) fall back to the
  default.  Divergences are counted, never raised, so a partially-stale
  trace still produces a verdict.
* :func:`dfs_prefixes` — the driver loop for exhaustive DFS enumeration
  with a preemption bound (iterative-context-bounding style): each executed
  schedule's decision log is expanded into untried sibling prefixes.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple


class Decision(NamedTuple):
    """One branching scheduling decision (≥ 2 runnable candidates)."""

    index: int
    point: str          # SchedPoint kind plus detail, e.g. "collective:MPI_Bcast@r0"
    current: Optional[str]  # thread that was running (None = forced switch)
    runnable: Tuple[str, ...]  # sorted candidates
    chosen: str

    @property
    def preemptive(self) -> bool:
        """True when the running thread could have continued but was not
        chosen — the context switches that cost against the bound."""
        return (self.current is not None and self.current in self.runnable
                and self.chosen != self.current)


class Strategy:
    name = "base"

    def choose(self, index: int, candidates: Sequence[str],
               current: Optional[str], point: str) -> str:
        raise NotImplementedError


class DefaultStrategy(Strategy):
    """Run-to-completion: never preempt voluntarily."""

    name = "default"

    def choose(self, index, candidates, current, point):
        if current is not None and current in candidates:
            return current
        return candidates[0]


class RandomStrategy(Strategy):
    """Seeded uniform choice, optionally preemption-bounded."""

    name = "random"

    def __init__(self, seed: int = 0, preemption_bound: Optional[int] = None) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.preemption_bound = preemption_bound
        self.preemptions = 0

    def choose(self, index, candidates, current, point):
        voluntary = current is not None and current in candidates
        if (voluntary and self.preemption_bound is not None
                and self.preemptions >= self.preemption_bound):
            return current
        chosen = self.rng.choice(list(candidates))
        if voluntary and chosen != current:
            self.preemptions += 1
        return chosen


class ScriptedStrategy(Strategy):
    """Replay a recorded choice sequence, then fall back to the default."""

    name = "scripted"

    def __init__(self, choices: Sequence[str],
                 fallback: Optional[Strategy] = None) -> None:
        self.choices = list(choices)
        self.fallback = fallback or DefaultStrategy()
        #: Scripted choices that were not runnable when their turn came.
        self.divergences = 0

    def choose(self, index, candidates, current, point):
        if index < len(self.choices):
            want = self.choices[index]
            if want in candidates:
                return want
            self.divergences += 1
        return self.fallback.choose(index, candidates, current, point)


def preemption_counts(decisions: Sequence[Decision]) -> List[int]:
    """``result[i]`` = preemptions spent strictly before decision ``i``."""
    counts, used = [], 0
    for d in decisions:
        counts.append(used)
        if d.preemptive:
            used += 1
    return counts


def dfs_prefixes(
    run_fn: Callable[[List[str]], Sequence[Decision]],
    max_runs: int,
    preemption_bound: int,
) -> Iterator[int]:
    """Systematic DFS over the schedule tree.

    ``run_fn(prefix)`` must execute one run whose first branching decisions
    are forced to ``prefix`` and return its decision log up to where the
    tree stops branching (``explore_config`` cuts it at the run's abort).
    Yields the number of runs executed so far after each run.  Each
    feasible schedule (within the preemption bound) is executed at most
    once: alternatives are only expanded at decision indices at or past the
    forced prefix, so the prefix tree *is* the schedule tree.
    """
    stack: List[List[str]] = [[]]
    runs = 0
    while stack and runs < max_runs:
        prefix = stack.pop()
        decisions = run_fn(prefix)
        runs += 1
        yield runs
        spent = preemption_counts(decisions)
        # Reverse order so the deepest alternatives are explored first.
        for i in range(len(decisions) - 1, len(prefix) - 1, -1):
            d = decisions[i]
            for alt in reversed(d.runnable):
                if alt == d.chosen:
                    continue
                cost = spent[i] + (1 if (d.current is not None
                                         and d.current in d.runnable
                                         and alt != d.current) else 0)
                if cost > preemption_bound:
                    continue
                stack.append([dd.chosen for dd in decisions[:i]] + [alt])
