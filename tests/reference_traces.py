"""Brute-force Mazurkiewicz-trace reference for the DPOR driver.

A run's *trace* is its class under swapping adjacent steps that commute.
Two steps depend when they belong to one logical thread or when their
footprints :func:`~repro.explore.footprint.conflicts`; every run in one
class reaches the same state and verdict.  :func:`trace_key` names the
class by the Foata normal form of the run's ``(thread, footprint)`` events
up to the abort (the verdict is fixed there; later steps only unwind it).

:func:`enumerate_traces` walks a whole schedule tree with unbounded DFS
that, like ``explore --strategy dfs``, branches only at decisions before
each run's abort, and returns every run's choices, trace key and verdict
class.  A reduced sweep is checked against it: one run per trace, every
trace covered, the same verdict classes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.explore import ScriptedStrategy, dfs_prefixes
from repro.explore.footprint import conflicts, footprint_to_list
from repro.explore.sched import Scheduler
from repro.runtime.run import run_program

#: One run of a tree: (choices, trace key, verdict class or "clean").
TreeRun = Tuple[Tuple[str, ...], tuple, str]


def events_to_abort(events, event_index, abort_decision):
    """The run's events up to the one that runs after the abort decision."""
    if abort_decision is not None and abort_decision < len(event_index):
        return events[:event_index[abort_decision]]
    return events


def trace_key(events: Sequence[Tuple[str, frozenset]]) -> tuple:
    """Foata normal form: event ``k`` sits one level above the highest
    earlier event it depends on; each level is a sorted multiset."""
    levels: List[int] = []
    for k, (thread, fp) in enumerate(events):
        level = 0
        for j in range(k):
            tj, fpj = events[j]
            if levels[j] >= level and (tj == thread or conflicts(fpj, fp)):
                level = levels[j] + 1
        levels.append(level)
    out: Dict[int, list] = {}
    for (thread, fp), level in zip(events, levels):
        out.setdefault(level, []).append((thread, tuple(footprint_to_list(fp))))
    return tuple(tuple(sorted(out[level])) for level in sorted(out))


def run_key(program, config, kinds, choices) -> Tuple[Scheduler, tuple, str]:
    """Run ``choices`` (then the default schedule); return the scheduler,
    the run's trace key and its verdict class."""
    scheduler = Scheduler(ScriptedStrategy(list(choices)))
    result = run_program(program, nprocs=config.nprocs,
                         num_threads=config.num_threads,
                         thread_level=config.thread_level,
                         group_kinds=kinds, entry=config.entry,
                         scheduler=scheduler)
    key = trace_key(events_to_abort(scheduler.events,
                                    scheduler.decision_event_index,
                                    scheduler.abort_decision))
    verdict = type(result.error).__name__ if result.error else "clean"
    return scheduler, key, verdict


def enumerate_traces(program, config, kinds=None, max_runs: int = 500,
                     preemption_bound: int = 10 ** 9
                     ) -> Optional[List[TreeRun]]:
    """Every run of the tree (DFS, cut at each run's abort), or None when
    the tree has more than ``max_runs`` schedules."""
    runs: List[TreeRun] = []

    def run_fn(prefix):
        scheduler, key, verdict = run_key(program, config, kinds, prefix)
        runs.append((tuple(d.chosen for d in scheduler.decisions), key,
                     verdict))
        limit = scheduler.abort_decision
        return scheduler.decisions[:limit] if limit is not None \
            else scheduler.decisions

    for _ in dfs_prefixes(run_fn, max_runs=max_runs + 1,
                          preemption_bound=preemption_bound):
        if len(runs) > max_runs:
            return None
    return runs
