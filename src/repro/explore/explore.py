"""High-level exploration driver: schedules × configurations → verdicts.

``explore_config`` systematically executes one program configuration
(ranks, team size, thread level) under many schedules — exhaustive DFS with
a preemption bound, the partial-order-reduced sweep (``dpor``), or
seeded-random sampling — and aggregates the verdict of every interleaving.
The first failing schedule is delta-debugged into a minimized trace.
``explore_program`` cross-products configurations.  ``replay`` re-executes
a recorded (or minimized) trace and reports whether it reproduced the
recorded verdict byte for byte.

The ``dpor`` strategy accepts ``jobs > 1``: waves of queued runs fan out
to a process pool (the same pool/ordered-merge idiom the fuzz campaign
uses) while all exploration state stays in the driver, so the report is
byte-identical to the serial sweep.  ``budget`` caps any strategy's wall
clock; the report is then a clean partial summary with
``budget_exhausted`` set.
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from ..minilang import ast_nodes as A
from ..mpi.thread_levels import ThreadLevel
from ..runtime.run import run_program
from ..runtime.simmpi.world import RunResult
from .dpor import DporStrategy, GuidedRun, Node, RunRecord
from .minimize import ddmin
from .sched import Scheduler
from .strategies import (
    DefaultStrategy,
    RandomStrategy,
    ScriptedStrategy,
    dfs_prefixes,
)
from .trace import ScheduleTrace, verdict_line

#: Bounded resampling when random sampling draws an already-seen schedule.
_DEDUPE_RETRIES = 5


@dataclass(frozen=True)
class ExploreConfig:
    """One point of the (nprocs, num_threads, thread_level) cross product."""

    nprocs: int = 2
    num_threads: int = 2
    thread_level: ThreadLevel = ThreadLevel.MULTIPLE
    entry: str = "main"
    instrument: bool = False

    def as_dict(self) -> Dict[str, object]:
        """The settings every trace of a sweep records: one dict per
        config, which callers copy rather than change."""
        return self._settings

    @cached_property
    def _settings(self) -> Dict[str, object]:
        return {
            "nprocs": self.nprocs,
            "num_threads": self.num_threads,
            "thread_level": self.thread_level.name.lower(),
            "entry": self.entry,
            "instrument": self.instrument,
        }

    def describe(self) -> str:
        return (f"np={self.nprocs} nt={self.num_threads} "
                f"level={self.thread_level.name.lower()}")


@dataclass
class ScheduleOutcome:
    """Verdict of one explored interleaving."""

    index: int
    verdict: str            # canonical verdict line
    verdict_class: str      # "" when clean
    detected_by: str
    trace: ScheduleTrace


@dataclass
class ConfigReport:
    """Aggregate over every schedule explored for one configuration."""

    config: ExploreConfig
    strategy: str
    schedules: int = 0
    verdict_counts: Counter = field(default_factory=Counter)
    failures: List[ScheduleOutcome] = field(default_factory=list)
    minimized: Optional[ScheduleTrace] = None
    minimize_replays: int = 0
    #: Random sampling: duplicate schedules that were discarded+resampled.
    duplicates_skipped: int = 0
    #: DPOR pruning counters (see :class:`repro.explore.dpor.DporStats`).
    dpor_stats: Optional[Dict[str, int]] = None
    #: True when a wall-clock ``budget`` cut the sweep short.
    budget_exhausted: bool = False
    #: Full choice-name sequence of every executed schedule, in order —
    #: only populated with ``collect_schedules=True`` (property tests).
    schedule_choices: List[Tuple[str, ...]] = field(default_factory=list)

    @property
    def clean(self) -> int:
        return self.verdict_counts.get("clean", 0)

    @property
    def failed(self) -> int:
        return self.schedules - self.clean

    def summary(self) -> str:
        counts = ", ".join(
            f"{cls} {n}" for cls, n in sorted(self.verdict_counts.items())
            if cls != "clean"
        )
        line = (f"{self.config.describe()} · {self.strategy}: "
                f"{self.schedules} schedules — clean {self.clean}"
                + (f", {counts}" if counts else ""))
        if self.duplicates_skipped:
            line += f" · {self.duplicates_skipped} duplicates resampled"
        if self.budget_exhausted:
            line += " · budget exhausted (partial)"
        if self.dpor_stats:
            s = self.dpor_stats
            line += (f"\n  dpor: pushed {s['expanded']}, skipped "
                     f"{s['independent_skips']} independent + "
                     f"{s['sleep_skips']} sleeping + "
                     f"{s['bound_skips']} past the bound")
        if self.failures:
            first = self.failures[0]
            line += (f"\n  first failure at schedule #{first.index}: "
                     f"{first.verdict}")
            if self.minimized is not None:
                line += (f"\n  minimized: {len(first.trace.choices)} -> "
                         f"{len(self.minimized.choices)} choices "
                         f"({self.minimize_replays} replays)")
        return line


def _run_with_scheduler(
    program: A.Program,
    config: ExploreConfig,
    scheduler: Scheduler,
    group_kinds: Optional[Dict[int, str]],
    strategy_info: Optional[Dict[str, object]],
    mode: str,
) -> Tuple[RunResult, ScheduleTrace, Scheduler]:
    result = run_program(
        program,
        nprocs=config.nprocs,
        num_threads=config.num_threads,
        thread_level=config.thread_level,
        group_kinds=group_kinds,
        entry=config.entry,
        scheduler=scheduler,
    )
    trace = ScheduleTrace.record(scheduler, config.as_dict(), result,
                                 strategy_info=strategy_info, mode=mode)
    return result, trace, scheduler


def run_scheduled(
    program: A.Program,
    config: ExploreConfig,
    strategy=None,
    group_kinds: Optional[Dict[int, str]] = None,
    strategy_info: Optional[Dict[str, object]] = None,
    mode: str = "full",
) -> Tuple[RunResult, ScheduleTrace]:
    """Execute one deterministic scheduled run; return result + its trace."""
    result, trace, _ = _run_with_scheduler(
        program, config, Scheduler(strategy or DefaultStrategy()),
        group_kinds, strategy_info, mode)
    return result, trace


def replay(
    program: A.Program,
    trace: ScheduleTrace,
    group_kinds: Optional[Dict[int, str]] = None,
) -> Tuple[RunResult, ScheduleTrace, int]:
    """Re-execute a trace.  Returns ``(result, new_trace, divergences)`` —
    ``divergences`` counts scripted choices that were not runnable when
    their turn came (always 0 when replaying a full trace of a
    deterministic run; minimized traces legitimately rely on the fallback
    only after their shortened script is exhausted)."""
    config = ExploreConfig(
        nprocs=int(trace.config.get("nprocs", 2)),
        num_threads=int(trace.config.get("num_threads", 2)),
        thread_level=trace.thread_level(),
        entry=str(trace.config.get("entry", "main")),
        instrument=bool(trace.config.get("instrument", False)),
    )
    strategy = ScriptedStrategy(trace.choice_names)
    result, new_trace = run_scheduled(
        program, config, strategy, group_kinds,
        strategy_info={"name": "replay", "of": trace.mode}, mode=trace.mode)
    return result, new_trace, strategy.divergences


def _minimize_failure(program, config, group_kinds, outcome: ScheduleOutcome,
                      budget: int) -> Tuple[ScheduleTrace, int]:
    """Delta-debug a failing schedule's choice sequence."""
    target = outcome.verdict
    replays = 0

    def failing(candidate: List[str]) -> bool:
        nonlocal replays
        replays += 1
        result, _ = run_scheduled(program, config, ScriptedStrategy(candidate),
                                  group_kinds)
        return verdict_line(result) == target

    minimal = ddmin(failing, outcome.trace.choice_names, budget=budget)
    result, trace = run_scheduled(
        program, config, ScriptedStrategy(minimal), group_kinds,
        strategy_info={"name": "minimized", "from_choices":
                       len(outcome.trace.choices)}, mode="minimized")
    replays += 1
    # Keep exactly the choices the minimized schedule actually consumed.
    trace.choices = trace.choices[:len(minimal)]
    trace.step_footprints = trace.step_footprints[:len(minimal)]
    return trace, replays


def _dpor_worker(payload) -> Tuple[ScheduleTrace, RunRecord]:
    """Pool entry: execute one queued DPOR node, ship trace + record back."""
    program, config, group_kinds, node, preemptions = payload
    scheduler = Scheduler()
    scheduler.strategy = GuidedRun(scheduler, node, preemptions)
    _, trace, _ = _run_with_scheduler(
        program, config, scheduler, group_kinds,
        {"name": "dpor", "prefix": len(node.prefix),
         "preemptions": preemptions}, "full")
    return trace, RunRecord.from_scheduler(scheduler)


def explore_config(
    program: A.Program,
    config: ExploreConfig,
    strategy: str = "dfs",
    runs: int = 100,
    preemptions: int = 2,
    seed: int = 0,
    group_kinds: Optional[Dict[int, str]] = None,
    minimize: bool = True,
    minimize_budget: int = 150,
    max_failures: int = 25,
    jobs: int = 1,
    budget: Optional[float] = None,
    collect_schedules: bool = False,
) -> ConfigReport:
    """Explore one configuration's schedule space."""
    report = ConfigReport(config=config, strategy=strategy)
    deadline = time.monotonic() + budget if budget is not None else None

    def out_of_time() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    def note(trace: ScheduleTrace) -> None:
        report.schedules += 1
        if collect_schedules:
            report.schedule_choices.append(tuple(trace.choice_names))
        key = trace.verdict_class or "clean"
        report.verdict_counts[key] += 1
        if trace.verdict != "clean" and len(report.failures) < max_failures:
            report.failures.append(ScheduleOutcome(
                index=report.schedules,
                verdict=trace.verdict,
                verdict_class=trace.verdict_class,
                detected_by=trace.detected_by,
                trace=trace,
            ))

    if strategy == "dfs":
        def run_fn(prefix: List[str]):
            _, trace, scheduler = _run_with_scheduler(
                program, config, Scheduler(ScriptedStrategy(prefix)),
                group_kinds, {"name": "dfs", "prefix": len(prefix),
                              "preemptions": preemptions}, "full")
            note(trace)
            # Past the abort the verdict is fixed: decisions there only
            # reorder the unwinding, so the tree does not branch on them.
            return trace.choices[:scheduler.abort_decision]

        for _ in dfs_prefixes(run_fn, max_runs=runs,
                              preemption_bound=preemptions):
            if out_of_time():
                report.budget_exhausted = True
                break
    elif strategy == "dpor":
        _explore_dpor(program, config, group_kinds, runs, preemptions,
                      jobs, note, out_of_time, report)
    elif strategy == "random":
        seen: set = set()
        for slot in range(runs):
            if out_of_time():
                report.budget_exhausted = True
                break
            trace = None
            for retry in range(_DEDUPE_RETRIES + 1):
                # Resampling perturbs the seed deterministically, far away
                # from the base seed range.
                s = seed + slot + retry * 1_000_003
                _, trace = run_scheduled(
                    program, config,
                    RandomStrategy(seed=s, preemption_bound=preemptions),
                    group_kinds,
                    strategy_info={"name": "random", "seed": s})
                key = tuple(trace.choice_names)
                if key not in seen or not trace.choices:
                    break  # fresh schedule (or the only schedule there is)
                report.duplicates_skipped += 1
                if out_of_time():
                    break
            # Retries exhausted: accept the duplicate so `runs` schedules
            # are always reported.
            seen.add(tuple(trace.choice_names))
            note(trace)
    else:
        raise ValueError(f"unknown strategy {strategy!r} (dfs|dpor|random)")

    if minimize and report.failures:
        report.minimized, report.minimize_replays = _minimize_failure(
            program, config, group_kinds, report.failures[0], minimize_budget)
    return report


def _explore_dpor(program, config, group_kinds, runs, preemptions, jobs,
                  note, out_of_time, report) -> None:
    """DPOR sweep, optionally fanning waves out to a process pool.

    Workers only *execute* runs; every expansion decision happens here, in
    FIFO wave order, so output is byte-identical for any ``jobs``.
    """
    driver = DporStrategy(preemption_bound=preemptions)

    def run_serial(node: Node) -> Tuple[ScheduleTrace, RunRecord]:
        return _dpor_worker((program, config, group_kinds, node, preemptions))

    pool: Optional[ProcessPoolExecutor] = None
    pool_broken = False
    if jobs > 1:
        try:
            pool = ProcessPoolExecutor(max_workers=jobs)
        except OSError:
            pool = None

    def execute_wave(nodes: List[Node]):
        nonlocal pool, pool_broken
        pairs: Optional[List[Tuple[ScheduleTrace, RunRecord]]] = None
        if pool is not None and not pool_broken and len(nodes) > 1:
            payloads = [(program, config, group_kinds, n, preemptions)
                        for n in nodes]
            try:
                pairs = list(pool.map(_dpor_worker, payloads))
            except (BrokenProcessPool, OSError):
                pool_broken = True  # sandboxed: finish serially
                pairs = None
        if pairs is None:
            pairs = [run_serial(n) for n in nodes]
        for trace, _ in pairs:
            note(trace)
        return [record for _, record in pairs]

    try:
        for _ in driver.explore(execute_wave, max_runs=runs,
                                wave_size=max(1, jobs)):
            if out_of_time():
                report.budget_exhausted = True
                break
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
    report.dpor_stats = driver.stats.as_dict()


def explore_program(
    program: A.Program,
    configs: Sequence[ExploreConfig],
    **kwargs,
) -> List[ConfigReport]:
    """Cross-product exploration: one :class:`ConfigReport` per config."""
    return [explore_config(program, config, **kwargs) for config in configs]
