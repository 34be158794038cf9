"""repro.explore — deterministic schedule exploration for the simulator.

The dynamic-side subsystem: a cooperative :class:`Scheduler` serializes
every logical thread of a simulated run onto one token (so a run is fully
determined by its schedule choice sequence), traces record/replay those
choices as compact JSON, and exploration strategies (bounded-preemption
DFS, dynamic partial-order reduction with wakeup sequences and sleep
sets, seeded random sampling with duplicate resampling) sweep the
interleaving space per ``(nprocs, num_threads, thread_level)``
configuration — with greedy delta-debugging of any failing schedule.
Surfaced as ``parcoach explore``.
"""

from .dpor import DporStats, DporStrategy, RunRecord
from .explore import (
    ConfigReport,
    ExploreConfig,
    ScheduleOutcome,
    explore_config,
    explore_program,
    replay,
    run_scheduled,
)
from .footprint import conflicts, point_footprint
from .minimize import ddmin
from .sched import Scheduler
from .strategies import (
    Decision,
    DefaultStrategy,
    RandomStrategy,
    ScriptedStrategy,
    Strategy,
    dfs_prefixes,
)
from .trace import ScheduleTrace, verdict_line

__all__ = [
    "ConfigReport",
    "DporStats",
    "DporStrategy",
    "ExploreConfig",
    "RunRecord",
    "ScheduleOutcome",
    "explore_config",
    "explore_program",
    "replay",
    "run_scheduled",
    "conflicts",
    "point_footprint",
    "ddmin",
    "Scheduler",
    "Decision",
    "DefaultStrategy",
    "RandomStrategy",
    "ScriptedStrategy",
    "Strategy",
    "dfs_prefixes",
    "ScheduleTrace",
    "verdict_line",
]
