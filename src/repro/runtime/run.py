"""High-level execution façade: run a minilang program under the simulator.

``run_program`` is what the CLI, the examples, the tests and the benchmarks
use: it wires an :class:`MpiWorld`, one interpreter per rank, and the check
state (fed with the analysis' check-group kinds when an instrumented
program is run).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..minilang import ast_nodes as A
from ..mpi.thread_levels import ThreadLevel
from .checks import CheckState
from .interp.interpreter import Interpreter
from .simmpi.world import MpiWorld, RunResult


def run_program(
    program: A.Program,
    nprocs: int = 2,
    num_threads: int = 2,
    thread_level: ThreadLevel = ThreadLevel.MULTIPLE,
    group_kinds: Optional[Dict[int, str]] = None,
    entry: str = "main",
    scheduler=None,
) -> RunResult:
    """Execute ``program`` on ``nprocs`` simulated ranks.

    Every run is cooperative and deterministic: one logical thread runs at
    a time, a deadlock is reported the instant every logical thread blocks
    (naming each one's wait), and a livelock ends at the scheduler's step
    budget (``repro.explore.sched.DEFAULT_STEP_BUDGET``).

    Parameters
    ----------
    program:
        Original or instrumented AST.
    num_threads:
        Default OpenMP team size (``num_threads`` clauses override it).
    thread_level:
        Maximum thread support the simulated MPI grants
        (``MPI_Init_thread`` requests are capped at this).
    group_kinds:
        ``ProgramAnalysis.group_kinds`` when running instrumented code —
        selects the error type the ENTER counters raise.
    scheduler:
        A :class:`repro.explore.Scheduler` to run under — exploration
        installs one with its own strategy and reads its decision log
        afterwards.  ``None`` (default) runs the default schedule.
    """
    world = MpiWorld(nprocs, thread_level=thread_level, scheduler=scheduler)

    def target(proc):
        checks = CheckState(proc, group_kinds)
        interp = Interpreter(program, proc, check_state=checks,
                             num_threads=num_threads)
        return interp.run(entry)

    return world.run(target)
