"""repro — reproduction of *Static/Dynamic Validation of MPI Collective
Communications in Multi-threaded Context* (Saillard, Carribault, Barthou,
PPoPP 2015): the PARCOACH MPI+OpenMP extension, with all substrates built
from scratch (minilang front end, CFG middle end, MPI simulator, OpenMP-like
runtime, interpreter) so the full static + dynamic pipeline runs anywhere.

Typical use::

    from repro import parse_program, analyze_program, instrument_program, run_program

    program = parse_program(source)
    analysis = analyze_program(program)
    print(analysis.diagnostics.render())
    instrumented, report = instrument_program(analysis)
    result = run_program(instrumented, nprocs=4, num_threads=4,
                         group_kinds=analysis.group_kinds)
    print(result.verdict)
"""

from .core import (
    ProgramAnalysis,
    analyze_program,
    analysis_summary,
    instrument_program,
    render_report,
)
from .minilang import parse_program, pretty
from .mpi.thread_levels import ThreadLevel
from .runtime import run_program
from .runtime.errors import (
    CollectiveMismatchError,
    ConcurrentCollectiveError,
    DeadlockError,
    ThreadContextError,
    ThreadLevelError,
    ValidationError,
)

__version__ = "1.0.0"

__all__ = [
    "ProgramAnalysis",
    "analyze_program",
    "analysis_summary",
    "instrument_program",
    "render_report",
    "parse_program",
    "pretty",
    "ThreadLevel",
    "run_program",
    "CollectiveMismatchError",
    "ConcurrentCollectiveError",
    "DeadlockError",
    "ThreadContextError",
    "ThreadLevelError",
    "ValidationError",
    "__version__",
]
