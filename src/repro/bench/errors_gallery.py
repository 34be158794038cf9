"""Gallery of hybrid MPI+OpenMP programs, erroneous and correct.

Each case records what the *static* analysis must say and what a *dynamic*
run may report — the ground truth for the detection experiments (paper
claim: errors are reported with their type and source lines, and execution
stops before the deadlock becomes unavoidable).

Cases whose runtime outcome depends on thread scheduling list every
acceptable error class and set ``deterministic=False``; tests then assert
membership instead of equality.

Cases that additionally set ``schedule_sensitive=True`` are the exploration
seeds: their bug only manifests under *specific* interleavings, so a single
run on the default schedule may legitimately come out clean.
They are excluded from the correct/erroneous helpers (a bounded number of
retries proves nothing either way) and exercised by ``parcoach explore``
and ``tests/test_explore.py`` instead, which sweep the schedule space
deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple, Type

from ..core.diagnostics import ErrorCode
from ..runtime.errors import (
    CollectiveMismatchError,
    ConcurrentCollectiveError,
    DeadlockError,
    ThreadContextError,
    ThreadLevelError,
    ValidationError,
)


@dataclass(frozen=True)
class ErrorCase:
    name: str
    source: str
    description: str
    #: Static warning codes that MUST be present (subset check).
    expect_static: FrozenSet[ErrorCode]
    #: Acceptable error classes for an *instrumented* run; empty = clean run.
    runtime_errors: Tuple[Type[ValidationError], ...] = ()
    #: Acceptable error classes for a *raw* (uninstrumented) run.
    raw_errors: Tuple[Type[ValidationError], ...] = ()
    deterministic: bool = True
    nprocs: int = 2
    num_threads: int = 2
    #: Bug manifests only under specific interleavings: validated by
    #: schedule exploration, not by repeated default runs.
    schedule_sensitive: bool = False
    #: Bug is only visible to the interprocedural layer (context
    #: propagation / expression-call points): the intraprocedural mode
    #: provably reports nothing.  ``tests/test_interproc.py`` asserts both
    #: directions; the corpus-stability test excludes these cases.
    interprocedural: bool = False


_CASES = []


def _case(**kwargs) -> None:
    kwargs["expect_static"] = frozenset(kwargs.get("expect_static", ()))
    _CASES.append(ErrorCase(**kwargs))


# -- correct programs ----------------------------------------------------------

_case(
    name="clean_masteronly",
    description="straight-line collectives outside any parallel region: "
                "fully verified, zero instrumentation",
    source="""
void main() {
    MPI_Init_thread(0);
    int x = 7;
    float s = 1.0;
    float g = 0.0;
    MPI_Bcast(x, 0);
    MPI_Allreduce(s, g, "sum");
    MPI_Barrier();
    MPI_Finalize();
}
""",
    expect_static=(),
)

_case(
    name="single_region_ok",
    description="collective inside single: monothreaded (pw = P S), verified",
    source="""
void main() {
    MPI_Init_thread(2);
    #pragma omp parallel
    {
        #pragma omp single
        {
            MPI_Barrier();
        }
    }
    MPI_Finalize();
}
""",
    expect_static=(),
)

_case(
    name="master_region_ok",
    description="collective inside master with explicit barrier: verified, "
                "needs only FUNNELED",
    source="""
void main() {
    MPI_Init_thread(1);
    int x = 3;
    #pragma omp parallel
    {
        #pragma omp master
        {
            MPI_Bcast(x, 0);
        }
        #pragma omp barrier
    }
    MPI_Finalize();
}
""",
    expect_static=(),
)

_case(
    name="singles_separated_by_barrier_ok",
    description="two singles with the implicit barrier in between: ordered, "
                "not concurrent",
    source="""
void main() {
    MPI_Init_thread(2);
    float a = 1.0;
    float b = 0.0;
    #pragma omp parallel
    {
        #pragma omp single
        {
            MPI_Allreduce(a, b, "sum");
        }
        #pragma omp single
        {
            MPI_Barrier();
        }
    }
    MPI_Finalize();
}
""",
    expect_static=(),
)

_case(
    name="loop_collective_fp",
    description="collective inside a counted loop: the classic PARCOACH "
                "conservative warning; the dynamic check then validates the "
                "run as clean (false-positive resolution)",
    source="""
void main() {
    MPI_Init_thread(0);
    float r = 1.0;
    float g = 0.0;
    for (int step = 0; step < 4; step += 1) {
        MPI_Allreduce(r, g, "sum");
    }
    MPI_Finalize();
}
""",
    expect_static=(ErrorCode.COLLECTIVE_MISMATCH,),
)

_case(
    name="balanced_if_fp",
    description="if/else with one call of the same collective in each arm: "
                "paper-mode warning, counting-mode clean, runtime clean",
    source="""
void main() {
    MPI_Init_thread(0);
    int rank = MPI_Comm_rank();
    float x = 1.0;
    float y = 0.0;
    if (rank == 0) {
        MPI_Allreduce(x, y, "sum");
    }
    else {
        MPI_Allreduce(x, y, "sum");
    }
    MPI_Finalize();
}
""",
    expect_static=(ErrorCode.COLLECTIVE_MISMATCH,),
)

_case(
    name="early_return_always_barrier",
    description="helper that barriers on every path but returns early on "
                "one of them: paper-mode warning (branch-duplicated "
                "collective), runtime clean — and the CFG post-dominance "
                "must-summary still classifies MPI_Barrier [always], which "
                "the structural rule demoted to conditional",
    source="""
int sync_or_bail(int v) {
    if (v > 100) {
        MPI_Barrier();
        return 100;
    }
    MPI_Barrier();
    return v;
}

void main() {
    MPI_Init_thread(0);
    int x = 1;
    x = sync_or_bail(x);
    MPI_Finalize();
}
""",
    expect_static=(ErrorCode.COLLECTIVE_MISMATCH,),
)

# -- inter-process mismatches -----------------------------------------------------

_case(
    name="rank_dependent_bcast",
    description="Bcast guarded by rank: only rank 0 calls it — mismatch; "
                "CC stops before the deadlock",
    source="""
void main() {
    MPI_Init_thread(0);
    int rank = MPI_Comm_rank();
    int x = 5;
    if (rank == 0) {
        MPI_Bcast(x, 0);
    }
    MPI_Barrier();
    MPI_Finalize();
}
""",
    expect_static=(ErrorCode.COLLECTIVE_MISMATCH,),
    runtime_errors=(CollectiveMismatchError,),
    raw_errors=(DeadlockError,),
)

_case(
    name="different_collectives_by_rank",
    description="rank 0 reduces while the others broadcast: both names get "
                "a mismatch warning; raw run deadlocks in the engine",
    source="""
void main() {
    MPI_Init_thread(0);
    int rank = MPI_Comm_rank();
    float a = 2.0;
    float b = 0.0;
    int x = 1;
    if (rank == 0) {
        MPI_Reduce(a, b, "sum", 0);
    }
    else {
        MPI_Bcast(x, 1);
    }
    MPI_Finalize();
}
""",
    expect_static=(ErrorCode.COLLECTIVE_MISMATCH,),
    runtime_errors=(CollectiveMismatchError,),
    raw_errors=(DeadlockError,),
)

_case(
    name="missing_barrier_one_rank",
    description="rank 0 executes one extra Barrier: counts diverge",
    source="""
void main() {
    MPI_Init_thread(0);
    int rank = MPI_Comm_rank();
    MPI_Barrier();
    if (rank == 0) {
        MPI_Barrier();
    }
    MPI_Finalize();
}
""",
    expect_static=(ErrorCode.COLLECTIVE_MISMATCH,),
    runtime_errors=(CollectiveMismatchError,),
    raw_errors=(DeadlockError,),
)

_case(
    name="mismatch_through_call",
    description="the divergent collective hides inside a callee: the call "
                "site is the collective point, callee gets instrumented too",
    source="""
void do_sync() {
    MPI_Barrier();
}

void main() {
    MPI_Init_thread(0);
    int rank = MPI_Comm_rank();
    if (rank == 0) {
        do_sync();
    }
    MPI_Finalize();
}
""",
    expect_static=(ErrorCode.COLLECTIVE_MISMATCH,),
    runtime_errors=(CollectiveMismatchError,),
    raw_errors=(DeadlockError,),
)

# -- multithreaded-context errors -------------------------------------------------

_case(
    name="barrier_in_parallel",
    description="collective executed by every thread of the team: phase 1 "
                "flags it, the ENTER counter aborts at run time",
    source="""
void main() {
    MPI_Init_thread(3);
    #pragma omp parallel num_threads(4)
    {
        work(2000);
        MPI_Barrier();
    }
    MPI_Finalize();
}
""",
    expect_static=(ErrorCode.COLLECTIVE_MULTITHREADED,),
    runtime_errors=(ThreadContextError, ConcurrentCollectiveError, DeadlockError),
    raw_errors=(ConcurrentCollectiveError, DeadlockError, ThreadLevelError),
    deterministic=False,
)

_case(
    name="collective_in_omp_for",
    description="collective inside a worksharing loop body",
    source="""
void main() {
    MPI_Init_thread(3);
    #pragma omp parallel num_threads(4)
    {
        #pragma omp for
        for (int i = 0; i < 8; i += 1) {
            work(500);
            MPI_Barrier();
        }
    }
    MPI_Finalize();
}
""",
    expect_static=(ErrorCode.COLLECTIVE_MULTITHREADED,),
    runtime_errors=(ThreadContextError, ConcurrentCollectiveError, DeadlockError),
    raw_errors=(ConcurrentCollectiveError, DeadlockError, ThreadLevelError),
    deterministic=False,
)

_case(
    name="nested_parallel_single",
    description="single inside nested parallelism: one thread *per inner "
                "team* executes the collective (pw = P P S rejected)",
    source="""
void main() {
    MPI_Init_thread(3);
    #pragma omp parallel num_threads(2)
    {
        #pragma omp parallel num_threads(2)
        {
            #pragma omp single
            {
                work(2000);
                MPI_Barrier();
            }
        }
    }
    MPI_Finalize();
}
""",
    expect_static=(ErrorCode.COLLECTIVE_MULTITHREADED,),
    runtime_errors=(ThreadContextError, ConcurrentCollectiveError, DeadlockError),
    raw_errors=(ConcurrentCollectiveError, DeadlockError, ThreadLevelError),
    deterministic=False,
)

_case(
    name="task_collective",
    description="collective inside an explicit task: outside the paper's "
                "model, conservatively flagged",
    source="""
void main() {
    MPI_Init_thread(3);
    #pragma omp parallel num_threads(2)
    {
        #pragma omp single
        {
            #pragma omp task
            {
                MPI_Barrier();
            }
        }
    }
    MPI_Finalize();
}
""",
    expect_static=(ErrorCode.TASK_CONTEXT,),
    runtime_errors=(),  # undeferred task: one thread executes — run is clean
)

# -- concurrent monothreaded regions ------------------------------------------------

_case(
    name="concurrent_singles_nowait",
    description="single nowait followed by another single: no barrier "
                "between them, different collectives may overlap and the "
                "cross-rank order is nondeterministic",
    source="""
void main() {
    MPI_Init_thread(3);
    float a = 1.0;
    float b = 0.0;
    int x = 2;
    #pragma omp parallel num_threads(2)
    {
        #pragma omp single nowait
        {
            work(4000);
            MPI_Reduce(a, b, "sum", 0);
        }
        #pragma omp single
        {
            MPI_Bcast(x, 0);
        }
    }
    MPI_Finalize();
}
""",
    expect_static=(ErrorCode.COLLECTIVE_CONCURRENT,),
    runtime_errors=(ConcurrentCollectiveError, CollectiveMismatchError,
                    DeadlockError, ThreadContextError),
    raw_errors=(ConcurrentCollectiveError, DeadlockError),
    deterministic=False,
)

_case(
    name="sections_two_collectives",
    description="two sections each with a collective: the sections are "
                "concurrent monothreaded regions",
    source="""
void main() {
    MPI_Init_thread(3);
    float a = 1.0;
    float b = 0.0;
    #pragma omp parallel num_threads(2)
    {
        #pragma omp sections
        {
            #pragma omp section
            {
                work(4000);
                MPI_Barrier();
            }
            #pragma omp section
            {
                MPI_Allreduce(a, b, "sum");
            }
        }
    }
    MPI_Finalize();
}
""",
    expect_static=(ErrorCode.COLLECTIVE_CONCURRENT,),
    runtime_errors=(ConcurrentCollectiveError, CollectiveMismatchError,
                    DeadlockError, ThreadContextError),
    raw_errors=(ConcurrentCollectiveError, DeadlockError),
    deterministic=False,
)

# -- interleaving-dependent bugs (exploration seeds) ----------------------------------

_case(
    name="racy_single_worker_allreduce",
    description="single nowait whose body only calls the collective when the "
                "*worker* wins the claim: ranks whose claim winners differ "
                "execute different collective sequences — invisible to any "
                "single run where every rank schedules alike (the default), "
                "found by schedule exploration flipping one rank's winner",
    source="""
void main() {
    MPI_Init_thread(3);
    float a = 1.0;
    float b = 0.0;
    #pragma omp parallel num_threads(2)
    {
        #pragma omp single nowait
        {
            if (omp_get_thread_num() == 1) {
                MPI_Allreduce(a, b, "sum");
            }
        }
    }
    MPI_Finalize();
}
""",
    expect_static=(ErrorCode.COLLECTIVE_MISMATCH,),
    runtime_errors=(CollectiveMismatchError, DeadlockError),
    raw_errors=(DeadlockError,),
    deterministic=False,
    schedule_sensitive=True,
)

_case(
    name="racy_flag_guarded_barrier",
    description="master-only collective racing a worker barrier: the worker "
                "calls MPI_Barrier only while a shared 'done' flag is still "
                "unset, so the bug (concurrent collectives in one rank, or a "
                "cross-rank Bcast/Barrier round mismatch) appears on some "
                "interleavings and vanishes on others",
    source="""
void main() {
    MPI_Init_thread(3);
    int x = 9;
    int done = 0;
    #pragma omp parallel num_threads(2)
    {
        if (omp_get_thread_num() == 0) {
            MPI_Bcast(x, 0);
            done = 1;
        }
        else {
            if (done == 0) {
                MPI_Barrier();
            }
        }
    }
    MPI_Finalize();
}
""",
    expect_static=(ErrorCode.COLLECTIVE_MISMATCH, ErrorCode.COLLECTIVE_MULTITHREADED),
    runtime_errors=(ConcurrentCollectiveError, CollectiveMismatchError,
                    DeadlockError, ThreadContextError),
    raw_errors=(ConcurrentCollectiveError, DeadlockError),
    deterministic=False,
    schedule_sensitive=True,
)

# -- interprocedural bugs (context-propagation seeds) ---------------------------------
#
# All three are invisible to the intraprocedural analysis: the offending
# call is expression-level (``x = helper(x);`` has no CALL block and no
# CollectiveSite), and each helper is clean under the empty context.  Only
# the interprocedural layer — propagated context words, expression-call
# sequence points, and call-path diagnostics — flags them.

_case(
    name="interproc_helper_in_parallel",
    description="collective inside a helper called (expression-level) from "
                "an omp parallel region: monothreaded under the empty "
                "context, multithreaded under the propagated P context",
    source="""
int bump(int v) {
    MPI_Barrier();
    return v + 1;
}

void main() {
    MPI_Init_thread(3);
    int x = 0;
    #pragma omp parallel num_threads(2)
    {
        x = bump(x);
    }
    MPI_Finalize();
}
""",
    expect_static=(ErrorCode.COLLECTIVE_MULTITHREADED,),
    runtime_errors=(ThreadContextError, ConcurrentCollectiveError, DeadlockError),
    raw_errors=(ConcurrentCollectiveError, DeadlockError),
    deterministic=False,
    interprocedural=True,
)

_case(
    name="interproc_conditional_collective_helper",
    description="rank-guarded expression call to an always-collective "
                "helper: rank 0 executes one extra Allreduce — the "
                "expression-call sequence point flags the guard, CC stops "
                "the run before the deadlock",
    source="""
int sync_step(int v) {
    float a = 1.0;
    float b = 0.0;
    MPI_Allreduce(a, b, "sum");
    return v + 1;
}

void main() {
    MPI_Init_thread(0);
    int r = MPI_Comm_rank();
    int x = 1;
    if (r == 0) {
        x = sync_step(x);
    }
    MPI_Barrier();
    MPI_Finalize();
}
""",
    expect_static=(ErrorCode.COLLECTIVE_MISMATCH,),
    runtime_errors=(CollectiveMismatchError,),
    raw_errors=(DeadlockError,),
    interprocedural=True,
)

_case(
    name="interproc_recursive_barrier",
    description="recursive helper whose barrier is fine standalone but "
                "multithreaded under the parallel calling context; the "
                "recursion exercises the SCC fixpoint of the propagation",
    source="""
int spin(int n) {
    if (n > 0) {
        n = spin(n - 1);
    }
    MPI_Barrier();
    return n;
}

void main() {
    MPI_Init_thread(3);
    int x = 2;
    #pragma omp parallel num_threads(2)
    {
        x = spin(x);
    }
    MPI_Finalize();
}
""",
    expect_static=(ErrorCode.COLLECTIVE_MULTITHREADED,),
    runtime_errors=(ThreadContextError, ConcurrentCollectiveError, DeadlockError),
    raw_errors=(ConcurrentCollectiveError, DeadlockError),
    deterministic=False,
    interprocedural=True,
)

# -- thread-level errors --------------------------------------------------------------

_case(
    name="funneled_violation",
    description="collective funneled to a *non-master* thread while only "
                "FUNNELED is granted: the static pass flags the context "
                "conservatively, the runtime guard catches the level "
                "violation deterministically",
    source="""
void main() {
    MPI_Init_thread(1);
    #pragma omp parallel num_threads(2)
    {
        if (omp_get_thread_num() == 1) {
            MPI_Barrier();
        }
    }
    MPI_Finalize();
}
""",
    expect_static=(ErrorCode.COLLECTIVE_MULTITHREADED, ErrorCode.THREAD_LEVEL),
    runtime_errors=(ThreadLevelError,),
    raw_errors=(ThreadLevelError,),
)

_case(
    name="single_level_in_parallel",
    description="MPI at THREAD_SINGLE from inside an active parallel region",
    source="""
void main() {
    MPI_Init_thread(0);
    #pragma omp parallel num_threads(2)
    {
        #pragma omp master
        {
            MPI_Barrier();
        }
        #pragma omp barrier
    }
    MPI_Finalize();
}
""",
    expect_static=(ErrorCode.THREAD_LEVEL,),
    runtime_errors=(ThreadLevelError,),
    raw_errors=(ThreadLevelError,),
)


CASES: Dict[str, ErrorCase] = {c.name: c for c in _CASES}


def correct_cases() -> Dict[str, ErrorCase]:
    return {n: c for n, c in CASES.items()
            if not c.runtime_errors and not c.raw_errors
            and not c.schedule_sensitive}


def erroneous_cases() -> Dict[str, ErrorCase]:
    return {n: c for n, c in CASES.items()
            if (c.runtime_errors or c.raw_errors) and not c.schedule_sensitive}


def schedule_sensitive_cases() -> Dict[str, ErrorCase]:
    return {n: c for n, c in CASES.items() if c.schedule_sensitive}


def interprocedural_cases() -> Dict[str, ErrorCase]:
    """Seeds only the interprocedural layer can flag statically."""
    return {n: c for n, c in CASES.items() if c.interprocedural}
