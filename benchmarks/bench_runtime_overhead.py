"""Claim C2b — the cost of the runtime checks is low thanks to selective
instrumentation.

Measures execution time of *correct* programs (the conservative static
warnings make them carry checks) raw vs instrumented, and of a fully
verified program (zero checks — instrumentation must cost exactly nothing).

``work(n)`` stands for the application's compute.  It is simulated: it
advances the calling thread's compute clock in O(log n) host time, so these
times are the simulated runtime's and the checks' own, with no burned
compute to dilute the checks' share.  Raw run times are therefore lower,
and the instrumented/raw ratio of LOOPED higher, than when ``work`` stepped
its LCG ``n`` times: the loop took 0.9 ms of LOOPED's raw run and 1.1 ms
of VERIFIED's (medians, one CPU, GC parked, 2-vCPU x86-64, CPython 3.11).
"""

import pytest

from repro import analyze_program, instrument_program, parse_program, run_program

#: A correct hybrid kernel that still draws the conservative loop warning —
#: the representative case for instrumented production runs.
LOOPED = """
void main() {
    MPI_Init_thread(2);
    float local = 1.0;
    float global = 0.0;
    for (int step = 0; step < 15; step += 1) {
        #pragma omp parallel num_threads(2)
        {
            #pragma omp single
            { MPI_Allreduce(local, global, "sum"); }
        }
        work(200);
    }
    MPI_Finalize();
}
"""

#: Fully verified: straight-line collectives, no warnings, no checks.
VERIFIED = """
void main() {
    MPI_Init_thread(0);
    float local = 1.0;
    float global = 0.0;
    MPI_Allreduce(local, global, "sum");
    MPI_Barrier();
    work(3000);
    MPI_Barrier();
    MPI_Finalize();
}
"""


def _prepare(src):
    analysis = analyze_program(parse_program(src))
    program, report = instrument_program(analysis)
    return analysis, program, report


@pytest.mark.parametrize("variant", ["raw", "instrumented"])
def test_exec_time_looped_collectives(benchmark, variant):
    analysis, instrumented, _ = _prepare(LOOPED)
    program = instrumented if variant == "instrumented" else analysis.program
    kinds = analysis.group_kinds if variant == "instrumented" else None

    def run():
        return run_program(program, nprocs=2, num_threads=2,
                           group_kinds=kinds)

    result = benchmark(run)
    assert result.ok, result.error
    benchmark.extra_info["cc_calls"] = result.cc_calls


@pytest.mark.parametrize("variant", ["raw", "instrumented"])
def test_exec_time_verified_program(benchmark, variant):
    analysis, instrumented, report = _prepare(VERIFIED)
    assert analysis.verified and report.total == 0
    program = instrumented if variant == "instrumented" else analysis.program

    def run():
        return run_program(program, nprocs=2, num_threads=2,
                           group_kinds=analysis.group_kinds)

    result = benchmark(run)
    assert result.ok
    assert result.cc_calls == 0  # selective instrumentation: zero checks
