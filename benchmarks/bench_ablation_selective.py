"""Claim C3 (ablation) — selective instrumentation vs blanket instrumentation.

PARCOACH's selectivity: only functions the static pass could not verify (and
the collective-containing functions they reach) get checks.  The ablation
compares inserted-check counts and execution time against ``instrument_all``
(a MUST-style blanket scheme) on a program that is mostly verified.
``work(n)`` in it is simulated compute (O(log n) host time), so the times
compare the runtime with the checks each scheme executes and nothing else.
"""

import pytest

from repro import analyze_program, instrument_program, parse_program, run_program

#: One flagged function among several verified ones.
MIXED = """
void verified_phase(int n) {
    float a = 1.0;
    float b = 0.0;
    MPI_Allreduce(a, b, "sum");
    MPI_Barrier();
    work(n);
}

void another_verified(int n) {
    MPI_Barrier();
    work(n);
    MPI_Barrier();
}

void flagged_phase() {
    int r = MPI_Comm_rank();
    if (r == 0) {
        MPI_Barrier();
    }
    MPI_Barrier();
}

void main() {
    MPI_Init_thread(0);
    verified_phase(100);
    another_verified(100);
    verified_phase(100);
    another_verified(100);
    verified_phase(100);
    another_verified(100);
    MPI_Finalize();
}
"""


def _instrumented(instrument_all):
    analysis = analyze_program(parse_program(MIXED), instrument_all=instrument_all)
    program, report = instrument_program(analysis)
    return analysis, program, report


def test_selective_inserts_fewer_checks():
    _, _, selective = _instrumented(False)
    _, _, blanket = _instrumented(True)
    assert selective.total < blanket.total
    # main never calls flagged_phase, so the whole executed call tree is
    # verified: the flagged function exists but is unreachable from main.
    assert "verified_phase" not in selective.per_function
    assert "verified_phase" in blanket.per_function


@pytest.mark.parametrize("scheme", ["selective", "blanket"])
def test_exec_time_by_scheme(benchmark, scheme):
    analysis, program, report = _instrumented(scheme == "blanket")

    def run():
        return run_program(program, nprocs=2, num_threads=2,
                           group_kinds=analysis.group_kinds)

    result = benchmark(run)
    assert result.ok, result.error
    benchmark.extra_info["inserted_checks"] = report.total
    benchmark.extra_info["executed_cc"] = result.cc_calls
    if scheme == "selective":
        # nothing executed is flagged -> zero dynamic checks
        assert result.cc_calls == 0
    else:
        assert result.cc_calls > 0
