#!/usr/bin/env python3
"""Quickstart: the full PARCOACH pipeline on a small buggy hybrid program.

1. static analysis -> typed warnings with collective names + source lines;
2. verification code generation -> CC / thread-count checks inserted;
3. simulated execution -> the instrumented run aborts *before* the deadlock,
   the raw run only "fails" as a machine-level deadlock.

Run:  python examples/quickstart.py
"""

from repro import (
    analyze_program,
    instrument_program,
    parse_program,
    pretty,
    render_report,
    run_program,
)

SOURCE = """
void main() {
    MPI_Init_thread(2);
    int rank = MPI_Comm_rank();
    int x = 0;

    // correct: collective funneled through a single region
    #pragma omp parallel num_threads(4)
    {
        #pragma omp single
        {
            MPI_Barrier();
        }
    }

    // bug: only rank 0 broadcasts -> the others head to Finalize
    if (rank == 0) {
        MPI_Bcast(x, 0);
    }
    MPI_Finalize();
}
"""


def main() -> None:
    program = parse_program(SOURCE, "quickstart")

    print("=== 1. static analysis " + "=" * 40)
    analysis = analyze_program(program)
    print(render_report(analysis, verbose=True))

    print("=== 2. verification code generation " + "=" * 27)
    instrumented, report = instrument_program(analysis)
    print(f"inserted: {report.cc_calls} CC calls, {report.return_ccs} return "
          f"checks, {report.enter_checks} thread-count checks\n")
    print(pretty(instrumented))

    print("=== 3a. instrumented run (2 ranks) " + "=" * 28)
    result = run_program(instrumented, nprocs=2, num_threads=4,
                         group_kinds=analysis.group_kinds)
    print(f"verdict: {result.verdict} (detected by {result.detected_by})")
    print(f"  {result.error}\n")

    print("=== 3b. raw run (what the machine sees) " + "=" * 23)
    raw = run_program(program, nprocs=2, num_threads=4)
    print(f"verdict: {raw.verdict} (detected by {raw.detected_by})")
    print(f"  {raw.error}")


if __name__ == "__main__":
    main()
