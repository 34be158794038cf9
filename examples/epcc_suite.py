#!/usr/bin/env python3
"""EPCC mixed-mode scenario: the thread-interaction styles side by side.

The master-only / funneled / serialized kernels verify cleanly (modulo the
conservative loop warnings); the "multiple" kernel — a collective executed
by every thread of the team — is flagged by phase 1 and aborted at run time
by the thread-count check.

Run:  python examples/epcc_suite.py
"""

from repro import analyze_program, instrument_program, parse_program, run_program
from repro.bench import make_epcc_suite
from repro.core import ErrorCode


def main() -> None:
    # The safe suite: compile, instrument, run to completion.
    safe = make_epcc_suite(reps=2, include_multiple=False, n=8,
                           support_variants=2)
    program = parse_program(safe, "epcc-safe")
    analysis = analyze_program(program)
    print(f"safe suite: {len(safe.splitlines())} LoC, "
          f"{len(analysis.diagnostics)} warnings "
          f"(multithreaded: {analysis.diagnostics.count(ErrorCode.COLLECTIVE_MULTITHREADED)})")
    instrumented, _ = instrument_program(analysis)
    result = run_program(instrumented, nprocs=2, num_threads=2,
                         group_kinds=analysis.group_kinds)
    print(f"safe suite run: {result.verdict or 'clean'} "
          f"({result.cc_calls} CC checks passed)")
    assert result.ok, result.error

    # The unsafe "multiple" kernel in isolation.
    unsafe = """
void main() {
    MPI_Init_thread(3);
    #pragma omp parallel num_threads(4)
    {
        work(2000);
        MPI_Barrier();
    }
    MPI_Finalize();
}
"""
    program = parse_program(unsafe, "epcc-multiple")
    analysis = analyze_program(program)
    print("\nunsafe 'multiple' kernel warnings:")
    print(analysis.diagnostics.render())
    instrumented, _ = instrument_program(analysis)
    result = run_program(instrumented, nprocs=2, num_threads=4,
                         group_kinds=analysis.group_kinds)
    print(f"unsafe kernel run: {result.verdict} (detected by {result.detected_by})")
    print(f"  {result.error}")


if __name__ == "__main__":
    main()
