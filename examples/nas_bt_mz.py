#!/usr/bin/env python3
"""BT-MZ scenario: analyze, instrument and *execute* a (scaled-down) NAS
BT-MZ-like hybrid workload end to end.

The timestep loop contains the residual Allreduce, which draws PARCOACH's
classic conservative loop warning; the instrumented run then validates every
iteration dynamically — the false-positive-resolution story of the paper.

Run:  python examples/nas_bt_mz.py
"""

from repro import analyze_program, instrument_program, parse_program, run_program
from repro.bench import make_bt_mz
from repro.core import ErrorCode


def main() -> None:
    src = make_bt_mz(zones=2, steps=3, inner_loops=2, width=2)
    print(f"generated BT-MZ-like program: {len(src.splitlines())} LoC")

    program = parse_program(src, "bt-mz")
    analysis = analyze_program(program)
    mismatches = analysis.diagnostics.by_code(ErrorCode.COLLECTIVE_MISMATCH)
    print(f"warnings: {len(analysis.diagnostics)} "
          f"({len(mismatches)} collective-mismatch)")
    for diag in analysis.diagnostics:
        print("  *", str(diag).splitlines()[0])

    instrumented, report = instrument_program(analysis)
    print(f"\ninstrumented functions: {sorted(report.per_function)} "
          f"({report.total} checks inserted)")

    result = run_program(instrumented, nprocs=2, num_threads=2,
                         group_kinds=analysis.group_kinds)
    print(f"\nrun verdict: {result.verdict or 'clean'}")
    assert result.ok, result.error
    print(f"CC checks executed: {result.cc_calls} — all passed")
    for line in result.outputs[0]:
        print("rank 0:", line)


if __name__ == "__main__":
    main()
