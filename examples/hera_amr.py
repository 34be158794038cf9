#!/usr/bin/env python3
"""HERA scenario: a multi-physics AMR skeleton with load-balance branches.

The regridding function reduces only on overloaded ranks — the conditional
lands in the iterated post-dominance frontier and the analysis pinpoints it
(function, collective, line).  The instrumented run validates the actual
execution (the balance condition happens to agree on all ranks here).

Run:  python examples/hera_amr.py
"""

from repro import analyze_program, instrument_program, parse_program, run_program
from repro.bench import make_hera


def main() -> None:
    src = make_hera(levels=2, steps=2, n=16, physics_modules=3)
    print(f"generated HERA-like program: {len(src.splitlines())} LoC")

    program = parse_program(src, "hera")
    analysis = analyze_program(program)
    print(f"\nwarnings ({len(analysis.diagnostics)}):")
    print(analysis.diagnostics.render())

    instrumented, report = instrument_program(analysis)
    print(f"instrumented: {sorted(report.per_function)} "
          f"({report.total} checks)")

    result = run_program(instrumented, nprocs=2, num_threads=2,
                         group_kinds=analysis.group_kinds)
    print(f"\nrun verdict: {result.verdict or 'clean'}")
    assert result.ok, result.error
    print(f"CC checks executed: {result.cc_calls} — every warned pattern "
          f"validated dynamically")
    for line in result.outputs[0]:
        print("rank 0:", line)


if __name__ == "__main__":
    main()
