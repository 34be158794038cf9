#!/usr/bin/env python3
"""The error gallery: every case's static verdict vs dynamic verdicts.

Prints one row per case: which warnings the static pass emits, what the
instrumented run reports (and that it is the *clean* CC/thread-check error,
not a deadlock), and what the raw run degenerates to.

Run:  python examples/bug_gallery.py
"""

from repro import analyze_program, instrument_program, parse_program, run_program
from repro.bench.errors_gallery import CASES


def main() -> None:
    print(f"{'case':<32} {'static warnings':>16} {'instrumented run':>26} {'raw run':>22}")
    print("-" * 100)
    for name in sorted(CASES):
        case = CASES[name]
        program = parse_program(case.source, name)
        analysis = analyze_program(program)

        instrumented, _ = instrument_program(analysis)
        inst = run_program(instrumented, nprocs=case.nprocs,
                           num_threads=case.num_threads,
                           group_kinds=analysis.group_kinds)
        raw = run_program(program, nprocs=case.nprocs,
                          num_threads=case.num_threads)

        inst_v = f"{inst.verdict}" if inst.error else "clean"
        if inst.error:
            inst_v += f" [{inst.detected_by}]"
        raw_v = f"{raw.verdict}" if raw.error else "clean"
        print(f"{name:<32} {len(analysis.diagnostics):>16} {inst_v:>26} {raw_v:>22}")
    print("-" * 100)
    print("instrumented verdicts tagged [CC]/[thread-check] abort before the "
          "deadlock;\nraw verdicts are what the machine alone can tell.")


if __name__ == "__main__":
    main()
