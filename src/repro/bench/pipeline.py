"""The "compilation" pipeline whose overhead Figure 1 measures.

The paper's baseline is a full GCC compile; the verification adds (a) the
static pass that prints warnings and (b) the verification-code generation.
The analogue here:

* ``base``     — lex + parse + semantic check + the full middle end
  (constant folding, CFG construction, dominators/post-dominators, loop
  detection, liveness and available-expressions dataflow, three-address
  lowering) + source emission: the compiler without PARCOACH;
* ``warnings`` — base + the full static analysis (words, phases 1–3,
  diagnostics) — the paper's "Warnings" bars;
* ``full``     — warnings + instrumentation transform, emitting the
  *instrumented* source — the paper's "Warnings + verification code
  generation" bars.

``compile_source`` runs one mode and returns stage timings so the benchmark
can compute overhead percentages exactly as the figure does.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core import ProgramAnalysis, analyze_program, instrument_program
from ..core.instrument import InstrumentationReport
from ..minilang import ast_nodes as A
from ..minilang.parser import parse_program
from ..minilang.pretty import pretty
from ..minilang.semantics import check_program
from ..opt import run_middle_end

MODES = ("base", "warnings", "full")


@dataclass
class CompileResult:
    mode: str
    program: A.Program
    emitted: str
    timings: Dict[str, float] = field(default_factory=dict)
    analysis: Optional[ProgramAnalysis] = None
    report: Optional[InstrumentationReport] = None

    @property
    def total_time(self) -> float:
        return sum(self.timings.values())

    @property
    def warning_count(self) -> int:
        return len(self.analysis.diagnostics) if self.analysis else 0


def compile_source(source: str, mode: str = "base",
                   precision: str = "paper",
                   filename: str = "<bench>") -> CompileResult:
    """Run the pipeline in one of the three modes."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    timings: Dict[str, float] = {}

    t0 = time.perf_counter()
    program = parse_program(source, filename)
    timings["parse"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    issues = check_program(program)
    errors = [i for i in issues if i.severity == "error"]
    if errors:
        raise ValueError("semantic errors in benchmark source:\n" +
                         "\n".join(str(e) for e in errors))
    timings["semantics"] = time.perf_counter() - t0

    analysis: Optional[ProgramAnalysis] = None
    report: Optional[InstrumentationReport] = None
    emit_target: A.Program = program

    # The middle end runs in every mode — it is the baseline the paper's
    # overhead percentages are relative to.
    t0 = time.perf_counter()
    middle = run_middle_end(program)
    timings["middle_end"] = time.perf_counter() - t0

    if mode != "base":
        t0 = time.perf_counter()
        analysis = analyze_program(program, precision=precision, cfgs=middle.cfgs)
        timings["analysis"] = time.perf_counter() - t0
        if mode == "full":
            t0 = time.perf_counter()
            # In-place: compiler passes transform the IR they own.
            emit_target, report = instrument_program(analysis, in_place=True)
            timings["instrument"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    emitted = pretty(emit_target)
    timings["emit"] = time.perf_counter() - t0

    return CompileResult(mode=mode, program=program, emitted=emitted,
                         timings=timings, analysis=analysis, report=report)


def overhead_percent(base_seconds: float, mode_seconds: float) -> float:
    """The figure's y-axis: extra compile time relative to the baseline."""
    if base_seconds <= 0:
        raise ValueError("baseline time must be positive")
    return (mode_seconds - base_seconds) / base_seconds * 100.0


def measure_overheads(source: str, repeats: int = 3,
                      precision: str = "paper") -> Dict[str, float]:
    """Best-of-N stage-summed times per mode plus derived overhead %.

    Returns ``{"base": s, "warnings": s, "full": s,
    "warnings_overhead_pct": p, "full_overhead_pct": p}``.
    """
    times: Dict[str, list] = {mode: [] for mode in MODES}
    # Round-robin over the modes instead of blocking per mode: a transient
    # machine-load burst then inflates one *round* of every mode rather
    # than every repeat of one mode, and the per-mode best-of-N discards
    # it.  (Blocked order made the derived overhead percentages flappy on
    # noisy machines — the baseline and the instrumented mode saw
    # different weather.)  Each compile runs with the cyclic collector
    # parked, after a collection: a collection that fell due in one mode's
    # compile would otherwise land in every repeat of that mode.
    for _ in range(max(1, repeats)):
        for mode in MODES:
            enabled = gc.isenabled()
            gc.collect()
            gc.disable()
            try:
                result = compile_source(source, mode, precision)
            finally:
                if enabled:
                    gc.enable()
            times[mode].append(result.total_time)
    best = {mode: min(series) for mode, series in times.items()}
    best["warnings_overhead_pct"] = overhead_percent(best["base"], best["warnings"])
    best["full_overhead_pct"] = overhead_percent(best["base"], best["full"])
    return best
