"""Figure 1 — compile-time overhead of warnings and verification codegen.

One pytest-benchmark entry per (benchmark, mode); the figure's bars are::

    overhead(mode) = (mean(mode) - mean(base)) / mean(base) * 100

for mode ∈ {warnings, full}.  ``examples/figure1_overhead.py`` prints the
bars directly; EXPERIMENTS.md records paper-vs-measured.  The shape assertion
(every bar below ``BAR_BOUND_PCT``, codegen ≥ warnings-only) is checked by
``test_fig1_shape`` below, which also runs under ``--benchmark-only``
because it uses the benchmark fixture for its timing.

The bars are relative to this repository's own ``base`` compile -- its
minilang front end and middle end -- not to GCC's as in the paper.  A faster
front end shrinks the denominator while the analysis stage stays the same,
so the bars rise: when the regex lexer and precedence-climbing parser made
``base`` 1.5-2.0x faster, bars of 5-32% became 26-38% (best of 9, all five
programs, a 2-vCPU x86-64 host).  ``BAR_BOUND_PCT`` is the earlier 25% bound
scaled by that 2x.

Per-class AST child fields, a flat operand parser and a one-pass call
index then made ``base`` faster again, and the bars fell instead of
rising: the call index is part of the analysis stage, which lost more
time than ``base`` did (its middle end did not change).  Best of 9 on
the same host (two runs before, three after), bars in percent, before ->
after:

    benchmark     warnings        full
    BT-MZ         17-22 -> 6-15   19-22 -> 11-14
    SP-MZ         18-20 -> 8-11   19-20 -> 10-14
    LU-MZ         14-18 -> 11-14  16-22 -> 12-15
    EPCC suite    23-27 -> 11-16  22-28 -> 16-20
    HERA          15-17 -> 11-14  15-17 -> 9-15
"""

import pytest

from repro.bench import FIGURE1_BENCHMARKS, compile_source, measure_overheads
from repro.bench.pipeline import MODES

#: Upper bound on each Figure 1 bar, in percent of the ``base`` compile.
BAR_BOUND_PCT = 50.0


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", FIGURE1_BENCHMARKS)
def test_compile(benchmark, sources, name, mode):
    src = sources[name]
    benchmark.extra_info["benchmark"] = name
    benchmark.extra_info["mode"] = mode
    result = benchmark(compile_source, src, mode)
    assert result.emitted
    if mode != "base":
        assert result.warning_count >= 1


@pytest.mark.parametrize("name", FIGURE1_BENCHMARKS)
def test_fig1_shape(benchmark, sources, name):
    """Regenerates the figure's bars for one benchmark and checks the shape:
    both overheads modest, verification codegen costs at least as much as
    warnings alone (up to timing noise)."""
    src = sources[name]
    ov = benchmark(measure_overheads, src, 3)
    if (ov["warnings_overhead_pct"] >= BAR_BOUND_PCT
            or ov["full_overhead_pct"] >= BAR_BOUND_PCT
            or ov["full_overhead_pct"] < ov["warnings_overhead_pct"] - 8.0):
        # A 3-repeat best-of can still land near the bound when the machine
        # is busy.  Before declaring a real regression, re-measure once
        # with triple the repeats — deterministic (no skips, no retries of
        # the assertion itself) and only on the already-failing path, so a
        # genuine overhead regression still fails every run.
        ov = measure_overheads(src, 9)
    benchmark.extra_info["warnings_overhead_pct"] = round(ov["warnings_overhead_pct"], 2)
    benchmark.extra_info["full_overhead_pct"] = round(ov["full_overhead_pct"], 2)
    assert ov["warnings_overhead_pct"] < BAR_BOUND_PCT
    assert ov["full_overhead_pct"] < BAR_BOUND_PCT
    # codegen adds on top of warnings, modulo single-digit timing noise
    assert ov["full_overhead_pct"] >= ov["warnings_overhead_pct"] - 8.0
