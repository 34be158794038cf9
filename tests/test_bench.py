"""Benchmark-substrate tests: generators produce valid programs, the compile
pipeline measures what it claims, generated programs actually run."""

import pytest

from repro import analyze_program, parse_program
from repro.bench import (
    FIGURE1_BENCHMARKS,
    benchmark_sources,
    compile_source,
    make_bt_mz,
    make_epcc_suite,
    make_hera,
    make_lu_mz,
    make_sp_mz,
    measure_overheads,
    overhead_percent,
)
from repro.bench.pipeline import MODES
from repro.minilang.semantics import check_program


@pytest.mark.parametrize("name", FIGURE1_BENCHMARKS)
def test_benchmark_sources_parse_and_check(name):
    src = benchmark_sources()[name]
    prog = parse_program(src, name)
    errors = [i for i in check_program(prog) if i.severity == "error"]
    assert errors == []
    assert len(src.splitlines()) > 100


@pytest.mark.parametrize("name", FIGURE1_BENCHMARKS)
def test_benchmarks_produce_warnings_and_instrumentation(name):
    result = compile_source(benchmark_sources()[name], "full")
    # Every Figure 1 benchmark draws at least one warning (the verification
    # codegen bars would otherwise be trivially zero).
    assert result.warning_count >= 1
    assert result.report is not None and result.report.total >= 1


def test_generators_are_deterministic():
    assert make_bt_mz() == make_bt_mz()
    assert make_epcc_suite() == make_epcc_suite()
    assert make_hera() == make_hera()


def test_generator_size_scaling():
    small = make_bt_mz(zones=2, steps=2, inner_loops=2, width=2)
    large = make_bt_mz(zones=8, steps=4, inner_loops=6, width=8)
    assert len(large) > len(small)


def test_sp_and_lu_differ_structurally():
    assert make_sp_mz() != make_lu_mz()


def test_compile_modes_and_timings():
    src = make_hera(levels=2, steps=2, physics_modules=2)
    for mode in MODES:
        result = compile_source(src, mode)
        assert result.emitted
        assert result.total_time > 0
        if mode == "base":
            assert result.analysis is None
        else:
            assert result.analysis is not None
        if mode == "full":
            assert "PARCOACH_CC" in result.emitted
        else:
            assert "PARCOACH_CC" not in result.emitted


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        compile_source("void main() { }", "turbo")


def test_overhead_percent_math():
    assert overhead_percent(1.0, 1.05) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        overhead_percent(0.0, 1.0)


def test_measure_overheads_keys():
    ov = measure_overheads(make_lu_mz(zones=2, steps=2), repeats=1)
    assert set(ov) == {"base", "warnings", "full",
                       "warnings_overhead_pct", "full_overhead_pct"}


@pytest.mark.slow
def test_small_nas_program_runs_to_completion():
    from repro.runtime import run_program

    src = make_sp_mz(zones=2, steps=2)
    prog = parse_program(src)
    result = run_program(prog, nprocs=2, num_threads=2)
    assert result.ok, result.error
    assert any("verification" in line for line in result.outputs[0])


@pytest.mark.slow
def test_small_hera_program_runs_to_completion():
    from repro.runtime import run_program

    src = make_hera(levels=2, steps=2, n=16, physics_modules=2)
    prog = parse_program(src)
    result = run_program(prog, nprocs=2, num_threads=2)
    assert result.ok, result.error
    assert any("final time" in line for line in result.outputs[0])


@pytest.mark.slow
def test_instrumented_hera_runs_clean():
    """The paper's big-application story: warnings exist (conservative), the
    instrumented run validates them all dynamically."""
    from repro import instrument_program
    from repro.runtime import run_program

    src = make_hera(levels=2, steps=2, n=16, physics_modules=2)
    analysis = analyze_program(parse_program(src))
    assert not analysis.verified
    program, _ = instrument_program(analysis)
    result = run_program(program, nprocs=2, num_threads=2,
                         group_kinds=analysis.group_kinds)
    assert result.ok, result.error
    assert result.cc_calls > 0
