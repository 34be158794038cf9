"""Claim C2a — instrumented runs stop *before* the deadlock with a precise
error; raw runs end in machine-level deadlocks.

Times the full detect-and-abort path (analysis is done once outside the
timer) for the deterministic error-gallery cases and records the verdicts in
``extra_info`` — the detection table of EXPERIMENTS.md.
"""

import pytest

from repro import analyze_program, instrument_program, parse_program, run_program
from repro.bench.errors_gallery import CASES, erroneous_cases

_DETERMINISTIC = sorted(n for n, c in erroneous_cases().items() if c.deterministic)


@pytest.mark.parametrize("name", _DETERMINISTIC)
def test_detection_latency_instrumented(benchmark, name):
    case = CASES[name]
    analysis = analyze_program(parse_program(case.source, name))
    program, _ = instrument_program(analysis)

    def detect():
        return run_program(program, nprocs=case.nprocs,
                           num_threads=case.num_threads,
                           group_kinds=analysis.group_kinds)

    result = benchmark(detect)
    assert result.error is not None
    assert isinstance(result.error, case.runtime_errors)
    benchmark.extra_info["verdict"] = result.verdict
    benchmark.extra_info["detected_by"] = result.detected_by


@pytest.mark.parametrize("name", _DETERMINISTIC)
def test_detection_latency_raw(benchmark, name):
    """The raw (uninstrumented) baseline: failures surface only when the
    simulated machine declares a deadlock."""
    case = CASES[name]
    program = parse_program(case.source, name)

    def detect():
        return run_program(program, nprocs=case.nprocs,
                           num_threads=case.num_threads)

    result = benchmark(detect)
    assert result.error is not None
    assert isinstance(result.error, case.raw_errors)
    benchmark.extra_info["verdict"] = result.verdict
    benchmark.extra_info["detected_by"] = result.detected_by
