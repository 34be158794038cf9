"""End-to-end gallery: static verdicts + dynamic verdicts, raw vs instrumented.

This is the paper's core claim in executable form: the static pass warns,
the instrumentation stops the run *before* the deadlock with a precise
message, and verified programs run clean with zero checks.
"""

import pytest

from repro import analyze_program, instrument_program, parse_program, run_program
from repro.bench.errors_gallery import CASES, correct_cases, erroneous_cases
from repro.runtime.errors import CollectiveMismatchError, DeadlockError


def _run_case(case, instrument: bool):
    program = parse_program(case.source, case.name)
    analysis = analyze_program(program)
    group_kinds = None
    if instrument:
        program, _ = instrument_program(analysis)
        group_kinds = analysis.group_kinds
    result = run_program(program, nprocs=case.nprocs,
                         num_threads=case.num_threads,
                         group_kinds=group_kinds)
    return analysis, result


@pytest.mark.parametrize("name", sorted(CASES))
def test_static_verdicts(name):
    case = CASES[name]
    analysis = analyze_program(parse_program(case.source, name))
    codes = {d.code for d in analysis.diagnostics}
    missing = case.expect_static - codes
    assert not missing, f"{name}: missing static warnings {missing}; got {codes}"
    if not case.expect_static and not case.runtime_errors:
        assert analysis.verified, f"{name} should be fully verified"


@pytest.mark.parametrize("name", sorted(correct_cases()))
def test_correct_cases_run_clean_instrumented(name):
    case = CASES[name]
    _, result = _run_case(case, instrument=True)
    assert result.ok, f"{name}: unexpected {result.verdict}: {result.error}"


@pytest.mark.parametrize("name", sorted(correct_cases()))
def test_correct_cases_run_clean_raw(name):
    case = CASES[name]
    _, result = _run_case(case, instrument=False)
    assert result.ok, f"{name}: unexpected {result.verdict}: {result.error}"


def _detect_with_retries(case, instrument: bool, expected, attempts: int = 5):
    """Deterministic cases must fail on the first run; schedule-dependent
    ones must fail at least once across a few runs (a single lucky
    interleaving may execute cleanly — that is the nature of the bug class),
    and every observed error must have an expected type."""
    tries = 1 if case.deterministic else attempts
    observed = []
    for _ in range(tries):
        _, result = _run_case(case, instrument=instrument)
        if result.error is not None:
            observed.append(result.error)
            assert isinstance(result.error, expected), (
                f"{case.name}: got {result.verdict} ({result.error}), "
                f"expected one of {[e.__name__ for e in expected]}"
            )
            break
    assert observed, f"{case.name}: no run failed in {tries} attempt(s)"


@pytest.mark.parametrize("name", sorted(erroneous_cases()))
def test_erroneous_cases_detected_instrumented(name):
    case = CASES[name]
    _detect_with_retries(case, instrument=True, expected=case.runtime_errors)


@pytest.mark.parametrize("name", sorted(erroneous_cases()))
def test_erroneous_cases_detected_raw(name):
    case = CASES[name]
    _detect_with_retries(case, instrument=False, expected=case.raw_errors)


def test_cc_stops_before_deadlock_with_precise_message():
    case = CASES["rank_dependent_bcast"]
    _, inst = _run_case(case, instrument=True)
    assert isinstance(inst.error, CollectiveMismatchError)
    assert inst.error.detected_by == "CC"
    msg = str(inst.error)
    assert "MPI_Bcast" in msg or "MPI_Barrier" in msg
    assert "line" in msg
    # The raw run only "detects" it as a machine-level deadlock.
    _, raw = _run_case(case, instrument=False)
    assert isinstance(raw.error, DeadlockError)
    assert raw.error.detected_by == "simulator"


def test_verified_program_executes_zero_checks():
    case = CASES["clean_masteronly"]
    analysis, result = _run_case(case, instrument=True)
    assert analysis.verified
    assert result.cc_calls == 0
    assert result.enter_checks == 0


def test_false_positive_cleared_dynamically():
    case = CASES["loop_collective_fp"]
    analysis, result = _run_case(case, instrument=True)
    assert not analysis.verified  # static warns
    assert result.ok              # dynamic validates
    assert result.cc_calls > 0    # and it actually checked
