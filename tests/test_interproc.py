"""End-to-end tests for interprocedural context propagation.

Covers the acceptance criteria of the interprocedural layer:

* the gallery seeds are flagged *only* with the layer on (the
  intraprocedural mode provably reports nothing) and the dynamic verdict
  (raw run, instrumented run, schedule exploration) agrees;
* ``parcoach analyze``/``instrument`` output stays byte-identical on every
  pre-existing bench + gallery program with the layer on — with one audited
  exception: HERA gains exactly one *true* warning for the previously
  invisible expression call ``dt = compute_dt(0, n)`` inside the timestep
  loop (a statement call at the same spot already warns today);
* ``--initial-context`` seeds the entry functions and propagates through
  the CLI; diagnostics carry witness call chains;
* the engine caches per ``(function, context word)`` with no stale hits and
  full hit-rate when contexts repeat.
"""

import difflib

import pytest

from repro import analyze_program, instrument_program, parse_program, run_program
from repro.bench import (
    CASES,
    benchmark_sources,
    interprocedural_cases,
    scale_suite,
)
from repro.cli import main
from repro.core import AnalysisEngine, render_report
from repro.core.diagnostics import ErrorCode
from repro.minilang.pretty import pretty
from repro.parallelism import format_word

INTERPROC = sorted(interprocedural_cases())


# -- the seeds: intraprocedural miss, interprocedural hit ---------------------------


@pytest.mark.parametrize("name", INTERPROC)
def test_intraprocedural_mode_provably_misses(name):
    case = CASES[name]
    program = parse_program(case.source, name)
    analysis = analyze_program(program, interprocedural=False)
    assert len(analysis.diagnostics) == 0, (
        f"{name}: intraprocedural mode was supposed to be blind, got "
        f"{[d.render() for d in analysis.diagnostics]}"
    )
    assert not analysis.instrumented_functions


@pytest.mark.parametrize("name", INTERPROC)
def test_interprocedural_mode_flags(name):
    case = CASES[name]
    program = parse_program(case.source, name)
    analysis = analyze_program(program)  # interprocedural by default
    codes = {d.code for d in analysis.diagnostics}
    assert case.expect_static <= codes
    assert analysis.interprocedural
    assert analysis.instrumented_functions


def test_call_path_attached_for_context_diagnostics():
    case = CASES["interproc_helper_in_parallel"]
    analysis = analyze_program(parse_program(case.source, case.name))
    diag = analysis.diagnostics.by_code(ErrorCode.COLLECTIVE_MULTITHREADED)[0]
    assert diag.call_path == ("main", "bump")
    assert "call path: main → bump" in diag.render()
    # The context word is canonical (negative region id, reparse-stable).
    assert "P-1" in diag.context


def test_recursive_seed_contexts_and_chain():
    case = CASES["interproc_recursive_barrier"]
    analysis = analyze_program(parse_program(case.source, case.name))
    fa = analysis.function("spin")
    assert tuple(format_word(w) for w in fa.context_words) == ("P-1",)
    diag = analysis.diagnostics.by_code(ErrorCode.COLLECTIVE_MULTITHREADED)[0]
    assert diag.call_path == ("main", "spin")
    assert analysis.callgraph is not None
    assert "spin" in analysis.callgraph.recursive


def test_expression_call_point_names_the_helper():
    case = CASES["interproc_conditional_collective_helper"]
    analysis = analyze_program(parse_program(case.source, case.name))
    diag = analysis.diagnostics.by_code(ErrorCode.COLLECTIVE_MISMATCH)[0]
    assert diag.function == "main"
    assert any(ref.name == "call:sync_step" for ref in diag.collectives)
    assert diag.conditionals  # the rank guard


# -- dynamic agreement --------------------------------------------------------------


def _run_case(case, instrument):
    program = parse_program(case.source, case.name)
    analysis = analyze_program(program)
    group_kinds = None
    if instrument:
        program, _ = instrument_program(analysis)
        group_kinds = analysis.group_kinds
    return run_program(program, nprocs=case.nprocs,
                       num_threads=case.num_threads,
                       group_kinds=group_kinds)


@pytest.mark.parametrize("name", INTERPROC)
def test_dynamic_verdict_agrees_instrumented(name):
    case = CASES[name]
    attempts = 1 if case.deterministic else 4
    for _ in range(attempts):
        result = _run_case(case, instrument=True)
        if result.error is not None:
            assert isinstance(result.error, case.runtime_errors), result.error
            return
    pytest.fail(f"{name}: no instrumented run failed in {attempts} attempts")


@pytest.mark.parametrize("name", INTERPROC)
def test_dynamic_verdict_agrees_raw(name):
    case = CASES[name]
    attempts = 1 if case.deterministic else 4
    for _ in range(attempts):
        result = _run_case(case, instrument=False)
        if result.error is not None:
            assert isinstance(result.error, case.raw_errors), result.error
            return
    pytest.fail(f"{name}: no raw run failed in {attempts} attempts")


def test_explore_verdict_agrees_on_conditional_helper():
    """Schedule exploration reaches the same verdict: every interleaving of
    the rank-guarded seed fails (the mismatch is schedule-independent)."""
    from repro.explore import ExploreConfig, explore_config
    from repro.mpi.thread_levels import ThreadLevel

    case = CASES["interproc_conditional_collective_helper"]
    program = parse_program(case.source, case.name)
    config = ExploreConfig(nprocs=2, num_threads=1,
                           thread_level=ThreadLevel.MULTIPLE)
    report = explore_config(program, config, strategy="dfs", runs=10,
                            preemptions=0, minimize=False)
    assert report.schedules >= 1
    assert report.failed == report.schedules


# -- corpus stability ---------------------------------------------------------------


def _legacy_corpus():
    sources = dict(benchmark_sources())
    sources.update({f"scale:{k}": v for k, v in scale_suite().items()})
    sources.update({f"gallery:{n}": c.source for n, c in CASES.items()
                    if not c.interprocedural})
    return sources


def test_corpus_output_stability():
    """Interprocedural mode on vs off across every pre-existing bench and
    gallery program: instrument output byte-identical everywhere; analyze
    output byte-identical everywhere except HERA, which gains exactly one
    true collective-mismatch warning for the expression call to
    ``compute_dt`` inside the timestep loop."""
    for name, src in sorted(_legacy_corpus().items()):
        program = parse_program(src, name)
        on = analyze_program(program, interprocedural=True)
        off = analyze_program(program, interprocedural=False)
        inst_on = pretty(instrument_program(on)[0])
        inst_off = pretty(instrument_program(off)[0])
        assert inst_on == inst_off, f"{name}: instrument output drifted"
        report_on = render_report(on, verbose=True)
        report_off = render_report(off, verbose=True)
        if name == "HERA":
            added = [line[1:] for line in difflib.ndiff(
                report_off.splitlines(), report_on.splitlines())
                if line.startswith("+ ")]
            assert any("call:compute_dt" in line for line in added)
            new = [d for d in on.diagnostics
                   if any(r.name == "call:compute_dt" for r in d.collectives)]
            assert len(new) == 1
            assert len(on.diagnostics) == len(off.diagnostics) + 1
            continue
        assert report_on == report_off, (
            f"{name}: analyze output drifted\n" + "\n".join(
                difflib.unified_diff(report_off.splitlines(),
                                     report_on.splitlines(), lineterm="")))


# -- CLI ----------------------------------------------------------------------------


MULTI_FUNC = """
void helper() {
    MPI_Barrier();
}

void main() {
    helper();
}
"""


def test_cli_initial_context_propagates(tmp_path, capsys):
    path = tmp_path / "multi.mc"
    path.write_text(MULTI_FUNC)
    # Clean in the monothreaded default...
    assert main(["analyze", str(path)]) == 0
    capsys.readouterr()
    # ...but the entry seed propagates to the helper and flags its barrier.
    assert main(["analyze", str(path), "--initial-context", "P1"]) == 1
    out = capsys.readouterr().out
    assert "collective-multithreaded" in out
    assert "helper" in out
    assert "call path: main → helper" in out


def test_cli_initial_context_intraprocedural_applies_everywhere(tmp_path, capsys):
    path = tmp_path / "multi.mc"
    path.write_text(MULTI_FUNC)
    rc = main(["analyze", str(path), "--initial-context", "P1",
               "--no-interprocedural"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "collective-multithreaded" in out
    assert "call path" not in out  # chains are an interprocedural feature


def test_cli_no_interprocedural_misses_seed(tmp_path, capsys):
    case = CASES["interproc_helper_in_parallel"]
    path = tmp_path / "seed.mc"
    path.write_text(case.source)
    assert main(["analyze", str(path)]) == 1
    capsys.readouterr()
    assert main(["analyze", str(path), "--no-interprocedural"]) == 0


def test_cli_callgraph_text(tmp_path, capsys):
    case = CASES["interproc_recursive_barrier"]
    path = tmp_path / "seed.mc"
    path.write_text(case.source)
    assert main(["callgraph", str(path)]) == 0
    out = capsys.readouterr().out
    assert "call graph of" in out
    assert "spin [recursive]" in out
    assert "contexts: P-1" in out
    assert "MPI_Barrier [always]" in out
    assert "calls spin" in out and "expr" in out


def test_cli_callgraph_dot(tmp_path, capsys):
    case = CASES["interproc_helper_in_parallel"]
    path = tmp_path / "seed.mc"
    path.write_text(case.source)
    out_path = tmp_path / "graph.dot"
    assert main(["callgraph", str(path), "--dot", "-o", str(out_path)]) == 0
    dot = out_path.read_text()
    assert dot.startswith("digraph")
    assert '"main" -> "bump" [style=dashed];' in dot


def test_cli_batch_interproc_flag(tmp_path, capsys):
    case = CASES["interproc_helper_in_parallel"]
    path = tmp_path / "seed.mc"
    path.write_text(case.source)
    assert main(["batch", str(path)]) == 1
    capsys.readouterr()
    assert main(["batch", str(path), "--no-interprocedural"]) == 0


# -- engine cache behaviour ---------------------------------------------------------


MULTI_CONTEXT = """
void helper() {
    MPI_Barrier();
}

void main() {
    helper();
    #pragma omp parallel
    {
        #pragma omp single
        {
            helper();
        }
    }
}
"""


def _diag_tuples(analysis):
    return [(d.code, d.function, d.message, d.collectives, d.conditionals,
             d.context, d.call_path) for d in analysis.diagnostics]


def test_engine_caches_per_context_word():
    program = parse_program(MULTI_CONTEXT, "m.mc")
    engine = AnalysisEngine()
    first = engine.analyze(program)
    # helper analyzed under two contexts (ε and P-1 S-2) + main under ε.
    assert engine.stats.misses == 3
    fa = first.function("helper")
    assert tuple(format_word(w) for w in fa.context_words) == ("ε", "P-1 S-2")
    second = engine.analyze(program)
    assert engine.stats.hits == 3  # contexts repeat: full hit-rate
    assert engine.stats.misses == 3
    assert _diag_tuples(first) == _diag_tuples(second)
    assert render_report(first, verbose=True) == render_report(second, verbose=True)


def test_engine_reparse_hits_with_canonical_contexts():
    """Context words are canonical, so a re-parse (new uids) still hits the
    cache by structural remap."""
    p1 = parse_program(MULTI_CONTEXT, "m.mc")
    p2 = parse_program(MULTI_CONTEXT, "m.mc")
    engine = AnalysisEngine()
    a1 = engine.analyze(p1)
    a2 = engine.analyze(p2)
    assert engine.stats.lazy_hits == 3  # deferred — nothing rendered yet
    assert engine.stats.misses == 3
    assert [d.render() for d in a1.diagnostics] == \
        [d.render() for d in a2.diagnostics]
    assert engine.stats.remaps == 3  # materialized by the renders above


def test_engine_no_stale_hits_across_entry_contexts():
    from repro.parallelism import parse_word

    program = parse_program(MULTI_FUNC, "m.mc")
    engine = AnalysisEngine()
    plain = engine.analyze(program)
    seeded = engine.analyze(program, entry_context=parse_word("P1"))
    assert len(plain.diagnostics) == 0
    assert len(seeded.diagnostics) > 0  # no stale empty-context artifacts
    again = engine.analyze(program)
    assert _diag_tuples(again) == _diag_tuples(plain)


def test_engine_matches_oneshot_driver_on_seeds():
    engine = AnalysisEngine()
    for name in INTERPROC:
        program = parse_program(CASES[name].source, name)
        ref = analyze_program(program)
        for _ in range(2):
            got = engine.analyze(program)
            assert _diag_tuples(got) == _diag_tuples(ref), name
            assert render_report(got, verbose=True) == \
                render_report(ref, verbose=True), name
            assert pretty(instrument_program(got)[0]) == \
                pretty(instrument_program(ref)[0]), name
