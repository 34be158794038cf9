"""AnalysisEngine tests: cache correctness, remapping, invalidation, and
key discrimination."""

import pytest

from repro.bench import CASES, scale_suite
from repro.core import (
    AnalysisEngine,
    analyze_program,
    analysis_summary,
    instrument_program,
    render_report,
)
from repro.minilang.parser import parse_program
from repro.minilang.pretty import pretty
from repro.parallelism import parse_word


def _diag_tuples(analysis):
    return [
        (d.code, d.function, d.message, d.collectives, d.conditionals, d.context)
        for d in analysis.diagnostics
    ]


def test_warm_engine_identical_to_cold_across_gallery():
    """Satellite acceptance: a warm engine returns diagnostics identical to a
    cold run across the whole errors gallery — on the trees it analyzed and
    on fresh parses of the same sources, whose hits are all remaps."""
    programs = {name: parse_program(case.source, name)
                for name, case in CASES.items()}
    cold = {name: analyze_program(p) for name, p in programs.items()}

    engine = AnalysisEngine()
    for _ in range(2):  # second pass is fully cache-hit
        for name, p in programs.items():
            warm = engine.analyze(p)
            assert _diag_tuples(warm) == _diag_tuples(cold[name]), name
            assert render_report(warm, verbose=True) == \
                render_report(cold[name], verbose=True), name
            assert analysis_summary(warm) == analysis_summary(cold[name]), name
    n_funcs = sum(len(p.funcs) for p in programs.values())
    assert engine.stats.hits == n_funcs  # second pass fully served by cache
    assert engine.stats.misses == n_funcs

    # A third pass over fresh parses: every hit is a remap.  The site
    # words move onto the fresh tree; the cached diagnostics keep the
    # region ids of the tree that filled the cache (see the engine's
    # caveats), so they compare with the first cold run.
    hits, remaps = engine.stats.hits, engine.stats.remaps
    for name, case in CASES.items():
        fresh = parse_program(case.source, name)
        ref = analyze_program(fresh)
        got = engine.analyze(fresh)
        assert _diag_tuples(got) == _diag_tuples(cold[name]), name
        expected = render_report(ref, verbose=True).replace(
            ref.diagnostics.render().rstrip(),
            cold[name].diagnostics.render().rstrip(), 1)
        assert render_report(got, verbose=True) == expected, name
        assert analysis_summary(got) == analysis_summary(ref), name
        assert pretty(instrument_program(got)[0]) == \
            pretty(instrument_program(ref)[0]), name
    assert engine.stats.misses == n_funcs
    assert engine.stats.hits - hits == n_funcs
    assert engine.stats.remaps - remaps == engine.stats.hits - hits


def test_reparse_hit_remaps_onto_new_ast():
    """A structurally identical re-parse must hit the cache and still drive
    instrumentation of the *new* AST correctly."""
    src = CASES["rank_dependent_bcast"].source
    engine = AnalysisEngine()
    p1 = parse_program(src, "x.mc")
    p2 = parse_program(src, "x.mc")
    a1 = engine.analyze(p1)
    a2 = engine.analyze(p2)
    # The reparse hit is remapped onto p2 when it is served.
    assert engine.stats.remaps == 1
    # Same instrumented source from both (uids remapped onto p2's nodes).
    assert pretty(instrument_program(a1)[0]) == pretty(instrument_program(a2)[0])
    ref = pretty(instrument_program(analyze_program(p2))[0])
    assert pretty(instrument_program(a2)[0]) == ref
    # The remapped FunctionAnalysis is anchored on p2, not p1 — and
    # consuming it remapped nothing more.
    assert engine.stats.remaps == 1
    assert a2.function("main").func is p2.funcs[0]
    assert a2.function("main").sites[0].stmt in list(p2.funcs[0].walk())


def test_in_place_instrumentation_invalidates_cache():
    src = CASES["rank_dependent_bcast"].source
    p = parse_program(src, "x.mc")
    engine = AnalysisEngine()
    a = engine.analyze(p)
    instrument_program(a, in_place=True)  # mutates p's AST
    again = engine.analyze(p)
    fresh = analyze_program(p)
    assert _diag_tuples(again) == _diag_tuples(fresh)
    assert render_report(again) == render_report(fresh)


def test_cache_key_discriminates_precision_and_word():
    src = CASES["balanced_if_fp"].source  # paper warns, counting is clean
    p = parse_program(src, "x.mc")
    engine = AnalysisEngine()
    paper = engine.analyze(p, precision="paper")
    counting = engine.analyze(p, precision="counting")
    assert len(paper.diagnostics) == 1
    assert len(counting.diagnostics) == 0
    assert engine.stats.misses == 2  # no cross-precision hit

    word = parse_word("P1")
    ctx = engine.analyze(p, precision="paper",
                         initial_words={f.name: word for f in p.funcs})
    assert engine.stats.misses == 3  # initial word is part of the key
    assert _diag_tuples(ctx) != _diag_tuples(paper)


def test_cache_key_tracks_collective_call_graph():
    """Identical function text analyzes differently when a callee becomes
    collective — the key must include the resolved call sets."""
    caller = "void run() {\n    helper();\n}\n"
    clean = caller + "\nvoid helper() {\n    int x = 1;\n}\n"
    dirty = caller + "\nvoid helper() {\n    MPI_Barrier();\n}\n"
    engine = AnalysisEngine()
    a_clean = engine.analyze(parse_program(clean, "a.mc"))
    a_dirty = engine.analyze(parse_program(dirty, "b.mc"))
    # `run` is byte-identical in both programs but must not share artifacts.
    assert not a_clean.function("run").sites
    assert a_dirty.function("run").sites
    assert a_dirty.collective_funcs == {"run", "helper"}


def test_clear_cache_and_stats():
    src = CASES["clean_masteronly"].source
    p = parse_program(src, "x.mc")
    engine = AnalysisEngine()
    engine.analyze(p)
    engine.analyze(p)
    info = engine.cache_info()
    assert info["entries"] == 1
    assert info["hits"] == 1 and info["misses"] == 1
    assert 0.0 < info["hit_rate"] < 1.0
    engine.clear_cache()
    assert engine.cache_info()["entries"] == 0
    engine.analyze(p)
    assert engine.stats.misses == 2


# -- reparse hits -------------------------------------------------------------------


def test_lazy_result_equals_eager_result():
    """A reparse hit renders what the miss that filled the cache did."""
    src = CASES["rank_dependent_bcast"].source
    engine = AnalysisEngine()
    first = engine.analyze(parse_program(src, "x.mc"))
    reparsed = engine.analyze(parse_program(src, "x.mc"))
    assert render_report(first, verbose=True) == \
        render_report(reparsed, verbose=True)
    assert _diag_tuples(first) == _diag_tuples(reparsed)


def test_reparse_hit_unaffected_by_later_in_place_instrumentation():
    """Instrumenting the cache source in place after a reparse hit leaves
    the hit's analysis equal to a cold one: it was remapped onto its own
    tree when it was served."""
    src = CASES["rank_dependent_bcast"].source
    engine = AnalysisEngine()
    p1 = parse_program(src, "x.mc")
    a1 = engine.analyze(p1)
    p2 = parse_program(src, "x.mc")
    a2 = engine.analyze(p2)  # remapped onto p2 from p1's cached artifacts
    assert engine.stats.remaps == 1
    instrument_program(a1, in_place=True)  # mutates p1 under the cache
    fresh = analyze_program(parse_program(src, "x.mc"))
    assert render_report(a2) == render_report(fresh)
    assert _diag_tuples(a2) == _diag_tuples(fresh)
    assert pretty(instrument_program(a2)[0]) == \
        pretty(instrument_program(fresh)[0])


def test_invalidate_fingerprints_evicts_only_matching_entries():
    from repro.core.engine import ast_fingerprint

    src = scale_suite()["S"]
    engine = AnalysisEngine()
    p = parse_program(src, "s.mc")
    engine.analyze(p)
    entries = engine.cache_info()["entries"]
    target = ast_fingerprint(p.funcs[0])
    dropped = engine.invalidate_fingerprints({target})
    assert dropped >= 1
    assert engine.cache_info()["entries"] == entries - dropped
    assert engine.stats.evictions == dropped
    assert engine.invalidate_fingerprints(set()) == 0
    # Only the evicted function misses on the next analyze.
    misses = engine.stats.misses
    engine.analyze(p)
    assert engine.stats.misses == misses + dropped


def test_fingerprint_ignores_columns_but_not_lines():
    from repro.core.engine import ast_fingerprint

    base = "void main() {\n    int x = 1;\n}\n"
    spaced = "void main() {\n    int  x  =  1;\n}\n"
    shifted = "void main() {\n\n    int x = 1;\n}\n"
    fp = lambda s: ast_fingerprint(parse_program(s, "p.mc").funcs[0])
    assert fp(base) == fp(spaced)
    assert fp(base) != fp(shifted)


def test_stats_json_round_trip():
    import json

    from repro.core.engine import EngineStats

    src = scale_suite()["S"]
    engine = AnalysisEngine()
    engine.analyze(parse_program(src, "s.mc"))
    engine.analyze(parse_program(src, "s.mc"))
    stats = engine.stats
    assert stats.remaps > 0
    data = json.loads(json.dumps(stats.as_dict()))
    assert EngineStats.from_dict(data) == stats
