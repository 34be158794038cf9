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
    cold run across the whole errors gallery."""
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


def test_reparse_hit_remaps_onto_new_ast():
    """A structurally identical re-parse must hit the cache and still drive
    instrumentation of the *new* AST correctly."""
    src = CASES["rank_dependent_bcast"].source
    engine = AnalysisEngine()
    p1 = parse_program(src, "x.mc")
    p2 = parse_program(src, "x.mc")
    a1 = engine.analyze(p1)
    a2 = engine.analyze(p2)
    # The reparse hit is served lazily: no per-uid remap work happens until
    # the result is actually consumed (here: instrumented below).
    assert engine.stats.lazy_hits == 1
    assert engine.stats.remaps == 0
    # Same instrumented source from both (uids remapped onto p2's nodes).
    assert pretty(instrument_program(a1)[0]) == pretty(instrument_program(a2)[0])
    ref = pretty(instrument_program(analyze_program(p2))[0])
    assert pretty(instrument_program(a2)[0]) == ref
    # The remapped FunctionAnalysis is anchored on p2, not p1 — and the
    # remap was materialized exactly once, by the consumption above.
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


def test_engine_matches_driver_on_prebuilt_cfgs():
    from repro.opt import run_middle_end

    src = CASES["mismatch_through_call"].source
    p = parse_program(src, "x.mc")
    middle = run_middle_end(p)
    ref = analyze_program(p, cfgs=middle.cfgs)
    engine = AnalysisEngine()
    got = engine.analyze(p, cfgs=middle.cfgs)
    assert _diag_tuples(got) == _diag_tuples(ref)
    assert got.function("main").cfg is middle.cfgs["main"][0]
    # Prebuilt-CFG artifacts bypass the cache entirely: they are neither
    # stored (a later cfgs-free analyze rebuilds its own CFG) nor served
    # from it (a fresh cfgs= call always uses the supplied CFG).
    assert engine.cache_info()["entries"] == 0
    own = engine.analyze(p)
    assert own.function("main").cfg is not middle.cfgs["main"][0]
    via_cache = engine.analyze(p, cfgs=middle.cfgs)
    assert via_cache.function("main").cfg is middle.cfgs["main"][0]
    assert _diag_tuples(own) == _diag_tuples(via_cache) == _diag_tuples(ref)


# -- lazy remap (fingerprint-native incremental analysis) ---------------------------


def test_reparse_hit_with_rendering_disabled_does_zero_remap_work():
    """The acceptance gate of the fingerprint-native store: an analyze that
    is served entirely by reparse hits and whose result is never inspected
    must do no per-uid remap work at all."""
    src = scale_suite()["S"]
    engine = AnalysisEngine()
    engine.analyze(parse_program(src, "s.mc")).force()  # fill + render once
    p2 = parse_program(src, "s.mc")
    lazy = engine.analyze(p2)  # rendering disabled: result untouched
    assert engine.stats.lazy_hits == len(p2.funcs)
    assert engine.stats.remaps == 0
    assert engine.stats.remap_fallbacks == 0
    assert not lazy.materialized
    # First touch materializes — exactly once per function.
    assert lazy.function("main") is not None
    assert lazy.materialized
    assert engine.stats.remaps == len(p2.funcs)


def test_lazy_result_equals_eager_result():
    src = CASES["rank_dependent_bcast"].source
    engine = AnalysisEngine()
    eager = engine.analyze(parse_program(src, "x.mc"))
    lazy = engine.analyze(parse_program(src, "x.mc"))
    assert render_report(eager, verbose=True) == \
        render_report(lazy, verbose=True)
    assert _diag_tuples(eager) == _diag_tuples(lazy)


def test_lazy_remap_falls_back_when_cache_source_mutated():
    """A deferred remap whose cached AST was mutated (in-place
    instrumentation) after the lookup must re-analyze, not serve garbage."""
    src = CASES["rank_dependent_bcast"].source
    engine = AnalysisEngine()
    p1 = parse_program(src, "x.mc")
    a1 = engine.analyze(p1)
    p2 = parse_program(src, "x.mc")
    lazy = engine.analyze(p2)  # deferred remap onto p1's cached artifacts
    instrument_program(a1, in_place=True)  # mutates p1 under the cache
    fresh = analyze_program(parse_program(src, "x.mc"))
    assert render_report(lazy) == render_report(fresh)
    assert engine.stats.remap_fallbacks >= 1


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
    engine.analyze(p).force()
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
    engine.analyze(parse_program(src, "s.mc")).force()
    engine.analyze(parse_program(src, "s.mc")).force()
    stats = engine.stats
    assert stats.lazy_hits > 0
    data = json.loads(json.dumps(stats.as_dict()))
    assert EngineStats.from_dict(data) == stats
    assert data["deferred_remaps"] == stats.deferred_remaps
