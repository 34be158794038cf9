"""AnalysisEngine tests: cache correctness, remapping, invalidation, and
key discrimination.

The engine is driven as the sessions drive it: ``analyze_functions`` with
facts from ``index_program``/``collective_call_graph`` and a plan from
``build_plan`` (``tests.conftest.engine_functions``).  Whole reports are
compared through one-file project sessions over a shared engine."""

import json

import pytest

from repro.bench import CASES, scale_suite
from repro.core import AnalysisEngine, analyze_program, instrument_program
from repro.core.driver import _analyze_function, build_plan
from repro.core.engine import (
    EngineStats,
    _CacheEntry,
    _remap_artifacts,
    ast_fingerprint,
)
from repro.minilang.parser import parse_program
from repro.parallelism import EMPTY, parse_word
from tests.conftest import (
    artifact_diagnostics,
    driver_report,
    engine_facts,
    engine_functions,
    merged_diagnostics,
    served_report,
)


def test_warm_engine_identical_to_cold_across_gallery(tmp_path):
    """A shared engine serves every gallery case with the report the
    engine-free driver renders — on the first copy of each file, whose
    functions all miss, and on a second copy, whose hits are all remaps."""
    texts = {name: case.source for name, case in CASES.items()}
    engine = AnalysisEngine()
    for copy in ("a", "b"):
        for name, text in texts.items():
            path = tmp_path / f"{name}.{copy}.mc"
            path.write_text(text)
            assert served_report(engine, path) == driver_report(path, text), \
                (name, copy)
        if copy == "a":
            misses = engine.stats.misses
            assert engine.stats.hits == 0
    n_contexts = sum(
        len(words) for text in texts.values()
        for _art, words, _infos in engine_functions(
            AnalysisEngine(), parse_program(text, "x.mc")).values())
    assert misses == n_contexts
    assert engine.stats.misses == misses
    assert engine.stats.hits == engine.stats.remaps == n_contexts


def test_reparse_hit_remaps_onto_new_ast():
    """A structurally identical re-parse hits the cache, and the hit is
    anchored on the *new* AST."""
    src = CASES["rank_dependent_bcast"].source
    engine = AnalysisEngine()
    p1 = parse_program(src, "x.mc")
    p2 = parse_program(src, "x.mc")
    a1 = engine_functions(engine, p1)
    a2 = engine_functions(engine, p2)
    assert engine.stats.misses == 1
    assert engine.stats.remaps == 1
    art = a2["main"][0]
    assert art.func is p2.funcs[0]
    assert art.sites[0].stmt in list(p2.funcs[0].walk())
    assert merged_diagnostics(a1) == merged_diagnostics(a2)


def test_in_place_instrumentation_invalidates_cache():
    """In-place instrumentation bumps ``structure_version``: the entries of
    the rewritten functions stop serving them, even under the fingerprints
    taken before the rewrite."""
    src = CASES["rank_dependent_bcast"].source
    p = parse_program(src, "x.mc")
    fingerprints = {f.name: ast_fingerprint(f) for f in p.funcs}
    engine = AnalysisEngine()

    def analyze():
        return engine.analyze_functions(p.funcs, fingerprints,
                                        engine_facts(p), None, {}, "paper")

    analyze()
    instrument_program(analyze_program(p), in_place=True)  # mutates p's AST
    misses = engine.stats.misses
    again = analyze()
    assert engine.stats.misses == misses + len(p.funcs)
    fresh = analyze_program(p, interprocedural=False)
    assert merged_diagnostics(again) == {
        f.name: artifact_diagnostics(fresh.function(f.name)) for f in p.funcs}


def test_cache_key_discriminates_precision_and_word():
    src = CASES["balanced_if_fp"].source  # paper warns, counting is clean
    p = parse_program(src, "x.mc")
    engine = AnalysisEngine()
    paper = engine_functions(engine, p, precision="paper",
                             interprocedural=False)
    counting = engine_functions(engine, p, precision="counting",
                                interprocedural=False)
    assert sum(map(len, merged_diagnostics(paper).values())) == 1
    assert sum(map(len, merged_diagnostics(counting).values())) == 0
    assert engine.stats.misses == 2  # no cross-precision hit

    word = parse_word("P1")
    ctx = engine_functions(engine, p, precision="paper",
                           initial_words={f.name: word for f in p.funcs},
                           interprocedural=False)
    assert engine.stats.misses == 3  # initial word is part of the key
    assert merged_diagnostics(ctx) != merged_diagnostics(paper)


def test_cache_key_tracks_collective_call_graph():
    """Identical function text analyzes differently when a callee becomes
    collective — the key must include the resolved call sets."""
    caller = "void run() {\n    helper();\n}\n"
    clean = caller + "\nvoid helper() {\n    int x = 1;\n}\n"
    dirty = caller + "\nvoid helper() {\n    MPI_Barrier();\n}\n"
    engine = AnalysisEngine()
    a_clean = engine_functions(engine, parse_program(clean, "a.mc"))
    a_dirty = engine_functions(engine, parse_program(dirty, "b.mc"))
    # `run` is byte-identical in both programs but must not share artifacts.
    assert not a_clean["run"][0].sites
    assert a_dirty["run"][0].sites
    assert engine.stats.hits == 0


def test_cache_info_and_stats():
    src = CASES["clean_masteronly"].source
    p = parse_program(src, "x.mc")
    engine = AnalysisEngine()
    engine_functions(engine, p)
    engine_functions(engine, p)
    info = engine.cache_info()
    assert info["entries"] == 1
    assert info["hits"] == 1 and info["misses"] == 1
    assert info["remaps"] == 0  # the same tree: the entry itself
    assert 0.0 < info["hit_rate"] < 1.0
    engine.invalidate_fingerprints({ast_fingerprint(p.funcs[0])})
    assert engine.cache_info()["entries"] == 0
    engine_functions(engine, p)
    assert engine.stats.misses == 2


# -- reparse hits -------------------------------------------------------------------


def test_lazy_result_equals_eager_result(tmp_path):
    """A reparse hit renders what the miss that filled the cache did."""
    src = CASES["rank_dependent_bcast"].source
    engine = AnalysisEngine()
    reports = []
    for copy in ("a", "b"):
        path = tmp_path / f"x.{copy}.mc"
        path.write_text(src)
        reports.append(served_report(engine, path))
    assert engine.stats.remaps == engine.stats.misses == 1
    assert reports[0] == reports[1] == driver_report("x.mc", src)


def test_reparse_hit_unaffected_by_later_in_place_instrumentation():
    """Instrumenting the cache source in place after a reparse hit leaves
    the hit equal to a cold analysis: it was remapped onto its own tree
    when it was served."""
    src = CASES["rank_dependent_bcast"].source
    engine = AnalysisEngine()
    p1 = parse_program(src, "x.mc")
    engine_functions(engine, p1)
    p2 = parse_program(src, "x.mc")
    a2 = engine_functions(engine, p2)  # remapped onto p2 from p1's artifacts
    assert engine.stats.remaps == 1
    instrument_program(analyze_program(p1), in_place=True)  # mutates p1
    fresh = analyze_program(parse_program(src, "x.mc"))
    art = a2["main"][0]
    assert artifact_diagnostics(art) == \
        artifact_diagnostics(fresh.function("main"))
    nodes = {id(n) for n in p2.funcs[0].walk()}
    assert all(id(s.stmt) in nodes for s in art.sites)
    assert [(s.kind, s.name, s.line) for s in art.sites] == \
        [(s.kind, s.name, s.line) for s in fresh.function("main").sites]


def test_invalidate_fingerprints_evicts_only_matching_entries():
    src = scale_suite()["S"]
    engine = AnalysisEngine()
    p = parse_program(src, "s.mc")
    engine_functions(engine, p)
    entries = engine.cache_info()["entries"]
    target = ast_fingerprint(p.funcs[0])
    dropped = engine.invalidate_fingerprints({target})
    assert dropped >= 1
    assert engine.cache_info()["entries"] == entries - dropped
    assert engine.stats.evictions == dropped
    assert engine.invalidate_fingerprints(set()) == 0
    # Only the evicted function misses on the next analysis.
    misses = engine.stats.misses
    engine_functions(engine, p)
    assert engine.stats.misses == misses + dropped


def test_fingerprint_ignores_columns_but_not_lines():
    base = "void main() {\n    int x = 1;\n}\n"
    spaced = "void main() {\n    int  x  =  1;\n}\n"
    shifted = "void main() {\n\n    int x = 1;\n}\n"
    fp = lambda s: ast_fingerprint(parse_program(s, "p.mc").funcs[0])
    assert fp(base) == fp(spaced)
    assert fp(base) != fp(shifted)


def test_stats_json_round_trip():
    src = scale_suite()["S"]
    engine = AnalysisEngine()
    engine_functions(engine, parse_program(src, "s.mc"))
    engine_functions(engine, parse_program(src, "s.mc"))
    stats = engine.stats
    assert stats.remaps > 0
    data = stats.as_dict()
    assert json.loads(json.dumps(data)) == data
    assert set(data) == set(vars(EngineStats())) | {"hit_rate"}
    assert all(type(data[k]) is int for k in vars(stats))


# -- the remap itself ---------------------------------------------------------------


def _node_ids(mapping):
    return {key: id(node) for key, node in mapping.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_remap_artifacts_equals_a_fresh_analysis(name):
    """Artifacts remapped onto a fresh parse equal the per-function
    pipeline run on that parse, for every function and context word: the
    site statements, the AST-to-block map, the word maps, and the
    monothread and concurrency uid sets and groups."""
    src = CASES[name].source
    runs = []
    for _ in range(2):
        program = parse_program(src, "x.mc")
        facts = engine_facts(program)
        runs.append((program, facts, build_plan(program, facts.index)))
    (p1, facts1, plan1), (p2, facts2, plan2) = runs
    checked = 0
    for f1, f2 in zip(p1.funcs, p2.funcs):
        words = plan1.contexts.contexts[f1.name]
        assert words == plan2.contexts.contexts[f2.name]
        for word in (*words, *(() if EMPTY in words else (EMPTY,))):
            cached = _analyze_function(
                f1, facts1.func_names, facts1.collective_funcs, word, "paper",
                facts1.index.call_stmts.get(f1.name), None,
                plan1.extra_points.get(f1.name))
            want = _analyze_function(
                f2, facts2.func_names, facts2.collective_funcs, word, "paper",
                facts2.index.call_stmts.get(f2.name), None,
                plan2.extra_points.get(f2.name))
            got = _remap_artifacts(_CacheEntry(
                artifacts=cached, version=0,
                uid_at_pos=tuple(n.uid for n in f1.walk())), f2)
            where = (f1.name, word)
            assert got.func is f2, where
            assert [id(s.stmt) for s in got.sites] == \
                [id(s.stmt) for s in want.sites], where
            assert [(s.kind, s.name, s.line) for s in got.sites] == \
                [(s.kind, s.name, s.line) for s in want.sites], where
            assert got.ast_block == want.ast_block, where
            gw, ww = got.word_info, want.word_info
            assert gw.words == ww.words, where
            assert gw.enclosing == ww.enclosing, where
            assert gw.construct_kinds == ww.construct_kinds, where
            assert _node_ids(gw.construct_nodes) == \
                _node_ids(ww.construct_nodes), where
            gm, wm = got.monothread, want.monothread
            assert [id(s.stmt) for s in gm.multithreaded_sites] == \
                [id(s.stmt) for s in wm.multithreaded_sites], where
            assert gm.sipw_uids == wm.sipw_uids, where
            assert gm.required_levels == wm.required_levels, where
            gc, wc = got.concurrency, want.concurrency
            assert gc.concurrent_pairs == wc.concurrent_pairs, where
            assert gc.scc_uids == wc.scc_uids, where
            assert gc.groups == wc.groups, where
            assert got.flagged == want.flagged, where
            checked += 1
    assert checked >= len(p1.funcs)
