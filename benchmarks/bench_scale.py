"""Scale benchmark — analysis walltime vs. program size, per engine config.

Sweeps the synthetic size ladder of ``repro.bench.scale`` through three
configurations:

* ``cold``     — the one-shot driver, ``analyze_program``: the pre-engine
  baseline (what a one-shot ``parcoach analyze`` pays);
* ``warm``     — shared engine re-analyzing the same loaded program: the
  batch-server steady state (identity fast path, all hits);
* ``reparse``  — shared engine, but every round re-parses the source: hits
  are served by remapping cached artifacts onto the new AST.

``test_warm_speedup_threshold`` is the regression gate for the PR's claim:
warm-cache batch analysis must be at least 5x faster than cold sequential at
the largest synthetic size.  ``test_dominates_is_o1`` guards the O(1)
dominance queries: per-query cost must not grow with CFG depth (the old
parent-chain walk grew linearly).

The ``calltree`` series measures the interprocedural layer on deep call
trees (``repro.bench.scale.CALLTREE_SIZES``): ``interproc`` is the full
context-propagation analysis, ``intraproc`` the per-function baseline on
the same program — their ratio (``derived.interproc_overhead`` in
``BENCH_scale.json``) is the cost of the call-graph fixpoint plus the
context-split function analyses.

Run ``python benchmarks/export_bench.py`` to refresh ``BENCH_scale.json``.
"""

import time

import pytest

from repro.bench.scale import CALLTREE_SIZES, calltree_suite, SCALE_SIZES, scale_suite
from repro.cfg import CFG, BlockKind, dominators
from repro.core import AnalysisEngine, analyze_program
from repro.minilang.parser import parse_program

SIZES = tuple(SCALE_SIZES)
LARGEST = SIZES[-1]
CALLTREES = tuple(CALLTREE_SIZES)


@pytest.fixture(scope="module")
def sources():
    return scale_suite()


@pytest.fixture(scope="module")
def programs(sources):
    return {name: parse_program(src, name) for name, src in sources.items()}


@pytest.mark.parametrize("size", SIZES)
def test_scale_cold(benchmark, programs, size):
    benchmark.extra_info["size"] = size
    benchmark.extra_info["config"] = "cold"
    result = benchmark(lambda: analyze_program(programs[size]))
    assert result.functions


@pytest.mark.parametrize("size", SIZES)
def test_scale_warm(benchmark, programs, size):
    engine = AnalysisEngine()
    engine.analyze(programs[size])  # fill the cache
    benchmark.extra_info["size"] = size
    benchmark.extra_info["config"] = "warm"
    result = benchmark(lambda: engine.analyze(programs[size]))
    assert result.functions
    assert engine.stats.hits > 0


@pytest.mark.parametrize("size", SIZES)
def test_scale_warm_reparse(benchmark, sources, programs, size):
    """Warm engine, fresh parse per round: hits remap onto the new AST."""
    engine = AnalysisEngine()
    engine.analyze(programs[size])  # fill the cache
    src = sources[size]
    benchmark.extra_info["size"] = size
    benchmark.extra_info["config"] = "reparse"
    result = benchmark.pedantic(
        engine.analyze,
        setup=lambda: ((parse_program(src, size),), {}),
        rounds=5,
    )
    assert result.functions
    assert engine.stats.remaps > 0


# -- interprocedural call-tree series ----------------------------------------------


@pytest.fixture(scope="module")
def calltree_programs():
    return {name: parse_program(src, name)
            for name, src in calltree_suite().items()}


@pytest.mark.parametrize("size", CALLTREES)
def test_calltree_interproc(benchmark, calltree_programs, size):
    """Full interprocedural analysis (context propagation + summaries)."""
    benchmark.extra_info["size"] = size
    benchmark.extra_info["config"] = "interproc"
    result = benchmark(lambda: analyze_program(calltree_programs[size],
                                               interprocedural=True))
    assert result.interprocedural
    # The tree shape must actually feed the propagation: some function runs
    # under a non-empty context word.
    assert any(any(w for w in fa.context_words)
               for fa in result.functions.values())


@pytest.mark.parametrize("size", CALLTREES)
def test_calltree_intraproc(benchmark, calltree_programs, size):
    """Per-function baseline on the same deep call tree."""
    benchmark.extra_info["size"] = size
    benchmark.extra_info["config"] = "intraproc"
    result = benchmark(lambda: analyze_program(calltree_programs[size],
                                               interprocedural=False))
    assert not result.interprocedural


@pytest.mark.parametrize("size", CALLTREES)
def test_calltree_warm_interproc(benchmark, calltree_programs, size):
    """Warm engine: context-split artifacts and the interprocedural plan are
    cached, so repeated analyses only pay lookups + merge."""
    engine = AnalysisEngine()
    engine.analyze(calltree_programs[size])  # fill
    benchmark.extra_info["size"] = size
    benchmark.extra_info["config"] = "interproc_warm"
    result = benchmark(lambda: engine.analyze(calltree_programs[size]))
    assert engine.stats.hits > 0
    assert result.functions


def test_warm_speedup_threshold(programs):
    """Acceptance gate: warm-cache batch >= 5x faster than the one-shot
    driver at the largest synthetic size."""
    program = programs[LARGEST]
    t0 = time.perf_counter()
    cold_result = analyze_program(program)
    cold = time.perf_counter() - t0

    warm_engine = AnalysisEngine()
    warm_engine.analyze(program)  # fill
    warm = min(_timed(lambda: warm_engine.analyze(program)) for _ in range(3))

    speedup = cold / warm
    assert len(cold_result.diagnostics) == len(warm_engine.analyze(program).diagnostics)
    assert speedup >= 5.0, (
        f"warm-cache batch only {speedup:.1f}x faster than cold "
        f"({cold * 1e3:.1f}ms vs {warm * 1e3:.1f}ms)"
    )


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# -- dominance query micro-benchmark ----------------------------------------------


def make_chain_cfg(depth: int) -> CFG:
    """A straight-line CFG of ``depth`` blocks — worst case for the old
    O(depth) parent-chain dominance walk."""
    cfg = CFG(f"chain{depth}")
    entry = cfg.new_block(BlockKind.ENTRY)
    cfg.entry_id = entry.id
    prev = entry.id
    for _ in range(depth):
        block = cfg.new_block(BlockKind.NORMAL)
        cfg.add_edge(prev, block.id)
        prev = block.id
    exit_ = cfg.new_block(BlockKind.EXIT)
    cfg.add_edge(prev, exit_.id)
    cfg.exit_id = exit_.id
    return cfg.freeze()


DEPTHS = (64, 1024, 4096)


def _query_batch(dom, a, b, n=2000) -> float:
    t0 = time.perf_counter()
    for _ in range(n):
        dom.dominates(a, b)
    return (time.perf_counter() - t0) / n


@pytest.mark.parametrize("depth", DEPTHS)
def test_dominates_query(benchmark, depth):
    cfg = make_chain_cfg(depth)
    dom = dominators(cfg)
    dom.dominates(cfg.entry_id, cfg.exit_id)  # build intervals once
    benchmark.extra_info["depth"] = depth
    benchmark.extra_info["config"] = "dominates"
    assert benchmark(dom.dominates, cfg.entry_id, cfg.exit_id)


def test_dominates_is_o1():
    """Per-query time must not grow with CFG depth (the chain walk did)."""
    per_query = {}
    for depth in (DEPTHS[0], DEPTHS[-1]):
        cfg = make_chain_cfg(depth)
        dom = dominators(cfg)
        dom.dominates(cfg.entry_id, cfg.exit_id)  # build intervals once
        per_query[depth] = min(
            _query_batch(dom, cfg.entry_id, cfg.exit_id) for _ in range(3)
        )
    ratio = per_query[DEPTHS[-1]] / per_query[DEPTHS[0]]
    # 64 -> 4096 is a 64x depth increase; the old walk scaled ~linearly.
    # O(1) intervals should stay flat — allow generous timing noise.
    assert ratio < 5.0, f"dominates grew {ratio:.1f}x from depth {DEPTHS[0]} to {DEPTHS[-1]}"
