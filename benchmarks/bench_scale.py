"""Scale benchmark — analysis walltime vs. program size.

Sweeps the synthetic size ladder of ``repro.bench.scale`` through the
one-shot driver, ``analyze_program`` (config ``cold``: what ``parcoach
analyze`` and ``parcoach batch`` pay per file).  The engine's cache is
measured where it runs, in the session benchmarks
(``bench_incremental.py``, ``bench_project.py``).
``test_dominates_is_o1`` guards the O(1) dominance queries: per-query cost
must not grow with CFG depth (the old parent-chain walk grew linearly).

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
from repro.core import analyze_program
from repro.minilang.parser import parse_program

SIZES = tuple(SCALE_SIZES)
CALLTREES = tuple(CALLTREE_SIZES)


@pytest.fixture(scope="module")
def programs():
    return {name: parse_program(src, name)
            for name, src in scale_suite().items()}


@pytest.mark.parametrize("size", SIZES)
def test_scale_cold(benchmark, programs, size):
    benchmark.extra_info["size"] = size
    benchmark.extra_info["config"] = "cold"
    result = benchmark(lambda: analyze_program(programs[size]))
    assert result.functions


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
