"""Fuzzing throughput benchmark — differential-oracle programs per second.

Each round pushes a fixed batch of seeded programs through the pipeline;
``extra_info["programs"]`` lets ``export_bench.py`` derive
``fuzz_programs_per_sec`` into ``BENCH_scale.json``, tracking the cost of
one fuzz seed PR over PR next to the analysis and exploration numbers.

Configs:

* ``fuzz_generate`` — generation + well-formedness gate only (the grammar
  floor: how fast seeds can be minted);
* ``fuzz_oracle``   — the full differential oracle on program text (parse
  and check, two static analyses, in-place instrumentation, the raw
  default run, and a bounded DPOR sweep whose first schedule is the
  instrumented default run) — the number the campaign's seeds/sec
  ultimately follows;
* ``fuzz_campaign_open`` / ``fuzz_campaign_coverage`` — the campaign
  driver end to end (real oracle), open-loop vs coverage-guided on the
  same seed budget.  ``export_bench.py`` derives
  ``fuzz_coverage_overhead`` from the ratio (the feedback machinery —
  probe collection, signature hashing, map folding, queue scheduling —
  must stay a scheduling tax next to the oracle; gated ≤ 1.5× by
  ``tests/test_fuzz_coverage.py``) and ``distinct_findings_per_kseed``
  from ``extra_info["distinct_findings"]``.
"""

import pytest

from repro.fuzz import (
    GenConfig,
    OracleConfig,
    generate_program,
    run_fuzz,
    run_oracle,
)

PROGRAMS = 8
SEEDS = tuple(range(PROGRAMS))
GEN = GenConfig()
#: A slimmer sweep than the CLI default keeps benchmark rounds short while
#: still exercising every oracle phase.
ORACLE = OracleConfig(explore_runs=6)

#: Seed budget for the campaign-driver pair — small enough for short
#: rounds, large enough that the coverage scheduler forms real waves.
CAMPAIGN_SEEDS = 16
CAMPAIGN_ORACLE = OracleConfig(explore_runs=2)


@pytest.fixture(scope="module")
def sources():
    return [generate_program(seed, GEN) for seed in SEEDS]


def test_fuzz_generate_rate(benchmark):
    benchmark.extra_info["size"] = f"{PROGRAMS}seeds"
    benchmark.extra_info["config"] = "fuzz_generate"
    benchmark.extra_info["programs"] = PROGRAMS

    def go():
        return [generate_program(seed, GEN) for seed in SEEDS]

    out = benchmark(go)
    assert len(out) == PROGRAMS


def test_fuzz_oracle_rate(benchmark, sources):
    benchmark.extra_info["size"] = f"{PROGRAMS}seeds"
    benchmark.extra_info["config"] = "fuzz_oracle"
    benchmark.extra_info["programs"] = PROGRAMS

    def go():
        return [run_oracle(src, ORACLE) for src in sources]

    verdicts = benchmark(go)
    assert len(verdicts) == PROGRAMS
    # The acceptance invariant holds inside the benchmark too.
    assert all(v.classification in ("agree", "static-overapprox")
               for v in verdicts)


def test_fuzz_campaign_open_rate(benchmark):
    benchmark.extra_info["size"] = f"{CAMPAIGN_SEEDS}seeds"
    benchmark.extra_info["config"] = "fuzz_campaign_open"
    benchmark.extra_info["programs"] = CAMPAIGN_SEEDS

    def go():
        return run_fuzz(seeds=CAMPAIGN_SEEDS, gen_config=GEN,
                        oracle_config=CAMPAIGN_ORACLE)

    report = benchmark(go)
    assert report.completed == CAMPAIGN_SEEDS
    benchmark.extra_info["distinct_findings"] = report.distinct_findings


def test_fuzz_campaign_coverage_rate(benchmark):
    benchmark.extra_info["size"] = f"{CAMPAIGN_SEEDS}seeds"
    benchmark.extra_info["config"] = "fuzz_campaign_coverage"
    benchmark.extra_info["programs"] = CAMPAIGN_SEEDS

    def go():
        return run_fuzz(seeds=CAMPAIGN_SEEDS, gen_config=GEN, coverage=True,
                        oracle_config=CAMPAIGN_ORACLE)

    report = benchmark(go)
    assert report.completed == CAMPAIGN_SEEDS
    assert report.coverage_map is not None
    benchmark.extra_info["distinct_findings"] = report.distinct_findings
    benchmark.extra_info["signatures"] = report.coverage_map.distinct_signatures
