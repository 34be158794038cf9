"""One fuzz seed's pipeline does each job once.

The seed body parses and checks each program text once, walks that AST for
coverage features, lets the oracle instrument it in place, and takes the
instrumented default verdict from the first schedule of the oracle's DPOR
sweep.  These tests hold it to the outcomes of the seed body it replaced
(which parsed each text three times, deep-copied the AST to instrument it
and ran the instrumented default schedule on its own), count the parses,
and check the reused schedule against a standalone default run.
"""

import hashlib
import importlib
import json
import pkgutil

import pytest

import repro.fuzz
from repro.core import analyze_program, instrument_program
from repro.explore import DefaultStrategy, ExploreConfig, run_scheduled
from repro.explore.trace import verdict_line
from repro.fuzz import (
    OracleConfig,
    fuzz_one,
    generate_program,
    mutant_seed,
    program_for_seed,
    run_oracle,
)
from repro.minilang.parser import parse_program

#: Seeds 0-39 (every fourth one a stride mutant) and queue mutants of 1 to
#: 3 rounds: seed 5's include rounds whose first attempts are rejected,
#: and seed 23 is itself a stride mutant.
DIGEST_SEEDS = tuple(range(40)) + tuple(
    mutant_seed(parent, slot) for parent in (5, 23) for slot in range(6))

#: SHA-256 of ``_outcome_digest(DIGEST_SEEDS)``, pinned from the seed body
#: that parsed each text three times, and re-pinned when DPOR came to run
#: each trace once: every classification stayed, and so did every 12-run
#: sweep's explored classes except seed 17's, which gained
#: CollectiveMismatchError (a bounded DFS of that tree finds it at its 7th
#: schedule); the explored counts moved.
OUTCOME_DIGEST = "dc8312818f1d31c3e1e92add99d967ab0da4cb24bdb299cccfdac248a6148130"


def _outcome_digest(seeds):
    digest = hashlib.sha256()
    failing = 0
    for seed in seeds:
        outcome = fuzz_one(seed, coverage=True)
        failing += outcome.verdict.instrumented_verdict != "clean"
        digest.update(json.dumps(
            [seed, outcome.classification, outcome.verdict.as_dict(),
             sorted(outcome.signature.features), outcome.source],
            sort_keys=True).encode())
    return digest.hexdigest(), failing


def test_seed_outcomes_match_pinned_digest():
    digest, failing = _outcome_digest(DIGEST_SEEDS)
    # The digest covers instrumented default runs that fail and ones that
    # pass.
    assert 3 <= failing <= len(DIGEST_SEEDS) - 3
    assert digest == OUTCOME_DIGEST


@pytest.fixture
def parses(monkeypatch):
    """Names of the texts ``repro.fuzz`` parses while the test runs."""
    names = []

    def counting(source, filename="<string>"):
        names.append(filename)
        return parse_program(source, filename)

    for info in pkgutil.iter_modules(repro.fuzz.__path__):
        module = importlib.import_module(f"repro.fuzz.{info.name}")
        if "parse_program" in vars(module):
            monkeypatch.setattr(module, "parse_program", counting)
    return names


def test_fresh_seed_parses_its_text_once(parses):
    fuzz_one(0, oracle_config=OracleConfig(explore_runs=2), coverage=True)
    assert parses == ["seed 0"]


def test_stride_mutant_parses_each_text_once(parses):
    # Seed 3's mutation round takes its first attempt.
    assert program_for_seed(3) != generate_program(3)
    parses.clear()
    fuzz_one(3, oracle_config=OracleConfig(explore_runs=2), coverage=True)
    assert parses == ["seed 3", "<mutant>"]


@pytest.mark.parametrize("seed,clean", [(0, False), (4, False),
                                        (5, True), (6, True)])
@pytest.mark.parametrize("explore_runs", [12, 0])
def test_instrumented_verdict_is_the_default_schedule(seed, clean,
                                                      explore_runs):
    config = OracleConfig(explore_runs=explore_runs)
    source = program_for_seed(seed)
    verdict = run_oracle(source, config)
    analysis = analyze_program(parse_program(source), interprocedural=True)
    instrumented, _ = instrument_program(analysis)
    result, _ = run_scheduled(
        instrumented,
        ExploreConfig(nprocs=config.nprocs, num_threads=config.num_threads,
                      thread_level=config.thread_level, instrument=True),
        DefaultStrategy(), group_kinds=analysis.group_kinds)
    assert verdict.instrumented_verdict == verdict_line(result)
    assert (verdict.instrumented_verdict == "clean") == clean
