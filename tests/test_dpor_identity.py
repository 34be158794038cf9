"""The object-indexed DPOR expansion against the original all-pairs one.

``tests/reference_dpor.py`` keeps the original race loop and driver
expansion.  These tests hold the new ones to it: identical race pairs on
seeded random event lists; identical push order, sleep sets, pushed and
visited sets and statistics when both drivers expand the same recorded
runs of the whole gallery; no change when the state hashes outside the
window the driver reads are blanked; and state hashes byte-identical to a
digest pinned from the scheduler that hashed every decision.
"""

import hashlib
import itertools
import random

import pytest

from repro import parse_program
from repro.bench import CASES
from repro.core import analyze_program, instrument_program
from repro.explore import (
    DporStrategy,
    ExploreConfig,
    RunRecord,
    ScriptedStrategy,
    dfs_prefixes,
)
from repro.explore.dpor import race_pairs
from repro.explore.footprint import WILDCARD
from repro.explore.sched import Scheduler
from repro.minilang import ast_nodes
from repro.runtime.run import run_program

from reference_dpor import (
    EveryDecisionScheduler,
    ReferenceDporStrategy,
    reference_race_pairs,
)

NUM_THREADS = 3
#: Runs per recorded sweep; the cap keeps the whole gallery under ~5 s.
SWEEP_RUNS = 40
PREEMPTIONS = 2

# -- race pairs on random event lists ------------------------------------------

_OBJECTS = ("x", "y", "z")
_MODES = ("r", "w", "c:a", "c:b")


def _random_footprint(rng):
    roll = rng.random()
    if roll < 0.08:
        return WILDCARD
    if roll < 0.12:
        return WILDCARD | {(rng.choice(_OBJECTS), rng.choice(_MODES))}
    if roll < 0.22:
        return frozenset()
    return frozenset((rng.choice(_OBJECTS), rng.choice(_MODES))
                     for _ in range(rng.randint(1, 3)))


def test_race_scan_matches_all_pairs_reference():
    rng = random.Random(20150207)
    races = 0
    for _ in range(10_000):
        threads = [f"t{i}" for i in range(rng.randint(2, 4))]
        events = [(rng.choice(threads), _random_footprint(rng))
                  for _ in range(rng.randint(0, 16))]
        pairs = list(race_pairs(events))
        assert pairs == list(reference_race_pairs(events)), events
        races += len(pairs)
    assert races > 50_000


# -- recorded gallery sweeps ----------------------------------------------------


def _targets():
    """(case, mode) -> (program, config, group kinds), at nt=3."""
    out = {}
    for name, case in CASES.items():
        program = parse_program(case.source, name)
        analysis = analyze_program(program)
        instrumented, _ = instrument_program(analysis)
        for mode, prog, kinds in (
                ("raw", program, None),
                ("instrumented", instrumented, analysis.group_kinds)):
            config = ExploreConfig(nprocs=case.nprocs, num_threads=NUM_THREADS,
                                   instrument=mode == "instrumented")
            out[(name, mode)] = (prog, config, kinds)
    return out


@pytest.fixture(scope="module")
def targets():
    return _targets()


def _record(target, scheduler):
    program, config, kinds = target
    run_program(program, nprocs=config.nprocs,
                num_threads=config.num_threads, group_kinds=kinds,
                scheduler=scheduler)
    return RunRecord.from_scheduler(scheduler)


def _limit(record):
    """End of the decisions the driver expands: the abort, or the run's end."""
    if record.abort_decision is None:
        return len(record.decisions)
    return record.abort_decision


def _window(record, start):
    """``record`` with the hashes outside ``[start, abort)`` blanked."""
    limit = _limit(record)
    fps = [fp if start <= i < limit else None
           for i, fp in enumerate(record.fingerprints)]
    return RunRecord(record.decisions, record.events, record.event_index,
                     fps, record.abort_decision)


def _windowed(full):
    """Look up a prefix's record as the DPOR worker ships it: hashed only
    from the prefix's end up to the abort."""
    return lambda prefix: _window(full[prefix], len(prefix))


def _sweep(driver, record_for):
    """Drive a sweep; log every expansion's pushed nodes (prefix + sleep
    set), then the driver's final pushed/visited sets and statistics."""
    pushes = []
    expand = driver._expand

    def logged(node, record, frontier):
        before = len(frontier)
        expand(node, record, frontier)
        pushes.append(list(itertools.islice(frontier, before, None)))

    driver._expand = logged

    def execute_wave(prefixes):
        return [record_for(tuple(prefix)) for prefix in prefixes]

    for _ in driver.explore(execute_wave, max_runs=SWEEP_RUNS):
        pass
    return (pushes, driver._pushed, driver._visited,
            driver.stats.as_dict())


@pytest.fixture(scope="module")
def recorded(targets):
    """(case, mode) -> {prefix: run record hashed at every decision}, for
    every prefix the DPOR driver executes in a capped sweep."""
    out = {}
    for key, target in targets.items():
        full = {}

        def record_for(prefix, target=target, full=full):
            if prefix not in full:
                full[prefix] = _record(target, EveryDecisionScheduler(
                    ScriptedStrategy(list(prefix))))
            return _windowed(full)(prefix)

        _sweep(DporStrategy(preemption_bound=PREEMPTIONS), record_for)
        out[key] = full
    return out


def test_driver_matches_all_pairs_reference_on_gallery(recorded):
    """Both drivers expand the same recorded runs identically."""
    pushed = 0
    for key, full in recorded.items():
        new = _sweep(DporStrategy(preemption_bound=PREEMPTIONS),
                     _windowed(full))
        ref = _sweep(ReferenceDporStrategy(preemption_bound=PREEMPTIONS),
                     _windowed(full))
        assert new == ref, key
        pushed += new[3]["expanded"]
    assert pushed > 500


def test_blanking_hashes_outside_the_window_changes_nothing(recorded):
    """The reference driver reads no hash before the forced prefix's end
    or from the abort on."""
    prunes = 0
    for key, full in recorded.items():
        every = _sweep(ReferenceDporStrategy(preemption_bound=PREEMPTIONS),
                       full.__getitem__)
        assert every == _sweep(
            ReferenceDporStrategy(preemption_bound=PREEMPTIONS),
            _windowed(full)), key
        prunes += every[3]["fingerprint_prunes"]
    assert prunes > 0


# -- hash bytes -------------------------------------------------------------------

#: Bounded-DFS runs per (case, mode) whose forced prefixes are hashed.
DFS_RUNS = 20
#: SHA-256 over every in-window state hash of those runs, and their count,
#: pinned from the scheduler that hashed every decision.
PINNED_WINDOW_DIGEST = (
    "d3ff82bd74cef56164ba1c07bae21b6b2ea2cfc3c75e0ace41c6930fec042693")
PINNED_WINDOW_HASHES = 5264


def _window_lines(key, target):
    """One line per state hash of the first bounded-DFS runs of ``key``,
    each run forced to its DFS prefix and hashing from the prefix's end.
    The DFS branches only at decisions before an abort, so its prefixes
    never depend on how an abort unwinds."""
    lines = []

    def run_fn(prefix):
        record = _record(target, Scheduler(ScriptedStrategy(prefix),
                                           fingerprint_from=len(prefix)))
        limit = _limit(record)
        for i, fp in enumerate(record.fingerprints):
            # The scheduler hashes exactly the window the driver reads.
            assert (fp is not None) == (len(prefix) <= i < limit), \
                (key, prefix, i)
            if fp is not None:
                lines.append(f"{key[0]}/{key[1]}/{','.join(prefix)}/{i}:{fp}")
        return record.decisions[:limit]

    for _ in dfs_prefixes(run_fn, max_runs=DFS_RUNS,
                          preemption_bound=PREEMPTIONS):
        pass
    return lines


def test_window_hashes_match_pinned_digest(monkeypatch):
    # Construct uids come from a process-wide counter and name the claim
    # objects a state hash covers: number these programs from a fixed start.
    monkeypatch.setattr(ast_nodes, "_node_counter", itertools.count(1))
    targets = _targets()
    lines = [line for key in sorted(targets)
             for line in _window_lines(key, targets[key])]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (PINNED_WINDOW_HASHES,
                                    PINNED_WINDOW_DIGEST)
