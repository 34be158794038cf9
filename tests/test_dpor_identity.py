"""DPOR's fast paths against the code they replaced.

``tests/reference_dpor.py`` keeps the original race loop and the original
expansion.  The object-indexed scan must find identical race pairs, in
the same order, on seeded random event lists.  ``DporStrategy``'s
expansion must push the same nodes, in the same order, as the
reference's when both are given the same recorded runs, and leave the
same statistics and the same tree of decisions: every point's sleep set
and branches.
"""

import random
from collections import deque

import pytest

from repro.bench import CASES
from repro.core import analyze_program, instrument_program
from repro.explore import ExploreConfig, explore_config
from repro.explore import explore as explore_module
from repro.explore.dpor import DporStrategy, race_pairs
from repro.explore.footprint import WILDCARD
from repro.minilang.parser import parse_program

from reference_dpor import ReferenceDpor, reference_race_pairs
from test_reference_traces import SMALL_TREES, UNBOUNDED

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


# -- the expansion, push for push ------------------------------------------------


def _point_state(point):
    """A decision's sleep set and its branches, each with the step that
    leads to it and that step's cost, in order."""
    sleep = None if point.sleep is None else list(point.sleep.items())
    return sleep, [(u, child.step, child.cost)
                   for u, child in point.branches.items()]


def _tree_states(root):
    """Every decision of a tree, depth first in branch order."""
    states, stack = [], [root]
    while stack:
        point = stack.pop()
        states.append(_point_state(point))
        stack.extend(reversed(point.branches.values()))
    return states


class Lockstep(DporStrategy):
    """:class:`DporStrategy` with a :class:`ReferenceDpor` beside it that
    expands every run it expands: both must push the same nodes and leave
    the same statistics and decisions along the run, and the same tree
    once the sweep ends."""

    def __init__(self, preemption_bound=2):
        super().__init__(preemption_bound)
        self.reference = ReferenceDpor(preemption_bound)
        self.expansions = 0

    def _expand(self, node, record, frontier):
        before = len(frontier)
        super()._expand(node, record, frontier)
        pushed = deque()
        self.reference.stats.runs = self.stats.runs
        self.reference._expand(node, record, pushed)
        assert list(frontier)[before:] == list(pushed)
        assert self.stats == self.reference.stats
        limit = len(record.decisions)
        if record.abort_decision is not None:
            limit = min(limit, record.abort_decision)
        ours, theirs = self._root, self.reference._root
        for decision in record.decisions[:limit]:
            assert _point_state(ours) == _point_state(theirs)
            ours = ours.branches[decision.chosen]
            theirs = theirs.branches[decision.chosen]
        assert _point_state(ours) == _point_state(theirs)
        self.expansions += 1

    def explore(self, *args, **kwargs):
        yield from super().explore(*args, **kwargs)
        assert _tree_states(self._root) == _tree_states(self.reference._root)


def _lockstep_sweeps(monkeypatch, name, modes, num_threads, runs, preemptions):
    """Sweep ``name`` in each of ``modes`` with :class:`Lockstep` in place
    of :class:`DporStrategy`; the expansions it checked."""
    case = CASES[name]
    program = parse_program(case.source, f"{name}.mc")
    analysis = analyze_program(program)
    instrumented, _ = instrument_program(analysis)
    sweeps = []

    def lockstep(preemption_bound):
        sweeps.append(Lockstep(preemption_bound))
        return sweeps[-1]

    monkeypatch.setattr(explore_module, "DporStrategy", lockstep)
    for mode in modes:
        prog, kinds = ((program, None) if mode == "raw"
                       else (instrumented, analysis.group_kinds))
        config = ExploreConfig(nprocs=case.nprocs, num_threads=num_threads,
                               instrument=mode == "instrumented")
        explore_config(prog, config, strategy="dpor", runs=runs,
                       preemptions=preemptions, group_kinds=kinds,
                       minimize=False)
    assert len(sweeps) == len(modes)
    return sum(sweep.expansions for sweep in sweeps)


@pytest.mark.parametrize("name", sorted(CASES))
def test_gallery_expansions_push_like_the_reference(monkeypatch, name):
    """The benchmark's and CI's sweeps of each gallery case, raw and
    instrumented: nt=3, runs=100, preemptions=2."""
    _lockstep_sweeps(monkeypatch, name, ("raw", "instrumented"), 3, 100, 2)


@pytest.mark.parametrize("name,mode", SMALL_TREES,
                         ids=[f"{n}-{m}" for n, m in SMALL_TREES])
def test_unbounded_expansions_push_like_the_reference(monkeypatch, name,
                                                       mode):
    """The trees :mod:`test_reference_traces` enumerates whole (nt=2), at
    an unbounded preemption budget."""
    assert _lockstep_sweeps(monkeypatch, name, (mode,), 2, 10_000,
                            UNBOUNDED) > 0
