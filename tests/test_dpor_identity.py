"""The object-indexed race scan against the original all-pairs one.

``tests/reference_dpor.py`` keeps the original race loop.  The scan must
find identical race pairs, in the same order, on seeded random event
lists.
"""

import random

from repro.explore.dpor import race_pairs
from repro.explore.footprint import WILDCARD

from reference_dpor import reference_race_pairs

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
