"""All-pairs race detection: the test-only reference for
:func:`repro.explore.dpor.race_pairs`.

:func:`reference_race_pairs` is the original scan, which tested every pair
of events by different threads with the original :func:`conflicts`; it is
kept so the object-indexed scan can be checked against it race for race.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

from repro.explore.footprint import Footprint


def conflicts(a: Footprint, b: Footprint) -> bool:
    """True when the two steps do **not** commute."""
    if not a or not b:
        return False
    by_obj = {}
    for obj, mode in b:
        if obj == "*":
            return True
        by_obj.setdefault(obj, []).append(mode)
    for obj, mode in a:
        if obj == "*":
            return True
        for other in by_obj.get(obj, ()):
            if mode == "r" and other == "r":
                continue
            if mode.startswith("c:") and mode == other:
                continue
            return True
    return False


def reference_race_pairs(events: Sequence[Tuple[str, Footprint]]
                         ) -> Iterator[Tuple[int, int]]:
    """Every ``(j, k)``, ``j < k``, of conflicting events by different
    threads, by testing all pairs."""
    for k in range(1, len(events)):
        tk, fpk = events[k]
        if not fpk:
            continue
        for j in range(k):
            tj, fpj = events[j]
            if tj == tk or not fpj or not conflicts(fpj, fpk):
                continue
            yield j, k
