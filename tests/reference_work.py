"""The O(n) loop ``work(n)`` ran before its closed form: the test-only
reference for the interpreter's ``work`` builtin.

``work(n)`` returns the state the 32-bit LCG ``x -> 1103515245*x + 12345``
reaches from 0 after ``n`` steps (none for ``n <= 0``).  The interpreter
computes it in O(log n); this module steps it, so the two can be checked
value for value and, patched into ``_BUILTIN_IMPL["work"]``, sweep for
sweep.
"""

from __future__ import annotations


def reference_work(n: int) -> int:
    x = 0
    for _ in range(max(0, n)):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
    return x


def reference_work_builtin(interp, ctx, args) -> int:
    """The ``work`` builtin with :func:`reference_work` for its value."""
    n = int(args[0])
    interp.world.scheduler.compute(max(n, 0))
    return reference_work(n)
