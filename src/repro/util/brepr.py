"""Bounded ``repr`` for state hashing — big-int safe, deterministic.

CPython 3.11 caps ``int → str`` conversion at 4300 digits and raises
``ValueError`` past it.  Fuzzed programs hit this trivially (an
``x = x * x`` loop squares its way to astronomically large values within
a handful of iterations).  Every runtime path that hashes program values
goes through this function:

* the interpreter's shared cells (:meth:`Interpreter._shared_state`);
* the cooperative scheduler's per-thread observation hash
  (:meth:`Scheduler.note_observation`);
* the collective engine's open-round arrivals, payloads and signatures
  (:meth:`CollectiveEngine.fingerprint_state`);
* the mailbox's queued messages (:meth:`Mailbox.fingerprint_state`).

The last three feed :meth:`Scheduler._fingerprint_locked`, whose own
``repr`` then only ever sees these strings and small counters.  An
unbounded ``repr`` on any of these paths raises on a rank thread, which
presents as an ``internal error`` crash — or, inside a scheduling
decision, as a hang: the token has been released and never granted, so
every logical thread stays parked.  All were found by the fuzz campaign
(see ``docs/fuzzing.md``).

:func:`bounded_repr` digests any int wider than 256 bits to
``bigint:<bit_length>:<low 64 bits>`` — still deterministic, still
collision-poor for fingerprinting — and recurses through tuples/lists so
composite observation records stay safe.  Everything else is plain
``repr``.
"""

from __future__ import annotations

#: Ints at or below this width are repr'd exactly; wider ones are digested.
#: 256 bits is far beyond anything the mini-language's semantics care about
#: and far below the 4300-digit (~14k bit) conversion limit.
_EXACT_BITS = 256


def bounded_repr(value: object) -> str:
    """Deterministic ``repr`` that never trips the int→str digit limit."""
    # bool is an int subclass but repr's fine; check int exactly enough.
    if isinstance(value, int) and not isinstance(value, bool) \
            and value.bit_length() > _EXACT_BITS:
        return (f"bigint:{value.bit_length()}:"
                f"{value & ((1 << 64) - 1):#x}")
    if isinstance(value, tuple):
        inner = ", ".join(bounded_repr(item) for item in value)
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    if isinstance(value, list):
        return "[" + ", ".join(bounded_repr(item) for item in value) + "]"
    return repr(value)


__all__ = ["bounded_repr"]
