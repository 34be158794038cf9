"""Membership tests for the paper's language ``L = (S | P B* S)*``.

``in_language`` is the strict regular language of the paper.  The analysis
uses :func:`is_monothreaded`, which ignores *all* barrier tokens (the paper:
"Bs are ignored as barriers do not influence the level of thread
parallelism") — equivalent to ``L`` on every word the word-builder produces,
but robust to ``B`` tokens appearing after a nested region closes inside a
single region (e.g. ``P S B S``), which are monothreaded contexts too.

Monothreadedness, barriers removed, is: the word is empty or ends with ``S``,
and no two ``P`` are adjacent (adjacent ``P`` = nested parallelism with no
serialization in between: one thread *per team* would execute the node).
"""

from __future__ import annotations

from .word import B, P, S, Word, strip_barriers


def in_language(word: Word) -> bool:
    """Strict DFA for ``(S | P B* S)*``."""
    state = 0  # 0 = accept / between factors; 1 = after P, reading B* then S
    for token in word:
        if state == 0:
            if isinstance(token, S):
                state = 0
            elif isinstance(token, P):
                state = 1
            else:  # B at factor boundary is not in the strict language
                return False
        else:
            if isinstance(token, B):
                state = 1
            elif isinstance(token, S):
                state = 0
            else:  # P after P — nested parallelism
                return False
    return state == 0


def is_monothreaded(word: Word) -> bool:
    """The analysis predicate: word ∈ L up to ignoring barrier tokens."""
    core = strip_barriers(word)
    if not core:
        return True
    if isinstance(core[-1], P):
        return False
    for a, b in zip(core, core[1:]):
        if isinstance(a, P) and isinstance(b, P):
            return False
    return True
