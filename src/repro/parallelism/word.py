"""Parallelism words — the paper's per-node abstraction of thread context.

A word is a tuple of tokens over the alphabet {``P<i>``, ``S<i>``, ``B``}:

* ``P(i)`` — a parallel-creating construct (``parallel``, conservatively
  ``task``), ``i`` the AST uid of the construct;
* ``S(i)`` — a single-threaded construct (``single``, ``master``, one
  ``section`` of a ``sections``), ``i`` the AST uid;
* ``B`` — a thread barrier (explicit ``#pragma omp barrier`` or the implicit
  barrier ending ``single``/``for``/``sections`` without ``nowait`` and the
  join of ``parallel``).

Simplification rule (paper §2): when an OpenMP region ends, its token *and
everything after it* is removed from the word; the implicit barrier of the
region end is then appended **in the enclosing context** (only when some
region is still open — at top level a join leaves the empty word, which is
the monothreaded initial context).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union


@dataclass(frozen=True)
class P:
    """Parallel-construct token."""

    region_id: int

    def __str__(self) -> str:
        return f"P{self.region_id}"


@dataclass(frozen=True)
class S:
    """Single-threaded-construct token; ``kind`` ∈ {single, master, section}."""

    region_id: int
    kind: str = "single"

    def __str__(self) -> str:
        return f"S{self.region_id}"


@dataclass(frozen=True)
class B:
    """Barrier token (all barriers are indistinguishable in the word)."""

    def __str__(self) -> str:
        return "B"


Token = Union[P, S, B]
Word = Tuple[Token, ...]

EMPTY: Word = ()
_B = B()


def barrier() -> B:
    """The (unique) barrier token."""
    return _B


def format_word(word: Word) -> str:
    """Human-readable rendering, e.g. ``"P3 B S7"`` (``"ε"`` when empty)."""
    return " ".join(str(t) for t in word) if word else "ε"


def count_barriers(word: Word) -> int:
    return sum(1 for t in word if isinstance(t, B))


def strip_barriers(word: Word) -> Word:
    """The word with all ``B`` tokens removed (barriers do not change the
    level of thread parallelism, paper §2)."""
    return tuple(t for t in word if not isinstance(t, B))


def has_parallel(word: Word) -> bool:
    return any(isinstance(t, P) for t in word)


def common_prefix(w1: Word, w2: Word) -> Word:
    """Longest common prefix of two words."""
    out = []
    for a, b in zip(w1, w2):
        if a != b:
            break
        out.append(a)
    return tuple(out)


def innermost_single(word: Word) -> Union[S, None]:
    """The last ``S`` token of the word if the word ends with it (ignoring
    trailing barriers), else None."""
    for t in reversed(word):
        if isinstance(t, B):
            continue
        return t if isinstance(t, S) else None
    return None


def parse_word(text: str) -> Word:
    """Parse a compact spec like ``"P1 B S2"`` (used by tests and the CLI's
    ``--initial-context`` option).  ``"ε"`` or ``""`` is the empty word."""
    text = text.strip()
    if text in ("", "ε"):
        return EMPTY
    tokens: list = []
    for part in text.split():
        if part == "B":
            tokens.append(_B)
        elif part[0] in ("P", "p") and part[1:].isdigit():
            tokens.append(P(int(part[1:])))
        elif part[0] in ("S", "s") and part[1:].isdigit():
            tokens.append(S(int(part[1:])))
        elif part in ("P", "p"):
            tokens.append(P(-1))
        elif part in ("S", "s"):
            tokens.append(S(-1))
        else:
            raise ValueError(f"bad parallelism-word token {part!r}")
    return tuple(tokens)
