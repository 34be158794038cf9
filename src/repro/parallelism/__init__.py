"""Parallelism words, the language ``L``, and the per-function word computation."""

from .compute import WordInfo, compute_words
from .language import in_language, is_monothreaded
from .word import (
    B,
    EMPTY,
    P,
    S,
    Token,
    Word,
    barrier,
    common_prefix,
    count_barriers,
    format_word,
    has_parallel,
    innermost_single,
    parse_word,
    strip_barriers,
)

__all__ = [
    "WordInfo",
    "compute_words",
    "in_language",
    "is_monothreaded",
    "B",
    "EMPTY",
    "P",
    "S",
    "Token",
    "Word",
    "barrier",
    "common_prefix",
    "count_barriers",
    "format_word",
    "has_parallel",
    "innermost_single",
    "parse_word",
    "strip_barriers",
]
