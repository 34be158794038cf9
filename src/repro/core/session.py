"""Session primitives: the update error and the chunked source splitter.

The incremental daemons (``parcoach serve``, ``watch`` and ``project
serve``) all run on :class:`~repro.project.session.ProjectSession`; this
module keeps the two pieces it builds on below the project layer:

* :class:`SessionError` — an update that cannot be analyzed (unreadable
  file, parse or semantic errors); the session state stays untouched.

* :func:`split_chunks` / :func:`_parse_chunk` — the chunked re-parse.  The
  source is split into top-level function chunks (a brace/string/comment
  scanner); an edited chunk is parsed standalone, padded to its original
  line and column so positions match a full parse byte for byte.  Any
  anomaly — unbalanced braces, a chunk that does not parse to exactly one
  function — makes the caller fall back to a full parse, which is always
  correct.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..minilang import ast_nodes as A
from ..minilang.parser import parse_program
from ..util.faultinject import fault_site


class SessionError(Exception):
    """A source update that cannot be analyzed (parse or semantic errors).

    The session state is untouched: the previous program version stays
    current and the next good update diffs against it."""

    def __init__(self, path: str, messages: List[str]) -> None:
        super().__init__(f"{path}: {len(messages)} error(s)")
        self.path = path
        self.messages = messages


# ---------------------------------------------------------------------------
# Chunked source splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceChunk:
    """One top-level brace-balanced region of the source (a function)."""

    start_line: int
    start_col: int
    text: str

    @property
    def key(self) -> Tuple[str, int]:
        digest = hashlib.sha256(self.text.encode("utf-8")).hexdigest()
        return (digest, self.start_line)


#: Characters that can change the scanner state: string/comment starts and
#: braces.  Everything between two matches is ordinary code.
_INTERESTING = re.compile(r'["/{}]')
_NON_WS = re.compile(r"\S")


def _string_end(source: str, opening: int) -> int:
    """Index one past the closing quote of the string starting at
    ``opening`` — -1 when unterminated (or broken by a newline)."""
    k = opening + 1
    while True:
        quote = source.find('"', k)
        if quote < 0:
            return -1
        newline = source.find("\n", k, quote)
        if newline >= 0:
            return -1
        backslashes = 0
        b = quote - 1
        while b >= 0 and source[b] == "\\":
            backslashes += 1
            b -= 1
        if backslashes % 2 == 0:
            return quote + 1
        k = quote + 1


def split_chunks(source: str) -> Optional[List[SourceChunk]]:
    """Split ``source`` into top-level function chunks.

    Tracks strings (with escapes), ``//`` and ``/* */`` comments and brace
    depth; a chunk runs from the first non-trivia character at depth 0 to
    the brace that closes back to depth 0.  Returns ``None`` on anything
    unbalanced — the caller falls back to a full parse.  The scanner jumps
    between interesting characters with C-speed searches, so re-splitting a
    large file per update costs single-digit milliseconds."""
    chunks: List[SourceChunk] = []
    depth = 0
    start = -1
    i, n = 0, len(source)
    # Incremental line bookkeeping for chunk starts (emitted in order).
    last_pos = 0
    last_line = 1
    while i < n:
        if depth == 0 and start < 0:
            # Looking for the next chunk start: skip whitespace + comments.
            match = _NON_WS.search(source, i)
            if match is None:
                break
            j = match.start()
            two = source[j:j + 2]
            if two == "//":
                end = source.find("\n", j)
                i = n if end < 0 else end + 1
                continue
            if two == "/*":
                end = source.find("*/", j + 2)
                if end < 0:
                    return None
                i = end + 2
                continue
            start = j
            i = j
        match = _INTERESTING.search(source, i)
        if match is None:
            break
        j = match.start()
        ch = source[j]
        if ch == '"':
            end = _string_end(source, j)
            if end < 0:
                return None
            i = end
        elif ch == "/":
            nxt = source[j + 1:j + 2]
            if nxt == "/":
                end = source.find("\n", j)
                i = n if end < 0 else end + 1
            elif nxt == "*":
                end = source.find("*/", j + 2)
                if end < 0:
                    return None
                i = end + 2
            else:
                i = j + 1
        elif ch == "{":
            depth += 1
            i = j + 1
        else:  # "}"
            depth -= 1
            if depth < 0:
                return None
            i = j + 1
            if depth == 0 and start >= 0:
                last_line += source.count("\n", last_pos, start)
                last_pos = start
                newline = source.rfind("\n", 0, start)
                chunks.append(SourceChunk(start_line=last_line,
                                          start_col=start - newline,
                                          text=source[start:j + 1]))
                start = -1
    if depth != 0 or start >= 0:
        return None
    return chunks


def _parse_chunk(chunk: SourceChunk, filename: str) -> Optional[A.FuncDef]:
    """Parse one chunk standalone, padded so every node's line/col matches
    what a full-file parse would assign.  ``None`` when the chunk is not
    exactly one function (the caller falls back to a full parse)."""
    fault_site("session.parse_chunk")
    padded = ("\n" * (chunk.start_line - 1) + " " * (chunk.start_col - 1)
              + chunk.text)
    try:
        program = parse_program(padded, filename)
    except Exception:
        return None
    if len(program.funcs) != 1:
        return None
    return program.funcs[0]


__all__ = [
    "SessionError",
    "SourceChunk",
    "split_chunks",
]
