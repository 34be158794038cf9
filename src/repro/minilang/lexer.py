r"""Regex-driven lexer for the minilang hybrid language.

Token grammar (``\d`` and ``\w`` are the Unicode classes of :mod:`re`)::

    trivia   := ( [ \t\r\n]+ | '\' newline | '//' ... | '/*' ... '*/' )*
    IDENT    := (letter | '_') \w*       -- a keyword if it is one
    INT      := \d+
    FLOAT    := \d+ '.' \d+ [exponent] | \d+ exponent
    exponent := [eE] [+-]? \d+
    STRING   := '"' ... '"' | "'" ... "'"  -- escapes \n \t \\ \" \' \0,
                                            -- no newline inside
    operator := the longest entry of ``OPERATORS``
    HASH     := '#'                        -- starts a pragma directive

Unicode rule: a number takes decimal digits only (``\d``, exactly what
``int()`` accepts).  An identifier starts with a letter (``str.isalpha``)
or ``_`` and continues with letters, digits or ``_`` (``\w``, that is
``str.isalnum``), so ``é`` lexes like ``e``.  A numeric character that is
not a decimal digit (``²``, ``½``, ``Ⅳ``) may continue an identifier, and
is an ``unexpected character`` where a token would start.

Newlines are normally whitespace, except inside a ``#pragma`` directive where
the newline terminates the directive (C semantics), so the lexer emits a
``NEWLINE`` token while in pragma mode.
"""

from __future__ import annotations

import re
from typing import List

from .tokens import KEYWORDS, OPERATORS, LexError, Token, TokenType

# Each match takes the trivia before a token and then the token, one group
# per kind of token, so ``m.lastindex`` names the kind.  ``/*`` comes before
# the operators, whose ``/`` would take it.  The last two alternatives match
# anywhere, so the longest trivia always stands: were no alternative to
# match, the engine would retry with less trivia, and a ``//`` comment could
# come back as two ``/`` operators.
_TOKEN = (
    r"(?:([^\W\d]\w*)"                                 # identifier, keyword
    r"|(/\*)"                                          # block comment
    "|(" + "|".join(map(re.escape, sorted(OPERATORS, key=len, reverse=True))) + ")"
    r"|(\d+(?:\.\d+(?:[eE][+-]?\d+)?|[eE][+-]?\d+))"   # float
    r"|(\d+)"                                          # int
    r"|(\n)"                                           # end of a pragma
    r"|(#)"                                            # start of a pragma
    r"|([\"'])"                                        # string
    r"|(\Z)"                                           # end of input
    r"|(.))"                                           # anything else
)
_IDENT, _COMMENT, _OPERATOR, _FLOAT, _INT, _NEWLINE, _HASH, _STRING, _END = range(1, 10)

#: Outside a pragma every newline is trivia; inside one it is a token.
_NORMAL = re.compile(r"(?:[ \t\r\n]+|\\\n|//[^\n]*)*" + _TOKEN, re.DOTALL)
_PRAGMA = re.compile(r"(?:[ \t\r]+|\\\n|//[^\n]*)*" + _TOKEN, re.DOTALL)

#: A string literal: its longest valid body, then the character that ended
#: it -- the closing quote, or the newline, bad escape or end of input that
#: makes the literal an error.
_STRING_LITERAL = re.compile(r"""(["'])((?:(?!\1)[^\\\n]|\\[nt\\"'0])*)(.?)""", re.DOTALL)
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "'": "'", "0": "\0"}


def _unescape(m: re.Match) -> str:
    return _ESCAPES[m.group(1)]


def tokenize(source: str, filename: str = "<string>") -> List[Token]:
    """Tokenize ``source`` fully, returning the token list (ending with EOF).

    Raises :class:`LexError` with the line and column of the offending
    character.  ``filename`` is accepted for the parser's signature; errors
    carry positions only.
    """
    tokens: List[Token] = []
    append = tokens.append
    # ``tuple.__new__`` builds the same tokens as ``Token(...)`` without a
    # call to the named tuple's Python-level ``__new__``.
    new = tuple.__new__
    keyword = KEYWORDS.get
    normal = _NORMAL.match
    pragma = _PRAGMA.match
    match = normal
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of ``line``
    while True:
        m = match(source, pos)
        kind = m.lastindex
        start = m.start(kind)
        if start != pos:
            newlines = source.count("\n", pos, start)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", pos, start) + 1
        pos = m.end()
        col = start - line_start + 1
        if kind == _IDENT:
            text = m.group(kind)
            if not (text[0].isalpha() or text[0] == "_"):
                raise LexError(f"unexpected character {text[0]!r}", line, col)
            append(new(Token, (keyword(text, TokenType.IDENT), text, line, col)))
        elif kind == _OPERATOR:
            text = m.group(kind)
            append(new(Token, (OPERATORS[text], text, line, col)))
        elif kind == _INT:
            append(new(Token, (TokenType.INT, m.group(kind), line, col)))
        elif kind == _FLOAT:
            append(new(Token, (TokenType.FLOAT, m.group(kind), line, col)))
        elif kind == _NEWLINE:
            append(new(Token, (TokenType.NEWLINE, "\n", line, col)))
            line += 1
            line_start = pos
            match = normal
        elif kind == _HASH:
            append(new(Token, (TokenType.HASH, "#", line, col)))
            match = pragma
        elif kind == _COMMENT:
            end = source.find("*/", pos)
            if end < 0:
                raise LexError("unterminated block comment", line, col)
            newlines = source.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", pos, end) + 1
            pos = end + 2
        elif kind == _STRING:
            s = _STRING_LITERAL.match(source, start)
            quote, body, last = s.groups()
            if last != quote:
                at = col + s.start(3) - start
                if last == "\n":
                    raise LexError("newline in string literal", line, at)
                if last == "\\":
                    raise LexError(f"unknown escape \\{source[s.end(3):s.end(3) + 1]}", line, at)
                raise LexError("unterminated string literal", line, col)
            if "\\" in body:
                body = _ESCAPE.sub(_unescape, body)
            append(new(Token, (TokenType.STRING, body, line, col)))
            pos = s.end()
        elif kind == _END:
            if match is pragma:
                # Pragma at end of file without trailing newline.
                append(new(Token, (TokenType.NEWLINE, "", line, col)))
            append(new(Token, (TokenType.EOF, "", line, col)))
            return tokens
        else:
            raise LexError(f"unexpected character {m.group(kind)!r}", line, col)
