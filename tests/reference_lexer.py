"""Character-at-a-time minilang lexer: the test-only reference for
:func:`repro.minilang.lexer.tokenize`.

This is the original hand-written lexer, kept so the regex-driven one can be
checked against it token for token and error for error.  One rule differs
from its first version: numbers take decimal digits only (``str.isdecimal``,
what ``int()`` accepts), where it used ``str.isdigit`` and so lexed ``2²``
as one integer that the parser could not convert.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.minilang.tokens import KEYWORDS, LexError, Token, TokenType

MULTI_CHAR_OPS = [
    ("==", TokenType.EQ),
    ("!=", TokenType.NE),
    ("<=", TokenType.LE),
    (">=", TokenType.GE),
    ("&&", TokenType.AND),
    ("||", TokenType.OR),
    ("+=", TokenType.PLUSEQ),
    ("-=", TokenType.MINUSEQ),
    ("*=", TokenType.STAREQ),
    ("/=", TokenType.SLASHEQ),
    ("++", TokenType.PLUSPLUS),
    ("--", TokenType.MINUSMINUS),
]

SINGLE_CHAR_OPS = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    ",": TokenType.COMMA,
    ";": TokenType.SEMI,
    "#": TokenType.HASH,
    "=": TokenType.ASSIGN,
    "+": TokenType.PLUS,
    "-": TokenType.MINUS,
    "*": TokenType.STAR,
    "/": TokenType.SLASH,
    "%": TokenType.PERCENT,
    "<": TokenType.LT,
    ">": TokenType.GT,
    "!": TokenType.NOT,
}


class ReferenceLexer:
    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.col = 1
        self._in_pragma = False

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.source[idx] if idx < len(self.source) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.source):
                if self.source[self.pos] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.pos += 1

    def _skip_whitespace_and_comments(self) -> List[Token]:
        emitted: List[Token] = []
        while self.pos < len(self.source):
            ch = self._peek()
            if ch == "\n":
                if self._in_pragma:
                    emitted.append(Token(TokenType.NEWLINE, "\n", self.line, self.col))
                    self._in_pragma = False
                self._advance()
            elif ch in " \t\r":
                self._advance()
            elif ch == "\\" and self._peek(1) == "\n":
                self._advance(2)
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line, start_col = self.line, self.col
                self._advance(2)
                while self.pos < len(self.source):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise LexError("unterminated block comment", start_line, start_col)
            else:
                break
        return emitted

    def _lex_number(self) -> Token:
        start_line, start_col = self.line, self.col
        start = self.pos
        seen_dot = False
        while self.pos < len(self.source) and (
            self._peek().isdecimal() or (self._peek() == "." and not seen_dot)
        ):
            if self._peek() == ".":
                if not self._peek(1).isdecimal():
                    break
                seen_dot = True
            self._advance()
        if self._peek() in "eE" and (
            self._peek(1).isdecimal()
            or (self._peek(1) in "+-" and self._peek(2).isdecimal())
        ):
            seen_dot = True
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while self._peek().isdecimal():
                self._advance()
        text = self.source[start : self.pos]
        ttype = TokenType.FLOAT if seen_dot else TokenType.INT
        return Token(ttype, text, start_line, start_col)

    def _lex_ident(self) -> Token:
        start_line, start_col = self.line, self.col
        start = self.pos
        while self.pos < len(self.source) and (
            self._peek().isalnum() or self._peek() == "_"
        ):
            self._advance()
        text = self.source[start : self.pos]
        ttype = KEYWORDS.get(text, TokenType.IDENT)
        return Token(ttype, text, start_line, start_col)

    def _lex_string(self) -> Token:
        start_line, start_col = self.line, self.col
        quote = self._peek()
        self._advance()
        chars: List[str] = []
        while True:
            ch = self._peek()
            if ch == "":
                raise LexError("unterminated string literal", start_line, start_col)
            if ch == "\n":
                raise LexError("newline in string literal", self.line, self.col)
            if ch == "\\":
                nxt = self._peek(1)
                escapes = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "'": "'", "0": "\0"}
                if nxt in escapes:
                    chars.append(escapes[nxt])
                    self._advance(2)
                    continue
                raise LexError(f"unknown escape \\{nxt}", self.line, self.col)
            if ch == quote:
                self._advance()
                break
            chars.append(ch)
            self._advance()
        return Token(TokenType.STRING, "".join(chars), start_line, start_col)

    def tokens(self) -> Iterator[Token]:
        while True:
            for tok in self._skip_whitespace_and_comments():
                yield tok
            if self.pos >= len(self.source):
                if self._in_pragma:
                    yield Token(TokenType.NEWLINE, "", self.line, self.col)
                    self._in_pragma = False
                yield Token(TokenType.EOF, "", self.line, self.col)
                return
            ch = self._peek()
            if ch.isdecimal():
                yield self._lex_number()
            elif ch.isalpha() or ch == "_":
                yield self._lex_ident()
            elif ch in "\"'":
                yield self._lex_string()
            elif ch == "#":
                self._in_pragma = True
                yield Token(TokenType.HASH, "#", self.line, self.col)
                self._advance()
            else:
                for text, ttype in MULTI_CHAR_OPS:
                    if self.source.startswith(text, self.pos):
                        tok = Token(ttype, text, self.line, self.col)
                        self._advance(len(text))
                        yield tok
                        break
                else:
                    if ch in SINGLE_CHAR_OPS:
                        yield Token(SINGLE_CHAR_OPS[ch], ch, self.line, self.col)
                        self._advance()
                    else:
                        raise LexError(f"unexpected character {ch!r}", self.line, self.col)


def reference_tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` fully, returning the token list (ending with EOF)."""
    return list(ReferenceLexer(source).tokens())
