"""Unit tests for the minilang lexer."""

import pytest

from repro.minilang.lexer import tokenize
from repro.minilang.parser import parse_program
from repro.minilang.tokens import LexError, TokenType


def types(src):
    return [t.type for t in tokenize(src)][:-1]  # drop EOF


def test_empty_source_yields_only_eof():
    toks = tokenize("")
    assert len(toks) == 1
    assert toks[0].type is TokenType.EOF


def test_integer_literal():
    toks = tokenize("42")
    assert toks[0].type is TokenType.INT
    assert toks[0].value == "42"


def test_float_literal():
    toks = tokenize("3.25")
    assert toks[0].type is TokenType.FLOAT
    assert toks[0].value == "3.25"


def test_float_with_exponent():
    toks = tokenize("1e5 2.5e-3")
    assert toks[0].type is TokenType.FLOAT
    assert toks[1].type is TokenType.FLOAT


def test_bare_dot_is_a_lex_error():
    # "7 ." — a dot with no digits is not a token of the language.
    with pytest.raises(LexError):
        tokenize("7 .")
    # But a trailing dot directly after digits stays part of the number scan
    # only when followed by a digit: "7.5" is a float.
    assert tokenize("7.5")[0].type is TokenType.FLOAT


def test_keywords_vs_identifiers():
    assert types("int x if else while for return true false") == [
        TokenType.KW_INT, TokenType.IDENT, TokenType.KW_IF, TokenType.KW_ELSE,
        TokenType.KW_WHILE, TokenType.KW_FOR, TokenType.KW_RETURN,
        TokenType.KW_TRUE, TokenType.KW_FALSE,
    ]


def test_identifier_with_underscore_and_digits():
    toks = tokenize("MPI_Comm_rank x_1")
    assert toks[0].value == "MPI_Comm_rank"
    assert toks[1].value == "x_1"


def test_multi_char_operators_greedy():
    assert types("== != <= >= && || += -= ++ --") == [
        TokenType.EQ, TokenType.NE, TokenType.LE, TokenType.GE,
        TokenType.AND, TokenType.OR, TokenType.PLUSEQ, TokenType.MINUSEQ,
        TokenType.PLUSPLUS, TokenType.MINUSMINUS,
    ]


def test_single_char_operators():
    assert types("+ - * / % < > ! = ; , ( ) { } [ ]") == [
        TokenType.PLUS, TokenType.MINUS, TokenType.STAR, TokenType.SLASH,
        TokenType.PERCENT, TokenType.LT, TokenType.GT, TokenType.NOT,
        TokenType.ASSIGN, TokenType.SEMI, TokenType.COMMA,
        TokenType.LPAREN, TokenType.RPAREN, TokenType.LBRACE, TokenType.RBRACE,
        TokenType.LBRACKET, TokenType.RBRACKET,
    ]


def test_line_comment_skipped():
    assert types("x // comment\ny") == [TokenType.IDENT, TokenType.IDENT]


def test_block_comment_skipped():
    assert types("x /* multi\nline */ y") == [TokenType.IDENT, TokenType.IDENT]


def test_unterminated_block_comment_raises():
    with pytest.raises(LexError):
        tokenize("x /* never closed")


def test_string_literal_with_escapes():
    toks = tokenize(r'"a\nb\t\"c\""')
    assert toks[0].type is TokenType.STRING
    assert toks[0].value == 'a\nb\t"c"'


def test_unterminated_string_raises():
    with pytest.raises(LexError):
        tokenize('"abc')


def test_newline_in_string_raises():
    with pytest.raises(LexError):
        tokenize('"ab\ncd"')


def test_unknown_character_raises():
    with pytest.raises(LexError) as err:
        tokenize("x @ y")
    assert err.value.line == 1


def test_positions_track_lines_and_columns():
    toks = tokenize("a\n  b")
    assert (toks[0].line, toks[0].col) == (1, 1)
    assert (toks[1].line, toks[1].col) == (2, 3)


def test_pragma_emits_newline_token():
    toks = tokenize("#pragma omp barrier\nx")
    ttypes = [t.type for t in toks]
    assert TokenType.HASH in ttypes
    assert TokenType.NEWLINE in ttypes
    # Regular newlines (outside pragmas) are not emitted.
    toks2 = tokenize("a\nb")
    assert all(t.type is not TokenType.NEWLINE for t in toks2)


def test_pragma_at_eof_without_newline():
    toks = tokenize("#pragma omp barrier")
    ttypes = [t.type for t in toks]
    assert TokenType.NEWLINE in ttypes
    assert ttypes[-1] is TokenType.EOF


def test_pragma_line_continuation():
    toks = tokenize("#pragma omp parallel \\\n num_threads(2)\n{ }")
    values = [t.value for t in toks if t.type is TokenType.IDENT]
    assert "num_threads" in values


@pytest.mark.parametrize("source, col", [("x = 2²;", 6), ("x = ½;", 5), ("x = Ⅳ;", 5)])
def test_numeric_non_decimal_character_is_unexpected(source, col):
    # ``"²".isdigit()`` is true but ``int("2²")`` fails: numbers take decimal
    # digits only, so these characters cannot start or continue one.
    with pytest.raises(LexError) as err:
        tokenize(source)
    ch = source[col - 1]
    assert (err.value.message, err.value.line, err.value.col) == (
        f"unexpected character {ch!r}", 1, col)


def test_superscript_digit_no_longer_crashes_the_parser():
    with pytest.raises(LexError):
        parse_program("int main() { int x = 2²; return x; }")


def test_unicode_letters_and_decimal_digits():
    toks = tokenize("café x² ٣")
    assert [(t.type, t.value) for t in toks[:-1]] == [
        (TokenType.IDENT, "café"), (TokenType.IDENT, "x²"), (TokenType.INT, "٣"),
    ]
