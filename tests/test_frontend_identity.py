"""The minilang front end against fixed references.

* Lexer: token for token and error for error against the character-at-a-time
  reference in ``tests/reference_lexer.py``, over every generated benchmark
  source, the fuzz corpus, generated fuzz programs, seeded perturbations of
  them, and seeded random strings.
* Parser: a SHA-256 over the outcome of parsing the same sources (with the
  fuzz corpus as of the pin) and seeded operator-mixing expressions --
  the program's ``repr`` plus its pre-order
  node types, positions and uid order, or the error -- pinned from the
  recursive-descent parser with one function per precedence level that the
  precedence-climbing one replaced.
"""

import hashlib
import pathlib
import random

import pytest

from repro.bench import CASES, benchmark_sources
from repro.bench.scale import calltree_suite, scale_suite
from repro.fuzz.campaign import program_for_seed
from repro.minilang.lexer import tokenize
from repro.minilang.parser import ParseError, parse_program
from repro.minilang.tokens import LexError
from tests.reference_lexer import reference_tokenize

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"

#: Pieces that start, end or break a token: comment and string delimiters,
#: continuations, pragmas, number shapes and escapes.
FRAGMENTS = [
    "/*", "*/", "//", "\\\n", "#pragma omp ", "1.5e-3", "7.", "1e+", "0.5.3",
    "2.5E+7", "09", '"a\\n"', "'\\q'", '"open', "'\\", '"\\"\'', '"x\ny"',
    "int ", "for", "MPI_Barrier();", "x_1", "@", "$", "\\",
]
#: Single characters, ASCII plus a letter, a non-ASCII decimal digit and
#: three numeric characters that are not decimal digits.
ALPHABET = list("abeEz_Z019 \t\r\n\\/*#+-=<>!&|;,(){}[]%.'\"") + ["é", "٣", "²", "½", "Ⅳ"]

#: Every binary operator, loosest-binding first.
BINARY_OPS = ["||", "&&", "==", "!=", "<", ">", "<=", ">=", "+", "-", "*", "/", "%"]

#: The ``tests/corpus`` entries the parser digest covers.  A fixed list, so
#: a new fuzz finding in the corpus leaves the digest where it is; the
#: lexer test reads the whole directory.
PINNED_CORPUS = (
    "bigint_division.mini",
    "bigint_observation_hash.mini",
    "deadcode_expr_call.mini",
    "seed106010017_bigint_payload_hash.mini",
    "seed21_static_overapprox.mini",
    "seed23_agree_error.mini",
)

#: SHA-256 of ``_parse_outcome`` over ``corpus``, ``perturbed`` and
#: ``expressions``, from the recursive-descent parser this one replaced
#: (``minilang/{lexer,parser,tokens}.py`` as of commit a8b96e7).
PARSER_DIGEST = "240cd33cee936fdc96a9aa7ec81bbdc58e464d1ef7913a451ca70fd805bcdb28"


def _corpus_entry(path):
    return f"corpus {path.name}", path.read_text(encoding="utf-8")


def _sources():
    sources = dict(benchmark_sources())
    sources.update((f"scale {k}", v) for k, v in scale_suite().items())
    sources.update((f"calltree {k}", v) for k, v in calltree_suite().items())
    sources.update((f"gallery {k}", c.source) for k, c in CASES.items())
    sources.update(_corpus_entry(CORPUS_DIR / name) for name in PINNED_CORPUS)
    sources.update((f"seed {s}", program_for_seed(s)) for s in range(200))
    return sources


def _perturb(sources, count, seed):
    """Seeded edits of the smaller sources: an ASCII fragment inserted, a
    span deleted, or the text cut short."""
    rng = random.Random(seed)
    small = [text for _, text in sorted(sources.items()) if len(text) < 20_000]
    out = {}
    for i in range(count):
        text = rng.choice(small)
        at = rng.randrange(len(text) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:at] + rng.choice(FRAGMENTS) + text[at:]
        elif edit == 1:
            text = text[:at] + text[at + rng.randrange(1, 40):]
        else:
            text = text[:at]
        out[f"perturbed {i}"] = text
    return out


def _expressions(count, seed):
    """Seeded expressions mixing every binary and unary operator, calls,
    array elements and parentheses; every tenth one is cut short."""
    rng = random.Random(seed)

    def operand(depth):
        r = rng.random()
        if r < 0.15 and depth < 3:
            return "(" + expr(depth + 1) + ")"
        if r < 0.3:
            return rng.choice("-!+") + operand(depth)
        if r < 0.4 and depth < 3:
            return "f(" + expr(depth + 1) + ", b)"
        return rng.choice(["a", "b", "7", "2.5", "v[i + 1]", "true"])

    def expr(depth):
        parts = [operand(depth)]
        for _ in range(rng.randrange(5)):
            parts += [rng.choice(BINARY_OPS), operand(depth)]
        return " ".join(parts)

    out = {}
    for i in range(count):
        text = expr(0)
        if i % 10 == 0:
            text = text[:rng.randrange(len(text))]
        out[f"expression {i}"] = f"int main() {{ x = {text}; }}"
    return out


def _random_strings(count, seed):
    rng = random.Random(seed)
    pieces = ALPHABET * 2 + FRAGMENTS
    return ["".join(rng.choice(pieces) for _ in range(rng.randrange(1, 24)))
            for _ in range(count)]


def _lex(tokenizer, source):
    try:
        return [tuple(tok) for tok in tokenizer(source)]
    except LexError as err:
        return (err.message, err.line, err.col)


def _parse_outcome(source):
    try:
        program = parse_program(source)
    except LexError as err:
        return f"lex {err.message} {err.line}:{err.col}"
    except ParseError as err:
        tok = err.token
        return f"parse {err.message} {tok.type.name} {tok.value!r} {tok.line}:{tok.col}"
    nodes = list(program.walk())
    base = min(node.uid for node in nodes)
    return repr(program) + repr([(type(node).__name__, node.line, node.col, node.uid - base)
                                 for node in nodes])


def parser_digest(sources):
    digest = hashlib.sha256()
    for name, source in sources.items():
        digest.update(f"{name}\0{_parse_outcome(source)}\0".encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def corpus():
    return _sources()


@pytest.fixture(scope="module")
def live_corpus(corpus):
    """``corpus`` plus every ``tests/corpus`` entry added since the pin."""
    return {**corpus, **dict(_corpus_entry(p)
                             for p in sorted(CORPUS_DIR.glob("*.mini")))}


@pytest.fixture(scope="module")
def perturbed(corpus):
    return _perturb(corpus, 1500, seed=20150207)


@pytest.fixture(scope="module")
def expressions():
    return _expressions(3000, seed=3)


def test_lexer_matches_reference_on_sources(live_corpus, perturbed):
    errors = 0
    for name, source in {**live_corpus, **perturbed}.items():
        expected = _lex(reference_tokenize, source)
        assert _lex(tokenize, source) == expected, name
        errors += isinstance(expected, tuple)
    # The perturbations reach the error paths, not only the happy path.
    assert errors > 100


def test_lexer_matches_reference_on_random_strings():
    outcomes = set()
    for source in _random_strings(20_000, seed=7):
        expected = _lex(reference_tokenize, source)
        assert _lex(tokenize, source) == expected, repr(source)
        outcomes.add(expected[0] if isinstance(expected, tuple) else "ok")
    # Every kind of outcome occurs: a token list and each error message
    # family (the variable parts of messages are dropped).
    families = {o.split(" '")[0].split(" \\")[0] for o in outcomes}
    assert families == {
        "ok", "unexpected character", "unterminated block comment",
        "unterminated string literal", "newline in string literal",
        "unknown escape",
    }


def test_parser_output_matches_pinned_digest(corpus, perturbed, expressions):
    assert parser_digest({**corpus, **perturbed, **expressions}) == PARSER_DIGEST
