"""The parser bounds how deep a program nests (``MAX_DEPTH``).

Five shapes: nested parentheses, nested ``if``s, nested blocks, a long sum
(a left-associative chain) and a barrier and a ``return`` in nested blocks,
which the instrumentation puts checks beside.  At the bound each one
parses, checks, analyzes, instruments, prints, parses again and runs,
every static pass under Python's default recursion limit; one level past
it is a located ``ParseError``, which the CLI reports with exit code 2.
"""

import copy
import sys

import pytest

from repro import analyze_program, instrument_program
from repro.cfg import build_cfg
from repro.cli import main
from repro.core.engine import ast_fingerprint
from repro.minilang.ast_nodes import ast_equal
from repro.minilang.parser import MAX_DEPTH, ParseError, parse_program
from repro.minilang.pretty import pretty
from repro.minilang.semantics import check_program

# Program (1) > main (2) > body block (3) > statement (4) > ...


def parens(k):
    # int x = ((...(1)...)): the literal sits at 5 + k.
    return "int main() { int x = " + "(" * k + "1" + ")" * k + "; print(x); }\n"


def ifs(k):
    # Each if and its block take two levels; print's argument sits at 2k + 6.
    return ("int main() { int x = 0;\n" + "if (x < 1) {\n" * k + "print(x);\n"
            + "}\n" * k + "}\n")


def blocks(k):
    # x = x + 1 inside k blocks: the statement sits at k + 4, which leaves
    # two levels below it, and its operands at k + 6.
    return ("int main() { int x = 0;\n" + "{" * k + "x = x + 1;" + "}" * k
            + "\nprint(x); }\n")


def chain(k):
    # 1 + 1 + ... (k terms): the first term sits at k + 4.
    return "int main() { int x = " + " + ".join(["1"] * k) + "; print(x); }\n"


def checked(k):
    # f's conditional barrier has it instrumented.  The barrier and the
    # return inside k blocks sit at k + 4, and the PARCOACH_CC checks put
    # beside them reach k + 6 with their literal arguments.
    return ("void f(int x) {\nif (x < 1) { MPI_Barrier(); }\n" + "{" * k
            + "MPI_Barrier(); return;" + "}" * k + "\n}\n"
            "int main() { f(0); print(1); }\n")


#: Each shape with its size at the bound and the value it prints there.
SHAPES = {
    "parens": (parens, MAX_DEPTH - 5, 1),
    "ifs": (ifs, (MAX_DEPTH - 6) // 2, 0),
    "blocks": (blocks, MAX_DEPTH - 6, 1),
    "chain": (chain, MAX_DEPTH - 4, MAX_DEPTH - 4),
    "checked": (checked, MAX_DEPTH - 6, 1),
}


def _depth(program):
    deepest, stack = 0, [(program, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in node.children())
    return deepest


@pytest.fixture
def default_recursion_limit():
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(saved)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_program_at_the_bound_analyzes_and_runs(shape, tmp_path, capsys,
                                                default_recursion_limit):
    make, k, printed = SHAPES[shape]
    source = make(k)
    program = parse_program(source)
    assert not [i for i in check_program(program) if i.severity == "error"]
    for func in program.funcs:
        build_cfg(func)
    analysis = analyze_program(program)
    instrumented, _ = instrument_program(analysis)
    # The parenthesized literal sits at MAX_DEPTH for the parser; its tree
    # has no node for the parentheses.
    assert _depth(instrumented) == (6 if shape == "parens" else MAX_DEPTH)
    assert ast_equal(parse_program(pretty(instrumented)), instrumented)
    copy.deepcopy(program)
    ast_fingerprint(program.funcs[0])
    assert repr(program)

    path, written = tmp_path / f"{shape}.mc", tmp_path / "instrumented.mc"
    path.write_text(source)
    # Exit 1 reports warnings: f's conditional barrier.
    assert main(["analyze", str(path)]) == (1 if shape == "checked" else 0)
    assert main(["instrument", str(path), "-o", str(written)]) == 0
    capsys.readouterr()
    for argv in (["run", str(path), "-np", "2", "--instrument"],
                 ["run", str(written), "-np", "2"]):
        assert main(argv) == 0
        out = capsys.readouterr()
        assert out.out == f"[rank 0] {printed}\n[rank 1] {printed}\n"
        assert "verdict: clean" in out.err


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_program_past_the_bound_is_a_parse_error(shape, tmp_path, capsys):
    make, k, _ = SHAPES[shape]
    source = make(k + 1)
    with pytest.raises(ParseError) as err:
        parse_program(source)
    assert err.value.message == f"program nests deeper than {MAX_DEPTH} levels"
    tok = err.value.token
    assert tok.line >= 1 and tok.col >= 1

    path = tmp_path / f"{shape}.mc"
    path.write_text(source)
    for argv in (["analyze", str(path)], ["run", str(path), "-np", "2"]):
        assert main(argv) == 2
        err_text = capsys.readouterr().err
        assert err_text == (f"{path}:{tok.line}:{tok.col}: program nests "
                            f"deeper than {MAX_DEPTH} levels (got "
                            f"{tok.type.name} {tok.value!r})\n")
