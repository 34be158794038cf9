"""Per-class child fields and the one-pass call index against the walks
they replaced (``tests/reference_ast.py``).

``Node.children`` and ``Node.walk`` return the same nodes, in the same
order, as the generic dataclass field scan, and ``index_function`` returns
the same call lists and anchor chains as the stack walk with its
uid-to-position dict.  The programs: the analyze-cold set (the five
Figure 1 sources, scale XL, calltree D32, the 24 gallery cases), every
``tests/corpus`` program and fuzz seeds 0-199, each also instrumented.
A field annotation that names a node class in a shape the per-class scan
does not read fails loudly.
"""

import pathlib
from dataclasses import field, make_dataclass

import pytest

from reference_ast import (reference_children, reference_index_function,
                           reference_walk)
from repro.bench import CASES, benchmark_sources
from repro.bench.scale import (CALLTREE_SIZES, SCALE_SIZES,
                               make_calltree_program, make_scale_program)
from repro.core import analyze_program, instrument_program
from repro.core.sites import index_function
from repro.fuzz import program_for_seed
from repro.minilang import ast_nodes as A
from repro.minilang.parser import parse_program

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"


def _sources():
    sources = dict(benchmark_sources())
    sources["scale-XL"] = make_scale_program(**SCALE_SIZES["XL"])
    sources["calltree-D32"] = make_calltree_program(**CALLTREE_SIZES["D32"])
    sources.update((f"gallery/{k}", c.source) for k, c in CASES.items())
    sources.update((f"corpus/{p.name}", p.read_text(encoding="utf-8"))
                   for p in sorted(CORPUS_DIR.glob("*.mini")))
    sources.update((f"seed {s}", program_for_seed(s)) for s in range(200))
    return sources


@pytest.fixture(scope="module")
def programs():
    out = {}
    for name, source in _sources().items():
        program = parse_program(source, f"{name}.mc")
        out[name] = program
        out[f"{name} instrumented"] = instrument_program(
            analyze_program(program))[0]
    return out


def _ids(nodes):
    return [id(node) for node in nodes]


def test_children_and_walk_equal_the_field_scan(programs):
    nodes = 0
    for name, program in programs.items():
        walked = list(reference_walk(program))
        assert _ids(program.walk()) == _ids(walked), name
        for node in walked:
            assert _ids(node.children()) == _ids(reference_children(node)), \
                (name, type(node).__name__, node.line)
        nodes += len(walked)
    assert nodes > 100_000


def _site_key(site):
    return id(site.call), site.stmt_uids, site.stmt_pos, site.line


def test_index_function_equals_the_stack_walk(programs):
    expr_calls = 0
    for name, program in programs.items():
        for func in program.funcs:
            calls, stmts, sites = index_function(func)
            ref_calls, ref_stmts, ref_sites = reference_index_function(func)
            assert _ids(calls) == _ids(ref_calls), (name, func.name)
            assert _ids(stmts) == _ids(ref_stmts), (name, func.name)
            assert list(map(_site_key, sites)) == \
                list(map(_site_key, ref_sites)), (name, func.name)
            expr_calls += len(sites)
    # Expression-embedded calls, with their anchor chains, are exercised.
    assert expr_calls > 500


@pytest.mark.parametrize("annotation", ["'Block'", "Optional[List[Expr]]",
                                        "Tuple[Expr, ...]", "Union[Expr, None]"])
def test_a_node_field_of_another_shape_is_a_type_error(annotation):
    odd = make_dataclass("Odd", [("kids", annotation, field(default=None))],
                         bases=(A.Node,))
    with pytest.raises(TypeError, match=r"^Odd\.kids: "):
        A._node_fields_of(odd)
