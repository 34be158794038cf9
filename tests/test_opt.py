"""Middle-end tests: constant folding, liveness, available expressions, TAC."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import build_cfg
from repro.minilang import ast_nodes as A
from repro.minilang.parser import parse_function, parse_program
from repro.minilang.pretty import pretty
from repro.opt import (
    available_expressions,
    expr_key,
    fold_expr,
    fold_program,
    liveness,
    lower_function,
    lower_program,
    run_middle_end,
)
from repro.runtime import run_program


def parse_expr(text):
    func = parse_function(f"void f() {{ x = {text}; }}")
    return func.body.stmts[0].value


# -- constant folding -----------------------------------------------------------


@pytest.mark.parametrize("src,expected", [
    ("1 + 2 * 3", 7),
    ("(4 - 1) * (2 + 2)", 12),
    ("10 / 4", 2),
    ("7 % 3", 1),
    ("1 < 2", True),
    ("3 == 3", True),
    ("true && false", False),
    ("true || false", True),
])
def test_fold_constants(src, expected):
    folded = fold_expr(parse_expr(src))
    assert isinstance(folded, (A.IntLit, A.BoolLit))
    assert folded.value == expected


@pytest.mark.parametrize("src,expected_text", [
    ("x + 0", "x"),
    ("0 + x", "x"),
    ("x - 0", "x"),
    ("x * 1", "x"),
    ("1 * x", "x"),
    ("x / 1", "x"),
])
def test_algebraic_identities(src, expected_text):
    folded = fold_expr(parse_expr(src))
    assert pretty(folded) if False else True
    from repro.minilang.pretty import emit_expr
    assert emit_expr(folded) == expected_text


def test_division_by_zero_not_folded():
    folded = fold_expr(parse_expr("1 / 0"))
    assert isinstance(folded, A.BinOp)  # left to the runtime


def test_double_negation_removed():
    folded = fold_expr(parse_expr("-(-y)"))
    assert isinstance(folded, A.VarRef)


def test_fold_program_preserves_semantics():
    src = """
void main() {
    int x = 2 + 3;
    int y = x * (1 + 1);
    if (1 < 2) { y += 0 + 1; }
    print(x, y);
}
"""
    prog = parse_program(src)
    folded = fold_program(prog)
    raw = run_program(prog, nprocs=1)
    opt = run_program(folded, nprocs=1)
    assert raw.ok and opt.ok
    assert raw.outputs == opt.outputs


def test_fold_program_folds_branch_conditions():
    prog = parse_program("void f() { if (1 < 2) { print(1); } }")
    folded = fold_program(prog)
    cond = folded.funcs[0].body.stmts[0].cond
    assert isinstance(cond, A.BoolLit) and cond.value is True


def test_fold_inside_omp_constructs():
    prog = parse_program("""
void f() {
    #pragma omp parallel num_threads(2 + 2)
    {
        #pragma omp single
        { print(3 * 3); }
    }
}
""")
    folded = fold_program(prog)
    par = folded.funcs[0].body.stmts[0]
    assert par.num_threads.value == 4


# -- liveness ----------------------------------------------------------------------


def test_liveness_simple_chain():
    func = parse_function("""
void f(int a) {
    int b = a + 1;
    int c = b * 2;
    print(c);
}
""")
    cfg, _ = build_cfg(func, set())
    live = liveness(cfg)
    # 'a' is live into the first real block's predecessor chain.
    entry_succs = cfg.successors(cfg.entry_id)
    assert "a" in live.live_in[entry_succs[0]] or "a" in live.live_in[cfg.entry_id]


def test_liveness_through_branches():
    func = parse_function("""
void f(int a, int b) {
    int x = 0;
    if (a > 0) { x = a; } else { x = b; }
    print(x);
}
""")
    cfg, _ = build_cfg(func, set())
    live = liveness(cfg)
    # At the condition block both a and b must be live.
    (cond,) = [blk for blk in cfg.blocks.values() if blk.cond is not None]
    assert {"a", "b"} <= live.live_in[cond.id]


def test_dead_store_detected():
    func = parse_function("""
void f() {
    int x = 1;
    x = 2;
    print(x);
}
""")
    cfg, _ = build_cfg(func, set())
    dead = liveness(cfg).dead_stores(cfg)
    assert any(var == "x" for _, var in dead)


def test_loop_variable_stays_live():
    func = parse_function("""
void f(int n) {
    int acc = 0;
    for (int i = 0; i < n; i += 1) { acc += i; }
    print(acc);
}
""")
    cfg, _ = build_cfg(func, set())
    live = liveness(cfg)
    dead = [v for _, v in live.dead_stores(cfg)]
    assert "acc" not in dead
    assert "i" not in dead


# -- available expressions -----------------------------------------------------------


def test_expr_key_canonicalizes_commutative():
    e1 = parse_expr("a + b")
    e2 = parse_expr("b + a")
    assert expr_key(e1) == expr_key(e2)
    e3 = parse_expr("a - b")
    e4 = parse_expr("b - a")
    assert expr_key(e3) != expr_key(e4)


def test_expr_key_impure_is_none():
    assert expr_key(parse_expr("f(x) + 1")) is None


def test_redundant_expression_reported():
    func = parse_function("""
void f(int a, int b) {
    int x = a + b;
    int y = a + b;
    print(x, y);
}
""")
    cfg, _ = build_cfg(func, set())
    avail = available_expressions(cfg)
    assert any("a" in key and "b" in key for _, key in avail.redundant)


def test_redefinition_kills_availability():
    func = parse_function("""
void f(int a, int b) {
    int x = a + b;
    a = 5;
    int y = a + b;
    print(x, y);
}
""")
    cfg, _ = build_cfg(func, set())
    avail = available_expressions(cfg)
    keys = [key for _, key in avail.redundant if "a" in key and "b" in key]
    assert keys == []


# -- TAC lowering -----------------------------------------------------------------------


def test_tac_straight_line():
    func = parse_function("void f() { int x = 1 + 2; }")
    tac = lower_function(func)
    opcodes = [i.op for i in tac.instrs]
    assert "bin+" in opcodes
    assert opcodes[-1] == "ret"


def test_tac_if_produces_labels_and_jumps():
    func = parse_function("void f(int a) { if (a > 0) { a = 1; } else { a = 2; } }")
    tac = lower_function(func)
    opcodes = [i.op for i in tac.instrs]
    assert "cjump_false" in opcodes
    assert opcodes.count("label") == 2
    assert "jump" in opcodes


def test_tac_loop_structure():
    func = parse_function("void f() { for (int i = 0; i < 3; i += 1) { print(i); } }")
    tac = lower_function(func)
    opcodes = [i.op for i in tac.instrs]
    assert opcodes.count("label") == 3  # head, step, end
    assert "call" in opcodes


def test_tac_omp_markers_balanced():
    func = parse_function("""
void f() {
    #pragma omp parallel
    {
        #pragma omp single
        { MPI_Barrier(); }
        #pragma omp barrier
    }
}
""")
    tac = lower_function(func)
    opcodes = [i.op for i in tac.instrs]
    assert opcodes.count("omp_parallel_begin") == opcodes.count("omp_parallel_end") == 1
    assert opcodes.count("omp_single_begin") == opcodes.count("omp_single_end") == 1
    assert "omp_barrier" in opcodes


def test_tac_array_load_store():
    func = parse_function("void f() { int a[4]; a[1] = a[0] + 1; }")
    tac = lower_function(func)
    opcodes = [i.op for i in tac.instrs]
    assert "alloca" in opcodes and "load" in opcodes and "store" in opcodes


def test_tac_render_is_stable():
    func = parse_function("void f() { print(1); }")
    text = str(lower_function(func))
    assert text.startswith("func f(")
    assert "call" in text


# -- middle end driver ----------------------------------------------------------------


def test_run_middle_end_stats():
    prog = parse_program("""
void helper(int n) { for (int i = 0; i < n; i += 1) { print(i); } }
void main() { helper(3); }
""")
    result = run_middle_end(prog)
    assert result.stats["functions"] == 2
    assert result.stats["loops"] == 1
    assert result.stats["tac_instrs"] > 0
    assert set(result.cfgs) == {"helper", "main"}


@given(st.integers(0, 50), st.integers(1, 10))
@settings(max_examples=30, deadline=None)
def test_fold_matches_interpreter_on_random_arith(a, b):
    src = f"void main() {{ print({a} + {b} * 2 - {a} / {b}); }}"
    prog = parse_program(src)
    folded = fold_program(prog)
    stmt = folded.funcs[0].body.stmts[0]
    assert isinstance(stmt.expr.args[0], A.IntLit)
    raw = run_program(prog, nprocs=1)
    assert raw.outputs[0][0] == str(stmt.expr.args[0].value)
