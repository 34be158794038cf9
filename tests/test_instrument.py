"""Instrumentation-pass tests: CC/ENTER placement and behaviour preservation."""

from repro import analyze_program, instrument_program, parse_program, pretty, run_program
from repro.minilang import ast_nodes as A
from repro.mpi.collectives import RETURN_COLOR, collective_color


def instrumented_of(src, **kw):
    analysis = analyze_program(parse_program(src), **kw)
    program, report = instrument_program(analysis)
    return analysis, program, report


FLAGGED = """
void main() {
    int r = MPI_Comm_rank();
    int x = 1;
    if (r == 0) {
        MPI_Bcast(x, 0);
    }
    MPI_Barrier();
}
"""


def find_calls(program, name):
    return [n for n in program.walk() if isinstance(n, A.Call) and n.name == name]


def test_cc_before_every_collective_of_flagged_function():
    _, program, report = instrumented_of(FLAGGED)
    ccs = find_calls(program, "PARCOACH_CC")
    # Bcast + Barrier + final return
    assert report.cc_calls == 2
    assert report.return_ccs == 1
    colors = [c.args[0].value for c in ccs]
    assert collective_color("MPI_Bcast") in colors
    assert collective_color("MPI_Barrier") in colors
    assert RETURN_COLOR in colors


def test_cc_immediately_precedes_collective():
    _, program, _ = instrumented_of(FLAGGED)
    func = program.func("main")
    then_stmts = [s for s in func.walk() if isinstance(s, A.If)][0].then_body.stmts
    assert isinstance(then_stmts[0], A.ExprStmt)
    assert then_stmts[0].expr.name == "PARCOACH_CC"
    assert then_stmts[1].expr.name == "MPI_Bcast"


def test_cc_before_explicit_return():
    src = """
void main() {
    int r = MPI_Comm_rank();
    if (r == 0) { MPI_Barrier(); }
    return;
}
"""
    _, program, report = instrumented_of(src)
    func = program.func("main")
    last_two = func.body.stmts[-2:]
    assert last_two[0].expr.name == "PARCOACH_CC"
    assert last_two[0].expr.args[0].value == RETURN_COLOR
    assert isinstance(last_two[1], A.Return)
    assert report.return_ccs == 1


def test_verified_program_untouched():
    src = "void main() { MPI_Barrier(); MPI_Barrier(); }"
    analysis, program, report = instrumented_of(src)
    assert analysis.verified
    assert report.total == 0
    assert pretty(program) == pretty(analysis.program)


def test_enter_exit_wrap_multithreaded_collective():
    src = """
void main() {
    #pragma omp parallel
    { MPI_Barrier(); }
}
"""
    _, program, report = instrumented_of(src)
    assert report.enter_checks == 1
    body = [s for s in program.walk() if isinstance(s, A.OmpParallel)][0].body.stmts
    names = [s.expr.name for s in body if isinstance(s, A.ExprStmt)]
    assert names == ["PARCOACH_ENTER", "PARCOACH_CC", "MPI_Barrier", "PARCOACH_EXIT"]


def test_concurrent_sites_share_group():
    src = """
void main() {
    float a = 1.0; float b = 0.0; int x = 1;
    #pragma omp parallel
    {
        #pragma omp single nowait
        { MPI_Reduce(a, b, "sum", 0); }
        #pragma omp single
        { MPI_Bcast(x, 0); }
    }
}
"""
    _, program, _ = instrumented_of(src)
    enters = find_calls(program, "PARCOACH_ENTER")
    groups = {c.args[0].value for c in enters}
    assert len(enters) == 2
    assert len(groups) == 1


def test_instrument_all_covers_clean_functions():
    src = "void main() { MPI_Barrier(); }"
    analysis = analyze_program(parse_program(src), instrument_all=True)
    _, report = instrument_program(analysis)
    assert report.cc_calls == 1
    assert report.return_ccs == 1


def test_original_ast_not_mutated_by_default():
    analysis = analyze_program(parse_program(FLAGGED))
    before = pretty(analysis.program)
    instrument_program(analysis)
    assert pretty(analysis.program) == before


def test_in_place_mutates():
    analysis = analyze_program(parse_program(FLAGGED))
    program, _ = instrument_program(analysis, in_place=True)
    assert program is analysis.program
    assert find_calls(analysis.program, "PARCOACH_CC")


def test_instrumented_program_reparses_and_rechecks():
    from repro.minilang.parser import parse_program as reparse
    from repro.minilang.semantics import check_program

    _, program, _ = instrumented_of(FLAGGED)
    text = pretty(program)
    reparsed = reparse(text)
    errors = [i for i in check_program(reparsed) if i.severity == "error"]
    assert errors == []


def test_instrumentation_preserves_clean_run_behaviour():
    src = """
void main() {
    float r = 1.0;
    float g = 0.0;
    for (int step = 0; step < 3; step += 1) {
        MPI_Allreduce(r, g, "sum");
    }
    print(g);
}
"""
    analysis = analyze_program(parse_program(src))
    assert not analysis.verified  # loop warning (conservative)
    program, _ = instrument_program(analysis)
    raw = run_program(parse_program(src), nprocs=2)
    inst = run_program(program, nprocs=2, group_kinds=analysis.group_kinds)
    assert raw.ok and inst.ok
    assert raw.outputs == inst.outputs
    assert inst.cc_calls > 0


def test_callee_of_flagged_function_instrumented():
    src = """
void sync_all() { MPI_Barrier(); }
void main() {
    int r = MPI_Comm_rank();
    if (r == 0) { sync_all(); }
}
"""
    analysis, program, report = instrumented_of(src)
    assert "sync_all" in report.per_function
    assert report.per_function["sync_all"] >= 2  # CC + return CC
