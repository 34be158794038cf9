"""Semantic checker tests: scoping, arity, OpenMP nesting legality."""

import pytest

from repro.minilang.parser import parse_program
from repro.minilang.semantics import SemanticError, check_program


def errors_of(src):
    return {i.code for i in check_program(parse_program(src)) if i.severity == "error"}


def warnings_of(src):
    return {i.code for i in check_program(parse_program(src)) if i.severity == "warning"}


def test_clean_program_has_no_issues():
    src = """
void helper(int a) { int b = a + 1; print(b); }
void main() { helper(3); }
"""
    assert check_program(parse_program(src)) == []


def test_undeclared_variable():
    assert "UNDECLARED" in errors_of("void f() { x = 1; }")


def test_duplicate_variable_same_scope():
    assert "DUP_VAR" in errors_of("void f() { int x = 1; int x = 2; }")


def test_shadowing_in_inner_scope_allowed():
    assert errors_of("void f() { int x = 1; { int x = 2; print(x); } }") == set()


def test_duplicate_function():
    assert "DUP_FUNC" in errors_of("void f() { } void f() { }")


def test_duplicate_parameter():
    assert "DUP_PARAM" in errors_of("void f(int a, int a) { }")


def test_unknown_function():
    assert "UNKNOWN_FUNC" in errors_of("void f() { nosuch(); }")


def test_user_function_arity():
    assert "ARITY" in errors_of("void g(int a) { } void f() { g(); }")


def test_mpi_collective_arity():
    assert "ARITY" in errors_of("void f() { MPI_Barrier(1); }")
    assert "ARITY" in errors_of("void f() { int x = 0; MPI_Bcast(x); }")


def test_break_outside_loop():
    assert "BREAK_OUTSIDE" in errors_of("void f() { break; }")


def test_continue_outside_loop():
    assert "CONTINUE_OUTSIDE" in errors_of("void f() { continue; }")


def test_break_inside_loop_ok():
    assert errors_of("void f() { while (true) { break; } }") == set()


def test_void_function_returning_value():
    assert "RET_VALUE" in errors_of("void f() { return 3; }")


def test_nonvoid_function_returning_nothing():
    assert "RET_MISSING" in errors_of("int f() { return; }")


def test_strict_mode_raises():
    with pytest.raises(SemanticError):
        check_program(parse_program("void f() { x = 1; }"), strict=True)


def test_strict_mode_ignores_warnings():
    src = """
void f() {
    #pragma omp parallel
    {
        #pragma omp single
        {
            #pragma omp task
            { print(1); }
        }
    }
}
"""
    assert check_program(parse_program(src), strict=True) is not None


# -- OpenMP nesting rules --------------------------------------------------------


def test_barrier_inside_single_illegal():
    src = """
void f() {
    #pragma omp parallel
    {
        #pragma omp single
        {
            #pragma omp barrier
        }
    }
}
"""
    assert "BARRIER_NESTING" in errors_of(src)


def test_barrier_inside_master_illegal():
    src = """
void f() {
    #pragma omp parallel
    {
        #pragma omp master
        {
            #pragma omp barrier
        }
    }
}
"""
    assert "BARRIER_NESTING" in errors_of(src)


def test_barrier_directly_in_parallel_legal():
    src = """
void f() {
    #pragma omp parallel
    {
        #pragma omp barrier
    }
}
"""
    assert "BARRIER_NESTING" not in errors_of(src)


def test_single_inside_single_illegal():
    src = """
void f() {
    #pragma omp parallel
    {
        #pragma omp single
        {
            #pragma omp single
            { print(1); }
        }
    }
}
"""
    assert "WORKSHARE_NESTING" in errors_of(src)


def test_for_inside_master_illegal():
    src = """
void f() {
    #pragma omp parallel
    {
        #pragma omp master
        {
            #pragma omp for
            for (int i = 0; i < 4; i += 1) { }
        }
    }
}
"""
    assert "WORKSHARE_NESTING" in errors_of(src)


def test_nested_parallel_then_single_legal():
    src = """
void f() {
    #pragma omp parallel
    {
        #pragma omp single
        {
            #pragma omp parallel
            {
                #pragma omp single
                { print(1); }
            }
        }
    }
}
"""
    assert "WORKSHARE_NESTING" not in errors_of(src)


def test_return_inside_omp_region_illegal():
    src = """
void f() {
    #pragma omp parallel
    {
        return;
    }
}
"""
    assert "RETURN_IN_OMP" in errors_of(src)


def test_break_out_of_omp_for_illegal():
    src = """
void f() {
    #pragma omp parallel
    {
        #pragma omp for
        for (int i = 0; i < 4; i += 1) { break; }
    }
}
"""
    assert "BREAK_OUTSIDE" in errors_of(src)


def test_continue_in_omp_for_legal():
    src = """
void f() {
    #pragma omp parallel
    {
        #pragma omp for
        for (int i = 0; i < 4; i += 1) {
            if (i == 2) { continue; }
            while (true) { break; }
        }
    }
}
"""
    assert errors_of(src) == set()


def test_break_in_sequential_loop_inside_region_legal():
    src = """
void f() {
    #pragma omp parallel
    {
        while (true) { break; }
    }
}
"""
    assert errors_of(src) == set()


def test_task_emits_model_warning():
    src = """
void f() {
    #pragma omp parallel
    {
        #pragma omp single
        {
            #pragma omp task
            { print(1); }
        }
    }
}
"""
    assert "TASK_MODEL" in warnings_of(src)


def test_clause_with_undeclared_variable():
    src = """
void f() {
    #pragma omp parallel private(nope)
    { }
}
"""
    assert "UNDECLARED" in errors_of(src)


def test_instrumented_builtins_accepted():
    src = """
void f() {
    PARCOACH_CC(1, "MPI_Barrier", 3);
    PARCOACH_ENTER(1, "x");
    PARCOACH_EXIT(1);
}
"""
    assert errors_of(src) == set()
