"""Interpreter tests: sequential semantics, OpenMP execution, MPI wiring,
simulated compute and time."""

import collections
import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_work import reference_work
from repro.minilang.parser import parse_program
from repro.minilang.semantics import check_program
from repro.runtime.interp import interpreter
from repro.runtime.interp.interpreter import WTIME_UNIT
from repro.runtime.simomp import Team
from tests.conftest import run_source


def outputs(src, nprocs=1, num_threads=2, **kw):
    result = run_source(src, nprocs=nprocs, num_threads=num_threads, **kw)
    assert result.ok, result.error
    return result


def test_arithmetic_and_print():
    r = outputs("""
void main() {
    int x = 2 + 3 * 4;
    float y = 10.0 / 4.0;
    print(x, y, x % 5, -x);
}
""")
    assert r.outputs[0] == ["14 2.5 4 -14"]


def test_c_style_integer_division():
    r = outputs("void main() { print(7 / 2, -7 / 2, 7 % 3, -7 % 3); }")
    assert r.outputs[0] == ["3 -3 1 -1"]


def test_control_flow_loops():
    r = outputs("""
void main() {
    int acc = 0;
    for (int i = 0; i < 5; i += 1) {
        if (i % 2 == 0) { acc += i; } else { continue; }
        if (acc > 5) { break; }
    }
    print(acc);
}
""")
    assert r.outputs[0] == ["6"]


def test_while_and_compound_assign():
    r = outputs("""
void main() {
    int x = 1;
    while (x < 100) { x *= 3; }
    print(x);
}
""")
    assert r.outputs[0] == ["243"]


def test_arrays():
    r = outputs("""
void main() {
    int a[4];
    for (int i = 0; i < 4; i += 1) { a[i] = i * i; }
    a[2] += 10;
    print(a[0], a[1], a[2], a[3]);
}
""")
    assert r.outputs[0] == ["0 1 14 9"]


def test_array_out_of_bounds_reported():
    result = run_source("void main() { int a[2]; a[5] = 1; }", nprocs=1)
    assert result.error is not None
    assert "out of bounds" in str(result.error)


def test_user_function_calls_and_recursion():
    r = outputs("""
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
void main() { print(fib(10)); }
""")
    assert r.outputs[0] == ["55"]


def test_builtins():
    r = outputs("void main() { print(abs(-3), min(2, 5), max(2, 5), mod(7, 4)); }")
    assert r.outputs[0] == ["3 2 5 3"]


def test_division_by_zero_reported():
    result = run_source("void main() { int x = 1 / 0; }", nprocs=1)
    assert result.error is not None
    assert "division by zero" in str(result.error)


def test_sqrt_keeps_the_values_math_sqrt_accepts():
    r = outputs("void main() { print(sqrt(16), sqrt(2.0), sqrt(0), "
                "sqrt(0.0 - 0.0)); }", nprocs=1)
    assert r.outputs[0] == [" ".join(str(math.sqrt(v))
                                     for v in (16, 2.0, 0, 0.0 - 0.0))]


def test_sqrt_of_a_negative_is_nan():
    r = outputs("""
void main() {
    int big = 0 - 1;
    for (int i = 0; i < 1100; i += 1) { big *= 2; }
    print(sqrt(0 - 1), sqrt(0.0 - 2.5), sqrt(big));
}
""", nprocs=1)
    assert r.outputs[0] == ["nan nan nan"]


def test_sqrt_of_an_int_past_the_float_range():
    # 2**1100 and 10**400 overflow a float, their roots do not; the root of
    # 3**(2**14) is past the float range too.
    r = outputs("""
void main() {
    int p = 1;
    for (int i = 0; i < 1100; i += 1) { p *= 2; }
    int t = 1;
    for (int i = 0; i < 400; i += 1) { t *= 10; }
    int x = 3;
    for (int i = 0; i < 14; i += 1) { x *= x; }
    print(sqrt(p), sqrt(t), sqrt(x));
}
""", nprocs=1)
    assert r.outputs[0] == [f"{float(2 ** 550)} 1e+200 inf"]


def test_mod_is_floor_modulo_and_percent_is_c_remainder():
    # mod takes the divisor's sign (Fortran's MODULO); % the dividend's.
    r = outputs("void main() { print(mod(-7, 4), mod(7, -4), -7 % 4); }",
                nprocs=1)
    assert r.outputs[0] == ["1 -1 -3"]


@pytest.mark.parametrize("stmt, printed", [
    ("print(x * 0.5);", "inf"),
    ("print(0.5 + x);", "inf"),
    ("print(0.5 - x);", "-inf"),
    ("print(x / 2.0, 2.0 / x);", "inf 0.0"),
    ("print(x % 2.5, 2.5 % x);", "nan 2.5"),
    ("float f = x * 1.0; print(f % 2.0);", "nan"),
    ("float y = 2.0; y *= x; print(y);", "inf"),
    ("float y = 2.0; y += x; print(y);", "inf"),
    ("float y = 2.0; y -= x; print(y);", "-inf"),
    ("float y = 2.0; y /= x; print(y);", "0.0"),
    ("print(mod(x, 2.5), mod(2.5, x));", "nan 2.5"),
], ids=["mul", "add", "sub", "div", "fmod", "fmod-inf", "mul-assign",
        "add-assign", "sub-assign", "div-assign", "mod"])
def test_float_arithmetic_on_an_int_past_the_float_range(stmt, printed):
    # x = 3**(2**14) is past the float range: as in C, it meets a float as
    # inf, and fmod of an infinity is nan.
    r = outputs(f"""
void main() {{
    int x = 3;
    for (int i = 0; i < 14; i += 1) {{ x *= x; }}
    {stmt}
}}
""", nprocs=1)
    assert r.outputs[0] == [printed]


def test_mod_by_zero_reported_like_the_operator():
    errors = {str(run_source(f"void main() {{ {decl} print({expr}); }}",
                             nprocs=1).error)
              for decl, expr in (("int a = 5;", "a % 0"),
                                 ("int a = 5;", "mod(a, 0)"),
                                 ("float a = 5.0;", "mod(a, 0.0)"))}
    assert errors == {"internal error on rank 0: InterpError('modulo by zero')"}


# -- OpenMP execution ---------------------------------------------------------------


def test_parallel_region_spawns_threads():
    r = outputs("""
void main() {
    int count = 0;
    #pragma omp parallel num_threads(4)
    {
        #pragma omp critical
        { count += 1; }
    }
    print(count);
}
""")
    assert r.outputs[0] == ["4"]


def test_omp_get_thread_num_and_num_threads():
    r = outputs("""
void main() {
    int seen[4];
    #pragma omp parallel num_threads(4)
    {
        int tid = omp_get_thread_num();
        seen[tid] = omp_get_num_threads();
    }
    print(seen[0], seen[1], seen[2], seen[3]);
}
""")
    assert r.outputs[0] == ["4 4 4 4"]


def test_single_executes_once():
    r = outputs("""
void main() {
    int count = 0;
    #pragma omp parallel num_threads(4)
    {
        #pragma omp single
        { count += 1; }
        #pragma omp single
        { count += 10; }
    }
    print(count);
}
""")
    assert r.outputs[0] == ["11"]


def test_master_only_tid0():
    r = outputs("""
void main() {
    int val = -1;
    #pragma omp parallel num_threads(3)
    {
        #pragma omp master
        { val = omp_get_thread_num(); }
    }
    print(val);
}
""")
    assert r.outputs[0] == ["0"]


def test_omp_for_covers_all_iterations():
    r = outputs("""
void main() {
    int hits[8];
    #pragma omp parallel num_threads(3)
    {
        #pragma omp for
        for (int i = 0; i < 8; i += 1) { hits[i] = hits[i] + 1; }
    }
    int total = 0;
    for (int j = 0; j < 8; j += 1) { total += hits[j]; }
    print(total);
}
""")
    assert r.outputs[0] == ["8"]


#: Canonical loops of every comparison, both step signs and float steps:
#: ``(type, start, test, bound, step)``; ``step`` is an ``+=``/``-=`` clause.
OMP_FOR_LOOPS = [
    (ty, start, test, bound, step)
    for test in ("<", "<=", ">", ">=")
    for start, bound in ((0, 7), (7, 0), (3, 3))
    for step in ("+= 2", "-= 2", "+= 1", "-= 3")
    for ty in ("int",)
] + [
    ("float", "0.0", "<", "1.0", "+= 0.25"),
    ("float", "1.0", ">=", "0.0", "-= 0.3"),
    ("float", "0.5", "<=", "2", "+= 0.5"),
    ("float", "2.0", ">", "0.0", "+= 0.5"),
]


def _loop_values(result):
    return sorted(float(line) for line in result.outputs[0])


@pytest.mark.parametrize("ty, start, test, bound, step", OMP_FOR_LOOPS)
def test_omp_for_iterates_like_the_sequential_loop(ty, start, test, bound, step):
    loop = f"for ({ty} i = {start}; i {test} {bound}; i {step})"
    sequential = run_source(f"""
void main() {{
    int n = 0;
    {loop} {{ print(i); n += 1; if (n > 20) {{ break; }} }}
}}
""", nprocs=1)
    endless = len(sequential.outputs[0]) > 20
    for nt in (1, 2, 3):
        parallel = run_source(f"""
void main() {{
    #pragma omp parallel for num_threads({nt})
    {loop} {{ print(i); }}
}}
""", nprocs=1)
        if endless:
            assert "omp for requires a canonical for loop" in str(parallel.error)
        else:
            assert parallel.ok, parallel.error
            assert _loop_values(parallel) == _loop_values(sequential), nt


def test_omp_for_int_iteration_space_is_a_range():
    # O(1) in the trip count: three million iterations cost no list.
    space = interpreter._iterations(0, "<", 3_000_000, 1)
    assert isinstance(space, range) and len(space) == 3_000_000
    assert interpreter._iterations(10, ">=", 1, -3) == range(10, 0, -3)
    assert list(interpreter._iterations(0.0, "<", 1.0, 0.5)) == [0.0, 0.5]


def test_omp_for_float_space_steps_each_chunk_lazily():
    # A million float iterations: each team thread's chunk holds the values
    # the sequential loop takes, rounding included, and nothing holds them
    # all.
    start, bound, step = 0.0, 100_000.0, 0.1

    def sequential():
        v = start
        while v < bound:
            yield v
            v += step

    team = Team(None, None, 3)
    tracemalloc.start()
    try:
        space = interpreter._iterations(start, "<", bound, step)
        chunks = [team.static_chunk(tid, len(space)) for tid in range(3)]
        for chunk in chunks:
            collections.deque(space[chunk.start:chunk.stop], maxlen=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert len(space) == 1_000_000
    stepped = itertools.chain.from_iterable(
        space[chunk.start:chunk.stop] for chunk in chunks)
    assert all(a == b for a, b in itertools.zip_longest(stepped, sequential()))


def test_omp_for_rejects_a_vanishing_float_step_before_any_iteration():
    r = run_source("""
void main() {
    #pragma omp parallel for num_threads(2)
    for (float i = 10000000000000000.0; i < 20000000000000000.0; i += 1) {
        print(i);
    }
}
""", nprocs=1)
    assert "omp for requires a canonical for loop" in str(r.error)
    assert r.outputs[0] == []


def test_continue_in_omp_for_skips_to_the_next_iteration():
    src = """
void main() {
    #pragma omp parallel for num_threads(3)
    for (int i = 0; i < 9; i += 1) {
        if (i % 3 == 0) { continue; }
        print(i);
    }
}
"""
    check_program(parse_program(src), strict=True)
    r = outputs(src, nprocs=1)
    assert sorted(int(x) for x in r.outputs[0]) == [1, 2, 4, 5, 7, 8]


RECURSION = """
int rec(int n) {
    if (n == 0) { return 0; }
    return rec(n - 1) + 1;
}
void main() {
    print(rec(%d));
}
"""


def _from_depth(frames, fn):
    return fn() if frames == 0 else _from_depth(frames - 1, fn)


@pytest.mark.parametrize("caller_frames", [0, 300])
def test_the_call_depth_limit_is_the_limit_that_applies(caller_frames):
    # main is one call deep, so rec(198) nests the 200 calls the limit
    # allows and rec(199) one more.
    deepest = _from_depth(caller_frames,
                          lambda: run_source(RECURSION % 198, nprocs=1))
    assert deepest.ok, deepest.error
    assert deepest.outputs[0] == ["198"]
    past = _from_depth(caller_frames,
                       lambda: run_source(RECURSION % 199, nprocs=1))
    assert "call depth exceeded in rec" in str(past.error)
    assert "RecursionError" not in str(past.error)


def test_parallel_for_combined_with_reduction_via_critical():
    r = outputs("""
void main() {
    int acc = 0;
    #pragma omp parallel for num_threads(4)
    for (int i = 0; i < 10; i += 1) {
        #pragma omp critical
        { acc += i; }
    }
    print(acc);
}
""")
    assert r.outputs[0] == ["45"]


def test_sections_each_executed_once():
    r = outputs("""
void main() {
    int a = 0;
    int b = 0;
    #pragma omp parallel num_threads(2)
    {
        #pragma omp sections
        {
            #pragma omp section
            {
                #pragma omp critical
                { a += 1; }
            }
            #pragma omp section
            {
                #pragma omp critical
                { b += 1; }
            }
        }
    }
    print(a, b);
}
""")
    assert r.outputs[0] == ["1 1"]


def test_private_clause_gives_thread_local_copies():
    r = outputs("""
void main() {
    int x = 100;
    #pragma omp parallel num_threads(4) private(x)
    {
        x = omp_get_thread_num();
    }
    print(x);
}
""")
    assert r.outputs[0] == ["100"]  # shared x untouched


def test_nested_parallel_regions_execute():
    r = outputs("""
void main() {
    int count = 0;
    #pragma omp parallel num_threads(2)
    {
        #pragma omp parallel num_threads(2)
        {
            #pragma omp critical
            { count += 1; }
        }
    }
    print(count);
}
""")
    assert r.outputs[0] == ["4"]


def test_task_runs_inline():
    r = outputs("""
void main() {
    int done = 0;
    #pragma omp parallel num_threads(2)
    {
        #pragma omp single
        {
            #pragma omp task
            { done = 1; }
        }
    }
    print(done);
}
""")
    assert r.outputs[0] == ["1"]


# -- MPI from minilang ------------------------------------------------------------------


def test_rank_size_and_bcast():
    r = outputs("""
void main() {
    int rank = MPI_Comm_rank();
    int size = MPI_Comm_size();
    int data = 0;
    if (rank == 0) { data = 42; }
    MPI_Bcast(data, 0);
    print(rank, size, data);
}
""", nprocs=3)
    assert r.outputs[0] == ["0 3 42"]
    assert r.outputs[2] == ["2 3 42"]


def test_allreduce_and_reduce():
    r = outputs("""
void main() {
    int rank = MPI_Comm_rank();
    float mine = rank + 1.0;
    float total = 0.0;
    MPI_Allreduce(mine, total, "sum");
    float best = 0.0;
    MPI_Reduce(mine, best, "max", 0);
    print(total, best);
}
""", nprocs=3)
    assert r.outputs[0] == ["6.0 3.0"]
    assert r.outputs[1] == ["6.0 0.0"]  # non-root keeps initial value


def test_gather_scatter_arrays():
    r = outputs("""
void main() {
    int rank = MPI_Comm_rank();
    int size = MPI_Comm_size();
    int buf[2];
    MPI_Gather(rank * 10, buf, 0);
    int part = -1;
    MPI_Scatter(buf, part, 0);
    print(part);
}
""", nprocs=2)
    assert r.outputs[0] == ["0"]
    assert r.outputs[1] == ["10"]


def test_scan():
    r = outputs("""
void main() {
    int rank = MPI_Comm_rank();
    int acc = 0;
    MPI_Scan(rank + 1, acc, "sum");
    print(acc);
}
""", nprocs=3)
    assert [r.outputs[i][0] for i in range(3)] == ["1", "3", "6"]


def test_sendrecv_ring():
    r = outputs("""
void main() {
    int rank = MPI_Comm_rank();
    int size = MPI_Comm_size();
    int right = mod(rank + 1, size);
    int left = mod(rank - 1 + size, size);
    int got = -1;
    MPI_Sendrecv(rank, right, 5, got, left, 5);
    print(got);
}
""", nprocs=3)
    assert [r.outputs[i][0] for i in range(3)] == ["2", "0", "1"]


def test_collective_inside_single_runs_clean():
    r = outputs("""
void main() {
    float x = 1.0;
    float y = 0.0;
    #pragma omp parallel num_threads(3)
    {
        #pragma omp single
        { MPI_Allreduce(x, y, "sum"); }
    }
    print(y);
}
""", nprocs=2, num_threads=3)
    assert r.outputs[0] == ["2.0"]


# -- simulated compute and time ---------------------------------------------------------

_LCG_A, _LCG_C = 1103515245, 12345


def _geometric_work(n):
    """``work(n)`` as the geometric sum c * (a**n - 1) / (a - 1) mod 2**32,
    an independent closed form for counts the reference loop cannot reach."""
    if n <= 0:
        return 0
    powered = pow(_LCG_A, n, (_LCG_A - 1) << 32)
    return _LCG_C * ((powered - 1) // (_LCG_A - 1)) % (1 << 32)


def _printed_work(n):
    return int(outputs(f"void main() {{ print(work({n})); }}",
                       nprocs=1).outputs[0][0])


def test_work_builtin_is_deterministic():
    r = outputs("void main() { print(work(10) == work(10), work(10)); }")
    assert r.outputs[0] == [f"True {reference_work(10)}"]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-10, max_value=20000))
@example(0)
@example(1)
@example(20000)
def test_work_equals_the_loop_it_replaces(n):
    assert _printed_work(n) == reference_work(n) == _geometric_work(n)


def test_work_at_counts_past_the_loop():
    assert _printed_work(10**6) == reference_work(10**6)
    # The LCG has full period 2**32 (c odd, a - 1 divisible by 4).
    assert _printed_work(2**32) == 0
    assert _printed_work(2**32 + 1) == reference_work(1)
    assert _printed_work(2**31) == _geometric_work(2**31)


def test_work_of_a_huge_count_returns_at_once():
    start = time.perf_counter()
    value = _printed_work(10**18)
    assert time.perf_counter() - start < 1.0
    assert value == _geometric_work(10**18)


def test_wtime_reads_the_compute_clock():
    r = outputs("""
void main() {
    MPI_Init();
    float t0 = MPI_Wtime();
    work(20000);
    float t1 = MPI_Wtime();
    work(-5);
    print(t0, t1, MPI_Wtime() - t1);
    MPI_Finalize();
}
""", nprocs=2)
    for rank in (0, 1):
        assert r.outputs[rank] == [f"0.0 {20000 * WTIME_UNIT} 0.0"]


def test_wtime_past_the_float_range_reads_inf():
    r = outputs("""
void main() {
    int x = 3;
    for (int i = 0; i < 14; i += 1) { x *= x; }
    work(x);
    print(MPI_Wtime());
}
""", nprocs=1)
    assert r.outputs[0] == ["inf"]


def test_team_workers_start_at_the_spawner_clock_and_never_join_it():
    r = outputs("""
void main() {
    MPI_Init_thread(3);
    work(1000);
    #pragma omp parallel num_threads(3)
    {
        int t = omp_get_thread_num();
        work(t * 500);
        #pragma omp barrier
        #pragma omp critical
        {
            print(t, MPI_Wtime());
        }
    }
    print(MPI_Wtime());
    MPI_Finalize();
}
""", nprocs=1, num_threads=3)
    lines = r.outputs[0]
    assert sorted(lines[:3]) == [f"{t} {(1000 + t * 500) * WTIME_UNIT}"
                                 for t in range(3)]
    assert lines[3] == f"{1000 * WTIME_UNIT}"


WTIME_PROGRAM = """
void main() {
    MPI_Init();
    int r = MPI_Comm_rank();
    print(work(1000000000000));
    float t0 = MPI_Wtime();
    work(r * 20000 + 7);
    print(t0, MPI_Wtime() - t0);
    MPI_Finalize();
}
"""


def test_wtime_output_is_identical_across_runs_and_processes(tmp_path):
    first = outputs(WTIME_PROGRAM, nprocs=2).outputs
    assert outputs(WTIME_PROGRAM, nprocs=2).outputs == first
    assert first[0] != first[1]
    path = tmp_path / "wtime.mc"
    path.write_text(WTIME_PROGRAM)
    src = Path(__file__).resolve().parents[1] / "src"
    runs = [subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", str(path), "-np", "2"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)}) for _ in range(2)]
    assert [p.returncode for p in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    printed = [line for line in runs[0].stdout.splitlines()
               if line.startswith("[rank")]
    assert printed == [f"[rank {rank}] {line}"
                       for rank in (0, 1) for line in first[rank]]
