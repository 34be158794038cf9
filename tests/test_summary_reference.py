"""The collective summaries read the call index and the driver's CFGs.

* Each statement's calls, read off the program index, equal as a multiset
  the expression scan the summaries ran before
  (``tests/reference_summaries.py``); the task-deferred calls found from
  the CFG's ``task`` blocks equal, on live code, the whole-function walk's.
  The programs: the five Figure 1 sources, scale XL, calltree D32 and the
  24 gallery cases (the analyze-cold set), fuzz seeds 0-199, the 20
  stride-mutant seeds after them, and hand-written cases for what the fuzz
  grammar does not emit (tasks, calls in ``num_threads``).
* A SHA-256 over the Report IR of those programs, pinned from the tree
  whose summaries walked every expression and built CFGs of their own.
* ``build_cfg`` is counted where the driver, the call graph and the CFG
  module bind it: one build per function per analysis, none for a CFG the
  caller passed, one per function per fuzz-oracle seed for both modes.
"""

import hashlib
from collections import Counter

import pytest

import repro.cfg.build
import repro.core.callgraph
import repro.core.driver
from reference_summaries import calls_in_exprs, task_walk_uids
from repro.bench import CASES, benchmark_sources
from repro.bench.scale import (CALLTREE_SIZES, SCALE_SIZES,
                               make_calltree_program, make_scale_program)
from repro.cfg import build_cfg, build_program_cfgs
from repro.core import analyze_program
from repro.core.callgraph import (_calls_by_stmt, _deferred_uids,
                                  collective_summaries)
from repro.core.report import render_json, report_from_analysis
from repro.core.sites import index_program
from repro.fuzz import OracleConfig, program_for_seed
from repro.fuzz.campaign import checked_program_for_seed
from repro.fuzz.oracle import run_oracle_checked
from repro.minilang import ast_nodes as A
from repro.minilang.parser import parse_program

#: Nested tasks, a task after a ``return``, and calls in an ``omp for``
#: condition, in ``num_threads(...)``, in another call's arguments and in
#: a ``return`` value.
HAND_WRITTEN = """
int helper(int x) {
    MPI_Barrier();
    return x + 1;
}

int twice(int x) {
    return x * 2;
}

int nested_tasks(int n) {
    #pragma omp parallel num_threads(2)
    {
        #pragma omp single
        {
            #pragma omp task
            {
                int a = helper(n);
                #pragma omp task
                {
                    helper(twice(a));
                    MPI_Bcast(a, 0);
                }
            }
        }
    }
    return n;
}

int task_after_return(int n) {
    if (n > 0) {
        return helper(n);
    }
    return twice(n);
    #pragma omp task
    {
        helper(n);
        MPI_Barrier();
    }
}

void calls_in_expressions(int n) {
    #pragma omp parallel num_threads(twice(1))
    {
        #pragma omp for
        for (int i = helper(0); i < twice(helper(n)); i += helper(1)) {
            helper(twice(helper(i)));
        }
    }
    while (helper(n) < 3) {
        n = twice(n) + 1;
    }
}

int returns_a_call(int n) {
    return helper(twice(n)) + twice(helper(n));
}

void omp_for_condition(int n) {
    #pragma omp parallel
    {
        #pragma omp for
        for (int i = 0; i < twice(helper(n)); i += 1) {
            n = n + 1;
        }
    }
}

void main() {
    MPI_Init_thread(3);
    int r = MPI_Comm_rank();
    nested_tasks(r);
    task_after_return(r);
    calls_in_expressions(r);
    print(returns_a_call(r));
    omp_for_condition(r);
    MPI_Finalize();
}
"""

#: ``collective_summaries`` of ``HAND_WRITTEN``, as the summaries that
#: scanned every statement's expressions computed them.
HAND_WRITTEN_SUMMARIES = {
    "helper": {"MPI_Barrier": "always"},
    "twice": {},
    "nested_tasks": {"MPI_Barrier": "conditional",
                     "MPI_Bcast": "conditional"},
    "task_after_return": {"MPI_Barrier": "conditional"},
    "calls_in_expressions": {"MPI_Barrier": "always"},
    "returns_a_call": {"MPI_Barrier": "always"},
    "omp_for_condition": {"MPI_Barrier": "always"},
    "main": {"MPI_Barrier": "always", "MPI_Bcast": "conditional",
             "MPI_Finalize": "always"},
}

#: ``analyze_program`` keyword arguments of the digest's three modes.
MODES = {
    "interprocedural": {},
    "intraprocedural": {"interprocedural": False},
    "counting": {"precision": "counting"},
}

#: SHA-256 of ``_analysis_digest()``, pinned at the tree whose summaries
#: scanned every statement's expressions and built CFGs of their own
#: (commit 238f8e7).  A change that means to move an analysis answer
#: re-pins it and says so in CHANGES.md.
ANALYSIS_DIGEST = "93fff132413b237cfaa7dd8c9a1ce9db9ed840f607d53a732e951debc95cd63b"


def _analyze_cold_sources():
    sources = dict(benchmark_sources())
    sources["scale-XL"] = make_scale_program(**SCALE_SIZES["XL"])
    sources["calltree-D32"] = make_calltree_program(**CALLTREE_SIZES["D32"])
    sources.update((f"gallery/{k}", c.source) for k, c in CASES.items())
    return sources


def _reference_sources():
    sources = _analyze_cold_sources()
    sources.update((f"seed {s}", program_for_seed(s))
                   for s in list(range(200)) + list(range(203, 283, 4)))
    sources["hand-written"] = HAND_WRITTEN
    return sources


@pytest.fixture(scope="module")
def programs():
    return {name: parse_program(source, f"{name}.mc")
            for name, source in _reference_sources().items()}


def _anchored(name, index):
    """(call, anchor uids) for every call of function ``name``."""
    return ([(s.expr, (s.uid,)) for s in index.call_stmts[name]]
            + [(s.call, s.stmt_uids) for s in index.expr_calls[name]])


def test_index_call_lists_equal_the_expression_scan(programs):
    statements = calls = 0
    for name, program in programs.items():
        index = index_program(program)
        for func in program.funcs:
            calls_at = _calls_by_stmt(func.name, index)
            scanned = {}
            for node in func.walk():
                if isinstance(node, A.Stmt):
                    statements += 1
                    found = calls_in_exprs(node)
                    if found:
                        scanned[node.uid] = Counter(map(id, found))
            assert {uid: Counter(map(id, found))
                    for uid, found in calls_at.items()} == scanned, \
                (name, func.name)
            calls += sum(map(len, calls_at.values()))
    assert statements > 10_000 and calls > 2_000


def test_cfg_task_lookup_equals_the_walk_on_live_calls(programs):
    for name, program in programs.items():
        deferred_live = dead_in_tasks = 0
        index = index_program(program)
        for func, (cfg, ast_block) in zip(program.funcs,
                                          build_program_cfgs(program).values()):
            walked = task_walk_uids(func)
            found = _deferred_uids(cfg)
            for call, uids in _anchored(func.name, index):
                block = next((ast_block[u] for u in uids if u in ast_block),
                             None)
                live = block is not None and block in cfg.blocks
                assert (call.uid in found) == (live and call.uid in walked), \
                    (name, func.name, call.name, call.line)
                deferred_live += call.uid in found
                dead_in_tasks += call.uid in walked and not live
        if name == "hand-written":
            # Both sides reached: four calls in live (nested) tasks, and
            # two in a task after a return, which only the walk finds.
            assert (deferred_live, dead_in_tasks) == (4, 2)


def test_hand_written_summaries_match_the_expression_scan():
    program = parse_program(HAND_WRITTEN, "hand-written.mc")
    for cfgs in (None, build_program_cfgs(program)):
        summaries = collective_summaries(program, cfgs=cfgs)
        assert ({n: s.collectives for n, s in summaries.items()}
                == HAND_WRITTEN_SUMMARIES)


def test_summaries_on_the_drivers_cfgs_equal_the_lazy_ones(programs):
    for name, program in programs.items():
        index = index_program(program)
        lazy = collective_summaries(program, index=index)
        shared = collective_summaries(program, index=index,
                                      cfgs=build_program_cfgs(program))
        assert list(lazy) == list(shared) == [f.name for f in program.funcs]
        assert ({n: s.collectives for n, s in lazy.items()}
                == {n: s.collectives for n, s in shared.items()}), name


def _analysis_digest():
    digest = hashlib.sha256()

    def render(name, source, mode):
        program = parse_program(source, f"{name}.mc")
        analysis = analyze_program(program, **MODES[mode])
        digest.update(render_json(report_from_analysis(
            analysis, source_path=f"{name}.mc",
            source_text=source)).encode())

    for name, source in _analyze_cold_sources().items():
        for mode in MODES:
            render(name, source, mode)
    for seed in range(200):
        source = program_for_seed(seed)
        for mode in ("interprocedural", "intraprocedural"):
            render(f"seed {seed}", source, mode)
    return digest.hexdigest()


def test_analysis_reports_match_pinned_digest():
    assert _analysis_digest() == ANALYSIS_DIGEST


@pytest.fixture
def cfg_builds(monkeypatch):
    """Names of the functions whose CFG is built while the test runs."""
    names = []

    def counting(func, user_funcs=None):
        names.append(func.name)
        return build_cfg(func, user_funcs)

    for module in (repro.cfg.build, repro.core.driver, repro.core.callgraph):
        monkeypatch.setattr(module, "build_cfg", counting)
    return names


@pytest.mark.parametrize("mode", ["interprocedural", "intraprocedural"])
def test_analyze_program_builds_one_cfg_per_function(cfg_builds, mode):
    for name, source in _analyze_cold_sources().items():
        program = parse_program(source, f"{name}.mc")
        cfg_builds.clear()
        analyze_program(program, **MODES[mode])
        assert sorted(cfg_builds) == sorted(f.name for f in program.funcs), \
            name


def test_given_cfgs_are_kept_and_only_the_missing_ones_built(cfg_builds):
    source = make_calltree_program(**CALLTREE_SIZES["D8"])
    program = parse_program(source, "calltree-D8.mc")
    full = render_json(report_from_analysis(analyze_program(program)))
    given = build_program_cfgs(program)
    for func in program.funcs[::2]:
        del given[func.name]
    cfg_builds.clear()
    analysis = analyze_program(program, cfgs=given)
    assert cfg_builds == [f.name for f in program.funcs[::2]]
    for name, (cfg, ast_block) in given.items():
        assert analysis.functions[name].cfg is cfg
        assert analysis.functions[name].ast_block is ast_block
    assert render_json(report_from_analysis(analysis)) == full


def test_fuzz_oracle_builds_one_cfg_per_function_per_seed(cfg_builds):
    for seed in range(40):
        _source, program = checked_program_for_seed(seed)
        cfg_builds.clear()
        run_oracle_checked(program, OracleConfig())
        assert sorted(cfg_builds) == sorted(f.name for f in program.funcs), \
            seed
