"""The DPOR driver against a brute-force trace enumeration.

:mod:`reference_traces` walks every schedule of a configuration with
unbounded DFS and names each run's Mazurkiewicz trace.  On every gallery
case, raw and instrumented, whose unbounded tree at nt=2 has at most 500
schedules, DPOR with an unbounded preemption budget must run exactly one
schedule per trace, cover every trace, and reach the same verdict classes.

``SMALL_TREES`` lists those cases, as enumerated with
``reference_traces.enumerate_traces(..., max_runs=500)`` over the whole
gallery; the other 28 (case, mode) trees are larger.
"""

import pytest

from repro import parse_program
from repro.bench import CASES
from repro.core import analyze_program, instrument_program
from repro.explore import ExploreConfig, explore_config

from reference_traces import enumerate_traces, run_key

SMALL_TREES = [
    (name, mode)
    for name in ("clean_masteronly", "balanced_if_fp",
                 "early_return_always_barrier", "rank_dependent_bcast",
                 "different_collectives_by_rank", "missing_barrier_one_rank",
                 "mismatch_through_call",
                 "interproc_conditional_collective_helper",
                 "funneled_violation", "single_level_in_parallel")
    for mode in ("raw", "instrumented")
]

UNBOUNDED = 10 ** 9


@pytest.mark.parametrize("name,mode", SMALL_TREES,
                         ids=[f"{n}-{m}" for n, m in SMALL_TREES])
def test_dpor_runs_each_trace_once(name, mode):
    case = CASES[name]
    program = parse_program(case.source, name)
    kinds = None
    if mode == "instrumented":
        analysis = analyze_program(program)
        program, _ = instrument_program(analysis)
        kinds = analysis.group_kinds
    config = ExploreConfig(nprocs=case.nprocs, num_threads=2,
                           instrument=mode == "instrumented")
    tree = enumerate_traces(program, config, kinds, max_runs=500)
    assert tree is not None, "the tree grew past 500 schedules"
    traces = {key: verdict for _, key, verdict in tree}

    report = explore_config(program, config, strategy="dpor", runs=10_000,
                            preemptions=UNBOUNDED, group_kinds=kinds,
                            minimize=False, collect_schedules=True)
    keys = [run_key(program, config, kinds, choices)[1]
            for choices in report.schedule_choices]
    assert len(keys) == len(set(keys)), "a trace ran twice"
    assert set(keys) == set(traces)
    assert set(report.verdict_counts) == set(traces.values())
