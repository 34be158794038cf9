"""The compiled interpreter against the tree-walker it replaced.

:mod:`reference_interp` keeps the tree-walking interpreter, and
``reference_runtime()`` runs every program, sweep and fuzz oracle on it.
On the gallery, every ``tests/corpus`` program and fuzz seeds 0-199 the
compiled interpreter must give the same outputs, return values, verdict
lines, collective histories, check counters, choice sequences and the
footprint of every executed event, run by run.  Both runtimes run the
same program object, so AST uids (which name claims in footprints) agree.
"""

import copy
import os
import pickle

import pytest

from repro.bench import CASES
from repro.core import analyze_program, instrument_program
from repro.explore import DefaultStrategy, ExploreConfig, Scheduler, explore_config
from repro.explore import trace as trace_module
from repro.explore.trace import verdict_line
from repro.fuzz.campaign import checked_program_for_seed
from repro.fuzz.oracle import OracleConfig
from repro.fuzz.reduce import load_corpus
from repro.minilang.parser import parse_program
from repro.runtime import run_program
from repro.runtime.interp import interpreter

from reference_interp import reference_runtime

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


def default_run(program, config, kinds):
    """Everything one default-schedule run shows."""
    scheduler = Scheduler(DefaultStrategy())
    result = run_program(program, nprocs=config.nprocs,
                         num_threads=config.num_threads,
                         thread_level=config.thread_level, group_kinds=kinds,
                         entry=config.entry, scheduler=scheduler)
    return (verdict_line(result), result.outputs, result.returns,
            result.history, result.cc_calls, result.enter_checks,
            scheduler.decisions, scheduler.events,
            scheduler.decision_event_index, scheduler.abort_decision,
            scheduler.ready_at_abort)


def dpor_sweep(program, config, kinds, runs, preemptions, monkeypatch):
    """A DPOR sweep's report and the events of each of its runs."""
    events = []
    record = trace_module.ScheduleTrace.record.__func__

    def recording(cls, scheduler, *args, **kwargs):
        events.append((tuple(scheduler.decisions), tuple(scheduler.events)))
        return record(cls, scheduler, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(trace_module.ScheduleTrace, "record",
                      classmethod(recording))
        r = explore_config(program, config, strategy="dpor", runs=runs,
                           preemptions=preemptions, group_kinds=kinds,
                           collect_schedules=True)
    return (r.schedules, sorted(r.verdict_counts.items()), r.dpor_stats,
            r.schedule_choices, r.summary(),
            [f.trace.to_json() for f in r.failures],
            r.minimized.to_json() if r.minimized else None, events)


def both(observe, *args):
    """``observe(*args)`` on the compiled interpreter, then on the
    reference; the two must be equal."""
    compiled = observe(*args)
    with reference_runtime():
        reference = observe(*args)
    assert compiled == reference
    return compiled


@pytest.mark.parametrize("name", sorted(CASES))
def test_gallery_runs_like_the_tree_walker(name, monkeypatch):
    case = CASES[name]
    program = parse_program(case.source, f"{name}.mc")
    analysis = analyze_program(program)
    instrumented, _ = instrument_program(analysis)
    for prog, kinds in ((program, None), (instrumented, analysis.group_kinds)):
        for nt in (1, 2, 3):
            config = ExploreConfig(nprocs=case.nprocs, num_threads=nt,
                                   instrument=kinds is not None)
            both(default_run, prog, config, kinds)
            both(dpor_sweep, prog, config, kinds, 12, 2, monkeypatch)


@pytest.mark.parametrize("entry", load_corpus(CORPUS_DIR),
                         ids=lambda entry: entry["name"])
def test_corpus_runs_like_the_tree_walker(entry, monkeypatch):
    oracle = OracleConfig.from_dict(entry["oracle_config"])
    program = parse_program(entry["source"], entry["name"])
    config = ExploreConfig(nprocs=oracle.nprocs,
                           num_threads=oracle.num_threads,
                           thread_level=oracle.thread_level)
    both(default_run, program, config, None)
    analysis = analyze_program(program)
    instrument_program(analysis, in_place=True)
    config = ExploreConfig(nprocs=oracle.nprocs,
                           num_threads=oracle.num_threads,
                           thread_level=oracle.thread_level, instrument=True)
    both(default_run, program, config, analysis.group_kinds)
    both(dpor_sweep, program, config, analysis.group_kinds,
         oracle.explore_runs, oracle.explore_preemptions, monkeypatch)


@pytest.mark.parametrize("first", range(0, 200, 25))
def test_fuzz_seeds_run_like_the_tree_walker(first, monkeypatch):
    """What the fuzz oracle runs: the raw default schedule, then the
    program instrumented in place and its 12-run DPOR sweep."""
    oracle = OracleConfig()
    raw = ExploreConfig(nprocs=oracle.nprocs, num_threads=oracle.num_threads,
                        thread_level=oracle.thread_level)
    inst = ExploreConfig(nprocs=oracle.nprocs, num_threads=oracle.num_threads,
                         thread_level=oracle.thread_level, instrument=True)
    for seed in range(first, first + 25):
        _, program = checked_program_for_seed(seed)
        analysis = analyze_program(program)
        both(default_run, program, raw, None)
        instrument_program(analysis, in_place=True)
        both(dpor_sweep, program, inst, analysis.group_kinds,
             oracle.explore_runs, oracle.explore_preemptions, monkeypatch)


def test_in_place_instrumentation_recompiles():
    case = CASES["barrier_in_parallel"]
    program = parse_program(case.source, "barrier_in_parallel.mc")
    config = ExploreConfig(nprocs=case.nprocs, num_threads=3)
    raw = default_run(program, config, None)
    code = program._code
    assert default_run(program, config, None) == raw
    assert program._code is code  # a second run reuses the code
    analysis = analyze_program(program)
    instrument_program(analysis, in_place=True)
    config = ExploreConfig(nprocs=case.nprocs, num_threads=3, instrument=True)
    instrumented = both(default_run, program, config, analysis.group_kinds)
    assert program._code is not code
    assert instrumented[4] > raw[4] == 0  # CC checks ran
    assert instrumented[0] != raw[0]


def test_a_builtin_patched_before_the_first_run_takes_effect(monkeypatch):
    source = "void main() { print(1, 2); }"
    monkeypatch.setitem(interpreter._BUILTIN_IMPL, "print",
                        lambda rt, ctx, args: rt.proc.output.append(
                            f"patched {args}"))
    result = run_program(parse_program(source), nprocs=1)
    assert result.outputs[0] == ["patched [1, 2]"]


def test_a_copied_or_pickled_program_compiles_afresh():
    case = CASES["nested_parallel_single"]
    program = parse_program(case.source, "nested_parallel_single.mc")
    config = ExploreConfig(nprocs=case.nprocs, num_threads=2)
    ran = default_run(program, config, None)
    for twin in (copy.deepcopy(program), pickle.loads(pickle.dumps(program))):
        assert getattr(twin, "_code", None) is None
        assert default_run(twin, config, None) == ran
