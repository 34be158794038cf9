"""Dynamic partial-order reduction tests: the soundness property (DPOR
visits a subset of the bounded-DFS schedules yet finds the identical
verdict set), the headline reduction on the seeded racy gallery case, the
byte-identical parallel frontier (``--jobs``), footprint commutativity,
trace v1/v2 compatibility, random-strategy dedupe, the wall-clock budget,
sweeps over values too large for ``repr``, runs that end only when
every logical thread has detached, and simulated compute that moves no
schedule."""

import hashlib
import json
import os
import threading

import pytest

from repro import parse_program
from repro.core import analyze_program, instrument_program
from repro.bench.errors_gallery import (
    CASES,
    interprocedural_cases,
    schedule_sensitive_cases,
)
from repro.explore import (
    DporStrategy,
    ExploreConfig,
    RunRecord,
    ScheduleTrace,
    ScriptedStrategy,
    conflicts,
    explore_config,
    replay,
    verdict_line,
)
from repro.explore.footprint import (
    WILDCARD,
    footprint_from_list,
    footprint_to_list,
)
from repro.runtime.interp import interpreter

PROPERTY_CASES = sorted(set(schedule_sensitive_cases())
                        | set(interprocedural_cases()))


def _program(name):
    return parse_program(CASES[name].source, name)


def _explore(name, strategy, **kwargs):
    case = CASES[name]
    config = ExploreConfig(nprocs=case.nprocs, num_threads=case.num_threads)
    kwargs.setdefault("runs", 5000)
    kwargs.setdefault("preemptions", 1)
    kwargs.setdefault("minimize", False)
    return explore_config(_program(name), config, strategy=strategy, **kwargs)


# -- the soundness property --------------------------------------------------------


@pytest.mark.parametrize("name", PROPERTY_CASES)
def test_dpor_schedules_subset_of_dfs_with_identical_verdicts(name):
    dfs = _explore(name, "dfs", collect_schedules=True)
    dpor = _explore(name, "dpor", collect_schedules=True)
    # The DFS sweep must have exhausted the bounded tree, otherwise the
    # subset comparison would be against a truncated baseline.
    assert dfs.schedules < 5000
    assert set(dpor.schedule_choices) <= set(dfs.schedule_choices)
    assert set(dpor.verdict_counts) == set(dfs.verdict_counts)
    assert (dpor.failed > 0) == (dfs.failed > 0)


def test_dpor_verdicts_on_instrumented_interproc_recursive_barrier():
    """The instrumented program under a preemption bound of 1, where a
    branch that puts a thread to sleep may not afford the trace the sleeper
    stands for.  The class set is pinned from a bounded DFS of the same
    tree (22,068 schedules before DFS stopped branching at the abort)."""
    program = _program("interproc_recursive_barrier")
    analysis = analyze_program(program)
    instrumented, _ = instrument_program(analysis)
    config = ExploreConfig(nprocs=2, num_threads=2, instrument=True)
    dpor = explore_config(instrumented, config, strategy="dpor", runs=5000,
                          preemptions=1, group_kinds=analysis.group_kinds,
                          minimize=False)
    assert dpor.schedules < 5000
    assert set(dpor.verdict_counts) == {
        "ConcurrentCollectiveError", "DeadlockError", "ThreadContextError",
        "clean"}


def test_no_sweep_runs_a_schedule_twice():
    """The explore-dpor sweeps: the gallery raw and instrumented at nt=3,
    ``runs=100``, ``preemptions=2``."""
    repeats = {}
    for name, case in CASES.items():
        program = _program(name)
        analysis = analyze_program(program)
        instrumented, _ = instrument_program(analysis)
        for mode, prog, kinds in (
                ("raw", program, None),
                ("instrumented", instrumented, analysis.group_kinds)):
            config = ExploreConfig(nprocs=case.nprocs, num_threads=3,
                                   instrument=mode == "instrumented")
            report = explore_config(prog, config, strategy="dpor", runs=100,
                                    preemptions=2, group_kinds=kinds,
                                    minimize=False, collect_schedules=True)
            choices = report.schedule_choices
            repeats[name, mode] = len(choices) - len(set(choices))
    assert len(repeats) == 48
    assert sum(repeats.values()) == 0, {
        key: n for key, n in repeats.items() if n}


def test_dpor_reduction_on_racy_single_worker_allreduce_nt3():
    """The ISSUE's headline: ≥ 10× fewer schedules at nt=3, same verdicts."""
    program = _program("racy_single_worker_allreduce")
    config = ExploreConfig(nprocs=2, num_threads=3)
    dfs = explore_config(program, config, strategy="dfs", runs=5000,
                         preemptions=1, minimize=False)
    dpor = explore_config(program, config, strategy="dpor", runs=5000,
                          preemptions=1, minimize=False)
    assert dfs.schedules < 5000
    assert set(dpor.verdict_counts) == set(dfs.verdict_counts)
    assert "DeadlockError" in dpor.verdict_counts
    assert dfs.schedules >= 10 * dpor.schedules
    assert dpor.dpor_stats is not None
    assert dpor.dpor_stats["independent_skips"] > 0


def test_dpor_summary_reports_pruning():
    report = _explore("racy_single_worker_allreduce", "dpor")
    assert "dpor: pushed" in report.summary()
    assert "independent" in report.summary()


# -- parallel frontier -------------------------------------------------------------


def test_dpor_jobs_output_is_byte_identical_to_serial():
    # One parse: construct uids embedded in decision points are a
    # per-parse counter, and the comparison is on verbatim trace text.
    program = _program("racy_single_worker_allreduce")
    config = ExploreConfig(nprocs=2, num_threads=2)

    def snapshot(jobs):
        r = explore_config(program, config, strategy="dpor", runs=5000,
                           preemptions=1, minimize=False, jobs=jobs,
                           collect_schedules=True)
        return (r.schedules, dict(r.verdict_counts), r.dpor_stats,
                r.schedule_choices,
                [(f.index, f.verdict, f.trace.choices) for f in r.failures],
                r.summary())

    serial = snapshot(1)
    assert snapshot(2) == serial
    assert snapshot(3) == serial


# -- footprints --------------------------------------------------------------------


def test_footprint_commutativity_relation():
    r = frozenset({("mbox:r1", "r")})
    w = frozenset({("mbox:r1", "w")})
    other = frozenset({("mbox:r2", "w")})
    arrive = frozenset({("comm", "c:MPI_Barrier")})
    arrive2 = frozenset({("comm", "c:MPI_Bcast")})
    assert not conflicts(r, r)            # read/read commutes
    assert conflicts(r, w)                # read/write on one object races
    assert conflicts(w, w)
    assert not conflicts(w, other)        # distinct objects commute
    assert not conflicts(arrive, arrive)  # same-op arrivals commute
    assert conflicts(arrive, arrive2)     # different collectives race
    assert conflicts(WILDCARD, r)         # unknown steps conflict with all
    assert not conflicts(frozenset(), WILDCARD)  # pure-local steps never do


def test_footprint_list_roundtrip():
    fp = frozenset({("claim:r0u3", "w"), ("bar:r0", "c:arrive")})
    assert footprint_from_list(footprint_to_list(fp)) == fp


# -- trace format compatibility ----------------------------------------------------


def test_v2_trace_carries_footprints_and_fingerprints(tmp_path):
    report = _explore("racy_single_worker_allreduce", "dpor")
    trace = report.failures[0].trace
    data = trace.to_dict()
    assert data["version"] == 2
    assert any("f" in c for c in data["choices"])
    path = tmp_path / "t.json"
    trace.save(str(path))
    loaded = ScheduleTrace.load(str(path))
    assert loaded.choices == trace.choices
    assert loaded.step_footprints == trace.step_footprints


def test_written_traces_carry_no_state_fingerprints():
    report = _explore("racy_single_worker_allreduce", "dpor")
    data = report.failures[0].trace.to_dict()
    assert data["version"] == 2
    assert not any("sf" in c for c in data["choices"])


def test_v2_trace_with_state_fingerprints_replays():
    """A DPOR failure trace written when traces still carried the state
    fingerprint ``sf`` (version 2, where it was optional)."""
    path = os.path.join(os.path.dirname(__file__), "traces",
                        "racy_single_worker_allreduce_v2_sf.json")
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    assert data["version"] == 2
    assert sum("sf" in c for c in data["choices"]) == 6
    trace = ScheduleTrace.from_dict(data)
    result, _, divergences = replay(_program("racy_single_worker_allreduce"),
                                    trace)
    assert divergences == 0
    assert verdict_line(result) == trace.verdict
    assert trace.verdict_class == "DeadlockError"


def test_v1_trace_replays_under_v2_reader():
    report = _explore("racy_single_worker_allreduce", "dpor")
    trace = report.failures[0].trace
    data = trace.to_dict()
    # Rewrite as the v1 schema: no footprint / fingerprint keys.
    data["version"] = 1
    for choice in data["choices"]:
        choice.pop("f", None)
        choice.pop("sf", None)
    old = ScheduleTrace.from_dict(json.loads(json.dumps(data)))
    assert old.choices == trace.choices
    result, _, divergences = replay(_program("racy_single_worker_allreduce"),
                                    old)
    assert divergences == 0
    assert verdict_line(result) == trace.verdict


# -- random dedupe and budget ------------------------------------------------------


def test_random_strategy_resamples_duplicates():
    report = _explore("racy_single_worker_allreduce", "random",
                      runs=40, seed=7)
    assert report.schedules == 40          # duplicates never eat the quota
    assert report.duplicates_skipped > 0
    assert "duplicates resampled" in report.summary()
    assert "DeadlockError" in report.verdict_counts


def test_budget_zero_stops_early_with_partial_summary():
    report = _explore("racy_single_worker_allreduce", "dfs", budget=0.0)
    assert report.budget_exhausted
    assert report.schedules <= 1
    assert "budget exhausted (partial)" in report.summary()


def test_budget_allows_clean_partial_dpor_sweep():
    report = _explore("interproc_recursive_barrier", "dpor", budget=0.0)
    assert report.budget_exhausted
    assert "budget exhausted (partial)" in report.summary()


# -- driver-level invariants -------------------------------------------------------


def test_dpor_driver_wave_order_is_independent_of_wave_size():
    """The FIFO driver expands nodes in push order whatever the wave size —
    exercised here without any scheduler, over canned records."""
    program = _program("racy_flag_guarded_barrier")
    case = CASES["racy_flag_guarded_barrier"]
    config = ExploreConfig(nprocs=case.nprocs, num_threads=case.num_threads)

    from repro.explore.explore import _dpor_worker

    def sweep(wave_size):
        driver = DporStrategy(preemption_bound=1)
        order = []

        def execute_wave(prefixes):
            records = []
            for prefix in prefixes:
                order.append(tuple(prefix))
                _, record = _dpor_worker(
                    (program, config, None, prefix, 1))
                records.append(record)
            return records

        for _ in driver.explore(execute_wave, max_runs=64,
                                wave_size=wave_size):
            pass
        return order, driver.stats.as_dict()

    assert sweep(1) == sweep(4)


def test_run_record_is_picklable():
    import pickle

    program = _program("racy_single_worker_allreduce")
    config = ExploreConfig(nprocs=2, num_threads=2)
    from repro.explore.dpor import Node
    from repro.explore.explore import _dpor_worker
    trace, record = _dpor_worker((program, config, None, Node(()), 1))
    blob = pickle.dumps((trace, record))
    trace2, record2 = pickle.loads(blob)
    assert record2.events == record.events
    assert isinstance(record2, RunRecord)


# -- values past repr's digit limit ------------------------------------------------

_BIG_VALUE_PROGRAM = """void main() {
    MPI_Init_thread(3);
    int r = MPI_Comm_rank();
    int x = 3;
    for (int i = 0; i < 14; i += 1) { x *= x; }
    #pragma omp parallel num_threads(2)
    {
        #pragma omp single
        {
            %s
        }
    }
    MPI_Finalize();
}
"""


@pytest.mark.parametrize("op", [
    "MPI_Bcast(x, 0);",
    "if (r == 0) { MPI_Send(x, 1, 0); } else { MPI_Recv(x, 0, 0); }",
], ids=["collective-payload", "queued-message"])
def test_dpor_sweeps_values_past_the_repr_digit_limit(op):
    """``x`` has 7,818 digits.  Hashing an open round's payload or a queued
    message with a plain ``repr`` raised inside a scheduling decision, lost
    the token and hung the sweep.  Both bounded trees hold more than 20
    traces, so the sweep runs 20 schedules, each a trace of its own."""
    from reference_traces import run_key

    program = parse_program(_BIG_VALUE_PROGRAM % op, "big.mc")
    config = ExploreConfig(nprocs=2, num_threads=2)
    reports = []
    sweep = threading.Thread(target=lambda: reports.append(explore_config(
        program, config, strategy="dpor", runs=20, minimize=False,
        collect_schedules=True)), daemon=True)
    sweep.start()
    sweep.join(timeout=60)
    assert reports, "the DPOR sweep hung"
    assert reports[0].schedules == 20
    assert dict(reports[0].verdict_counts) == {"clean": 20}
    assert len({run_key(program, config, None, choices)[1]
                for choices in reports[0].schedule_choices}) == 20


# -- a scheduled run ends when its last logical thread detaches --------------------


def _barrier_in_parallel_sweep(**kwargs):
    program = _program("barrier_in_parallel")
    config = ExploreConfig(nprocs=CASES["barrier_in_parallel"].nprocs,
                           num_threads=3)
    return program, config, explore_config(
        program, config, strategy="dpor", runs=100, preemptions=2,
        minimize=False, collect_schedules=True, **kwargs)


def _report_snapshot(report):
    return (report.schedules, dict(report.verdict_counts), report.dpor_stats,
            report.schedule_choices,
            [(f.index, f.verdict, f.trace.choices) for f in report.failures],
            report.summary())


@pytest.fixture(scope="module")
def barrier_sweep():
    """One serial sweep of a case whose runs abort inside a parallel
    region, leaving team workers to unwind after their rank returned."""
    return _barrier_in_parallel_sweep()


def test_run_returns_only_after_every_logical_thread_detached(barrier_sweep):
    from repro.explore.explore import _run_with_scheduler
    from repro.explore.sched import Scheduler

    program, config, report = barrier_sweep
    aborted = 0
    for choices in report.schedule_choices[:30]:
        _, trace, scheduler = _run_with_scheduler(
            program, config, Scheduler(ScriptedStrategy(list(choices))),
            None, None, "full")
        assert not scheduler._threads
        assert trace.choices == scheduler.decisions
        aborted += scheduler.abort_decision is not None
    assert aborted > 10


def test_dpor_sweeps_repeat_exactly_in_one_process(barrier_sweep):
    _, _, first = barrier_sweep
    _, _, second = _barrier_in_parallel_sweep()
    assert first.failed > 0
    assert _report_snapshot(second) == _report_snapshot(first)


def test_dpor_jobs_matches_serial_when_runs_abort_in_parallel_regions(
        barrier_sweep):
    _, _, serial = barrier_sweep
    _, _, pooled = _barrier_in_parallel_sweep(jobs=2)
    assert _report_snapshot(pooled) == _report_snapshot(serial)


# -- simulated compute moves no schedule ---------------------------------------------


WORK_CASES = sorted(name for name, case in CASES.items()
                    if "work(" in case.source)


def _work_case_sweeps():
    out = []
    for name in WORK_CASES:
        case = CASES[name]
        program = _program(name)
        analysis = analyze_program(program)
        instrumented, _ = instrument_program(analysis)
        for mode, prog, kinds in (
                ("raw", program, None),
                ("instrumented", instrumented, analysis.group_kinds)):
            config = ExploreConfig(nprocs=case.nprocs, num_threads=3,
                                   instrument=mode == "instrumented")
            r = explore_config(prog, config, strategy="dpor", runs=40,
                               preemptions=2, group_kinds=kinds,
                               collect_schedules=True)
            out.append((name, mode, r.schedules,
                        sorted(r.verdict_counts.items()), r.dpor_stats,
                        r.schedule_choices, r.summary()))
    return out


def test_closed_form_work_sweeps_like_the_loop(monkeypatch):
    from reference_work import reference_work_builtin

    assert len(WORK_CASES) == 5
    shipped = _work_case_sweeps()
    monkeypatch.setitem(interpreter._BUILTIN_IMPL, "work",
                        reference_work_builtin)
    assert _work_case_sweeps() == shipped


WTIME_GUARDED_BARRIER = """
void main() {
    MPI_Init_thread(3);
    int r = MPI_Comm_rank();
    #pragma omp parallel num_threads(2)
    {
        #pragma omp single
        {
            work(r * 20000);
            if (MPI_Wtime() > 0.001) {
                MPI_Barrier();
            }
        }
    }
    MPI_Finalize();
}
"""


def test_wtime_guarded_collective_has_one_verdict_in_every_schedule():
    program = parse_program(WTIME_GUARDED_BARRIER, "wtime_barrier.mc")
    config = ExploreConfig(nprocs=2, num_threads=2)

    def sweep():
        r = explore_config(program, config, strategy="dpor", runs=200,
                           preemptions=2, minimize=False,
                           collect_schedules=True)
        return _report_snapshot(r)

    first = sweep()
    schedules, verdicts = first[0], first[1]
    assert schedules > 1
    assert list(verdicts) == ["DeadlockError"]
    assert sweep() == first


# -- the 48 gallery sweeps, pinned ----------------------------------------------------


def gallery_sweep_lines():
    """What CI's "DPOR sweeps repeat exactly" step prints: for each gallery
    case, raw and instrumented (nt=3, runs=100, preemptions=2), the first
    16 hex digits of the SHA-256 of the sweep's schedules, verdict counts,
    ``dpor_stats``, schedule choices and summary."""
    lines = []
    for name, case in CASES.items():
        program = parse_program(case.source, f"{name}.mc")
        analysis = analyze_program(program)
        instrumented, _ = instrument_program(analysis)
        for mode, prog, kinds in (
                ("raw", program, None),
                ("instrumented", instrumented, analysis.group_kinds)):
            config = ExploreConfig(nprocs=case.nprocs, num_threads=3,
                                   instrument=mode == "instrumented")
            r = explore_config(prog, config, strategy="dpor", runs=100,
                               preemptions=2, group_kinds=kinds,
                               collect_schedules=True)
            blob = repr((r.schedules, sorted(r.verdict_counts.items()),
                         r.dpor_stats, r.schedule_choices, r.summary()))
            lines.append(f"{name} {mode} "
                         f"{hashlib.sha256(blob.encode()).hexdigest()[:16]}")
    return lines


#: SHA-256 of :func:`gallery_sweep_lines` joined by newlines, computed with
#: the runtime that ran logical threads on OS threads (carriers and token
#: locks), which generators replaced with every sweep unchanged.  A change
#: that moves a sweep re-pins it with a CHANGES.md line naming the sweeps
#: and why they moved.
SWEEP_DIGEST = "62bf9d8a9ec835bb73a2930738c1ac3f175fe44bd46a1ab3014fd19e5e39ad30"


def test_gallery_sweeps_match_pinned_digest():
    lines = gallery_sweep_lines()
    assert len(lines) == 48
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SWEEP_DIGEST
