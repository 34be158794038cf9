"""Schedule-exploration subsystem tests: deterministic cooperative runs,
trace record/replay, virtual-clock deadlock detection, DFS/random
exploration of the seeded interleaving-dependent gallery bugs, trace
minimization, and the ``parcoach explore`` CLI."""

import json
import threading

import pytest

from repro import analyze_program, instrument_program, parse_program
from repro.bench.errors_gallery import CASES, schedule_sensitive_cases
from repro.explore import sched
from repro.explore import (
    Decision,
    DefaultStrategy,
    ExploreConfig,
    RandomStrategy,
    ScheduleTrace,
    ScriptedStrategy,
    ddmin,
    dfs_prefixes,
    explore_config,
    replay,
    run_scheduled,
    verdict_line,
)
from repro.runtime.errors import CollectiveMismatchError, DeadlockError


def _program(name):
    return parse_program(CASES[name].source, name)


def _instrumented(name):
    analysis = analyze_program(_program(name))
    program, _ = instrument_program(analysis)
    return program, analysis.group_kinds


CFG22 = ExploreConfig(nprocs=2, num_threads=2)


# -- deterministic scheduled execution ---------------------------------------------


def test_scheduled_run_is_deterministic():
    program = _program("concurrent_singles_nowait")
    runs = [run_scheduled(program, CFG22, RandomStrategy(seed=2))
            for _ in range(3)]
    verdicts = {trace.verdict for _, trace in runs}
    choice_seqs = {tuple(trace.choice_names) for _, trace in runs}
    histories = {tuple(result.history) for result, _ in runs}
    assert len(verdicts) == len(choice_seqs) == len(histories) == 1


def test_default_strategy_prefers_running_thread():
    strategy = DefaultStrategy()
    assert strategy.choose(0, ("r0", "r1"), "r1", "x") == "r1"
    assert strategy.choose(0, ("r0", "r1"), None, "x") == "r0"
    assert strategy.choose(0, ("r0", "r1"), "r9", "x") == "r0"


def test_scheduled_clean_program_matches_threaded_semantics():
    program = _program("clean_masteronly")
    result, trace = run_scheduled(program, CFG22)
    assert result.ok, result.error
    assert [op for op, _ in result.history] == [
        "MPI_Bcast", "MPI_Allreduce", "MPI_Barrier", "MPI_Finalize"]
    assert trace.verdict == "clean"


def test_scheduled_run_with_critical_sections():
    src = """
void main() {
    MPI_Init_thread(3);
    int total = 0;
    #pragma omp parallel num_threads(3)
    {
        #pragma omp critical
        {
            total = total + 1;
        }
    }
    print(total);
    MPI_Finalize();
}
"""
    program = parse_program(src, "critical")
    result, _ = run_scheduled(program, ExploreConfig(nprocs=1, num_threads=3))
    assert result.ok, result.error
    assert result.outputs[0] == ["3"]


# -- virtual-clock deadlock detection ----------------------------------------------


def test_structural_deadlock_reported_immediately_with_wait_state():
    src = """
void main() {
    MPI_Init_thread(0);
    int x = 0;
    int rank = MPI_Comm_rank();
    if (rank == 1) {
        MPI_Recv(x, 0, 9);
    }
}
"""
    program = parse_program(src, "recvhang")
    result, _ = run_scheduled(program, CFG22)
    assert isinstance(result.error, DeadlockError)
    assert "every logical thread is blocked" in str(result.error)
    assert "MPI_Recv" in str(result.error)
    # No wall-clock timeout involved: detection is instant.
    assert result.elapsed < 2.0


def test_collective_deadlock_detected_without_wall_timeout():
    program = _program("rank_dependent_bcast")
    result, _ = run_scheduled(program, CFG22)
    assert isinstance(result.error, DeadlockError)
    assert result.elapsed < 2.0


def test_livelock_ends_at_the_step_budget(monkeypatch):
    """Every rank keeps entering collectives, so no wait ever blocks for
    long; the run's one step budget still ends it."""
    src = """
void main() {
    MPI_Init_thread(0);
    int i = 0;
    while (i >= 0) {
        MPI_Barrier();
        i = i + 1;
    }
}
"""
    monkeypatch.setattr(sched, "DEFAULT_STEP_BUDGET", 5000)
    program = parse_program(src, "livelock")
    results = []
    runner = threading.Thread(
        target=lambda: results.append(run_scheduled(program, CFG22)[0]),
        daemon=True)
    runner.start()
    runner.join(30)
    assert not runner.is_alive(), "the step budget did not end the livelock"
    error = results[0].error
    assert isinstance(error, DeadlockError)
    message = str(error)
    assert "step budget of 5,000 scheduling steps exhausted" in message
    assert "running: " in message and "blocked: " in message


# -- trace record / replay ----------------------------------------------------------


@pytest.mark.parametrize("name", ["concurrent_singles_nowait",
                                  "racy_single_worker_allreduce",
                                  "racy_flag_guarded_barrier",
                                  "sections_two_collectives"])
@pytest.mark.parametrize("seed", [0, 1, 7, 23, 40])
def test_replay_of_recorded_run_reproduces_everything(name, seed):
    """replay(record(run)) gives identical verdicts, engine history and
    outputs — for clean and failing schedules alike."""
    program = _program(name)
    result, trace = run_scheduled(program, CFG22, RandomStrategy(seed))
    replayed, new_trace, divergences = replay(program, trace)
    assert divergences == 0
    assert verdict_line(replayed) == trace.verdict
    assert new_trace.choice_names == trace.choice_names
    assert replayed.history == result.history
    assert replayed.outputs == result.outputs


def test_trace_json_roundtrip(tmp_path):
    program = _program("racy_single_worker_allreduce")
    _, trace = run_scheduled(program, CFG22, RandomStrategy(3))
    path = tmp_path / "t.json"
    trace.save(str(path))
    loaded = ScheduleTrace.load(str(path))
    assert loaded.choice_names == trace.choice_names
    assert loaded.verdict == trace.verdict
    assert loaded.config == trace.config
    assert loaded.mode == "full"
    data = json.loads(path.read_text())
    assert data["version"] == 2
    assert all(set(c) >= {"i", "p", "r", "c"} for c in data["choices"])
    # v2 carries the executed step footprint for every decision.
    assert all("f" in c for c in data["choices"])


def test_trace_rejects_unknown_version():
    with pytest.raises(ValueError):
        ScheduleTrace.from_dict({"version": 99})


# -- exploration strategies ---------------------------------------------------------


def test_dfs_enumerates_distinct_schedules():
    program = _program("racy_single_worker_allreduce")
    seen = set()

    def run_fn(prefix):
        _, trace = run_scheduled(program, CFG22, ScriptedStrategy(prefix))
        seen.add(tuple(trace.choice_names))
        return trace.choices

    runs = 0
    for runs in dfs_prefixes(run_fn, max_runs=40, preemption_bound=1):
        pass
    assert runs == 40
    assert len(seen) == 40  # every executed schedule is distinct


def test_dfs_preemption_bound_zero_explores_forced_branches_only():
    program = _program("racy_single_worker_allreduce")

    def run_fn(prefix):
        _, trace = run_scheduled(program, CFG22, ScriptedStrategy(prefix))
        return trace.choices

    for _ in dfs_prefixes(run_fn, max_runs=500, preemption_bound=0):
        pass
    # With no preemptions allowed, only forced-switch alternatives branch,
    # so the space stays small (but is > 1: blocked-thread choices remain).


def test_random_strategy_respects_preemption_bound():
    strategy = RandomStrategy(seed=1, preemption_bound=0)
    for i in range(20):
        assert strategy.choose(i, ("a", "b", "c"), "b", "x") == "b"


def test_scripted_strategy_counts_divergences():
    strategy = ScriptedStrategy(["ghost", "b"])
    assert strategy.choose(0, ("a", "b"), "a", "x") == "a"  # fallback: current
    assert strategy.divergences == 1
    assert strategy.choose(1, ("a", "b"), "a", "x") == "b"  # scripted hit
    assert strategy.choose(2, ("a", "b"), None, "x") == "a"  # exhausted
    assert strategy.divergences == 1


# -- the acceptance scenario --------------------------------------------------------


def test_explore_finds_interleaving_bug_the_default_schedule_misses():
    """The PR's core claim: a seeded interleaving-dependent mismatch that
    the default schedule misses is found by bounded DFS, and the minimized
    failing trace replays to the same verdict byte for byte."""
    case = CASES["racy_single_worker_allreduce"]
    program = _program(case.name)

    # One default-schedule run misses the bug entirely.
    default_result, _ = run_scheduled(program, CFG22)
    assert default_result.ok

    report = explore_config(program, CFG22, strategy="dfs", runs=100,
                            preemptions=1)
    assert report.failed > 0, "exploration must expose the mismatch"
    assert report.clean > 0, "the bug is schedule-dependent, not constant"
    assert all(f.verdict_class in {e.__name__ for e in case.raw_errors}
               for f in report.failures)

    assert report.minimized is not None
    first = report.failures[0]
    assert len(report.minimized.choices) <= len(first.trace.choices)

    replayed, _, _ = replay(program, report.minimized)
    assert verdict_line(replayed) == report.minimized.verdict  # byte-for-byte


def test_instrumented_cc_fires_on_every_failing_interleaving():
    """Exploration proves the paper's CC check catches the mismatch *before*
    the deadlock on every interleaving, not just the lucky one."""
    program, group_kinds = _instrumented("racy_single_worker_allreduce")
    report = explore_config(program, CFG22, strategy="dfs", runs=100,
                            preemptions=1, group_kinds=group_kinds,
                            minimize=False)
    assert report.failed > 0
    for failure in report.failures:
        assert failure.verdict_class == "CollectiveMismatchError"
        assert failure.detected_by == "CC"


def test_racy_flag_case_is_schedule_sensitive_both_ways():
    case = CASES["racy_flag_guarded_barrier"]
    program = _program(case.name)
    report = explore_config(program, CFG22, strategy="dfs", runs=120,
                            preemptions=2, minimize=False)
    assert report.clean > 0 and report.failed > 0
    allowed = {e.__name__ for e in case.raw_errors}
    assert {f.verdict_class for f in report.failures} <= allowed


def test_random_exploration_finds_the_seeded_bugs_too():
    for name in schedule_sensitive_cases():
        program = _program(name)
        report = explore_config(program, CFG22, strategy="random", runs=30,
                                preemptions=3, seed=0, minimize=False)
        assert report.failed > 0, f"{name}: random sampling found nothing"


# -- minimization -------------------------------------------------------------------


def test_ddmin_shrinks_to_relevant_suffix():
    # The "bug" needs 'x' and 'y' present in order.
    def failing(seq):
        seq = list(seq)
        return "x" in seq and "y" in seq and seq.index("x") < seq.index("y")

    out = ddmin(failing, ["a", "x", "b", "c", "y", "d"])
    assert out == ["x", "y"]


def test_ddmin_empty_when_default_fails():
    assert ddmin(lambda seq: True, ["a", "b", "c"]) == []


# -- CLI ----------------------------------------------------------------------------


def _write_case(tmp_path, name):
    path = tmp_path / f"{name}.mc"
    path.write_text(CASES[name].source)
    return str(path)


def test_cli_explore_summarizes_and_saves_minimized_trace(tmp_path, capsys):
    from repro.cli import main

    source = _write_case(tmp_path, "racy_single_worker_allreduce")
    trace_path = tmp_path / "min.trace.json"
    rc = main(["explore", source, "--strategy", "dfs", "--preemptions", "1",
               "--runs", "60", "--save-trace", str(trace_path)])
    out = capsys.readouterr()
    assert rc == 1
    assert "schedules — clean" in out.out
    assert "minimized:" in out.out
    assert "mismatch in" in out.err
    assert trace_path.exists()

    rc = main(["explore", source, "--replay", str(trace_path)])
    replay_out = capsys.readouterr()
    assert rc == 1
    assert "reproduced" in replay_out.err


def test_cli_explore_clean_program_exits_zero(tmp_path, capsys):
    from repro.cli import main

    source = _write_case(tmp_path, "clean_masteronly")
    rc = main(["explore", source, "--strategy", "dfs", "--runs", "20"])
    out = capsys.readouterr()
    assert rc == 0
    assert "clean in all" in out.err


def test_cli_replay_honors_recorded_instrument_flag(tmp_path, capsys):
    """A trace recorded on the instrumented program replays against the
    instrumented program even without --instrument on the command line."""
    from repro.cli import main

    source = _write_case(tmp_path, "racy_single_worker_allreduce")
    trace_path = tmp_path / "inst.trace.json"
    rc = main(["explore", source, "--instrument", "--strategy", "dfs",
               "--preemptions", "1", "--runs", "60",
               "--save-trace", str(trace_path)])
    capsys.readouterr()
    assert rc == 1 and trace_path.exists()

    rc = main(["explore", source, "--replay", str(trace_path)])
    out = capsys.readouterr()
    assert rc == 1  # reproduced (a diverged replay would exit 2)
    assert "reproduced" in out.err
    assert "CollectiveMismatchError" in out.err


def test_cli_no_minimize_still_saves_failing_trace(tmp_path, capsys):
    from repro.cli import main

    source = _write_case(tmp_path, "racy_single_worker_allreduce")
    trace_path = tmp_path / "full.trace.json"
    rc = main(["explore", source, "--strategy", "dfs", "--preemptions", "1",
               "--runs", "60", "--no-minimize", "--save-trace",
               str(trace_path)])
    out = capsys.readouterr()
    assert rc == 1
    assert trace_path.exists()
    assert "failing trace saved" in out.err

    rc = main(["explore", source, "--replay", str(trace_path)])
    replay_out = capsys.readouterr()
    assert rc == 1
    assert "reproduced" in replay_out.err


def test_random_strategy_preemption_zero_is_enforced_in_runs():
    """preemptions=0 with the random strategy must actually bound voluntary
    switches (regression: 0 used to be treated as unbounded)."""
    program = _program("racy_single_worker_allreduce")
    for seed in range(10):
        _, trace = run_scheduled(
            program, CFG22, RandomStrategy(seed=seed, preemption_bound=0))
        assert not any(d.preemptive for d in trace.choices)


def test_cli_explore_cross_products_configs(tmp_path, capsys):
    from repro.cli import main

    source = _write_case(tmp_path, "clean_masteronly")
    rc = main(["explore", source, "--runs", "5", "-np", "2,3", "-nt", "1,2",
               "--no-minimize"])
    out = capsys.readouterr()
    assert rc == 0
    assert out.out.count("schedules — clean") == 4
