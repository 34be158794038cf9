"""Tests of the end-to-end benchmark harness (fast: smoke runs send three
requests each)."""

import itertools
import json
import signal
import threading
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import e2e_workloads
from compare import failed_more, verdict
from e2e_core import (BENCHMARK, REFERENCE_NS, SpeedProbe, Tally,
                      metric_units, percentile)
from e2e_trace import Tracer, _covered, layer_metrics
from e2e_workloads import (REFERENCE_SEED, WORKLOADS, AnalyzeCold,
                           ExploreDpor, ProjectEdit, Recorder, fill_budget,
                           inputs_digest, run_workload, seeded_passes,
                           verify_inputs)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile(list(range(1, 11)), 0.9) == 9
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile([7.0], 0.9) == 7.0
    # Weighted: 1 weighs as much as 2 and 3 together.
    assert percentile([1.0, 2.0, 3.0], 0.5, [1.0, 0.5, 0.5]) == 1.0
    assert percentile([1.0, 2.0, 3.0], 0.6, [1.0, 0.5, 0.5]) == 2.0
    thirds = [1 / 3] * 9
    assert percentile(list(range(1, 10)), 0.9, thirds) == 9
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_failed_requests_counted_once_whether_raised_or_wrong():
    tally = Tally()
    rec = Recorder(tally, None)

    def boom():
        raise RuntimeError("injected")

    _, raised = rec.timed(lambda: 42)
    rec.record(not raised, "a")             # right answer
    _, raised = rec.timed(lambda: 41)
    rec.record(not raised and False, "b")   # wrong answer
    _, raised = rec.timed(boom)
    rec.record(not raised, "c")             # raised
    assert raised
    assert (tally.attempted, tally.failed) == (3, 2)
    assert len(tally.latencies_ns) == len(tally.probes_ns) == 3


def test_failed_request_misses_every_latency_limit():
    def run(a_ms, a_ok):
        tally = Tally()
        for key, ms, ok in (("a", 10, True), ("a", a_ms, a_ok),
                            ("a", 12, True), ("b", 2, True), ("b", 2, True),
                            ("b", 3, True)):
            tally.record(ms * 1_000_000, ok, key)
        return tally

    # "a" fails fast once: its time is left out of the key's median, and
    # the failure counts as the whole run, 11 + 1 + 11 + 2 + 2 + 2 = 29 ms.
    failing = run(1, False)
    assert failing.failed == 1
    assert failing.normalized_ms() == [11.0, None, 11.0, 2.0, 2.0, 2.0]
    assert failing.counted_ms() == [11.0, 29.0, 11.0, 2.0, 2.0, 2.0]
    metrics = failing.latency_metrics()
    assert metrics["latency_p90_ms"] == 29.0
    # Served: 5 requests of weight 1/3; busy: 6 of them, 57 ms, over 3.
    assert metrics["throughput_rps"] == pytest.approx((5 / 3) / 0.019)
    assert failing.samples_beyond(0.5) == 3
    # The same run answering right (in 11 ms) is faster on every metric.
    clean = run(11, True).latency_metrics()
    assert clean["latency_p50_ms"] <= metrics["latency_p50_ms"]
    assert clean["latency_p90_ms"] < metrics["latency_p90_ms"]
    assert clean["throughput_rps"] > metrics["throughput_rps"]


def test_speed_probe_samples_inside_the_interval():
    before = signal.getsignal(signal.SIGALRM)
    speed = SpeedProbe()
    speed.start()
    start = time.perf_counter_ns()
    deadline = time.perf_counter() + 0.1
    while time.perf_counter() < deadline:
        sum(range(1000))
    elapsed = time.perf_counter_ns() - start
    inside = speed.inside_ns
    speed.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(speed.probes) > 2 * 8  # the end probes and some inside
    assert 0 < inside < elapsed
    assert speed.at_reference_speed(elapsed) == pytest.approx(
        (elapsed - inside) * REFERENCE_NS / speed.mean_ns)


def test_latency_is_normalized_and_median_over_repeats():
    tally = Tally()
    # (key, measured ms, probe as a multiple of the reference time)
    for key, ms, slow in (("a", 5, 1), ("b", 2, 2), ("a", 3, 1),
                          ("b", 9, 1), ("a", 8, 2), ("c", 7, 1)):
        tally.record(ms * 1_000_000, True, key, slow * REFERENCE_NS)
    # a: 5, 3, 4 -> median 4; b: 1, 9 -> median 5; c: 7.
    assert tally.normalized_ms() == [4.0, 5.0, 4.0, 5.0, 4.0, 7.0]
    # Each key weighs the same, however often it was sent: the metrics
    # are those of one request per key, 4, 5 and 7 ms.
    metrics = tally.latency_metrics()
    assert metrics["latency_p50_ms"] == 5.0
    assert metrics["latency_p90_ms"] == 7.0
    assert metrics["throughput_rps"] == pytest.approx(3 / 0.016)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_input_digest_depends_on_seed_only(name):
    assert inputs_digest(name, 7) == inputs_digest(name, 7)
    assert inputs_digest(name, 7) != inputs_digest(name, 8)
    verify_inputs(name)  # the pinned digest matches the generators


def test_changed_workload_refuses_to_run(monkeypatch):
    monkeypatch.setattr(AnalyzeCold, "generate",
                        classmethod(lambda cls: {"only": "void main() {}"}))
    with pytest.raises(e2e_workloads.WorkloadChanged,
                       match="workload changed"):
        verify_inputs("analyze-cold")


def test_self_time_on_synthetic_span_tree():
    tracer = Tracer()
    tracer.begin_request(0)                 # harness [0, 100]
    a = tracer.open("a", 10)                # a [10, 60]
    b = tracer.open("b", 20)                # b [20, 30], child of a
    tracer.close(b, 30)

    def rank_thread():                      # c [25, 40]: empty stack, so
        c = tracer.open("c", 25)            # its parent is a
        tracer.close(c, 40)

    worker = threading.Thread(target=rank_thread)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.close(a, 60)
    tracer.end_request(100)
    self_ns, incl_ns, count = tracer.self_times()
    # a's children cover the union [20, 40], not 10 + 15.
    assert self_ns == {"harness": 50, "a": 30, "b": 10, "c": 15}
    assert incl_ns["a"] == 50 and count == {"harness": 1, "a": 1, "b": 1,
                                            "c": 1}
    # Request 0's probes took twice the reference time: its times halve.
    assert tracer.self_times([0.5])[0] == {"harness": 25, "a": 15, "b": 5,
                                           "c": 7.5}
    assert _covered([(5, 15), (10, 20), (30, 50)], 0, 40) == 25


def test_benchmark_json_matches_the_harness():
    spec = json.loads(BENCHMARK.read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert set(layer_metrics(Tracer(), Tally(), {})) == set(
        metric_units("per_layer"))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_compare_rule():
    parent = [100.0 + (i % 3) for i in range(10)]
    assert verdict(parent, [90.0 + (i % 3) for i in range(10)],
                   "lower", 0.1) == "improved"
    assert verdict(parent, [120.0 + (i % 3) for i in range(10)],
                   "lower", 0.1) == "regressed"
    assert verdict(parent, [101.0 + (i % 3) for i in range(10)],
                   "lower", 0.1) == "no-worse"
    noisy = [70.0, 130.0] * 5
    assert verdict(noisy, [95.0, 99.0] * 5, "lower", 0.1) == "unresolved"
    # Nine pairs are too few to claim a gain.
    assert verdict(parent[:9], [90.0] * 9, "lower", 0.1) == "no-worse"
    # Never-failing runs: a share of exactly 1 on both sides is no-worse.
    assert verdict([1.0] * 10, [1.0] * 10, "higher", 1e-5) == "no-worse"
    assert verdict([1.0] * 10, [0.999] * 10, "higher", 1e-5) == "regressed"


def test_compare_regresses_on_more_failures():
    def runs(failed, attempted):
        return [{"failed": f, "attempted": a}
                for f, a in zip(failed, attempted)]

    parent = runs([0, 0], [100, 100])
    assert not failed_more(parent, runs([0, 0], [150, 150]))
    assert failed_more(parent, runs([0, 1], [150, 150]))
    # Same count, larger share (the change attempted fewer requests).
    some = runs([1, 1], [100, 100])
    assert failed_more(some, runs([1, 1], [50, 50]))
    assert not failed_more(some, runs([1, 1], [200, 200]))


def test_correctness_checks_reject_wrong_answers():
    analyze = AnalyzeCold(1, Path("."))
    assert not analyze.expected("gallery/rank_dependent_bcast",
                                {"findings": []})
    guarded = [{"code": "collective-mismatch", "function": f"compute_{i}"}
               for i in range(0, 96, 4)]
    assert analyze.expected("scale-XL", {"findings": guarded})
    assert not analyze.expected("scale-XL", {"findings": guarded[1:]})
    explore = ExploreDpor(1, Path("."))
    clean = SimpleNamespace(schedules=3, verdict_counts={"clean": 3})
    assert explore.check(("clean_masteronly", "raw"), clean)
    bad = SimpleNamespace(schedules=3,
                          verdict_counts={"clean": 2, "DeadlockError": 1})
    assert not explore.check(("clean_masteronly", "instrumented"), bad)
    assert not explore.check(("racy_single_worker_allreduce", "raw"), clean)


def test_explore_repeats_short_sweeps_after_the_first_pass():
    explore = ExploreDpor(1, Path("."))
    keys = explore.keys(explore.generated)
    schedules = itertools.cycle((1, 20, 30, 60, 100))
    explore.outcomes = {key: (next(schedules), []) for key in keys}
    assert {explore.repeats(key) for key in keys} == {8, 5, 3, 2, 1}
    plain = seeded_passes(explore.name, 1, keys)
    repeated = seeded_passes(explore.name, 1, keys, explore.repeats)
    assert next(repeated) == next(plain)  # every sweep once
    second = Counter(next(repeated))
    assert {key: second[key] for key in keys} == {
        key: explore.repeats(key) for key in keys}
    units = fill_budget(iter([[1, 2], [3, 4], [5]]))
    assert list(units) == [[1, 2], [3], [4], [5]]


@pytest.fixture
def small_project(monkeypatch):
    """A 40-file project keeps the project-edit smoke run fast; its inputs
    then differ from the pinned 1000-file ones, so the digest check is
    skipped (test_input_digest_depends_on_seed_only covers it)."""
    monkeypatch.setattr(ProjectEdit, "N_FILES", 40)
    monkeypatch.setattr(e2e_workloads, "verify_inputs",
                        lambda name, generated=None: None)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run(name, tmp_path, small_project):
    result = run_workload(name, 5, 60.0, False, tmp_path, max_requests=3)
    assert result["correct"], result
    assert (result["attempted"], result["failed"]) == (3, 0)
    assert set(result["metrics"]) == set(metric_units("end_to_end"))
    assert all(isinstance(v, float) and v > 0
               for v in result["metrics"].values())
    assert not list(tmp_path.iterdir())  # the work directory is cleaned


@pytest.mark.parametrize("name", ["analyze-cold", "fuzz-campaign"])
def test_traced_smoke_run_restores_the_program(name, tmp_path):
    from repro.minilang import lexer, parser

    result = run_workload(name, REFERENCE_SEED, 60.0, True, tmp_path,
                          max_requests=3)
    assert result["correct"], result
    metrics = result["metrics"]
    assert set(metrics) == set(metric_units("per_layer"))
    assert metrics["minilang.lex_ms"] > 0 and metrics["cfg.build_ms"] > 0
    assert 0 < metrics["harness.self_share"] < 0.05
    if name == "fuzz-campaign":
        assert metrics["runtime.run_ms"] > 0
        assert metrics["fuzz.oracle_dpor_ms"] > 0
        assert metrics["fuzz.campaign_self_ms"] > 0
    assert parser.tokenize is lexer.tokenize
    assert not hasattr(lexer.tokenize, "__wrapped__")
