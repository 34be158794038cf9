"""Coverage-guided fuzzing tests: signature determinism (in- and
cross-process), the energy/mutation-queue schedule, finding dedupe,
campaign-state v2, and the two campaign-driver regressions (resumed
elapsed accounting, zombie-thread quarantine)."""

import gc
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import pytest

from repro.fuzz import (
    AGREE,
    CHECKPOINT_VERSION,
    CRASH,
    MUTANT_BASE,
    MUTANT_SLOTS,
    CoverageMap,
    CoverageSignature,
    FuzzReport,
    GenConfig,
    OracleConfig,
    OracleVerdict,
    decode_mutant,
    energy_for,
    finding_fingerprint_for,
    fuzz_one,
    is_mutant_seed,
    load_checkpoint,
    mutant_seed,
    mutate,
    program_for_seed,
    run_fuzz,
    signature_for,
    source_features,
    write_checkpoint,
)
from repro.fuzz.campaign import _checkpoint_doc
from repro.util import faultinject
from repro.util.faultinject import (
    FaultPlan,
    clear_plan,
    install_plan,
    quarantined_count,
    release_quarantine,
)
from repro.util.probe import bucket, collecting, probe, probes_active

#: A deliberately narrow generator: small programs from few productions, so
#: the open-loop seed stream *saturates* its signature space and the
#: feedback loop's mutants (which escape the generator's support) are
#: measurable against it.
NARROW = GenConfig(w_assign=2, w_print=0, w_collective=8, w_guard=2,
                   w_loop=0, w_parallel=3, w_single=1, w_master=0,
                   w_critical=0, w_barrier=1, w_call=0, w_expr_call=0,
                   w_return=0, w_break=0, max_helpers=0, max_stmts=2,
                   max_depth=1)


# ---------------------------------------------------------------------------
# Probe sink
# ---------------------------------------------------------------------------


def test_probe_sink_is_thread_local():
    with collecting() as counts:
        probe("x")
        done = threading.Event()

        def other():
            probe("x")  # no sink on this thread: dropped
            done.set()

        t = threading.Thread(target=other)
        t.start()
        t.join()
        assert done.is_set()
    assert counts == {"x": 1}
    probe("x")  # no sink installed: no-op
    assert not probes_active()


def test_probe_sink_nests_without_leaking():
    with collecting() as outer:
        probe("a")
        with collecting() as inner:
            probe("b")
        probe("a")
        assert inner == {"b": 1}
    assert outer == {"a": 2}


def test_bucket_is_logarithmic():
    assert [bucket(n) for n in (0, 1, 2, 3, 4, 7, 8)] == [0, 1, 2, 2, 3, 3, 4]


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


def test_signature_determinism_in_process():
    sigs = []
    for _ in range(2):
        with collecting() as counts:
            source = program_for_seed(11)
        sigs.append(signature_for(counts, source=source,
                                  classification=AGREE))
    assert sigs[0] == sigs[1]
    assert sigs[0].digest == sigs[1].digest


_SUBPROCESS_SNIPPET = r"""
import sys
sys.path.insert(0, {src!r})
from repro.fuzz import fuzz_one
digests = []
for seed in (0, 7, 23):
    outcome = fuzz_one(seed, coverage=True, dry_run=True)
    digests.append(outcome.signature.digest)
print("|".join(digests))
"""


def test_signature_cross_process_determinism():
    src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    snippet = _SUBPROCESS_SNIPPET.format(src=os.path.abspath(src_dir))
    runs = [
        subprocess.run([sys.executable, "-c", snippet], capture_output=True,
                       text=True, check=True).stdout.strip()
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    local = "|".join(
        fuzz_one(seed, coverage=True, dry_run=True).signature.digest
        for seed in (0, 7, 23))
    assert runs[0] == local


def test_source_features_cover_scenario_dimensions():
    source = program_for_seed(3)
    feats = source_features(source)
    assert any(f.startswith("src:") for f in feats)
    assert source_features(source) == feats  # deterministic
    assert source_features("definitely not minilang") == ["src:unparsed"]


def test_coverage_map_grows_monotonically():
    m = CoverageMap()
    last_features = 0
    last_sigs = 0
    for seed in range(25):
        outcome = fuzz_one(seed, coverage=True, dry_run=True)
        m.observe(outcome.signature)
        assert m.feature_count >= last_features
        assert m.distinct_signatures >= last_sigs
        last_features, last_sigs = m.feature_count, m.distinct_signatures
    # Round-trips through the checkpoint representation.
    clone = CoverageMap.from_dict(json.loads(json.dumps(m.as_dict())))
    assert clone.features == m.features
    assert clone.signatures == m.signatures


def test_energy_schedule():
    assert energy_for(0) == 0
    assert energy_for(0, new_signature=True) == 2
    assert energy_for(1) == 1
    assert energy_for(40) == MUTANT_SLOTS  # capped


# ---------------------------------------------------------------------------
# Mutant-seed encoding (the reproduction contract)
# ---------------------------------------------------------------------------


def test_mutant_seed_round_trip():
    for parent, slot in ((0, 0), (17, 3), (123456, MUTANT_SLOTS - 1)):
        enc = mutant_seed(parent, slot)
        assert is_mutant_seed(enc) and not is_mutant_seed(parent)
        assert decode_mutant(enc) == (parent, slot)
    nested = mutant_seed(mutant_seed(5, 1), 2)
    assert decode_mutant(nested) == (mutant_seed(5, 1), 2)
    with pytest.raises(ValueError):
        mutant_seed(1, MUTANT_SLOTS)
    with pytest.raises(ValueError):
        decode_mutant(7)


def test_mutant_seed_program_is_reproducible():
    enc = mutant_seed(6, 2)
    first = program_for_seed(enc)
    assert first == program_for_seed(enc)
    assert first != program_for_seed(6)
    # And through the full seed body, as the CLI repro would run it.
    outcome = fuzz_one(enc, coverage=True, dry_run=True)
    assert outcome.source == first


def test_mutate_rounds_one_matches_legacy_single_round():
    source = program_for_seed(2)
    assert mutate(source, 42) == mutate(source, 42, rounds=1)
    multi = mutate(source, 42, rounds=3)
    assert multi != source


# ---------------------------------------------------------------------------
# Coverage-guided campaign: schedule determinism + the acceptance property
# ---------------------------------------------------------------------------


def test_coverage_campaign_is_repeatable_and_jobs_invariant():
    runs = [
        run_fuzz(seeds=48, gen_config=NARROW, coverage=True, dry_run=True),
        run_fuzz(seeds=48, gen_config=NARROW, coverage=True, dry_run=True),
        run_fuzz(seeds=48, gen_config=NARROW, coverage=True, dry_run=True,
                 jobs=2),
    ]
    ref = runs[0]
    assert ref.completed == 48
    assert any(is_mutant_seed(s) for s in ref.queue) or ref.queue == []
    for other in runs[1:]:
        assert other.counts == ref.counts
        assert other.queue == ref.queue
        assert other.next_fresh == ref.next_fresh
        assert other.coverage_map.features == ref.coverage_map.features
        assert other.coverage_map.signatures == ref.coverage_map.signatures
        assert other.dedupe == ref.dedupe


def test_coverage_guided_beats_open_loop_on_distinct_signatures():
    """The tentpole acceptance property: on the same seed budget, the
    feedback loop reaches strictly more distinct coverage signatures than
    the open-loop seed stream."""
    budget = 500
    open_map = CoverageMap()
    for seed in range(budget):
        outcome = fuzz_one(seed, gen_config=NARROW, coverage=True,
                           dry_run=True)
        open_map.observe(outcome.signature)
    guided = run_fuzz(seeds=budget, gen_config=NARROW, coverage=True,
                      dry_run=True)
    assert guided.completed == budget
    assert (guided.coverage_map.distinct_signatures
            > open_map.distinct_signatures)
    # Feature coverage should not regress either.
    assert guided.coverage_map.feature_count >= open_map.feature_count


def test_coverage_overhead_gate():
    """The exported ``derived.fuzz_coverage_overhead`` contract: with the
    real oracle in the loop, coverage feedback must stay ≤ 1.5× the
    open-loop campaign on the same seed budget (it is a scheduling tax,
    not a second oracle).  The GC is parked and the ratio is the median
    over interleaved pairs, so one slow campaign cannot decide it."""
    config = OracleConfig(explore_runs=2)

    def timed(coverage):
        gc.collect()
        t0 = time.perf_counter()
        run_fuzz(seeds=12, coverage=coverage, oracle_config=config)
        return time.perf_counter() - t0

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        pairs = [(timed(False), timed(True)) for _ in range(5)]
    finally:
        if enabled:
            gc.enable()
    ratio = statistics.median(cov_t / open_t for open_t, cov_t in pairs)
    assert ratio <= 1.5, pairs


def test_coverage_campaign_with_real_oracle_smoke():
    report = run_fuzz(seeds=6, coverage=True,
                      oracle_config=OracleConfig(explore_runs=2))
    assert report.completed == 6
    assert report.coverage_map is not None
    assert report.coverage_map.distinct_signatures >= 1
    assert "coverage:" in report.summary()


# ---------------------------------------------------------------------------
# Dedupe
# ---------------------------------------------------------------------------


def _miss_verdict(raw: str, detail: str = "") -> OracleVerdict:
    return OracleVerdict(classification=STATIC_MISS_CLS, raw_verdict=raw,
                         crash_detail=detail)


STATIC_MISS_CLS = "static-miss"


def test_fingerprint_normalizes_seed_specific_noise():
    a = _miss_verdict("Deadlock[rank 0 stuck at line 12]",
                      "seed body: error at uid 991")
    b = _miss_verdict("Deadlock[rank 1 stuck at line 7]",
                      "seed body: error at uid 13")
    assert (finding_fingerprint_for(STATIC_MISS_CLS, a)
            == finding_fingerprint_for(STATIC_MISS_CLS, b))
    c = _miss_verdict("Mismatch[Bcast vs Barrier]")
    assert (finding_fingerprint_for(STATIC_MISS_CLS, a)
            != finding_fingerprint_for(STATIC_MISS_CLS, c))
    assert (finding_fingerprint_for(STATIC_MISS_CLS, a)
            != finding_fingerprint_for(CRASH, a))


def test_campaign_dedupes_duplicate_findings(monkeypatch):
    """Two seeds that hit the same normalized finding produce one
    disagreement entry + a duplicate count, not two entries."""
    import repro.fuzz.campaign as campaign

    def fake_oracle(program, config=None):
        return OracleVerdict(classification=STATIC_MISS_CLS,
                             raw_verdict=f"Deadlock[{program.filename}]")

    monkeypatch.setattr(campaign, "run_oracle_checked", fake_oracle)
    report = run_fuzz(seeds=10, gen_config=NARROW, coverage=True)
    assert report.counts[STATIC_MISS_CLS] == 10
    assert len(report.disagreements) == 1
    assert report.duplicates == 9
    assert report.distinct_findings == 1
    (fp, entry), = report.dedupe.items()
    assert entry["count"] == 10
    assert entry["classification"] == STATIC_MISS_CLS


# ---------------------------------------------------------------------------
# Checkpoint v2
# ---------------------------------------------------------------------------


def test_checkpoint_v1_rejected_with_clear_message(tmp_path):
    path = tmp_path / "ck.json"
    path.write_text(json.dumps({
        "version": 1, "base_seed": 0, "requested": 10, "completed": 3,
        "counts": {"agree": 3}, "disagreements": [], "overapprox_seeds": [],
    }))
    with pytest.raises(ValueError) as err:
        load_checkpoint(str(path), seeds=10, base_seed=0)
    msg = str(err.value)
    assert "version" in msg and "1" in msg
    assert "docs/fuzzing.md" in msg  # points at the migration note
    # At the CLI a bad checkpoint is a usage error (exit 2), not a
    # traceback and not a findings exit.
    from repro.cli import main as cli_main
    assert cli_main(["fuzz", "--seeds", "10", "--coverage",
                     "--checkpoint", str(path), "--resume"]) == 2


def test_checkpoint_v2_round_trips_coverage_state(tmp_path):
    path = str(tmp_path / "ck.json")
    report = run_fuzz(seeds=24, gen_config=NARROW, coverage=True,
                      dry_run=True, checkpoint=path)
    doc = json.loads(open(path).read())
    assert doc["version"] == CHECKPOINT_VERSION == 2
    loaded = load_checkpoint(path, seeds=24, base_seed=0, gen_config=NARROW)
    assert loaded.completed == report.completed
    assert loaded.coverage_map.features == report.coverage_map.features
    assert loaded.coverage_map.signatures == report.coverage_map.signatures
    assert loaded.queue == report.queue
    assert loaded.next_fresh == report.next_fresh
    assert loaded.dedupe == report.dedupe
    assert loaded.elapsed == pytest.approx(report.elapsed)


def test_checkpoint_coverage_flag_mismatch_rejected(tmp_path):
    path = str(tmp_path / "ck.json")
    run_fuzz(seeds=8, gen_config=NARROW, coverage=True, dry_run=True,
             checkpoint=path, budget=0.0)
    with pytest.raises(ValueError, match="--coverage"):
        run_fuzz(seeds=8, gen_config=NARROW, dry_run=True,
                 checkpoint=path, resume=True)


def test_kill_and_resume_matches_uninterrupted_tally_and_elapsed(tmp_path):
    ck = str(tmp_path / "ck.json")
    full = run_fuzz(seeds=40, gen_config=NARROW, coverage=True, dry_run=True)
    # Killed as the 21st seed body starts, mid-wave.  Not by wall clock: a
    # host fast enough finishes every seed inside any small budget.
    install_plan(FaultPlan.parse("fuzz.seed:21=keyboard"))
    try:
        with pytest.raises(KeyboardInterrupt):
            run_fuzz(seeds=40, gen_config=NARROW, coverage=True,
                     dry_run=True, checkpoint=ck)
    finally:
        clear_plan()
    part = load_checkpoint(ck, seeds=40, base_seed=0, gen_config=NARROW)
    assert part.completed == 20
    resumed = run_fuzz(seeds=40, gen_config=NARROW, coverage=True,
                       dry_run=True, checkpoint=ck, resume=True)
    assert resumed.completed == full.completed == 40
    assert resumed.counts == full.counts
    assert resumed.queue == full.queue
    assert resumed.next_fresh == full.next_fresh
    assert resumed.coverage_map.features == full.coverage_map.features
    assert resumed.coverage_map.signatures == full.coverage_map.signatures
    # The elapsed bugfix: accumulated, not overwritten by the resumed leg.
    assert resumed.elapsed > part.elapsed


# ---------------------------------------------------------------------------
# Satellite bugfix regressions
# ---------------------------------------------------------------------------


def test_resumed_campaign_accumulates_prior_elapsed(tmp_path):
    """Regression: ``run_fuzz`` used to overwrite ``elapsed`` with only the
    resumed portion, so a resumed campaign under-reported wall clock (and
    over-reported seeds/s).  The checkpoint's accumulated elapsed must be
    restored and added to."""
    ck = str(tmp_path / "ck.json")
    report = run_fuzz(seeds=6, dry_run=True, checkpoint=ck, budget=0.0)
    assert report.completed < 6  # budget stops after the first seed
    doc = json.loads(open(ck).read())
    doc["elapsed"] = 100.0  # pretend the first leg took 100 s
    with open(ck, "w") as handle:
        json.dump(doc, handle)
    resumed = run_fuzz(seeds=6, dry_run=True, checkpoint=ck, resume=True)
    assert resumed.completed == 6
    assert resumed.elapsed > 100.0
    # And the rate in the summary line reflects the accumulated elapsed.
    assert "(0.1 programs/s)" in resumed.summary() \
        or float(resumed.summary().split("(")[-1].split(" ")[0]) < 1.0


def test_timed_out_seed_zombie_is_quarantined(monkeypatch):
    """Regression: a timed-out seed's daemon thread keeps running after the
    campaign moves on.  Before the fix its fault-site calls advanced the
    shared plan's hit counters (consuming faults scheduled for later
    seeds); now the zombie ident is quarantined and its activity is
    suppressed."""
    monkeypatch.setattr(faultinject, "HANG_SECONDS", 0.25)
    plan = FaultPlan.parse("fuzz.seed:1=hang,fuzz.oracle:1=exception")
    install_plan(plan)
    try:
        config = OracleConfig(explore_runs=0)
        hung = fuzz_one(0, oracle_config=config, seed_timeout=0.05)
        assert hung.classification == CRASH
        assert "timeout" in hung.verdict.crash_detail
        assert quarantined_count() >= 1
        # Let the zombie wake up and run its oracle to completion: its
        # fuzz.oracle call must NOT advance the plan's hit counter.
        deadline = time.monotonic() + 5.0
        while (plan.hits.get("fuzz.seed", 0) < 1
               and time.monotonic() < deadline):
            time.sleep(0.05)
        time.sleep(1.0)
        assert plan.hits.get("fuzz.oracle", 0) == 0
        # The fault scheduled for the *first live* oracle run still fires
        # on the next real seed, exactly as planned.
        nxt = fuzz_one(1, oracle_config=config)
        assert nxt.classification == CRASH
        assert "injected exception at fuzz.oracle" in nxt.verdict.crash_detail
    finally:
        clear_plan()


def test_fresh_body_thread_lifts_stale_quarantine():
    """Thread idents are recycled: a fresh seed body that happens to reuse
    a quarantined ident must release it on entry (otherwise its own fault
    sites would be silently suppressed)."""
    from repro.fuzz.campaign import _call_with_timeout
    idents = []

    def record():
        idents.append(threading.get_ident())
        return "ok"

    result, timed_out = _call_with_timeout(record, timeout=5.0)
    assert result == "ok" and not timed_out
    # Simulate the ident having been quarantined by a dead zombie, then
    # reused: quarantine it by hand and run another body.
    faultinject.quarantine_thread(idents[0])
    try:
        for _ in range(50):
            result, timed_out = _call_with_timeout(record, timeout=5.0)
            assert not timed_out
            if idents[-1] == idents[0]:
                break
        if idents[-1] == idents[0]:  # ident actually reused on this platform
            assert idents[0] not in faultinject._quarantined
    finally:
        release_quarantine(idents[0])


# ---------------------------------------------------------------------------
# Report IR integration
# ---------------------------------------------------------------------------


def test_report_ir_coverage_summary_is_deterministic():
    from repro.core.report import report_from_fuzz, validate_report
    reports = [
        report_from_fuzz(
            run_fuzz(seeds=16, gen_config=NARROW, coverage=True,
                     dry_run=True),
            seeds=16, base_seed=0)
        for _ in range(2)
    ]
    for doc in reports:
        assert validate_report(doc) == []
        assert doc["summary"]["coverage"]["signatures"] >= 1
    # elapsed never leaks into the IR: byte-identical across runs.
    assert json.dumps(reports[0], sort_keys=True) == \
        json.dumps(reports[1], sort_keys=True)
