"""Resilience layer: deterministic fault injection, deadlines, the serve
self-heal ladder, and fuzz campaign survivability (seed timeouts,
checkpoint/resume)."""

import io
import json
import pickle
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.report import validate_report
from repro.project import FileSession, run_serve, run_watch
from repro.fuzz.campaign import (
    fuzz_one,
    load_checkpoint,
    run_fuzz,
    write_checkpoint,
)
from repro.util.faultinject import (
    SITES,
    FaultPlan,
    FaultPlanError,
    InjectedFault,
    active_plan,
    clear_plan,
    fault_site,
    install_plan,
)
from repro.util.resilience import Deadline, DeadlineExceeded, Failure

BASE = """
int helper(int v) {
    return v + 1;
}

void worker() {
    int x = 0;
    x = helper(x);
}

void main() {
    MPI_Init_thread(0);
    worker();
    MPI_Finalize();
}
"""

EDITED = BASE.replace("return v + 1;", "return v + 2;")


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_plan()
    yield
    clear_plan()


class FakeClock:
    """A monotonic clock advancing a fixed step per call."""

    def __init__(self, step: float) -> None:
        self.step = step
        self.now = 0.0

    def __call__(self) -> float:
        self.now += self.step
        return self.now


# -- Deadline / Failure -----------------------------------------------------------


def test_deadline_expiry_is_deterministic_with_fake_clock():
    clock = FakeClock(step=0.04)
    deadline = Deadline(0.1, clock=clock)  # start at 0.04
    deadline.check("a")        # elapsed 0.04
    deadline.check("b")        # elapsed 0.08
    with pytest.raises(DeadlineExceeded) as exc:
        while True:
            deadline.check("late")
    assert exc.value.site == "late"
    assert exc.value.budget == pytest.approx(0.1)


def test_deadline_after_ms_and_remaining():
    clock = FakeClock(step=0.0)
    clock.step = 0.0
    deadline = Deadline.after_ms(250.0, clock=clock)
    assert deadline.budget == pytest.approx(0.25)
    assert deadline.remaining() == pytest.approx(0.25)
    assert not deadline.expired


def test_failure_digest_is_stable_and_dict_round_trips():
    try:
        raise RuntimeError("same message")
    except RuntimeError as exc:
        a = Failure.from_exception("site", 1, exc)
        b = Failure.from_exception("site", 1, exc)
    assert a.traceback_digest == b.traceback_digest
    assert len(a.traceback_digest) == 16
    doc = json.loads(json.dumps(a.as_dict()))
    assert doc["error_type"] == "RuntimeError"
    assert doc["message"] == "same message"


# -- fault plans --------------------------------------------------------------------


def test_fault_plan_parse_defaults_and_hits():
    plan = FaultPlan.parse(
        "session.analyze=exception, engine.task:3=broken_pool")
    assert plan.rules["session.analyze"][1] == "exception"
    assert plan.rules["engine.task"][3] == "broken_pool"


@pytest.mark.parametrize("spec", [
    "nonsense",
    "no.such.site=exception",
    "session.analyze=frobnicate",
    "session.analyze:zero=exception",
    "session.analyze:0=exception",
])
def test_fault_plan_rejects_bad_specs(spec):
    with pytest.raises(FaultPlanError):
        FaultPlan.parse(spec)


def test_fault_fires_on_exact_hit_only():
    plan = FaultPlan.parse("session.analyze:2=exception")
    install_plan(plan)
    fault_site("session.analyze")                 # hit 1: no-op
    with pytest.raises(InjectedFault):
        fault_site("session.analyze")             # hit 2: fires
    fault_site("session.analyze")                 # hit 3: never again
    assert [(e.site, e.hit, e.kind) for e in plan.fired] == [
        ("session.analyze", 2, "exception")]


def test_fault_kinds_raise_their_exception_classes():
    plan = FaultPlan.parse(
        "session.read_file:1=oserror,session.read_file:2=broken_pool,"
        "session.read_file:3=pickling,session.read_file:4=timeout,"
        "session.read_file:5=keyboard")
    install_plan(plan)
    for expected in (OSError, BrokenProcessPool, pickle.PicklingError,
                     DeadlineExceeded, KeyboardInterrupt):
        with pytest.raises(expected):
            fault_site("session.read_file")


def test_truncate_halves_the_payload():
    install_plan(FaultPlan.parse("session.read_file:1=truncate"))
    assert fault_site("session.read_file", "abcdefgh") == "abcd"
    assert fault_site("session.read_file", "abcdefgh") == "abcdefgh"


def test_fault_site_is_noop_without_plan():
    assert fault_site("session.analyze") is None
    assert fault_site("session.read_file", "payload") == "payload"


def test_plan_loads_lazily_from_environment(monkeypatch):
    monkeypatch.setenv("PARCOACH_FAULTS", "store.evict:7=oserror")
    clear_plan()  # allow a fresh environment read
    plan = active_plan()
    assert plan is not None and plan.rules["store.evict"][7] == "oserror"


# -- the serve chaos gate: every site, one at a time --------------------------------

#: Sites the serve script below reaches; all are members of the registry.
SERVE_SITES = (
    "session.read_file",
    "session.parse_chunk",
    "session.analyze",
    "engine.task",
    "store.evict",
    "serve.emit",
)


def _serve_script(path_a, path_b):
    """A 3-analyze serve script with an edit step, handed to run_serve as
    a generator so the edit happens between requests (the ``store.evict``
    site only fires when an update actually evicts fingerprints)."""
    yield f"analyze {path_a}\n"
    yield f"analyze {path_b}\n"
    path_a.write_text(EDITED)
    yield f"analyze {path_a}\n"
    yield "quit\n"


@pytest.mark.parametrize("site", SERVE_SITES)
def test_serve_survives_injected_fault_at_every_site(tmp_path, site):
    assert site in SITES
    path_a = tmp_path / "a.mc"
    path_b = tmp_path / "b.mc"
    path_a.write_text(BASE)
    path_b.write_text("void main() { MPI_Barrier(); }\n")
    plan = FaultPlan.parse(f"{site}:1=exception")
    install_plan(plan)
    out = io.StringIO()
    with FileSession() as session:
        code = run_serve(session, stdin=_serve_script(path_a, path_b),
                         stdout=out)
        recoveries = session.recoveries
    assert code == 0
    lines = out.getvalue().splitlines()
    assert len(lines) == 3  # one response per analyze, no dead server
    for line in lines:
        assert validate_report(json.loads(line)) == []
    assert len(plan.fired) == 1, plan.fired
    assert recoveries >= len(plan.fired)


def test_serve_double_fault_escalates_to_rebuild(tmp_path):
    path = tmp_path / "a.mc"
    path.write_text(BASE)
    install_plan(FaultPlan.parse(
        "session.analyze:1=exception,session.analyze:2=exception"))
    out = io.StringIO()
    with FileSession() as session:
        code = run_serve(session, stdin=iter([f"analyze {path}\n"]),
                         stdout=out)
        assert session.recoveries == 1
        assert session.rebuilds == 1
    assert code == 0
    doc = json.loads(out.getvalue())
    assert doc["verdict"] != "error"  # third attempt succeeded


def test_serve_triple_fault_answers_internal_error_and_keeps_serving(tmp_path):
    path = tmp_path / "a.mc"
    path.write_text(BASE)
    install_plan(FaultPlan.parse(
        "session.analyze:1=exception,session.analyze:2=exception,"
        "session.analyze:3=exception"))
    out = io.StringIO()
    with FileSession() as session:
        code = run_serve(
            session,
            stdin=iter([f"analyze {path}\n", f"analyze {path}\n", "quit\n"]),
            stdout=out)
        failures = list(session.failures)
    assert code == 0
    first, second = [json.loads(l) for l in out.getvalue().splitlines()]
    assert validate_report(first) == []
    assert first["verdict"] == "error"
    assert first["summary"]["failure"]["error_type"] == "InjectedFault"
    assert first["summary"]["request"] == f"analyze {path}"
    # The next request succeeds: the server healed rather than died.
    assert second["verdict"] in ("clean", "findings")
    assert len(failures) == 3


def test_serve_truncated_read_is_a_session_error_report(tmp_path):
    path = tmp_path / "a.mc"
    path.write_text(BASE)
    install_plan(FaultPlan.parse("session.read_file:1=truncate"))
    out = io.StringIO()
    with FileSession() as session:
        code = run_serve(session, stdin=iter([f"analyze {path}\n", "quit\n"]),
                         stdout=out)
    assert code == 0
    doc = json.loads(out.getvalue())
    assert doc["verdict"] == "error"  # half a file does not parse
    assert validate_report(doc) == []


def test_serve_emit_fault_still_writes_exactly_one_line(tmp_path):
    path = tmp_path / "a.mc"
    path.write_text(BASE)
    install_plan(FaultPlan.parse("serve.emit:1=truncate"))
    out = io.StringIO()
    with FileSession() as session:
        code = run_serve(session, stdin=iter([f"analyze {path}\n", "quit\n"]),
                         stdout=out)
        assert session.recoveries == 1
    assert code == 0
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    assert validate_report(json.loads(lines[0])) == []  # full line, not half


def test_serve_keyboard_interrupt_mid_request_exits_zero(tmp_path):
    path = tmp_path / "a.mc"
    path.write_text(BASE)
    install_plan(FaultPlan.parse("session.read_file:1=keyboard"))
    out = io.StringIO()
    with FileSession() as session:
        code = run_serve(session, stdin=iter([f"analyze {path}\n"]),
                         stdout=out)
    assert code == 0


# -- watch resilience ---------------------------------------------------------------


def test_watch_keyboard_interrupt_inside_update_returns_zero(tmp_path):
    path = tmp_path / "w.mc"
    path.write_text(BASE)
    install_plan(FaultPlan.parse("session.read_file:1=keyboard"))
    out = io.StringIO()
    with FileSession() as session:
        code = run_watch(session, str(path), interval=0,
                         stdout=out, sleep=lambda _s: None)
    assert code == 0
    assert out.getvalue() == ""


def test_watch_self_heals_unexpected_exception(tmp_path):
    path = tmp_path / "w.mc"
    path.write_text(BASE)
    install_plan(FaultPlan.parse("session.analyze:1=exception"))
    out = io.StringIO()
    with FileSession() as session:
        code = run_watch(session, str(path), interval=0, max_updates=2,
                         stdout=out, sleep=lambda _s: None)
        assert session.recoveries == 1
    assert code == 0
    error, good = [json.loads(l) for l in out.getvalue().splitlines()]
    assert error["verdict"] == "error"
    assert error["summary"]["failure"]["error_type"] == "InjectedFault"
    assert validate_report(error) == []
    assert good["verdict"] in ("clean", "findings")


# -- fuzz campaign survivability ----------------------------------------------------


def test_hung_seed_classifies_crash_timeout_and_campaign_continues():
    install_plan(FaultPlan.parse("fuzz.seed:2=hang"))
    report = run_fuzz(seeds=3, base_seed=0, seed_timeout=0.3)
    assert report.completed == 3
    assert report.counts["crash"] == 1
    (timed_out,) = [o for o in report.disagreements
                    if o.classification == "crash"]
    assert timed_out.verdict.crash_detail.startswith("timeout:")
    assert report.exit_code() == 2


def test_injected_seed_exception_classifies_crash_not_abort():
    install_plan(FaultPlan.parse("fuzz.seed:1=exception"))
    report = run_fuzz(seeds=2, base_seed=0)
    assert report.completed == 2
    assert report.counts["crash"] == 1
    detail = report.disagreements[0].verdict.crash_detail
    assert detail.startswith("seed body: InjectedFault")


def test_seed_timeout_unset_means_no_thread_indirection():
    outcome = fuzz_one(0)
    outcome_timed = fuzz_one(0, seed_timeout=30.0)
    assert outcome.classification == outcome_timed.classification
    assert outcome.verdict.as_dict() == outcome_timed.verdict.as_dict()


def test_checkpoint_written_after_every_seed(tmp_path):
    ck = tmp_path / "fuzz.ckpt"
    report = run_fuzz(seeds=4, base_seed=0, checkpoint=str(ck))
    doc = json.loads(ck.read_text())
    assert doc["completed"] == 4
    assert doc["counts"] == dict(report.counts)
    assert not (tmp_path / "fuzz.ckpt.tmp").exists()  # atomic rename


def test_killed_campaign_resumes_to_identical_tally(tmp_path):
    full = run_fuzz(seeds=12, base_seed=0)
    # Simulate the kill: checkpoint after 5 of 12 seeds.
    ck = tmp_path / "fuzz.ckpt"
    partial = run_fuzz(seeds=5, base_seed=0, checkpoint=str(ck))
    doc = json.loads(ck.read_text())
    doc["requested"] = 12  # what a killed 12-seed campaign records
    ck.write_text(json.dumps(doc))
    resumed = run_fuzz(seeds=12, base_seed=0, checkpoint=str(ck),
                       resume=True)
    assert resumed.completed == 12
    assert partial.completed == 5
    assert dict(resumed.counts) == dict(full.counts)
    assert ([o.seed for o in resumed.disagreements]
            == [o.seed for o in full.disagreements])
    assert resumed.overapprox_seeds == full.overapprox_seeds
    # Disagreement sources were regenerated from the absolute seed.
    for ours, theirs in zip(resumed.disagreements, full.disagreements):
        assert ours.source == theirs.source


def test_resume_of_completed_campaign_runs_nothing(tmp_path):
    ck = tmp_path / "fuzz.ckpt"
    first = run_fuzz(seeds=6, base_seed=0, checkpoint=str(ck))
    again = run_fuzz(seeds=6, base_seed=0, checkpoint=str(ck), resume=True)
    assert again.completed == 6
    assert dict(again.counts) == dict(first.counts)


def test_checkpoint_range_mismatch_is_rejected(tmp_path):
    ck = tmp_path / "fuzz.ckpt"
    report = run_fuzz(seeds=3, base_seed=0)
    write_checkpoint(str(ck), report)
    with pytest.raises(ValueError):
        load_checkpoint(str(ck), seeds=3, base_seed=99)
    with pytest.raises(ValueError):
        load_checkpoint(str(ck), seeds=44, base_seed=0)
