"""Session layer: chunked incremental re-parse, fingerprint diffing,
dependency invalidation, delta reports, and the serve/watch front ends."""

import io
import json
import threading
import time

import pytest

from repro.core import analyze_program, render_report
from repro.core.report import validate_report
from repro.core.session import SessionError, split_chunks
from repro.minilang.parser import parse_program
from repro.project import FileSession, run_serve, run_watch


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


def _replace(src: str, old: str, new: str) -> str:
    assert old in src, old
    return src.replace(old, new)


def _update(session, path, source: str):
    """Write ``source`` to ``path`` and fold it into ``session``."""
    path.write_text(source)
    return session.update(str(path))


# -- chunk splitting ----------------------------------------------------------------


def test_split_chunks_counts_functions():
    chunks = split_chunks(BASE)
    assert chunks is not None
    assert len(chunks) == 3
    assert chunks[0].text.startswith("int helper")
    assert chunks[0].start_line == 2


def test_split_chunks_handles_strings_and_comments():
    src = """
// top comment with a stray { brace
void main() {
    /* block } comment */
    print("braces {in} a \\"string\\"");
    MPI_Barrier();  // trailing }
}
"""
    chunks = split_chunks(src)
    assert chunks is not None
    assert len(chunks) == 1
    assert chunks[0].text.startswith("void main")


def test_split_chunks_rejects_unbalanced():
    assert split_chunks("void main() {") is None
    assert split_chunks("void main() } {") is None
    assert split_chunks("void main() { /* never closed") is None


def test_chunk_parse_matches_full_parse_byte_for_byte(tmp_path):
    """The assembled incremental program must render exactly like a
    full-parse analysis (lines and all)."""
    session = FileSession()
    path = tmp_path / "p.mc"
    _update(session, path, BASE)
    edited = _replace(BASE, "return v + 1;", "return v + 2;")
    _update(session, path, edited)
    incremental = session._files[str(path)]._record.program
    full = parse_program(edited, str(path))
    assert (render_report(analyze_program(incremental), verbose=True)
            == render_report(analyze_program(full), verbose=True))


# -- fingerprint diffing ------------------------------------------------------------


def test_first_update_analyzes_everything(tmp_path):
    session = FileSession()
    delta = _update(session, tmp_path / "p.mc", BASE)
    assert delta.seq == 1
    assert set(delta.changed) == {"helper", "worker", "main"}
    assert delta.reanalyzed == ("helper", "worker", "main")
    assert not delta.no_op


def test_identical_source_is_no_op(tmp_path):
    session = FileSession()
    _update(session, tmp_path / "p.mc", BASE)
    delta = _update(session, tmp_path / "p.mc", BASE)
    assert delta.no_op
    assert delta.changed == () and delta.reanalyzed == ()
    assert delta.seq == 2


def test_whitespace_edit_invalidates_nothing(tmp_path):
    """Same-line whitespace is invisible to the structural fingerprint
    (columns are excluded): nothing re-analyzes, nothing is evicted."""
    session = FileSession()
    _update(session, tmp_path / "p.mc", BASE)
    evictions = session.engine.stats.evictions
    misses = session.engine.stats.misses
    delta = _update(session, tmp_path / "p.mc",
                    _replace(BASE, "int x = 0;", "int  x  =  0;"))
    assert delta.no_op
    assert delta.changed == () and delta.removed == ()
    assert delta.reanalyzed == ()
    assert delta.invalidated_entries == 0
    assert session.engine.stats.evictions == evictions
    assert session.engine.stats.misses == misses
    # The next real edit still works off the new source text.
    delta = _update(session, tmp_path / "p.mc",
                    _replace(BASE, "int x = 0;", "int  x  =  7;"))
    assert delta.changed == ("worker",)


def test_one_function_edit_reanalyzes_only_it(tmp_path):
    session = FileSession()
    _update(session, tmp_path / "p.mc", BASE)
    delta = _update(session, tmp_path / "p.mc",
                    _replace(BASE, "return v + 1;", "return v + 3;"))
    assert delta.changed == ("helper",)
    # helper's summary did not change (still no collectives), so the
    # dependents are only *candidates* — nothing else actually re-ran.
    assert set(delta.dependents) == {"worker", "main"}
    assert delta.reanalyzed == ("helper",)
    assert delta.invalidated_entries == 1


def test_callee_summary_change_dirties_transitive_callers(tmp_path):
    """Adding a collective to a leaf helper changes the collective call
    graph, so the whole caller chain re-analyzes — and the new findings
    carry through."""
    session = FileSession()
    _update(session, tmp_path / "p.mc", BASE)
    # Same-line edit: later functions keep their lines (and thus their
    # fingerprints) — only the dependency propagation dirties them.
    edited = _replace(BASE, "return v + 1;", "MPI_Barrier(); return v + 1;")
    delta = _update(session, tmp_path / "p.mc", edited)
    assert delta.changed == ("helper",)
    assert set(delta.dependents) == {"worker", "main"}
    assert set(delta.reanalyzed) == {"helper", "worker", "main"}
    assert session.engine.stats.dependency_invalidations >= 2


def test_renamed_function_moves_fingerprint(tmp_path):
    session = FileSession()
    _update(session, tmp_path / "p.mc", BASE)
    edited = (BASE.replace("int helper(", "int assist(")
              .replace("helper(x)", "assist(x)"))
    delta = _update(session, tmp_path / "p.mc", edited)
    assert "assist" in delta.changed
    assert delta.removed == ("helper",)
    # The caller's call target changed, so it re-analyzed too.
    assert "worker" in delta.reanalyzed


def test_deleted_function_mid_session(tmp_path):
    session = FileSession()
    _update(session, tmp_path / "p.mc", BASE)
    edited = """
void worker() {
    int x = 0;
}

void main() {
    MPI_Init_thread(0);
    worker();
    MPI_Finalize();
}
"""
    delta = _update(session, tmp_path / "p.mc", edited)
    assert delta.removed == ("helper",)
    assert "worker" in delta.changed
    assert "helper" not in delta.reanalyzed
    # The session's view matches a fresh one-shot analysis.
    project = session._files[str(tmp_path / "p.mc")]
    assert set(project._record.fingerprints) == {"worker", "main"}


def test_parse_error_preserves_state(tmp_path):
    session = FileSession()
    _update(session, tmp_path / "p.mc", BASE)
    with pytest.raises(SessionError):
        _update(session, tmp_path / "p.mc", BASE + "\nvoid broken( {")
    # Previous version still current; a good edit diffs against it.
    delta = _update(session, tmp_path / "p.mc",
                    _replace(BASE, "return v + 1;", "return v + 9;"))
    assert delta.changed == ("helper",)


def test_semantic_error_preserves_state(tmp_path):
    session = FileSession()
    _update(session, tmp_path / "p.mc", BASE)
    bad = _replace(BASE, "int x = 0;", "int x = y;")  # undeclared variable
    with pytest.raises(SessionError):
        _update(session, tmp_path / "p.mc", bad)
    path = str(tmp_path / "p.mc")
    assert session._files[path].source(path) == BASE


def test_signature_edit_rechecks_unchanged_callers(tmp_path):
    """Editing only a callee's signature must re-check its (textually
    unchanged) callers: worker still calls helper(x) with one argument."""
    session = FileSession()
    _update(session, tmp_path / "p.mc", BASE)
    bad = _replace(BASE, "int helper(int v)", "int helper(int v, int w)")
    with pytest.raises(SessionError) as exc:
        _update(session, tmp_path / "p.mc", bad)
    assert any("helper" in m for m in exc.value.messages)
    path = str(tmp_path / "p.mc")
    assert session._files[path].source(path) == BASE


def test_intraproc_session_applies_initial_context_everywhere(tmp_path):
    """--no-interprocedural sessions mirror the CLI: the initial context
    word applies to every function directly."""
    from repro.parallelism import parse_word

    src = "void main() {\n    MPI_Barrier();\n}\n"
    word = parse_word("P1")
    plain = FileSession(interprocedural=False)
    assert _update(plain, tmp_path / "p.mc", src).findings_total == 0
    seeded = FileSession(interprocedural=False, entry_context=word)
    delta = _update(seeded, tmp_path / "p.mc", src)
    reference = analyze_program(
        parse_program(src, "p.mc"), interprocedural=False,
        initial_words={"main": word})
    assert delta.findings_total == len(reference.diagnostics) > 0


# -- finding deltas -----------------------------------------------------------------


GUARDED = """
void main() {
    MPI_Init_thread(0);
    int rank = MPI_Comm_rank();
    if (rank == 0) {
        MPI_Barrier();
    }
    MPI_Finalize();
}
"""


def test_finding_deltas_track_introduced_and_fixed_bugs(tmp_path):
    session = FileSession()
    clean = _replace(GUARDED, "if (rank == 0) {\n        MPI_Barrier();\n    }",
                     "MPI_Barrier();")
    d1 = _update(session, tmp_path / "p.mc", clean)
    assert d1.findings_total == 0
    assert d1.report["verdict"] == "clean"

    d2 = _update(session, tmp_path / "p.mc", GUARDED)
    assert d2.findings_total == 1
    assert len(d2.findings_added) == 1
    assert d2.findings_removed == ()
    assert d2.report["verdict"] == "findings"

    d3 = _update(session, tmp_path / "p.mc", clean)
    assert d3.findings_total == 0
    assert d3.findings_added == ()
    assert len(d3.findings_removed) == 1
    assert d3.findings_removed[0] == d2.findings_added[0]["fingerprint"]


def test_delta_reports_validate_against_schema(tmp_path):
    session = FileSession()
    for source in (BASE, GUARDED,
                   _replace(BASE, "return v + 1;", "return v + 4;")):
        delta = _update(session, tmp_path / "p.mc", source)
        assert validate_report(delta.report) == [], delta.report


def test_session_matches_oneshot_across_edit_sequence(tmp_path):
    """Whatever the session serves must equal a from-scratch analysis of
    the same text — for every step of an edit war."""
    session = FileSession()
    steps = [
        BASE,
        _replace(BASE, "return v + 1;", "MPI_Barrier();\n    return v + 1;"),
        GUARDED,
        BASE,
        BASE,  # identical: no-op
    ]
    for source in steps:
        _update(session, tmp_path / "p.mc", source)
        state = session._files[str(tmp_path / "p.mc")]
        fresh = analyze_program(parse_program(source, "p.mc"))
        assert (sorted(f["fingerprint"] for f in state.report["findings"])
                == sorted(f["fingerprint"] for f in
                          __import__("repro.core.report", fromlist=["x"])
                          .report_from_analysis(fresh)["findings"]))


# -- serve / watch ------------------------------------------------------------------


def test_serve_protocol(tmp_path):
    path = tmp_path / "p.mc"
    path.write_text(BASE)
    commands = io.StringIO(
        f"analyze {path}\nstats\nanalyze {path}\nbogus\nquit\n")
    out = io.StringIO()
    with FileSession() as session:
        code = run_serve(session, stdin=commands, stdout=out)
    assert code == 0
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(lines) == 4
    first, stats, second, error = lines
    assert first["tool"] == "serve" and first["summary"]["update"] == 1
    assert validate_report(first) == []
    assert stats["summary"]["stats"]["session"]["updates"] == 1
    assert second["summary"]["incremental"]["no_op"] is True
    assert error["verdict"] == "error"


def test_serve_emits_only_changed_findings(tmp_path):
    path = tmp_path / "p.mc"
    path.write_text(GUARDED)
    commands = io.StringIO(f"analyze {path}\nanalyze {path}\nquit\n")
    out = io.StringIO()
    with FileSession() as session:
        run_serve(session, stdin=commands, stdout=out)
    first, second = [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(first["findings"]) == 1
    assert second["findings"] == []  # unchanged: re-emits nothing
    assert second["summary"]["incremental"]["findings_total"] == 1
    assert second["verdict"] == "findings"
    assert validate_report(second) == []


def test_serve_survives_broken_file(tmp_path):
    path = tmp_path / "p.mc"
    path.write_text(BASE)
    commands = io.StringIO(
        f"analyze {path}\nanalyze {tmp_path / 'missing.mc'}\n"
        f"analyze {path}\nquit\n")
    out = io.StringIO()
    with FileSession() as session:
        code = run_serve(session, stdin=commands, stdout=out)
    assert code == 0
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [doc["verdict"] for doc in lines] == ["clean", "error", "clean"]


def test_watch_reacts_to_edits(tmp_path):
    path = tmp_path / "w.mc"
    path.write_text(BASE)
    out = io.StringIO()

    def edit_soon():
        time.sleep(0.15)
        path.write_text(_replace(BASE, "return v + 1;",
                                 "MPI_Barrier(); return v + 1;"))

    editor = threading.Thread(target=edit_soon)
    editor.start()
    with FileSession() as session:
        code = run_watch(session, str(path), interval=0.05, max_updates=2,
                         stdout=out)
    editor.join()
    assert code == 0
    docs = [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(docs) == 2
    assert docs[0]["tool"] == "watch"
    assert docs[1]["summary"]["incremental"]["changed"] == ["helper"]


# -- engine counters ----------------------------------------------------------------


def test_stats_round_trip_through_json(tmp_path):
    session = FileSession()
    _update(session, tmp_path / "p.mc", BASE)
    _update(session, tmp_path / "p.mc",
            _replace(BASE, "return v + 1;", "return v + 2;"))
    stats = session.engine.stats
    assert json.loads(json.dumps(stats.as_dict())) == stats.as_dict()
    # Every exported value is a plain JSON number.
    for key, value in stats.as_dict().items():
        assert isinstance(value, (int, float)), key


# -- resilience protocol extras (see also tests/test_resilience.py) -----------------


class _StepClock:
    """A monotonic clock advancing a fixed step per call (deterministic
    deadline behaviour under test)."""

    def __init__(self, step):
        self.step = step
        self.now = 0.0

    def __call__(self):
        self.now += self.step
        return self.now


def test_serve_ping_and_request_id_echo(tmp_path):
    path = tmp_path / "s.mc"
    path.write_text(BASE)
    script = io.StringIO(f"ping\n@42 ping\n@a1 analyze {path}\nquit\n")
    out = io.StringIO()
    with FileSession() as session:
        code = run_serve(session, stdin=script, stdout=out)
    assert code == 0
    plain, tagged, analyzed = [json.loads(line)
                               for line in out.getvalue().splitlines()]
    assert plain["summary"]["ping"]["ok"] is True
    assert "request_id" not in plain
    assert tagged["request_id"] == "42"
    assert tagged["summary"]["ping"]["files"] == 0  # ping never analyzes
    assert analyzed["request_id"] == "a1"
    assert analyzed["verdict"] in ("clean", "findings")
    for doc in (plain, tagged, analyzed):
        assert validate_report(doc) == []


def test_serve_request_id_with_empty_command_is_an_error_report():
    out = io.StringIO()
    with FileSession() as session:
        code = run_serve(session, stdin=io.StringIO("@7\nquit\n"), stdout=out)
    assert code == 0
    doc = json.loads(out.getvalue())
    assert doc["request_id"] == "7"
    assert doc["verdict"] == "error"
    assert validate_report(doc) == []


def test_serve_deadline_expiry_degrades_but_still_answers(tmp_path):
    path = tmp_path / "d.mc"
    path.write_text(BASE)
    # Budget 100ms, every clock read advances 60ms: the second phase
    # checkpoint of each deadlined attempt trips, so the request walks the
    # whole ladder — timeout report, interprocedural-off retry (also
    # expires), then the cold no-deadline analysis that always answers.
    clock = _StepClock(step=0.06)
    out = io.StringIO()
    with FileSession() as session:
        code = run_serve(session, stdin=io.StringIO(f"analyze {path}\nquit\n"),
                         stdout=out, deadline_ms=100.0, clock=clock)
        assert session.timeouts == 1
        assert session.degraded == 1
    assert code == 0
    timeout_doc, final = [json.loads(line)
                          for line in out.getvalue().splitlines()]
    assert timeout_doc["verdict"] == "error"
    assert timeout_doc["summary"]["timeout"]["deadline_ms"] == 100.0
    assert timeout_doc["summary"]["timeout"]["site"]
    assert final["verdict"] in ("clean", "findings")
    for doc in (timeout_doc, final):
        assert validate_report(doc) == []


def test_serve_generous_deadline_is_invisible(tmp_path):
    path = tmp_path / "d.mc"
    path.write_text(BASE)
    out = io.StringIO()
    with FileSession() as session:
        code = run_serve(session, stdin=io.StringIO(f"analyze {path}\nquit\n"),
                         stdout=out, deadline_ms=60000.0)
        assert session.timeouts == 0
        assert session.degraded == 0
    assert code == 0
    assert len(out.getvalue().splitlines()) == 1  # just the delta report


def test_watch_dedups_errors_and_reemits_on_change(tmp_path):
    path = tmp_path / "w.mc"
    path.write_text("void main() {\n")  # parse error A
    out = io.StringIO()
    polls = {"n": 0}

    def fake_sleep(_interval):
        # The watch loop polls between sleeps: several polls see each
        # broken revision, but each distinct error must report only once.
        polls["n"] += 1
        if polls["n"] == 3:
            path.write_text("void main() { @ }\n")  # different parse error B
        elif polls["n"] == 6:
            path.write_text(BASE)  # recovered

    with FileSession() as session:
        code = run_watch(session, str(path), interval=0, max_updates=3,
                         stdout=out, sleep=fake_sleep)
    assert code == 0
    docs = [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(docs) == 3  # errA once, errB once, recovery delta once
    assert docs[0]["verdict"] == "error"
    assert docs[1]["verdict"] == "error"
    assert docs[0]["summary"]["errors"] != docs[1]["summary"]["errors"]
    assert docs[2]["verdict"] in ("clean", "findings")
    assert docs[2]["tool"] == "watch"
    for doc in docs:
        assert validate_report(doc) == []
