"""The one serve loop and its sessions: ``serve``/``watch`` answer from
one-file projects, and both daemons share the deadline ladder, the
line-offset patch path and memo hygiene."""

import io
import json

import pytest

from repro.bench import CASES, make_project, write_project
from repro.core import analyze_program
from repro.core.report import report_from_analysis, validate_report
from repro.minilang.parser import parse_program
from repro.project import FileSession, ProjectSession, run_serve, run_watch

HELPER = CASES["interproc_helper_in_parallel"].source
CLEAN = CASES["clean_masteronly"].source

TWIN = """
void guarded() {
    int rank = MPI_Comm_rank();
    if (rank == 0) {
        MPI_Barrier();
    }
}

void main() {
    MPI_Init_thread(0);
    int x = 0;
    guarded();
    MPI_Finalize();
}
"""


class _StepClock:
    """A monotonic clock advancing ``step`` seconds per read."""

    def __init__(self, step):
        self.step = step
        self.now = 0.0

    def __call__(self):
        self.now += self.step
        return self.now


def _content(findings):
    """Findings without their file qualification (and so comparable across
    ``serve`` and ``project serve``)."""
    skip = ("file", "call_path_files", "fingerprint")
    return sorted(json.dumps({k: v for k, v in f.items() if k not in skip},
                             sort_keys=True) for f in findings)


def _cold(path, text, interprocedural=True):
    analysis = analyze_program(parse_program(text, str(path)),
                               interprocedural=interprocedural)
    return _content(report_from_analysis(analysis)["findings"])


def _daemon(kind, tmp_path, name, text):
    """(session, request line, path) for one file, written with ``text``,
    served by ``serve`` or by ``project serve``."""
    if kind == "serve":
        path = tmp_path / name
        path.write_text(text)
        return FileSession(), f"analyze {path}", path
    root = tmp_path / "proj"
    root.mkdir()
    path = root / name
    path.write_text(text)
    return ProjectSession(str(root)), f"open {name}", path


def _live(session, path):
    """The findings of the session's current full report."""
    if isinstance(session, FileSession):
        return _content(session._files[str(path)].report["findings"])
    return _content(session.report["findings"])


@pytest.mark.parametrize("kind", ["serve", "project"])
def test_degraded_answer_does_not_stick(tmp_path, kind):
    """The deadline ladder answers the first request with the
    no-interprocedural analysis; the next request on unchanged text must
    re-analyze interprocedurally, not replay the degraded state as a
    no-op."""
    session, request, path = _daemon(kind, tmp_path, "h.mc", HELPER)
    clock = _StepClock(step=0.06)

    def script():
        yield request + "\n"
        clock.step = 0.0  # the budget expires during the first request only
        yield request + "\n"
        yield "quit\n"

    out = io.StringIO()
    with session:
        run_serve(session, stdin=script(), stdout=out, deadline_ms=100.0,
                  clock=clock)
        assert session.timeouts == 1 and session.degraded == 1
    docs = [json.loads(line) for line in out.getvalue().splitlines()]
    assert docs[0]["summary"]["timeout"]["deadline_ms"] == 100.0
    assert docs[-2]["summary"]["incremental"]["findings_total"] == 0
    inc = docs[-1]["summary"]["incremental"]
    assert inc["no_op"] is False
    assert inc["findings_total"] == 1
    assert inc["findings_total"] == len(_cold(path, HELPER))
    for doc in docs:
        assert validate_report(doc) == []


@pytest.mark.parametrize("kind", ["serve", "project"])
def test_deadline_after_a_line_patch_never_shifts_twice(tmp_path, kind):
    """A line inserted at the top is patched in place before the plan
    checkpoint; when the budget expires there, the degraded retry must
    not patch the same functions again."""
    session, request, path = _daemon(kind, tmp_path, "t.mc", TWIN)
    shifted = "// inserted\n" + TWIN
    # The budget's start and parse checkpoint read 0; the plan checkpoint,
    # after the patches, reads 1000 and expires.  Every later read is
    # flat, so the retry without the interprocedural plan answers.
    times = iter([0.0, 0.0] + [1000.0] * 500)
    out = io.StringIO()
    with session:
        run_serve(session, stdin=iter([request + "\n"]), stdout=out)
        path.write_text(shifted)
        run_serve(session, stdin=iter([request + "\n"]), stdout=out,
                  deadline_ms=50.0, clock=lambda: next(times))
        assert session.timeouts == 1 and session.degraded == 1
        assert _live(session, path) == _cold(path, shifted,
                                             interprocedural=False)
        run_serve(session, stdin=iter([request + "\n"]), stdout=out)
        assert _live(session, path) == _cold(path, shifted)


def test_serve_line_insert_is_patched(tmp_path):
    """``serve`` takes the project's line-offset patch path: a line
    inserted at the top re-analyzes nothing."""
    path = tmp_path / "p.mc"
    path.write_text(TWIN)
    with FileSession() as session:
        first = session.update(str(path))
        misses = session.engine.stats.misses
        path.write_text("// inserted\n" + TWIN)
        delta = session.update(str(path))
        assert session.engine.stats.misses == misses
    inc = delta.report["summary"]["incremental"]
    assert inc["changed"] == [] and inc["reanalyzed"] == []
    assert inc["patched"] == ["guarded", "main"]
    assert inc["findings_total"] == first.findings_total == 1
    assert "patched" not in first.report["summary"]["incremental"]
    assert validate_report(delta.report) == []


def test_line_shift_in_one_file_leaves_its_twin_intact(tmp_path):
    """Served files share one engine.  When a file's functions reuse the
    artifacts another file's functions were analyzed on, patching the
    first file's lines must not move the second file's trees."""
    a, b = tmp_path / "a.mc", tmp_path / "b.mc"
    a.write_text(TWIN)
    b.write_text(TWIN)
    shifted = "// inserted\n" + TWIN
    with FileSession() as session:
        session.update(str(b))  # b's trees anchor the cache entries
        session.update(str(a))
        a.write_text(shifted)
        session.update(str(a))
        assert _live(session, a) == _cold(a, shifted)
        # b's text is unchanged, so its trees are not re-read; a mode
        # change re-analyzes every one of them.
        session.update(str(b), interprocedural=False)
        assert _live(session, b) == _cold(b, TWIN, interprocedural=False)
        session.update(str(b))
        assert _live(session, b) == _cold(b, TWIN)


def test_watch_reports_the_recovery(tmp_path):
    """good -> broken -> the last good text again: the restore is a no-op
    update, but after an error document it must still be reported."""
    path = tmp_path / "w.mc"
    path.write_text(CLEAN)
    polls = {"n": 0}

    def fake_sleep(_interval):
        polls["n"] += 1
        if polls["n"] == 1:
            path.write_text("void main() {\n")
        elif polls["n"] == 3:
            path.write_text(CLEAN)
        elif polls["n"] > 10:
            raise KeyboardInterrupt  # poll cap: fail, never hang

    out = io.StringIO()
    with FileSession() as session:
        code = run_watch(session, str(path), interval=0, max_updates=3,
                         stdout=out, sleep=fake_sleep)
    assert code == 0
    docs = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [d["verdict"] for d in docs] == ["clean", "error", "clean"]
    assert [d["tool"] for d in docs] == ["watch"] * 3
    assert docs[2]["summary"]["incremental"]["no_op"] is True


def _live_contexts(session) -> int:
    """The (function, context word) pairs of the committed program."""
    contexts = session._record.plan.contexts.contexts
    return sum(len(contexts[f.name]) for f in session._record.program.funcs)


def test_memos_hold_live_functions_only(tmp_path):
    """Every commit drops the cache entries of the functions it replaced:
    the engine's cache tracks the live program, not the edit count."""
    files = make_project(n_files=12)
    root = str(tmp_path / "proj")
    write_project(files, root)
    with ProjectSession(root) as session:
        session.update_all()
        live = len(session._record.program.funcs)
        entries = lambda: session.engine.cache_info()["entries"]
        assert entries() == _live_contexts(session) == live == 26
        for step in range(30):
            rel = f"m{step % 12:03d}.mc"
            text = files[rel].replace(f"v += {step % 12};",
                                      f"v += {100 + step};", 1)
            if step % 3 == 1:
                text = "// shifted\n" + text  # the patch path
            if step % 10 == 9:
                # A new function changes the name set: the full path.
                text += f"\nint extra{step}(int v) {{\n    return v;\n}}\n"
            path = tmp_path / "proj" / rel
            path.write_text(text)
            session.update_file(rel)
            assert entries() == _live_contexts(session), step
            path.write_text(files[rel])
            session.update_file(rel)
            assert entries() == _live_contexts(session), step
        assert len(session._record.program.funcs) == live
        assert entries() == live


def test_each_new_or_shifted_function_is_fingerprinted_once(tmp_path,
                                                            monkeypatch):
    """A function object is hashed once, when it is new or shifted: one
    fingerprint per function on a cold start, one for a one-function edit,
    and one per function a comment line above them moves."""
    import repro.core.engine
    import repro.project.session

    calls = []
    real = repro.core.engine.ast_fingerprint

    def counting(func):
        calls.append(func.name)
        return real(func)

    for module in (repro.core.engine, repro.project.session):
        if hasattr(module, "ast_fingerprint"):
            monkeypatch.setattr(module, "ast_fingerprint", counting)
    files = make_project(n_files=12)
    root = tmp_path / "proj"
    write_project(files, str(root))
    with ProjectSession(str(root)) as session:
        session.update_all()
        assert len(calls) == len(session._record.program.funcs) == 26
        calls.clear()
        edited = files["m005.mc"].replace("v += 5;", "v += 50;")
        (root / "m005.mc").write_text(edited)
        update = session.update_file("m005.mc")
        assert update.changed == ("m5_f0",) and calls == ["m5_f0"]
        calls.clear()
        (root / "m005.mc").write_text("// moved\n" + edited)
        update = session.update_file("m005.mc")
        assert update.changed == () and len(calls) == 2
        assert sorted(calls) == sorted(update.patched) == ["m5_f0", "m5_f1"]
