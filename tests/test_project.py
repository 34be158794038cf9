"""Project layer: manifests, the merged cross-file session, line-offset
patching, and the ``project serve`` front end."""

import io
import json
import os
import shutil

import pytest

from repro.bench import make_project, write_project
from repro.cli import main
from repro.core.report import validate_report
from repro.core.session import SessionError
from repro.minilang.semantics import SemanticError, check_program
from repro.minilang.parser import parse_program
from repro.util.faultinject import clear_plan
from repro.project import (
    ManifestError,
    ProjectSession,
    load_manifest,
)
from repro.project import run_serve as run_project_serve

UTIL = """int bump(int v) {
    MPI_Barrier();
    return v + 1;
}

int plain(int v) {
    return v - 1;
}
"""

MAIN = """void main() {
    MPI_Init_thread(3);
    int x = 0;
    #pragma omp parallel num_threads(2)
    {
        x = bump(x);
    }
    x = plain(x);
    MPI_Finalize();
}
"""


def _write(root, rel, text):
    path = os.path.join(str(root), rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


@pytest.fixture(autouse=True)
def _clean_faults():
    clear_plan()
    yield
    clear_plan()


@pytest.fixture
def project(tmp_path):
    _write(tmp_path, "util.mc", UTIL)
    _write(tmp_path, "main.mc", MAIN)
    return str(tmp_path)


# -- manifests ----------------------------------------------------------------------


def test_manifest_bare_scan_sorted(project):
    _write(project, "sub/extra.mini", "int nop(int v) { return v; }\n")
    manifest = load_manifest(project)
    assert manifest.files == ("main.mc", os.path.join("sub", "extra.mini"),
                              "util.mc")


def test_manifest_toml_roots_entries_and_store(project):
    _write(project, "parcoach.toml", """\
[project]
roots = ["."]
exclude = ["skip_*.mc"]
entries = ["main"]
initial_context = "P1"

[store]
enabled = false
""")
    _write(project, "skip_me.mc", "int nope(int v) { return v; }\n")
    manifest = load_manifest(project)
    assert manifest.files == ("main.mc", "util.mc")
    assert manifest.entries == ("main",)
    assert manifest.initial_context == "P1"


def test_manifest_explicit_files_override(project):
    manifest = load_manifest(project,
                             files=[os.path.join(project, "util.mc")])
    assert manifest.files == ("util.mc",)


def test_manifest_errors(tmp_path, project):
    with pytest.raises(ManifestError):
        load_manifest(str(tmp_path / "nope"))
    os.makedirs(tmp_path / "empty")
    with pytest.raises(ManifestError):
        load_manifest(str(tmp_path / "empty"))
    _write(project, "parcoach.toml", "not toml [")
    with pytest.raises(ManifestError):
        load_manifest(project)


# -- the cross-file acceptance bug --------------------------------------------------


def test_cross_file_bug_flagged_with_cross_file_chain(project):
    with ProjectSession(project) as session:
        session.update_all()
        findings = session.report["findings"]
    codes = {f["code"] for f in findings}
    assert "collective-multithreaded" in codes
    diag = next(f for f in findings if f["code"] == "collective-multithreaded")
    assert diag["function"] == "bump"
    assert diag["file"] == "util.mc"
    assert diag["call_path"] == ["main", "bump"]
    assert diag["call_path_files"] == ["main.mc", "util.mc"]


def test_cross_file_bug_provably_missed_per_file(project):
    # The helper's file alone: clean under the empty context.
    from repro import analyze_program

    util = parse_program(UTIL, "util.mc")
    assert len(analyze_program(util).diagnostics) == 0
    # The caller's file alone: cannot even resolve the helper.
    with pytest.raises(SemanticError, match="UNKNOWN_FUNC"):
        check_program(parse_program(MAIN, "main.mc"), strict=True)


def test_validate_full_and_delta_reports(project):
    with ProjectSession(project) as session:
        delta = session.update_all()
        assert validate_report(session.report) == []
        assert validate_report(delta.report) == []
        assert session.report["tool"] == "project"


def test_file_qualified_fingerprints_distinct(tmp_path):
    # The same diagnostic text in two different files must not collide.
    body = ("int f{i}(int v) {{\n"
            "    int r = MPI_Comm_rank();\n"
            "    if (r > 0) {{\n"
            "        MPI_Barrier();\n"
            "    }}\n"
            "    return v;\n"
            "}}\n")
    _write(tmp_path, "a.mc", body.format(i=0))
    _write(tmp_path, "b.mc", body.format(i=1))
    with ProjectSession(str(tmp_path)) as session:
        session.update_all()
        findings = session.report["findings"]
    assert len(findings) == 2
    assert len({f["fingerprint"] for f in findings}) == 2
    assert {f["file"] for f in findings} == {"a.mc", "b.mc"}


# -- cross-file incremental invalidation --------------------------------------------


def test_edit_in_one_file_reanalyzes_cross_file_dependents(project):
    with ProjectSession(project) as session:
        session.update_all()
        assert len(session.report["findings"]) == 1
        # Remove bump's collective in util.mc: its summary changes, so its
        # caller main — defined in main.mc, textually untouched — must
        # re-analyze across the file boundary (and the finding disappears).
        _write(project, "util.mc",
               UTIL.replace("    MPI_Barrier();\n", ""))
        delta = session.update_file("util.mc")
        assert session.report["findings"] == []
    assert delta.changed == ("bump",)
    assert "main" in delta.dependents
    assert set(delta.reanalyzed) >= {"bump", "main"}
    assert "plain" not in delta.reanalyzed
    assert delta.findings_removed and delta.findings_total == 0


def test_helper_signature_change_rechecks_callers_in_other_file(project):
    with ProjectSession(project) as session:
        session.update_all()
        # bump now takes two parameters: the textually unchanged call in
        # main.mc is re-checked — and rejected — across the file boundary.
        _write(project, "util.mc",
               UTIL.replace("int bump(int v)", "int bump(int v, int w)"))
        with pytest.raises(SessionError) as err:
            session.update_file("util.mc")
        assert any("main.mc" in m and "bump" in m
                   for m in err.value.messages)
        # The failed update left the previous state intact.
        assert session.report["findings"]


def test_file_delete_close_reports_unknown_callee(project):
    with ProjectSession(project) as session:
        session.update_all()
        with pytest.raises(SessionError) as err:
            session.close_file("util.mc")
        assert any("bump" in m for m in err.value.messages)


def test_file_rename_keeps_findings(project):
    # Neither half of a rename is expressible alone: opening the new name
    # first defines duplicates, closing the old name first leaves unknown
    # callees.  rename_file does both in one atomic update.
    with ProjectSession(project) as session:
        session.update_all()
        fp_before = {f["fingerprint"]: f for f in session.report["findings"]}
        with pytest.raises(SessionError):
            session.close_file("util.mc")
        os.rename(os.path.join(project, "util.mc"),
                  os.path.join(project, "helpers.mc"))
        misses = session.engine.stats.misses
        delta = session.rename_file("util.mc", "helpers.mc")
        fp_after = {f["fingerprint"]: f for f in session.report["findings"]}
        # Equal text at equal lines: fingerprints survive the move, nothing
        # truly re-analyzes (reparse hits only).
        assert delta.changed == () and delta.removed == ()
        assert session.engine.stats.misses == misses
    # Findings are file-qualified, so the rename moves every fingerprint —
    # but the set of (code, function) findings is unchanged.
    assert {(f["code"], f["function"]) for f in fp_before.values()} \
        == {(f["code"], f["function"]) for f in fp_after.values()}
    assert fp_before.keys() != fp_after.keys()
    assert all(f["file"] == "helpers.mc" for f in fp_after.values()
               if f["function"] == "bump")
    assert delta.findings_total == len(fp_after)


def test_rejected_close_keeps_the_file_open(project):
    with ProjectSession(project) as session:
        session.update_all()
        with pytest.raises(SessionError):
            session.close_file("util.mc")  # main still calls bump
        assert "util.mc" in session.stats()["project"]["open_files"]
        _write(project, "main.mc", MAIN.replace("int x = 0;", "int x = 1;"))
        delta = session.update_file("main.mc")
    assert delta.changed == ("main",)
    assert delta.findings_total == 1


def test_rejected_rename_or_open_leaves_analyze_working(project):
    with ProjectSession(project) as session:
        session.update_all()
        with pytest.raises(SessionError):
            session.rename_file("util.mc", "nope.mc")  # nope.mc is absent
        with pytest.raises(SessionError):
            session.update_file("missing.mc")
        delta = session.update_all()
        assert session.stats()["project"]["open_files"] == ["main.mc",
                                                            "util.mc"]
    assert delta.files == ("main.mc", "util.mc")
    assert delta.findings_total == 1


def test_analyze_after_closing_every_file_reads_nothing(project):
    with ProjectSession(project) as session:
        session.update_all()
        session.close_file("main.mc")
        session.close_file("util.mc")
        delta = session.update_all()
        assert session.report["findings"] == []
    assert delta.files == ()
    assert delta.findings_total == 0


def test_function_shadowing_a_builtin_gains_its_callers(tmp_path):
    """A user function named like a builtin takes over the calls an
    unchanged file already makes: opening it re-derives their edges."""
    from repro.core.report import render_json

    _write(tmp_path, "main.mc",
           MAIN.replace("x = bump(x);", "x = abs(x);")
           .replace("    x = plain(x);\n", ""))
    abs_mc = "int abs(int v) {\n    MPI_Barrier();\n    return v;\n}\n"
    with ProjectSession(str(tmp_path)) as session:
        session.update_all()
        assert session.report["findings"] == []
        _write(tmp_path, "abs.mc", abs_mc)
        session.update_file("abs.mc")
        warm = render_json(session.report)
    with ProjectSession(str(tmp_path)) as cold:
        cold.update_all()
        assert [f["call_path"] for f in cold.report["findings"]] == [
            ["main", "abs"]]
        assert render_json(cold.report) == warm


_HASH_SEED_SCRIPT = """
import sys
from repro.bench import make_project, write_project
from repro.core.report import render_json
from repro.project import ProjectSession

root, util, main = sys.argv[1], sys.argv[2], sys.argv[3]
files = make_project(n_files=10)
write_project(files, root + "/chain")
write_project({"util.mc": util, "main.mc": main}, root + "/helpers")
with ProjectSession(root + "/chain") as session:
    session.update_all()
    for rel, old, new in (("m002.mc", "v += 2;", "v += 7;"),
                          ("m006.mc", "v += 6;", "v += 8;")):
        with open(root + "/chain/" + rel, "w") as handle:
            handle.write(files[rel].replace(old, new, 1))
    print(render_json(session.update_all().report), end="")
with ProjectSession(root + "/helpers") as session:
    session.update_all()
    with open(root + "/helpers/util.mc", "w") as handle:
        handle.write(util.replace("    MPI_Barrier();\\n", ""))
    print(render_json(session.update_file("util.mc").report), end="")
"""


def test_delta_documents_do_not_depend_on_the_hash_seed(tmp_path):
    """The dependents walk and the removed fingerprints keep one order in
    every process, whatever ``PYTHONHASHSEED`` says."""
    import subprocess
    import sys

    util = UTIL.replace("int plain(int v) {\n",
                        "int plain(int v) {\n    MPI_Barrier();\n")
    main = MAIN.replace("        x = bump(x);\n",
                        "        x = bump(x);\n        x = plain(x);\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    outputs = set()
    for seed in range(4):
        # One project path for every seed: paths appear in the documents.
        root = tmp_path / "run"
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT, str(root), util, main],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
        shutil.rmtree(root)
    assert len(outputs) == 1
    first, second = (json.loads(line)
                     for line in outputs.pop().splitlines())
    assert len(first["summary"]["incremental"]["dependents"]) > 1
    assert len(second["summary"]["incremental"]["findings_removed"]) == 2


def test_duplicate_function_across_files_names_both_files(project):
    _write(project, "dup.mc", "int plain(int v) { return v; }\n")
    with ProjectSession(project) as session:
        with pytest.raises(SessionError) as err:
            session.update_all()
    message = " ".join(err.value.messages)
    assert "dup.mc" in message and "util.mc" in message


# -- line-offset patching -----------------------------------------------------------


def test_comment_insert_patches_with_zero_misses(project):
    with ProjectSession(project) as session:
        session.update_all()
        lines_before = [ref["line"]
                        for f in session.report["findings"]
                        for ref in f["collectives"]]
        misses = session.engine.stats.misses
        _write(project, "util.mc", "// a new comment line\n" + UTIL)
        delta = session.update_file("util.mc")
        lines_after = [ref["line"]
                       for f in session.report["findings"]
                       for ref in f["collectives"]]
        assert session.engine.stats.misses == misses  # zero engine misses
    assert set(delta.patched) == {"bump", "plain"}
    assert delta.changed == () and delta.reanalyzed == ()
    assert session.engine.stats.line_patches >= 2
    assert lines_after == [line + 1 for line in lines_before]


def test_patch_then_real_edit_still_correct(project):
    with ProjectSession(project) as session:
        session.update_all()
        _write(project, "util.mc", "\n\n" + UTIL)
        session.update_file("util.mc")
        # A real edit after a patch must re-analyze against the shifted
        # fingerprints, not the stale pre-patch ones.
        _write(project, "util.mc",
               "\n\n" + UTIL.replace("v + 1", "v + 3"))
        delta = session.update_file("util.mc")
    # The edit is detected against the *shifted* fingerprint (a stale
    # pre-patch fingerprint would either misreport the change set or serve
    # bump from a stale entry), and the old artifact is evicted.
    assert delta.changed == ("bump",)
    assert delta.reanalyzed == ("bump",)
    assert delta.invalidated_entries >= 1
    assert "main" in delta.dependents


def test_between_chunk_whitespace_is_no_op(project):
    with ProjectSession(project) as session:
        session.update_all()
        _write(project, "util.mc",
               UTIL.replace("}\n\nint plain", "}\n\n\nint plain"))
        delta = session.update_file("util.mc")
    # The second chunk moved: patched, nothing re-analyzed.
    assert delta.patched == ("plain",)
    assert delta.reanalyzed == ()


# -- no on-disk state -------------------------------------------------------------


def test_leftover_store_table_is_ignored_and_nothing_is_written(project):
    """A manifest that still enables the old on-disk store loads, and a
    session writes nothing under the project root."""
    _write(project, "parcoach.toml",
           "[project]\nentries = [\"main\"]\n\n"
           "[store]\nenabled = true\npath = \".parcoach/store\"\n")
    manifest = load_manifest(project)
    assert manifest.files == ("main.mc", "util.mc")
    assert manifest.entries == ("main",)
    with ProjectSession(project) as session:
        delta = session.update_all()
        assert delta.findings_total == 1
        assert "store" not in session.stats()["project"]
    assert not os.path.exists(os.path.join(project, ".parcoach"))


# -- the 100-file acceptance project ------------------------------------------------


def test_generated_project_acceptance(tmp_path):
    files = make_project(n_files=100)
    assert len(files) == 102
    root = str(tmp_path / "proj")
    write_project(files, root)
    with ProjectSession(root) as session:
        session.update_all()
        findings = session.report["findings"]
        assert len(findings) == 1
        diag = findings[0]
        assert diag["code"] == "collective-multithreaded"
        assert diag["function"] == "bug_helper"
        assert diag["file"] == "helpers.mc"
        assert diag["call_path"] == ["main", "bug_helper"]
        assert diag["call_path_files"] == ["main.mc", "helpers.mc"]

        # Edit one function in one file: only it + its cross-file dependent
        # closure re-analyzes, not the whole project.
        edited = files["m050.mc"].replace("v += 50;", "v += 51;", 1)
        with open(os.path.join(root, "m050.mc"), "w") as handle:
            handle.write(edited)
        delta = session.update_file("m050.mc")
        assert delta.changed == ("m50_f0",)
        reanalyzed = set(delta.reanalyzed)
        assert "m50_f0" in reanalyzed
        # The dependent closure is the caller chain m49_f0 … m0_f0 + main —
        # a strict subset of the project.
        assert reanalyzed <= ({f"m{i}_f0" for i in range(51)} | {"main"})
        assert "bug_helper" not in reanalyzed
        assert len(reanalyzed) < 60 < session.stats()["project"]["functions"]
    # Per-file analysis of the bug's two files provably misses it.
    helpers = parse_program(files["helpers.mc"], "helpers.mc")
    from repro import analyze_program
    assert len(analyze_program(helpers).diagnostics) == 0
    with pytest.raises(SemanticError, match="UNKNOWN_FUNC"):
        check_program(parse_program(files["main.mc"], "main.mc"),
                      strict=True)


# -- O(edit) assembly: identity, equivalence, bounded caches ------------------------


def test_fast_update_report_byte_identical_to_cold(tmp_path):
    """A chain of warm one-function edits must render the exact Report IR
    bytes a cold session produces on the final tree — the delta-maintained
    report cache is an optimization, never a semantic fork."""
    from repro.core.report import render_json

    files = make_project(n_files=100)
    root = str(tmp_path / "proj")
    write_project(files, root)
    with ProjectSession(root) as session:
        session.update_all()
        for i in (1, 2, 3):
            edited = files["m050.mc"].replace(
                "v += 50;", f"v += 50;\n    v += {i};", 1)
            _write(root, "m050.mc", edited)
            delta = session.update_file("m050.mc")
            assert delta.changed == ("m50_f0",)
        assert session.fast_updates >= 1
        warm_bytes = render_json(session.report)
    with ProjectSession(root) as cold:
        cold.update_all()
        cold_bytes = render_json(cold.report)
    assert warm_bytes == cold_bytes


def test_collective_funcs_tracks_callgraph_fixpoint(tmp_path):
    """The session's incrementally maintained collective-function set (fed
    by summary emptiness flips on the fast path) must equal the from-scratch
    reachability fixpoint after edits that flip it both ways."""
    from repro.core.sites import collective_call_graph

    files = make_project(n_files=100)
    root = str(tmp_path / "proj")
    write_project(files, root)
    with ProjectSession(root) as session:
        session.update_all()
        assert session._record.facts.collective_funcs == collective_call_graph(
            session._record.program)
        # Cut the f0 chain at m50: m0_f0 … m50_f0 all lose collective
        # reachability (the Allreduce sits in the last file's leaves).
        cut = files["m050.mc"].replace("v = m51_f0(v);", "v += 1;", 1)
        _write(root, "m050.mc", cut)
        delta = session.update_file("m050.mc")
        assert delta.changed == ("m50_f0",)
        expected = collective_call_graph(session._record.program)
        assert session._record.facts.collective_funcs == expected
        assert "m50_f0" not in session._record.facts.collective_funcs
        assert "m49_f0" not in session._record.facts.collective_funcs
        # Restore the call: everything flips back.
        _write(root, "m050.mc", files["m050.mc"])
        session.update_file("m050.mc")
        assert session._record.facts.collective_funcs == collective_call_graph(
            session._record.program)
        assert "m49_f0" in session._record.facts.collective_funcs


def test_recursive_and_expression_collectives_fixpoint(tmp_path):
    """Emptiness-flip maintenance must agree with the fixpoint on the
    shapes that stress it: recursion cycles and expression-embedded calls."""
    from repro.core.sites import collective_call_graph

    _write(tmp_path, "rec.mc",
           "int spin(int v) {\n"
           "    if (v > 0) { v = spin(v - 1); }\n"
           "    MPI_Barrier();\n"
           "    return v;\n"
           "}\n")
    _write(tmp_path, "expr.mc",
           "int wrap(int v) {\n"
           "    int x = spin(v);\n"
           "    return x;\n"
           "}\n\n"
           "int dead(int v) {\n"
           "    return v;\n"
           "}\n")
    _write(tmp_path, "main.mc",
           "void main() {\n"
           "    MPI_Init();\n"
           "    int x = wrap(1);\n"
           "    x = dead(x);\n"
           "    MPI_Finalize();\n"
           "}\n")
    root = str(tmp_path)
    with ProjectSession(root) as session:
        session.update_all()
        expected = collective_call_graph(session._record.program)
        assert session._record.facts.collective_funcs == expected
        assert {"spin", "wrap", "main"} <= expected
        assert "dead" not in expected
        # Drop the barrier out of the recursive cycle: the whole chain
        # (cycle included) must flip off.
        _write(tmp_path, "rec.mc",
               "int spin(int v) {\n"
               "    if (v > 0) { v = spin(v - 1); }\n"
               "    return v;\n"
               "}\n")
        session.update_file("rec.mc")
        expected = collective_call_graph(session._record.program)
        assert session._record.facts.collective_funcs == expected
        assert "spin" not in expected and "wrap" not in expected


# -- serve front end ----------------------------------------------------------------


def _serve(project_root, script, **kwargs):
    out = io.StringIO()
    with ProjectSession(project_root, **kwargs.pop("session_kwargs", {})) \
            as session:
        code = run_project_serve(session, stdin=io.StringIO(script),
                                 stdout=out, **kwargs)
    assert code == 0
    return [json.loads(line) for line in out.getvalue().splitlines()]


def test_serve_open_edit_stats_quit(project):
    docs = _serve(project,
                  "@1 analyze\n@2 edit util.mc\n@3 stats\n@4 ping\nquit\n")
    assert [d["request_id"] for d in docs] == ["1", "2", "3", "4"]
    assert all(validate_report(d) == [] for d in docs)
    first = docs[0]["summary"]["incremental"]
    assert first["findings_total"] == 1
    assert docs[1]["summary"]["incremental"]["no_op"] is True
    stats = docs[2]["summary"]["stats"]
    assert stats["project"]["functions"] == 3
    assert docs[3]["summary"]["ping"]["ok"] is True


def test_serve_patched_edit_answers_from_cache(project):
    out = io.StringIO()
    with ProjectSession(project) as session:
        run_project_serve(session,
                          stdin=io.StringIO("@1 analyze\nquit\n"),
                          stdout=out)
        misses = session.engine.stats.misses
        _write(project, "util.mc", "// shifted\n" + UTIL)
        run_project_serve(session,
                          stdin=io.StringIO("@2 edit util.mc\nquit\n"),
                          stdout=out)
        assert session.engine.stats.misses == misses
    docs = [json.loads(line) for line in out.getvalue().splitlines()]
    inc = docs[1]["summary"]["incremental"]
    assert inc["patched"] == ["bump", "plain"]
    assert inc["reanalyzed"] == []


def test_serve_close_and_errors(project):
    _write(project, "solo.mc", "int solo(int v) { return v; }\n")
    docs = _serve(project,
                  "@1 open solo.mc\n@2 close solo.mc\n@3 close solo.mc\n"
                  "@4 bogus\n@5 open\nquit\n")
    assert docs[0]["summary"]["incremental"]["changed"] == ["solo"]
    assert "solo" in docs[1]["summary"]["incremental"]["removed"]
    assert docs[2]["verdict"] == "error"
    assert docs[3]["verdict"] == "error"
    assert "usage" in docs[4]["summary"]["errors"][0]


def test_serve_self_heals_under_faults(project, monkeypatch):
    # One injected crash inside analyze: attempt 1 recovers the file and
    # the request still answers with the real delta.
    monkeypatch.setenv("PARCOACH_FAULTS", "session.analyze:1=exception")
    clear_plan()  # re-read the environment
    docs = _serve(project, "@1 analyze\nquit\n")
    assert docs[0]["request_id"] == "1"
    assert docs[0]["summary"]["incremental"]["findings_total"] == 1


def test_serve_manifest_fault_is_an_error_not_a_crash(project, monkeypatch):
    _write(project, "parcoach.toml", "[project]\nroots = [\".\"]\n")
    monkeypatch.setenv("PARCOACH_FAULTS", "project.manifest_read:1=truncate")
    clear_plan()
    # Truncating the manifest mid-read surfaces as ManifestError (possibly
    # a still-valid prefix parse) — never a crash.
    try:
        with ProjectSession(project) as session:
            session.update_all()
    except ManifestError:
        pass


def test_patch_fault_self_heals_in_serve(project, monkeypatch):
    with ProjectSession(project) as session:
        out = io.StringIO()
        run_project_serve(session, stdin=io.StringIO("analyze\nquit\n"),
                          stdout=out)
        monkeypatch.setenv("PARCOACH_FAULTS", "project.patch:1=exception")
        clear_plan()
        _write(project, "util.mc", "// shifted\n" + UTIL)
        out = io.StringIO()
        run_project_serve(session,
                          stdin=io.StringIO("@p edit util.mc\nquit\n"),
                          stdout=out)
        doc = json.loads(out.getvalue().splitlines()[0])
        # The crashed patch recovers (file evicted, re-read cold) and the
        # answer is still the correct post-edit state.
        assert doc["request_id"] == "p"
        assert doc["summary"]["incremental"]["findings_total"] == 1
        assert session.recoveries >= 1


def test_serve_deadline_ladder(project):
    times = iter([0.0] + [1000.0] * 200)

    def clock():
        return next(times)

    docs = _serve(project, "@1 analyze\nquit\n", deadline_ms=50.0,
                  clock=clock)
    assert docs[0]["summary"]["timeout"]["deadline_ms"] == 50.0
    assert docs[0]["verdict"] == "error"
    # The degraded answer still arrives after the timeout report.
    assert docs[-1]["summary"]["incremental"]["findings_total"] >= 0


def test_serve_xxl_edit_rename_close_sublinear(tmp_path):
    """Live ``project serve`` on the 1000-file (XXL) project: a comment
    insertion answers with zero engine misses, a real one-function edit
    re-analyzes a sub-linear slice (asserted through the served counters),
    and rename/close keep working at that scale."""
    files = make_project(n_files=1000)
    root = str(tmp_path / "xxl")
    write_project(files, root)
    _write(root, "solo.mc", "int solo(int v) { return v; }\n")
    out = io.StringIO()
    with ProjectSession(root) as session:
        run_project_serve(session, stdin=io.StringIO("@1 analyze\nquit\n"),
                          stdout=out)
        total_funcs = session.stats()["project"]["functions"]
        assert total_funcs > 2000
        misses = session.engine.stats.misses

        # Whole-chunk line shift: the answer comes from patched artifacts.
        _write(root, "m500.mc", "// pad line\n" + files["m500.mc"])
        run_project_serve(session,
                          stdin=io.StringIO("@2 edit m500.mc\nquit\n"),
                          stdout=out)
        assert session.engine.stats.misses == misses

        # One-function edit: sub-linear re-analysis, O(project) reuse.
        reuses = session.engine.stats.assembly_reuses
        edited = files["m500.mc"].replace(
            "v += 500;", "v += 500;\n    v += 9;", 1)
        _write(root, "m500.mc", edited)
        run_project_serve(
            session, stdin=io.StringIO("@3 edit m500.mc\n@4 stats\nquit\n"),
            stdout=out)
        assert session.engine.stats.misses - misses < total_funcs // 10
        assert (session.engine.stats.assembly_reuses - reuses
                >= total_funcs - 100)

        os.rename(os.path.join(root, "m500.mc"),
                  os.path.join(root, "m500x.mc"))
        run_project_serve(
            session, stdin=io.StringIO("@5 rename m500.mc m500x.mc\nquit\n"),
            stdout=out)
        run_project_serve(session,
                          stdin=io.StringIO("@6 close solo.mc\nquit\n"),
                          stdout=out)
        assert "m500x.mc" in session._files and "m500.mc" not in session._files
    docs = {d["request_id"]: d
            for d in (json.loads(line)
                      for line in out.getvalue().splitlines())}
    assert docs["1"]["summary"]["incremental"]["findings_total"] == 1
    inc2 = docs["2"]["summary"]["incremental"]
    assert inc2["patched"] and inc2["reanalyzed"] == []
    inc3 = docs["3"]["summary"]["incremental"]
    assert inc3["changed"] == ["m500_f0"]
    assert 0 < len(inc3["reanalyzed"]) < total_funcs // 4
    served = docs["4"]["summary"]["stats"]
    assert served["engine"]["assembly_reuses"] > 0
    assert served["engine"]["graph_rebuilds"] >= 0
    assert served["engine"]["edges_recomputed"] > 0
    assert served["session"]["fast_updates"] >= 2
    assert docs["5"]["verdict"] != "error"
    assert docs["5"]["summary"]["incremental"]["findings_total"] == 1
    assert "solo" in docs["6"]["summary"]["incremental"]["removed"]


# -- CLI ----------------------------------------------------------------------------


def test_cli_project_analyze_text_and_json(project, capsys):
    assert main(["project", "analyze", project]) == 1
    out = capsys.readouterr().out
    assert "util.mc:bump" in out
    assert "main (main.mc)" in out and "bump (util.mc)" in out
    assert main(["project", "analyze", project, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert validate_report(doc) == []
    assert doc["tool"] == "project"


def test_cli_project_analyze_clean_and_errors(tmp_path, capsys):
    _write(tmp_path, "ok.mc", "int f(int v) { return v; }\n")
    assert main(["project", "analyze", str(tmp_path)]) == 0
    assert main(["project", "analyze", str(tmp_path / "missing")]) == 2
