"""Project-session benchmark — cold analyze vs one-file edit vs line patch.

Measures the tentpole claims of the project layer on the generated 100-file
project (``repro.bench.make_project``: ~200 functions, call chains crossing
every file boundary, one seeded cross-file bug):

* ``project_cold``  — a fresh :class:`repro.project.ProjectSession` running
  its first ``update_all`` (read + parse + merged cross-file analysis +
  report for every file): what one-shot ``parcoach project analyze`` pays.
* ``project_edit``  — a warm session folding in a one-line edit of one
  function in one file: chunked re-parse of that file, global fingerprint
  diff, cross-file dependent closure, re-analysis of the closure only.
* ``project_patch`` — a warm session folding in a line *insertion* above
  every function of one file: the pure line-offset patch path — cached
  artifacts shift in place, zero engine misses.

``derived.project_edit_speedup`` / ``derived.project_patch_speedup`` in
``BENCH_scale.json`` are the cold/edit and cold/patch ratios;
``test_project_edit_speedup_threshold`` is the ≥ 5x regression gate.

``project_edit`` additionally runs on the 1000-file XXL shape
(``repro.bench.PROJECT_SIZES``); ``derived.project_assembly_speedup`` is
the P1000/P100 per-edit ratio and
``test_project_assembly_scaling_threshold`` gates it ≤ 2x — a one-file
edit must cost O(edit + dependents), not O(project).

Sessions keep everything in memory, so every round measures engine work
and no round reads back an earlier one's artifacts from disk.
"""

import gc
import itertools
import os
import time

import pytest

from repro.bench import make_project, write_project
from repro.project import ProjectSession

SIZE = "P100"
EDIT_FILE = "m050.mc"
EDIT_FUNC = "m50_f0"

XXL_SIZE = "P1000"
XXL_EDIT_FILE = "m500.mc"
XXL_EDIT_FUNC = "m500_f0"

#: Distinct one-line replacements — consecutive rounds must really edit.
_VALUES = ("v += 50;\n    v += 1;", "v += 50;\n    v += 2;",
           "v += 50;\n    v += 3;", "v += 50;\n    v += 4;",
           "v += 50;\n    v += 5;", "v += 50;\n    v += 6;")


@pytest.fixture(scope="module")
def files():
    return make_project(n_files=100)


@pytest.fixture(scope="module")
def files_xxl():
    return make_project(n_files=1000)


def _materialize(files, tmp_path_factory, tag):
    root = str(tmp_path_factory.mktemp(tag))
    write_project(files, root)
    return root


def _write(root, rel, text):
    with open(os.path.join(root, rel), "w", encoding="utf-8") as handle:
        handle.write(text)


def test_project_cold(benchmark, files, tmp_path_factory):
    root = _materialize(files, tmp_path_factory, "cold")
    benchmark.extra_info["size"] = SIZE
    benchmark.extra_info["config"] = "project_cold"

    def cold():
        with ProjectSession(root) as session:
            return session.update_all()

    delta = benchmark(cold)
    assert delta.findings_total == 1


def test_project_one_file_edit(benchmark, files, tmp_path_factory):
    root = _materialize(files, tmp_path_factory, "edit")
    base = files[EDIT_FILE]
    variants = itertools.cycle(
        base.replace("v += 50;", value, 1) for value in _VALUES)
    benchmark.extra_info["size"] = SIZE
    benchmark.extra_info["config"] = "project_edit"
    with ProjectSession(root) as session:
        session.update_all()

        def edit(text):
            _write(root, EDIT_FILE, text)
            return session.update_file(EDIT_FILE)

        delta = benchmark.pedantic(
            edit, setup=lambda: ((next(variants),), {}), rounds=5)
        # The measured rounds were real one-function edits whose re-analysis
        # stayed inside the dependent closure, not the whole project.
        assert delta.changed == (EDIT_FUNC,)
        functions = session.stats()["project"]["functions"]
        assert 0 < len(delta.reanalyzed) < functions // 2


def test_project_one_file_edit_xxl(benchmark, files_xxl, tmp_path_factory):
    """The same one-function edit, on the 1000-file (XXL) project — the
    ``project_edit`` pair P100/P1000 feeds ``derived.
    project_assembly_speedup`` (the per-edit scaling ratio) in
    ``BENCH_scale.json``."""
    root = _materialize(files_xxl, tmp_path_factory, "edit-xxl")
    base = files_xxl[XXL_EDIT_FILE]
    variants = itertools.cycle(
        base.replace("v += 500;", value, 1)
        for value in ("v += 500;\n    v += 1;", "v += 500;\n    v += 2;",
                      "v += 500;\n    v += 3;", "v += 500;\n    v += 4;",
                      "v += 500;\n    v += 5;", "v += 500;\n    v += 6;"))
    benchmark.extra_info["size"] = XXL_SIZE
    benchmark.extra_info["config"] = "project_edit"
    with ProjectSession(root) as session:
        session.update_all()

        def edit(text):
            _write(root, XXL_EDIT_FILE, text)
            return session.update_file(XXL_EDIT_FILE)

        delta = benchmark.pedantic(
            edit, setup=lambda: ((next(variants),), {}), rounds=5)
        assert delta.changed == (XXL_EDIT_FUNC,)
        functions = session.stats()["project"]["functions"]
        assert 0 < len(delta.reanalyzed) < functions // 2


def test_project_line_insert_patch(benchmark, files, tmp_path_factory):
    root = _materialize(files, tmp_path_factory, "patch")
    base = files[EDIT_FILE]
    # Alternate inserting/removing a comment line above every function of
    # the file: every round is a pure ±1 line shift of unchanged chunks.
    variants = itertools.cycle(("// benchmark pad line\n" + base, base))
    benchmark.extra_info["size"] = SIZE
    benchmark.extra_info["config"] = "project_patch"
    with ProjectSession(root) as session:
        session.update_all()
        misses = session.engine.stats.misses

        def patch(text):
            _write(root, EDIT_FILE, text)
            return session.update_file(EDIT_FILE)

        delta = benchmark.pedantic(
            patch, setup=lambda: ((next(variants),), {}), rounds=5)
        # Every measured round answered from patched artifacts.
        assert delta.patched and not delta.changed and not delta.reanalyzed
        assert session.engine.stats.misses == misses


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_project_edit_speedup_threshold(files, tmp_path_factory):
    """Regression gate: on the 100-file project, a one-file edit must
    re-verdict at least 5x faster than a cold project analyze (the patch
    path is gated indirectly — it does strictly less work than the edit)."""
    root = _materialize(files, tmp_path_factory, "gate")

    def cold():
        with ProjectSession(root) as session:
            session.update_all()

    cold_s = min(_timed(cold) for _ in range(2))
    with ProjectSession(root) as session:
        session.update_all()
        edits = [files[EDIT_FILE].replace("v += 50;", value, 1)
                 for value in _VALUES[:4]]

        def edit(text):
            _write(root, EDIT_FILE, text)
            session.update_file(EDIT_FILE)

        edit_s = min(_timed(lambda t=t: edit(t)) for t in edits)
    speedup = cold_s / edit_s
    assert speedup >= 5.0, (
        f"one-file edit only {speedup:.1f}x faster than cold project "
        f"analyze ({cold_s * 1e3:.1f}ms vs {edit_s * 1e3:.1f}ms)"
    )


def _min_edit_seconds(root, files, rel, token, edits=10) -> float:
    """Warm a session on ``root``, then time ``edits`` distinct one-line
    edits of ``rel`` (GC parked during the measured region) and return the
    fastest — the steady-state per-edit cost."""
    base = files[rel]
    times = []
    with ProjectSession(root) as session:
        session.update_all()
        for i in range(edits):
            text = base.replace(token, f"{token}\n    v += {i + 1};", 1)
            _write(root, rel, text)
            gc.collect()
            gc.disable()
            t0 = time.perf_counter()
            delta = session.update_file(rel)
            dt = time.perf_counter() - t0
            gc.enable()
            times.append(dt)
            assert len(delta.changed) == 1
    return min(times)


def test_project_assembly_scaling_threshold(files, files_xxl,
                                            tmp_path_factory):
    """Regression gate for O(edit) assembly: the steady-state cost of a
    one-function edit on the 1000-file project must stay within 2x of the
    identical edit on the 100-file project.  A whole-project rebuild
    anywhere on the update path (merged function list, call graph,
    contexts, summaries, report rendering) scales with project size and
    pushes this ratio toward 10x."""
    root_small = _materialize(files, tmp_path_factory, "asm-small")
    root_xxl = _materialize(files_xxl, tmp_path_factory, "asm-xxl")
    small_s = _min_edit_seconds(root_small, files, EDIT_FILE, "v += 50;")
    xxl_s = _min_edit_seconds(root_xxl, files_xxl, XXL_EDIT_FILE,
                              "v += 500;")
    ratio = xxl_s / small_s
    assert ratio <= 2.0, (
        f"one-file edit at 1000 files is {ratio:.2f}x the 100-file cost "
        f"({xxl_s * 1e3:.2f}ms vs {small_s * 1e3:.2f}ms) — project "
        f"assembly is no longer O(edit + dependents)"
    )
