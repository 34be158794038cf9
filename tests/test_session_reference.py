"""Every answer of a warm ``ProjectSession`` equals the engine-free driver.

A seeded script of edits, line shifts, added and removed functions,
signature and thread-level changes, opens, closes, renames, rejected
updates, mode switches and self-heals runs over a generated project.  After
every successful step the session's full report must render the bytes of a
reference built without the session or the engine: the open files are read
from disk in sorted path order and merged, ``analyze_program`` analyzes the
merged program, ``report_from_analysis`` renders it, and the file
qualification is redone here.  The delta's ``dependents`` must equal the
closure of ``tests/reference_dependents.py`` over the call graphs before
and after the step, and each function's ``callers`` must be the sorted
caller names of the committed graph's edges.
"""

import os
import random
import re

import pytest

from repro.bench import make_project
from repro.core import analyze_program
from repro.core.callgraph import build_call_graph
from repro.core.report import (
    finding_fingerprint,
    render_json,
    report_from_analysis,
)
from repro.core.session import SessionError
from repro.minilang import ast_nodes as A
from repro.minilang.parser import parse_program
from repro.project import ProjectSession
from repro.project.session import _dependents
from repro.util.resilience import Deadline, DeadlineExceeded
from reference_dependents import callers_from_edges, dependents

UTIL = ["int bump(int v) {\n    MPI_Barrier();\n    return v + 1;\n}",
        "int plain(int v) {\n    return v - 1;\n}"]

MAINS = ("main.mc", "zmain.mc")
_CONST = re.compile(r"(v [+-]=? )(\d+)")


def reference(root: str, open_files, interprocedural: bool) -> str:
    funcs, file_of = [], {}
    for rel in sorted(open_files):
        with open(os.path.join(root, rel), encoding="utf-8") as handle:
            for func in parse_program(handle.read(), rel).funcs:
                funcs.append(func)
                file_of[func.name] = rel
    program = A.Program(funcs=funcs, filename="reference", line=1)
    report = report_from_analysis(
        analyze_program(program, interprocedural=interprocedural),
        tool="project")
    report["source"] = {"file": root}
    for finding in report["findings"]:
        finding["file"] = file_of[finding["function"]]
        finding["call_path_files"] = [file_of[n]
                                      for n in finding["call_path"]]
        del finding["fingerprint"]
        finding["fingerprint"] = finding_fingerprint(finding)
    return render_json(report)


class Tree:
    """The project's files as function texts plus header comment lines."""

    def __init__(self, root: str) -> None:
        self.root = root
        files = make_project(n_files=10)
        self.funcs = {rel: text.rstrip("\n").split("\n\n")
                      for rel, text in files.items()}
        self.funcs["util.mc"] = list(UTIL)
        self.head = {rel: 0 for rel in self.funcs}
        for rel in self.funcs:
            self.write(rel)

    def text(self, rel: str) -> str:
        return ("// pad\n" * self.head[rel]
                + "\n\n".join(self.funcs[rel]) + "\n")

    def write(self, rel: str, text=None) -> None:
        with open(os.path.join(self.root, rel), "w",
                  encoding="utf-8") as handle:
            handle.write(self.text(rel) if text is None else text)

    def rename(self, old: str, new: str) -> None:
        os.rename(os.path.join(self.root, old), os.path.join(self.root, new))
        self.funcs[new] = self.funcs.pop(old)
        self.head[new] = self.head.pop(old)


def run_script(root: str, seed: int, steps: int = 100):
    rng = random.Random(seed)
    tree = Tree(root)
    session = ProjectSession(root)
    interprocedural = True
    closed = []
    extra = 0
    counts = {"ok": 0, "rejected": 0, "patched": 0, "rebuilt": 0}

    def update(call, *args):
        before = session._record.graph
        stats = session.engine.stats
        rebuilds, recomputed = stats.graph_rebuilds, stats.edges_recomputed
        try:
            delta = call(*args, interprocedural=interprocedural)
        except SessionError:
            counts["rejected"] += 1
            assert session._record.graph is before
            return False
        counts["ok"] += 1
        graph = session._record.graph
        if stats.graph_rebuilds > rebuilds:
            counts["rebuilt"] += 1
        elif stats.edges_recomputed > recomputed:
            counts["patched"] += 1
        assert graph.callers == {n: tuple(sorted(c)) for n, c in
                                 callers_from_edges(graph).items()}
        closure = dependents(set(delta.changed) | set(delta.removed),
                             before, graph)
        assert delta.dependents == tuple(n for n in closure
                                         if n in graph.scc_of), (seed, call)
        expected = reference(root, session.stats()["project"]["open_files"],
                             interprocedural)
        assert render_json(session.report) == expected, (seed, call, args)
        assert delta.findings_total == len(
            {f["fingerprint"] for f in session.report["findings"]})
        return True

    update(session.update_all)
    for _ in range(steps):
        open_files = session.stats()["project"]["open_files"]
        rel = rng.choice(open_files) if open_files else None
        kind = rng.choice((
            "body", "body", "body", "call", "shift", "shift", "add",
            "add", "remove", "remove", "swap",
            "signature", "level", "close", "open", "rename", "reject",
            "mode", "recover", "rebuild"))
        if rel is None and kind not in ("open", "mode", "rebuild"):
            kind = "open"
        if kind == "body":
            funcs = tree.funcs[rel]
            j = rng.randrange(len(funcs))
            body = funcs[j]
            if rng.random() < 0.3:
                # Toggle a barrier: a summary flip for every caller.
                barrier = "    MPI_Barrier();\n"
                funcs[j] = (body.replace(barrier, "", 1) if barrier in body
                            else body.replace("{\n", "{\n" + barrier, 1))
            elif "MPI_Allreduce" in body or "acc = red;" in body:
                # Toggle a chain's only collective: every function up the
                # chain stops (or starts) being a collective function.
                reduce = 'MPI_Allreduce(acc, red, "sum");'
                funcs[j] = (body.replace(reduce, "acc = red;")
                            if reduce in body
                            else body.replace("acc = red;", reduce))
            else:
                funcs[j] = _CONST.sub(
                    lambda m: m.group(1) + str(rng.randrange(50)), funcs[j],
                    count=1)
            tree.write(rel)
            if not update(session.update_file, rel):
                funcs[j] = body  # a call to a closed file's function
                tree.write(rel)
        elif kind == "call":
            # Toggle a second call from main's parallel region: bump gets a
            # new context and witness chain without being edited.
            main = next(r for r in tree.funcs if "void main()" in
                        "".join(tree.funcs[r]))
            funcs = tree.funcs[main]
            body, call = funcs[-1], "        x = bump(x);\n"
            funcs[-1] = (body.replace(call, "") if call in body
                         else body.replace("bug_helper(x);\n",
                                           "bug_helper(x);\n" + call))
            tree.write(main)
            if not update(session.update_file, main):
                funcs[-1] = body  # util.mc is closed
                tree.write(main)
        elif kind == "shift":
            tree.head[rel] = (tree.head[rel] + 1) % 3
            tree.write(rel)
            if rng.random() < 0.5:
                # A budget that expires after the patches: the failed
                # update must shift nothing for good.
                ticks = iter([0.0, 0.0] + [1e9] * 100)
                try:
                    session.update_file(
                        rel, Deadline(1.0, clock=lambda: next(ticks)),
                        interprocedural=interprocedural)
                except DeadlineExceeded:
                    counts["rejected"] += 1
            update(session.update_file, rel)
        elif kind == "swap":
            # Same functions in a new order: patched, and the merged
            # function order moves.
            tree.funcs[rel].reverse()
            tree.write(rel)
            update(session.update_file, rel)
        elif kind == "add":
            extra += 1
            # Every other extra guards a barrier by rank: a finding of its
            # own that goes when the function does, and an instrumented
            # callee (bump) that is not re-analyzed.
            guard = ("    if (MPI_Comm_rank() > 0) {\n"
                     "        MPI_Barrier();\n    }\n"
                     "    v = bump(v);\n" if extra % 2 else "")
            funcs = tree.funcs[rel]
            funcs.insert(rng.randrange(len(funcs) + 1),
                         f"int extra{extra}(int v) {{\n{guard}"
                         f"    return v + {extra};\n}}")
            tree.write(rel)
            if not update(session.update_file, rel):
                funcs.remove(next(t for t in funcs
                                  if t.startswith(f"int extra{extra}(")))
                tree.write(rel)
        elif kind == "remove":
            funcs = tree.funcs[rel]
            doomed = [t for t in funcs if t.startswith("int extra")]
            if doomed and len(funcs) > 1:
                funcs.remove(rng.choice(doomed))
                tree.write(rel)
                update(session.update_file, rel)
        elif kind == "signature":
            # Valid when nobody calls the function (the extras, the util
            # helpers, the f1 chain heads); otherwise rejected and undone.
            funcs = tree.funcs[rel]
            j = rng.randrange(len(funcs))
            old = funcs[j]
            funcs[j] = (old.replace("(int v)", "(int v, int w)", 1)
                        if "(int v)" in old
                        else old.replace(", int w", "", 1))
            tree.write(rel)
            if not update(session.update_file, rel):
                funcs[j] = old
                tree.write(rel)
        elif kind == "level":
            main = next(r for r in tree.funcs if "void main()" in
                        "".join(tree.funcs[r]))
            funcs = tree.funcs[main]
            funcs[:] = [re.sub(r"MPI_Init_thread\(\d\)",
                               f"MPI_Init_thread({rng.randrange(4)})", t)
                        for t in funcs]
            tree.write(main)
            update(session.update_file, main)
        elif kind == "close":
            if update(session.close_file, rel):
                closed.append(rel)
        elif kind == "open":
            if closed:
                target = closed.pop(rng.randrange(len(closed)))
                if not update(session.update_file, target):
                    closed.append(target)
        elif kind == "rename":
            if rng.random() < 0.5 and any(m in open_files for m in MAINS):
                # main sits on every witness chain.
                rel = next(m for m in MAINS if m in open_files)
            new = (rel[1:] if rel.startswith("z") else "z" + rel)
            tree.rename(rel, new)
            if not update(session.rename_file, rel, new):
                tree.rename(new, rel)
        elif kind == "reject":
            tree.write(rel, tree.text(rel) + "\nint broken( {\n")
            assert not update(session.update_file, rel)
            tree.write(rel)
        elif kind == "mode":
            interprocedural = not interprocedural
            update(session.update_all)
        elif kind == "recover":
            session.recover_file(rel)
            update(session.update_all)
        else:
            session.rebuild()
            update(session.update_all)
    return counts


@pytest.mark.parametrize("seed", range(4))
def test_session_answers_equal_the_driver(tmp_path, seed):
    counts = run_script(str(tmp_path), seed)
    assert counts["ok"] > 60 and counts["rejected"] > 0, counts
    # Both paths of ``update_call_graph`` built the graphs checked above.
    assert counts["patched"] > 0 and counts["rebuilt"] > 0, counts


def _random_graph(rng, names):
    texts = []
    for name in names:
        calls = "".join(f"    v = {callee}(v);\n"
                        for callee in rng.sample(names, rng.randrange(4)))
        texts.append(f"int {name}(int v) {{\n{calls}    return v;\n}}")
    return build_call_graph(parse_program("\n\n".join(texts)))


@pytest.mark.parametrize("seed", range(20))
def test_dependents_walk_equals_the_reference_on_any_graph_pair(seed):
    # Unlike a session update, the two graphs may differ in callers that
    # are not seeds, so the walk must merge both versions' callers.
    rng = random.Random(seed)
    pool = [f"f{i}" for i in range(12)]
    old = _random_graph(rng, rng.sample(pool, 9))
    new = _random_graph(rng, rng.sample(pool, 9))
    for _ in range(5):
        dirty = set(rng.sample(pool, rng.randrange(1, 4)))
        assert _dependents(dirty, old, new) == dependents(dirty, old, new)
