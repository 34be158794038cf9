"""The incremental session behind every analysis daemon.

A :class:`ProjectSession` serves ``parcoach project serve`` directly, and
``parcoach serve`` / ``watch`` analyze each requested path as a one-file
project (:mod:`repro.project.serve`).  Every open file contributes its
functions to **one merged program** fed to one engine, so the call graph,
calling-context propagation and collective summaries are cross-file by
construction: a rank-guarded collective in ``helper()`` defined in
``util.mc`` is flagged at the call in ``main.mc`` with a witness chain
spanning both files — exactly the finding a per-file ``parcoach analyze``
of either file cannot produce.

The session holds one committed whole-program *record*: the merged
program and the mode it was analyzed in, the open set, the per-file
states, fingerprints and name maps, the program facts and call graph, the
interprocedural plan, the per-function report cache and the findings.
Every update — the first analysis, an edit, open, close, rename, a mode
switch — is a **delta** from that record, computed on one path and
committed whole at its end; a cold start is the delta from the empty
record, and a rejected update commits nothing.  The path:

* **Chunked re-reads** — each requested file is split into top-level
  function chunks (:func:`~repro.core.session.split_chunks`).  An unchanged
  chunk reuses its ``FuncDef`` object; a chunk whose text only moved is
  *patched* (:meth:`~repro.core.engine.AnalysisEngine
  .patch_function_lines` shifts the AST and every cached artifact in
  place, so a comment line inserted between functions re-answers with zero
  engine misses); only edited chunks are re-parsed.

* **Splicing** — the touched files' functions are spliced into their spans
  of the merged function list (the span table is rebuilt when the file set
  or a file's function names change).  Only functions not in the record
  are semantically checked, unless the signature map changed.

* **Delta-maintained whole-program state** — the call graph is patched for
  the re-parsed functions (:func:`~repro.core.callgraph.update_call_graph`),
  the context fixpoint is reused when their transfers replay identically
  (:func:`~repro.core.callgraph.contexts_reusable`), summaries walk only
  the dirty SCCs and their really-changed ancestors
  (:func:`~repro.core.callgraph.update_summaries`), the plan and the
  program facts are patched (:func:`~repro.core.driver.update_plan`,
  :meth:`~repro.core.engine.AnalysisEngine.update_program_facts`), and the
  engine analyzes a *scope* of exactly the functions whose artifacts could
  differ (:meth:`~repro.core.engine.AnalysisEngine.analyze_functions`).
  Their report pieces are folded into the report cache, whose lazy render
  is the full Report IR document.  A one-function edit costs O(size of
  edit + dependents); the ``assembly_reuses`` / ``edges_recomputed`` /
  ``graph_rebuilds`` engine counters surface how much was skipped.

Everything the session knows lives in memory: its engine's cache and the
record.  Nothing is written under the project root.

Project findings are file-qualified: every finding carries the defining
``file`` of its function plus ``call_path_files`` aligned with the witness
chain, and the finding fingerprint covers both (a one-file project leaves
findings unqualified, with the fingerprints ``analyze --json`` gives).
Protocol details: ``docs/project-protocol.md``.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass, field, replace
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from ..minilang import ast_nodes as A
from ..minilang.semantics import Checker
from ..parallelism import EMPTY, Word, parse_word
from ..util.faultinject import fault_site
from ..util.resilience import Deadline, ResilienceCounters
from ..core.callgraph import (
    CallGraph,
    contexts_reusable,
    propagate_contexts,
    update_call_graph,
    update_summaries,
)
from ..core.diagnostics import ErrorCode
from ..core.driver import (
    InterproceduralPlan,
    thread_level_diagnostic,
    update_plan,
)
from ..core.engine import AnalysisEngine, ProgramFacts, ast_fingerprint
from ..core.report import (
    build_report,
    diagnostic_finding,
    finding_fingerprint,
    function_entry,
)
from ..core.session import SessionError, _parse_chunk, split_chunks
from ..core.sites import ProgramIndex, collective_call_graph, index_function
from .manifest import ProjectManifest, load_manifest


@dataclass
class ProjectUpdate:
    """The delta produced by one project update (open/edit/close/analyze)."""

    #: Relative paths read from disk for this update.
    files: Tuple[str, ...]
    #: Monotonic project update counter (1 = first analysis).
    seq: int
    no_op: bool
    #: True when any read file fell back to a full parse.
    full_parse: bool
    #: Function names whose fingerprint moved or appeared.
    changed: Tuple[str, ...]
    #: Function names that disappeared.
    removed: Tuple[str, ...]
    #: Functions served by the line-offset patch pass (shifted, not
    #: re-parsed, not re-analyzed).
    patched: Tuple[str, ...]
    #: Reverse-call-graph closure of changed ∪ removed, minus the seeds —
    #: crosses file boundaries.
    dependents: Tuple[str, ...]
    #: Functions the engine actually re-analyzed.
    reanalyzed: Tuple[str, ...]
    invalidated_entries: int
    findings_added: Tuple[dict, ...]
    findings_removed: Tuple[str, ...]
    findings_total: int
    #: Report IR document for this delta (see :meth:`document`).
    report: dict = field(repr=False, default_factory=dict)

    def document(self, tool: str, source: Optional[dict],
                 **extra: Any) -> dict:
        """This delta as a Report IR document: only the findings that
        appeared, plus the incremental bookkeeping a consumer of the stream
        needs to rebuild the full picture.  ``patched`` is listed when
        non-empty; ``extra`` adds tool-specific ``incremental`` keys."""
        incremental: Dict[str, Any] = {
            "no_op": self.no_op,
            "full_parse": self.full_parse,
            "changed": list(self.changed),
            "removed": list(self.removed),
            "dependents": list(self.dependents),
            "reanalyzed": list(self.reanalyzed),
            "invalidated_entries": self.invalidated_entries,
            "findings_added": len(self.findings_added),
            "findings_removed": list(self.findings_removed),
            "findings_total": self.findings_total,
        }
        if self.patched:
            incremental["patched"] = list(self.patched)
        incremental.update(extra)
        return build_report(
            tool, source=source, findings=list(self.findings_added),
            verdict="findings" if self.findings_total else "clean",
            summary={"update": self.seq, "incremental": incremental})


@dataclass(frozen=True)
class _ProjectFile:
    """Per-file state inside the merged project."""

    rel: str
    #: The text of the last update that read the file; None after a
    #: ``recover_file`` (the next update re-reads it cold).
    source: Optional[str]
    funcs: List[A.FuncDef]
    #: (sha256(text), start_line) -> FuncDef; None = every function of the
    #: next read is re-parsed.
    chunks: Optional[Dict[Tuple[str, int], A.FuncDef]]
    #: Function names in file order.
    names: Tuple[str, ...] = ()
    #: name -> (ret_type, arity) of this file's functions.
    sigs: Dict[str, tuple] = field(default_factory=dict)


@dataclass
class _ParsedFile:
    """One file's parse result, before it is committed to the session."""

    rel: str
    source: str
    funcs: List[A.FuncDef]
    chunks: Optional[Dict[Tuple[str, int], A.FuncDef]]
    #: (func, line delta) pairs to patch — applied only after the merged
    #: program passes the semantic check, and undone if the update fails.
    patches: List[Tuple[A.FuncDef, int]]
    full_parse: bool
    changed_text: bool


@dataclass(frozen=True)
class _ReportCache:
    """Per-function pieces of the current Report IR document.

    The report is rendered by concatenating these pieces in program order.
    An update replaces only the pieces of the functions it analyzed, at
    its commit.  The entry and finding dicts are shared with emitted
    reports and never mutated — a changed piece is a new dict.
    """

    #: function -> its ``summary.functions`` entry.
    entries: Dict[str, dict]
    #: function -> its findings (mono → conc → seq order), only for
    #: functions with at least one.
    base: Dict[str, Tuple[dict, ...]]
    #: function -> its THREAD_LEVEL finding (sparse).
    thread: Dict[str, dict]
    flagged: FrozenSet[str]
    has_sites: FrozenSet[str]
    instrumented: FrozenSet[str]


@dataclass(frozen=True)
class _Record:
    """The committed whole-program state: every update is a delta from
    one and commits a new one whole.  Per-name deltas are written into its
    dicts in place, only at the commit (or by a self-heal step); a failed
    update never reaches the commit."""

    program: A.Program
    #: Whether the record was analyzed interprocedurally.
    interproc: bool
    open: FrozenSet[str]
    #: Open files the next update must re-read (a self-heal dropped their
    #: parse state).
    stale: FrozenSet[str]
    files: Dict[str, _ProjectFile]
    #: rel -> (start, end) span of the file's functions inside
    #: ``program.funcs`` (sorted-path file order).
    spans: Dict[str, Tuple[int, int]]
    fingerprints: Dict[str, str]
    funcs: Dict[str, A.FuncDef]
    func_file: Dict[str, str]
    signatures: Dict[str, tuple]
    checker: Checker
    #: Index, collective functions, function names, requested level.
    facts: ProgramFacts
    graph: CallGraph
    #: Contexts, summaries and extra points; None in intraprocedural mode.
    plan: Optional[InterproceduralPlan]
    cache: _ReportCache
    #: finding fingerprint -> finding.
    findings: Dict[str, dict]


def _apply(target: Dict, put: Dict, drop=()) -> None:
    """Remove ``drop`` from ``target``, then apply ``put``, where a None
    value removes its key."""
    for key in drop:
        target.pop(key, None)
    for key, value in put.items():
        if value is None:
            target.pop(key, None)
        else:
            target[key] = value


def _signatures(funcs: List[A.FuncDef]) -> Dict[str, tuple]:
    return {f.name: (f.ret_type, len(f.params)) for f in funcs}


class ProjectSession(ResilienceCounters):
    """A long-lived incremental session over every file of one project.

    ``update_file`` / ``close_file`` / ``rename_file`` / ``update_all`` are
    the API: each folds the current on-disk text into the merged program and
    returns a :class:`ProjectUpdate`.  Construction resolves the manifest
    (``parcoach.toml`` or an explicit file list) but reads no sources; the
    first update does.  ``engine`` shares one engine between sessions.
    ``store`` is accepted and ignored: the session keeps no on-disk state.

    With ``one_file=True``, ``root`` is the path of a single file and the
    session presents itself as that file: the manifest is built from the
    path alone (no ``parcoach.toml`` is read), findings stay unqualified
    (the fingerprints ``analyze --json`` gives), and the merged program
    carries the file's name.
    """

    def __init__(self, root: str, files: Optional[List[str]] = None,
                 precision: str = "paper",
                 interprocedural: bool = True,
                 entry_context: Optional[Word] = None,
                 store: Optional[bool] = None, *,
                 engine: Optional[AnalysisEngine] = None,
                 one_file: bool = False) -> None:
        super().__init__()
        self.manifest: ProjectManifest = (
            ProjectManifest(root="", files=(root,)) if one_file
            else load_manifest(root, files))
        self._qualified = not one_file
        #: Name of the merged program (what a text report prints).
        self._program_name = root if one_file else f"<project:{root}>"
        self.precision = precision
        self.interprocedural = interprocedural
        if entry_context is None:
            entry_context = (parse_word(self.manifest.initial_context)
                             if self.manifest.initial_context else EMPTY)
        self.entry_context = entry_context
        self.engine = engine if engine is not None else AnalysisEngine()

        self.updates = 0
        self.no_op_updates = 0
        #: Analyzing updates from a non-empty record in the same mode.
        self.fast_updates = 0
        #: Analyzing updates from the empty record: the first update, the
        #: first after ``rebuild()``, the first after a mode switch.
        self.full_updates = 0
        self.context_reuses = 0
        self.seq = 0
        self._record = self._empty_record(frozenset())
        #: The rendered report of the record (None: render on next access).
        self._report_doc: Optional[dict] = None

    def _empty_record(self, open_files: FrozenSet[str]) -> _Record:
        """The empty record over ``open_files`` (all of them stale)."""
        program = A.Program(funcs=[], filename=self._program_name, line=1)
        return _Record(
            program=program, interproc=self.interprocedural,
            open=open_files, stale=open_files, files={}, spans={},
            fingerprints={}, funcs={}, func_file={}, signatures={},
            checker=Checker(program),
            facts=ProgramFacts(index=ProgramIndex(), collective_funcs=set(),
                               func_names=set(), requested=None),
            graph=CallGraph(order=[], edges={}, callers={}, entries=[],
                            sccs=[], scc_of={}, recursive=frozenset()),
            plan=None,
            cache=_ReportCache(entries={}, base={}, thread={},
                               flagged=frozenset(), has_sites=frozenset(),
                               instrumented=frozenset()),
            findings={})

    @property
    def report(self) -> Optional[dict]:
        """Full Report IR of the current project version (rendered from
        the report cache on first access after an update)."""
        if self._report_doc is None and self.seq:
            self._report_doc = self._render(self._record)
        return self._report_doc

    @property
    def _files(self) -> Dict[str, _ProjectFile]:
        """The committed per-file states (what ``ping`` counts)."""
        return self._record.files

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Nothing to release — the session holds only memory.  With the
        context-manager protocol it lets callers scope a session."""

    def __enter__(self) -> "ProjectSession":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def stats(self) -> Dict[str, object]:
        rec = self._record
        return {
            "engine": self.engine.cache_info(),
            "session": {
                "files": len(rec.files),
                "updates": self.updates,
                "no_op_updates": self.no_op_updates,
                "fast_updates": self.fast_updates,
                "full_updates": self.full_updates,
                "context_reuses": self.context_reuses,
                **self.resilience_stats(),
            },
            "project": {
                "root": self.manifest.root,
                "manifest_files": len(self.manifest.files),
                "open_files": sorted(rec.open),
                "functions": len(rec.fingerprints),
            },
        }

    # -- self-healing --------------------------------------------------------

    def recover_file(self, rel: str) -> None:
        """Targeted self-heal: forget one file's parse state and evict its
        functions' artifacts.  It stays *open*, so the next update re-reads
        and re-parses it cold; every other file's warm state survives."""
        rec = self._record
        state = rec.files.get(rel)
        if state is None:
            return
        self.engine.invalidate_fingerprints(
            {rec.fingerprints[f.name] for f in state.funcs
             if f.name in rec.fingerprints})
        rec.files[rel] = replace(state, source=None, chunks=None)
        self._record = replace(rec, stale=rec.stale | {rel})

    def rebuild(self) -> None:
        """Last-resort self-heal: a fresh engine and the empty record over
        the same open files, which the next update re-reads."""
        self.engine = AnalysisEngine()
        self._record = self._empty_record(self._record.open)
        self._report_doc = None

    # -- per-file parsing ----------------------------------------------------

    def source(self, rel: str) -> Optional[str]:
        """The text of ``rel`` as of the last successful update."""
        state = self._record.files.get(rel)
        return state.source if state is not None else None

    def _read(self, rel: str) -> str:
        path = self.manifest.abspath(rel)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            return fault_site("session.read_file", source)
        except OSError as exc:
            raise SessionError(rel, [str(exc)]) from exc

    def _parse_file(self, rel: str, source: str) -> _ParsedFile:
        """Split ``rel``'s text into chunks and classify each against the
        committed version: identical (reuse the ``FuncDef`` object), shifted
        (same text at a new start line — queue a line-offset patch), or
        edited (re-parse).  Any anomaly falls back to a full parse.  A
        shift is measured from the function's current line."""
        prev = self._record.files.get(rel)
        if prev is not None and prev.source == source:
            return _ParsedFile(rel=rel, source=source, funcs=prev.funcs,
                               chunks=prev.chunks, patches=[],
                               full_parse=False, changed_text=False)
        chunks = split_chunks(source)
        if chunks is None:
            return self._full_parse_file(rel, source)
        #: digest -> previous functions with that text, for patching.
        movable: Dict[str, List[A.FuncDef]] = {}
        if prev is not None and prev.chunks is not None:
            for (digest, _line), func in prev.chunks.items():
                movable.setdefault(digest, []).append(func)
        funcs: List[A.FuncDef] = []
        chunk_map: Dict[Tuple[str, int], A.FuncDef] = {}
        patches: List[Tuple[A.FuncDef, int]] = []
        for chunk in chunks:
            digest, start_line = chunk.key
            func = None
            for i, candidate in enumerate(movable.get(digest, ())):
                if candidate.line == start_line:
                    func = candidate  # identical chunk: plain reuse
                    del movable[digest][i]
                    break
            else:
                candidates = movable.get(digest)
                if candidates:
                    func = candidates.pop(0)
                    patches.append((func, start_line - func.line))
            if func is None:
                func = _parse_chunk(chunk, rel)
                if func is None:
                    return self._full_parse_file(rel, source)
            funcs.append(func)
            chunk_map[(digest, start_line)] = func
        return _ParsedFile(rel=rel, source=source, funcs=funcs,
                           chunks=chunk_map, patches=patches,
                           full_parse=False, changed_text=True)

    def _full_parse_file(self, rel: str, source: str) -> _ParsedFile:
        from ..minilang.parser import parse_program

        try:
            program = parse_program(source, rel)
        except Exception as exc:
            raise SessionError(rel, [str(exc)]) from exc
        return _ParsedFile(rel=rel, source=source, funcs=list(program.funcs),
                           chunks=None, patches=[], full_parse=True,
                           changed_text=True)

    # -- updates -------------------------------------------------------------

    def update_file(self, rel: str, deadline: Optional[Deadline] = None,
                    interprocedural: Optional[bool] = None) -> ProjectUpdate:
        """(Re-)read one file from disk and fold it into the project (it
        joins the open set once the update commits)."""
        return self._update({rel}, frozenset(), deadline, interprocedural)

    def close_file(self, rel: str, deadline: Optional[Deadline] = None,
                   interprocedural: Optional[bool] = None) -> ProjectUpdate:
        """Drop one file from the project (its functions disappear; their
        cross-file callers re-check and re-analyze)."""
        if rel not in self._record.open:
            raise SessionError(rel, [f"{rel} is not open"])
        return self._update(set(), frozenset({rel}), deadline,
                            interprocedural)

    def rename_file(self, old: str, new: str,
                    deadline: Optional[Deadline] = None,
                    interprocedural: Optional[bool] = None) -> ProjectUpdate:
        """Atomic rename: fold ``new`` in and drop ``old`` in one update.

        Neither step is expressible alone when other files call the moved
        functions — closing ``old`` first leaves unknown callees, opening
        ``new`` first defines duplicates.  Equal text at equal lines keeps
        the structural fingerprints, so nothing re-analyzes; findings are
        re-qualified to the new file (their fingerprints move with it)."""
        if old not in self._record.open:
            raise SessionError(old, [f"{old} is not open"])
        return self._update({new}, frozenset({old}), deadline,
                            interprocedural)

    def update_all(self, deadline: Optional[Deadline] = None,
                   interprocedural: Optional[bool] = None) -> ProjectUpdate:
        """(Re-)read every project file: the manifest set until an update
        has committed, the open set afterwards."""
        files = self.manifest.files if self.seq == 0 else self._record.open
        return self._update(set(files), frozenset(), deadline,
                            interprocedural)

    def _update(self, reads: Set[str], closed: FrozenSet[str],
                deadline: Optional[Deadline],
                interprocedural: Optional[bool]) -> ProjectUpdate:
        interproc = (self.interprocedural if interprocedural is None
                     else interprocedural)
        self.updates += 1
        rec = self._record
        if closed or not reads <= rec.open:
            open_files = (rec.open - closed) | reads
        else:
            open_files = rec.open
        parsed: Dict[str, _ParsedFile] = {}
        for rel in sorted(reads | (rec.stale - closed)):
            parsed[rel] = self._parse_file(rel, self._read(rel))
        if deadline is not None:
            deadline.check("session.parse")
        return self._refresh(rec, open_files, closed, parsed, deadline,
                             interproc)

    def _refresh(self, rec: _Record, open_files: FrozenSet[str],
                 closed: FrozenSet[str], parsed: Dict[str, _ParsedFile],
                 deadline: Optional[Deadline],
                 interproc: bool) -> ProjectUpdate:
        """Fold ``parsed`` and ``closed`` into the record ``rec`` — the one
        path every update takes — and commit the result."""
        engine = self.engine
        files_read = tuple(sorted(parsed))
        full_parse = any(p.full_parse for p in parsed.values())
        reset = rec.interproc != interproc
        touched = {rel: parsed[rel] for rel in files_read
                   if parsed[rel].changed_text}
        if not touched and not closed and not reset:
            self.seq += 1
            self.no_op_updates += 1
            return self._make_update(files_read, no_op=True,
                                     full_parse=False)

        # The merged function list: splice each touched file into its span
        # while the file set and every touched file's names and signatures
        # hold; otherwise rebuild the spans and the name maps.
        structural = bool(closed) or any(
            (state := rec.files.get(rel)) is None
            or state.names != tuple(f.name for f in p.funcs)
            or state.sigs != _signatures(p.funcs)
            for rel, p in touched.items())
        old_funcs = rec.program.funcs
        fresh: List[A.FuncDef] = []
        moved: Set[str] = set()
        if structural:
            spans: Dict[str, Tuple[int, int]] = {}
            funcs: List[A.FuncDef] = []
            func_file: Dict[str, str] = {}
            by_name: Dict[str, A.FuncDef] = {}
            duplicates: List[str] = []
            for rel in sorted(open_files):
                start = len(funcs)
                for func in (touched[rel].funcs if rel in touched
                             else rec.files[rel].funcs):
                    funcs.append(func)
                    other = func_file.get(func.name)
                    if other is not None:
                        duplicates.append(
                            f"duplicate function {func.name!r} defined in "
                            f"{other} and {rel}")
                    else:
                        func_file[func.name] = rel
                        by_name[func.name] = func
                spans[rel] = (start, len(funcs))
            if duplicates:
                raise SessionError("<project>", duplicates)
            signatures = _signatures(funcs)
            old_ids = {id(f) for f in old_funcs}
            fresh = [f for f in funcs if id(f) not in old_ids]
            removed = tuple(f.name for f in old_funcs
                            if f.name not in by_name)
            moved = {f.name for f in fresh
                     if rec.func_file.get(f.name, func_file[f.name])
                     != func_file[f.name]}
            order = [f.name for f in funcs]
            names = set(by_name)
            same_list = (len(funcs) == len(old_funcs)
                         and all(a is b for a, b in zip(funcs, old_funcs)))
            program = (rec.program if same_list else
                       A.Program(funcs=funcs, filename=self._program_name,
                                 line=1))
        else:
            spans = rec.spans
            for rel, p in touched.items():
                start, end = spans[rel]
                fresh.extend(new for old, new in zip(old_funcs[start:end],
                                                     p.funcs)
                             if old is not new)
            if fresh:
                funcs = list(old_funcs)
                for rel, p in touched.items():
                    start, end = spans[rel]
                    funcs[start:end] = p.funcs
                program = A.Program(funcs=funcs,
                                    filename=self._program_name, line=1)
            else:
                program = rec.program
            func_file, signatures = rec.func_file, rec.signatures
            by_name = ChainMap({f.name: f for f in fresh}, rec.funcs)
            removed = ()
            order, names = rec.graph.order, rec.facts.func_names

        # Semantic check: while the signature map holds, every committed
        # function passed it, so only the new objects need checking.
        if signatures is not rec.signatures and signatures != rec.signatures:
            checker = Checker(program)
            unchecked = program.funcs
        else:
            checker = rec.checker
            unchecked = fresh
        checker.issues = []
        errors: List[str] = []
        for func in unchecked:
            before = len(checker.issues)
            checker._check_func(func)
            errors.extend(f"{func_file[func.name]}:{issue}"
                          for issue in checker.issues[before:]
                          if issue.severity == "error")
        if errors:
            raise SessionError("<project>", errors)

        file_put = {
            rel: _ProjectFile(rel=rel, source=p.source, funcs=p.funcs,
                              chunks=p.chunks,
                              names=tuple(f.name for f in p.funcs),
                              sigs=_signatures(p.funcs))
            for rel, p in touched.items()}
        if not (fresh or removed or reset
                or any(p.patches for p in touched.values())):
            # Same function objects at the same lines: only the texts (or
            # an empty file's presence) moved.
            _apply(rec.files, file_put, closed)
            self._record = replace(rec, program=program, open=open_files,
                                   stale=frozenset(), spans=spans)
            self.seq += 1
            self.no_op_updates += 1
            return self._make_update(files_read, no_op=True,
                                     full_parse=full_parse)

        # Line-offset patches: AST, cached artifacts and cache keys shift
        # together.  A failed update shifts them back, so it commits nothing.
        applied: List[Tuple[A.FuncDef, int, str]] = []
        try:
            for p in touched.values():
                for func, lines in p.patches:
                    fault_site("project.patch", func.name)
                    applied.append((func, lines, engine.patch_function_lines(
                        func, lines, rec.fingerprints[func.name])))
            patched = tuple(func.name for func, _lines, _fp in applied)

            # Fingerprints of the new and the shifted objects; a shift is
            # not an edit.
            fp_put = {f.name: ast_fingerprint(f) for f in fresh}
            fp_put.update((func.name, fp) for func, _lines, fp in applied)
            changed = tuple(f.name for f in fresh
                            if fp_put[f.name] != rec.fingerprints.get(f.name))

            # Index, call graph, dependents.  ``redo`` names the functions
            # whose derived facts are recomputed: the new objects, plus the
            # callers of a name that started or stopped being a function.
            redo = {f.name for f in fresh}
            old_index = rec.facts.index
            entries = {f.name: index_function(f) for f in fresh}
            if structural:
                index = ProgramIndex()
                for name in order:
                    calls, stmts, exprs = entries.get(name) or (
                        old_index.calls[name], old_index.call_stmts[name],
                        old_index.expr_calls[name])
                    index.calls[name] = calls
                    index.call_stmts[name] = stmts
                    index.expr_calls[name] = exprs
                flipped = names ^ rec.facts.func_names
                redo.update(n for n in order if n not in redo and any(
                    c.name in flipped for c in index.calls[n]))
            else:
                # The new entries overlay the committed index until the
                # commit writes them into it.
                index = ProgramIndex(*(
                    ChainMap({n: e[i] for n, e in entries.items()}, old)
                    for i, old in enumerate((old_index.calls,
                                             old_index.call_stmts,
                                             old_index.expr_calls))))
            graph_patch = update_call_graph(rec.graph, program, index, redo,
                                            order=order, names=names)
            graph = graph_patch.graph
            engine.stats.edges_recomputed += graph_patch.edges_recomputed
            engine.stats.graph_rebuilds += graph_patch.rebuilt
            dirty = set(changed) | set(removed)
            dependents = _dependents(dirty, rec.graph, graph)
            if removed:
                dependents = tuple(n for n in dependents if n in names)
            invalidated = engine.invalidate_fingerprints(
                {rec.fingerprints[n] for n in dirty if n in rec.fingerprints})

            # Contexts, summaries, collective functions, plan, facts.  A
            # record analyzed in the other mode contributes no plan.
            base_plan = None if reset else rec.plan
            old_cf = rec.facts.collective_funcs
            summaries = sum_changed = None
            if interproc:
                if base_plan is not None and contexts_reusable(
                        base_plan.contexts, base_plan.graph, graph, program,
                        redo, funcs=by_name):
                    contexts = base_plan.contexts
                    self.context_reuses += 1
                else:
                    seeds = {e: self.entry_context
                             for e in self.manifest.entries if e in names}
                    contexts = propagate_contexts(
                        program, graph, seeds=seeds,
                        entry_context=self.entry_context,
                        record_transfers=True)
                summaries, sum_changed = update_summaries(
                    program, graph, index,
                    base_plan.summaries if base_plan is not None else {},
                    redo, funcs=by_name, names=names,
                    complete=base_plan is not None and not structural)
                # Summary may-emptiness is collective reachability, so the
                # summary flips keep the set exact.
                flips = {n for n in sum_changed
                         if bool(summaries[n].collectives) != (n in old_cf)}
                flips.update(n for n in removed if n in old_cf)
            else:
                flips = collective_call_graph(program, index) ^ old_cf
            cf = old_cf ^ flips if flips else old_cf
            flip_callers = {e.caller for n in flips
                            for e in graph.callers.get(n, ())}
            plan = None
            if interproc:
                plan_dirty = (redo | flip_callers if base_plan is not None
                              else set(order))
                plan = update_plan(base_plan, graph, contexts, summaries,
                                   plan_dirty, removed)
            facts = engine.update_program_facts(
                rec.facts, changed=[f.name for f in fresh], removed=removed,
                collective_funcs=cf, index=index, func_names=names)

            # Scope: exactly the functions whose merged artifacts could
            # differ — new or shifted bodies, a callee whose collective
            # reachability flipped (it moves the collective sites and the
            # expression-call points), or a changed context word set or
            # witness chain.  Everything on a delta from the empty record or
            # when the requested level moved.
            cold = reset or not old_funcs
            if cold or facts.requested != rec.facts.requested:
                scope_funcs = program.funcs
            else:
                scope = redo | set(patched) | flip_callers
                if plan is not None and contexts is not base_plan.contexts:
                    old_ctx = base_plan.contexts
                    for n in order:
                        words = contexts.contexts.get(n, ())
                        if n not in scope and (
                                words != old_ctx.contexts.get(n, ())
                                or any(contexts.chains.get((n, w))
                                       != old_ctx.chains.get((n, w))
                                       for w in words)):
                            scope.add(n)
                scope_funcs = [by_name[n] for n in sorted(scope)]
            if deadline is not None:
                deadline.check("session.plan")
            fault_site("session.analyze")
            merged = engine.analyze_functions(
                scope_funcs, ChainMap(fp_put, rec.fingerprints), facts, plan,
                initial_words=({f.name: self.entry_context
                                for f in scope_funcs}
                               if not interproc and self.entry_context
                               else {}),
                precision=self.precision, deadline=deadline)
            reanalyzed = engine.last.missed_functions
            engine.stats.dependency_invalidations += sum(
                1 for n in reanalyzed if n not in dirty)
            engine.stats.assembly_reuses += len(program.funcs) - len(
                scope_funcs)
            if deadline is not None:
                deadline.check("session.render")

            # Fold the scope's report pieces into the cache.  Findings of
            # removed functions go; findings whose witness chain passes a
            # function that moved files are re-qualified.
            cache = rec.cache
            gone_names = set(removed)
            old_fps: Dict[str, None] = {}
            found: Dict[str, dict] = {}
            entry_put: Dict[str, dict] = {}
            base_put: Dict[str, Optional[Tuple[dict, ...]]] = {}
            thread_put: Dict[str, Optional[dict]] = {}
            flag_on: List[str] = []
            flag_off = [n for n in removed if n in cache.flagged]
            sites_on: List[str] = []
            sites_off = [n for n in removed if n in cache.has_sites]

            def retire(name: str) -> None:
                for finding in cache.base.get(name, ()):
                    old_fps[finding["fingerprint"]] = None
                if name in cache.thread:
                    old_fps[cache.thread[name]["fingerprint"]] = None

            for name in removed:
                retire(name)
            for func in scope_funcs:
                name = func.name
                retire(name)
                art, words, _infos = merged[name]
                entry_put[name] = function_entry(
                    art, words, False,
                    summaries[name] if summaries is not None else None)
                findings = [diagnostic_finding(d) for d in (
                    *art.monothread.diagnostics,
                    *art.concurrency.diagnostics,
                    *art.sequence.diagnostics)]
                diag = thread_level_diagnostic(name, art, facts.requested)
                level = diagnostic_finding(diag) if diag is not None else None
                own = findings + [level] if level is not None else findings
                self._qualify(own, func_file)
                found.update((f["fingerprint"], f) for f in own)
                if findings or name in cache.base:
                    base_put[name] = tuple(findings) or None
                if level is not None or name in cache.thread:
                    thread_put[name] = level
                if art.flagged != (name in cache.flagged):
                    (flag_on if art.flagged else flag_off).append(name)
                if bool(art.sites) != (name in cache.has_sites):
                    (sites_on if art.sites else sites_off).append(name)
            if moved and self._qualified:
                for name, old in cache.base.items():
                    if (name not in entry_put and name not in gone_names
                            and any(n in moved for finding in old
                                    for n in finding["call_path"])):
                        old_fps.update((f["fingerprint"], None) for f in old)
                        requalified = [dict(f) for f in old]
                        self._qualify(requalified, func_file)
                        base_put[name] = tuple(requalified)
                        found.update((f["fingerprint"], f)
                                     for f in requalified)
            if summaries is not None:
                for name in sum_changed:
                    if name not in entry_put:
                        entry = dict(cache.entries[name])
                        entry["collective_summary"] = dict(
                            summaries[name].collectives)
                        entry_put[name] = entry

            flagged = (cache.flagged.difference(flag_off).union(flag_on)
                       if flag_on or flag_off else cache.flagged)
            has_sites = (cache.has_sites.difference(sites_off)
                         .union(sites_on)
                         if sites_on or sites_off else cache.has_sites)
            instrumented = cache.instrumented
            if (graph_patch.rebuilt or flips or flagged is not cache.flagged
                    or has_sites is not cache.has_sites
                    or any({e.callee for e in graph.edges[n]}
                           != {e.callee for e in rec.graph.edges.get(n, ())}
                           for n in redo)):
                instrumented = _instrumented(flagged, has_sites, graph, cf)
            for name, entry in entry_put.items():
                entry["instrumented"] = name in instrumented
            for name in (instrumented ^ cache.instrumented) - gone_names:
                if name not in entry_put:
                    entry = dict(cache.entries[name])
                    entry["instrumented"] = name in instrumented
                    entry_put[name] = entry
        except BaseException:
            for func, lines, fp in reversed(applied):
                engine.patch_function_lines(func, -lines, fp)
            raise

        # Commit.
        added = tuple(f for fp, f in found.items() if fp not in rec.findings)
        _apply(rec.files, file_put, closed)
        _apply(rec.fingerprints, fp_put, removed)
        _apply(cache.entries, entry_put, removed)
        _apply(cache.base, base_put, removed)
        _apply(cache.thread, thread_put, removed)
        _apply(rec.findings, found, old_fps)
        if not structural:
            rec.funcs.update(by_name.maps[0])
            by_name = rec.funcs
            for name, (calls, stmts, exprs) in entries.items():
                old_index.calls[name] = calls
                old_index.call_stmts[name] = stmts
                old_index.expr_calls[name] = exprs
            facts.index = old_index
        self._record = _Record(
            program=program, interproc=interproc, open=open_files,
            stale=frozenset(), files=rec.files, spans=spans,
            fingerprints=rec.fingerprints, funcs=by_name,
            func_file=func_file, signatures=signatures, checker=checker,
            facts=facts, graph=graph, plan=plan,
            cache=_ReportCache(
                entries=cache.entries, base=cache.base, thread=cache.thread,
                flagged=flagged, has_sites=has_sites,
                instrumented=instrumented),
            findings=rec.findings)
        self._report_doc = None
        self.seq += 1
        if cold:
            self.full_updates += 1
        else:
            self.fast_updates += 1
        return self._make_update(
            files_read,
            no_op=not (changed or removed or patched or moved or reset),
            full_parse=full_parse, changed=changed, removed=removed,
            patched=patched, dependents=dependents, reanalyzed=reanalyzed,
            invalidated=invalidated,
            added=added, gone=tuple(fp for fp in old_fps if fp not in found))

    # -- report assembly -----------------------------------------------------

    def _render(self, rec: _Record) -> dict:
        """The full Report IR document of ``rec``, concatenated from its
        report cache in program order."""
        cache = rec.cache
        funcs = rec.program.funcs
        findings: List[dict] = []
        for func in funcs:
            findings.extend(cache.base.get(func.name, ()))
        findings.extend(cache.thread[f.name] for f in funcs
                        if f.name in cache.thread)
        warnings_by_code: Dict[str, int] = {c.value: 0 for c in ErrorCode}
        for finding in findings:
            warnings_by_code[finding["code"]] += 1
        requested = rec.facts.requested
        summary: Dict[str, Any] = {
            "functions": {f.name: cache.entries[f.name] for f in funcs},
            "warnings_total": len(findings),
            "warnings_by_code": warnings_by_code,
            "collective_functions": sorted(rec.facts.collective_funcs),
            "flagged_functions": sorted(cache.flagged),
            "instrumented_functions": sorted(cache.instrumented),
            "requested_level": (requested.mpi_name
                                if requested is not None else None),
            "verified": not findings,
            "precision": self.precision,
            "interprocedural": rec.interproc,
        }
        return build_report("project",
                            source={"file": self.manifest.root},
                            findings=findings, summary=summary)

    def _qualify(self, findings: List[dict],
                 func_file: Dict[str, str]) -> None:
        """File-qualify findings in place: the defining file of each
        finding's function, the files along the witness call chain, and a
        fingerprint recomputed over both (so the same diagnostic in two
        files can never collide).  A one-file session leaves them as the
        analysis rendered them."""
        if not self._qualified:
            return
        for finding in findings:
            finding["file"] = func_file.get(finding.get("function", ""), "")
            chain = finding.get("call_path", [])
            finding["call_path_files"] = [func_file.get(n, "")
                                          for n in chain]
            del finding["fingerprint"]
            finding["fingerprint"] = finding_fingerprint(finding)

    def _make_update(self, files: Tuple[str, ...], no_op: bool,
                     full_parse: bool,
                     changed: Tuple[str, ...] = (),
                     removed: Tuple[str, ...] = (),
                     patched: Tuple[str, ...] = (),
                     dependents: Tuple[str, ...] = (),
                     reanalyzed: Tuple[str, ...] = (),
                     invalidated: int = 0,
                     added: Tuple[dict, ...] = (),
                     gone: Tuple[str, ...] = ()) -> ProjectUpdate:
        delta = ProjectUpdate(
            files=files, seq=self.seq, no_op=no_op, full_parse=full_parse,
            changed=changed, removed=removed, patched=patched,
            dependents=dependents, reanalyzed=reanalyzed,
            invalidated_entries=invalidated, findings_added=added,
            findings_removed=gone,
            findings_total=len(self._record.findings),
        )
        delta.report = delta.document(
            "project", {"file": self.manifest.root},
            files=list(files), patched=list(patched))
        return delta


def _dependents(dirty: Set[str], old: CallGraph,
                new: CallGraph) -> Tuple[str, ...]:
    """The reverse-call-graph closure of ``dirty`` over the callers in
    both graph versions, minus the seeds.  Seeds and callers are walked in
    sorted order, so the result never depends on string hashing."""
    out: List[str] = []
    work = sorted(dirty)
    seen = set(dirty)
    while work:
        name = work.pop()
        before = old.callers.get(name, ())
        after = new.callers.get(name, ())
        callers = {e.caller for e in before}
        if after is not before:
            callers.update(e.caller for e in after)
        for caller in sorted(callers):
            if caller not in seen:
                seen.add(caller)
                out.append(caller)
                work.append(caller)
    return tuple(out)


def _instrumented(flagged: FrozenSet[str], has_sites: FrozenSet[str],
                  graph: CallGraph, collective_funcs: Set[str]
                  ) -> FrozenSet[str]:
    """The driver's selective instrumentation rule: the flagged functions
    and the collective functions reachable from them, when they have
    collective sites."""
    reachable: Set[str] = set()
    work = list(flagged)
    while work:
        for edge in graph.edges.get(work.pop(), ()):
            if edge.callee not in reachable:
                reachable.add(edge.callee)
                work.append(edge.callee)
    return frozenset(n for n in flagged | (reachable & collective_funcs)
                     if n in has_sites)


__all__ = [
    "ProjectSession",
    "ProjectUpdate",
]
