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

Each update re-reads the requested files and splits them into top-level
function chunks (:func:`~repro.core.session.split_chunks`).  An unchanged
chunk reuses its ``FuncDef`` object, so the engine serves it through the
identity fast path; only edited chunks are re-parsed.  Per-function
fingerprints are diffed against the previous version, the changed
functions' artifacts are evicted, and their reverse-call-graph closure
(the *dependents*) is what may re-analyze.  Three more mechanisms keep an
update proportional to the edit:

* **Line-offset patching** — a chunk whose text is unchanged but whose
  start line moved (a line inserted/deleted above it) is *patched*, not
  re-parsed: the cached AST and every line-addressed artifact are shifted
  in place and the content-addressed store is re-keyed
  (:meth:`~repro.core.engine.AnalysisEngine.patch_function_lines`).  A
  whitespace/comment line inserted between functions re-answers with zero
  engine misses.

* **O(edit) assembly** — when an update touches known files without
  changing any function name or signature, the whole-program passes are
  *delta-maintained* instead of recomputed: the call graph is patched in
  place for the re-parsed functions (:func:`~repro.core.callgraph
  .update_call_graph`), the context fixpoint is reused verbatim when the
  changed functions' transfers replay identically
  (:func:`~repro.core.callgraph.contexts_reusable`), collective summaries
  walk only the dirty SCCs and their really-changed ancestors
  (:func:`~repro.core.callgraph.update_summaries`), the interprocedural
  plan is patched per dirty function (:func:`~repro.core.driver
  .update_plan`), and the engine analyzes a *scope* of exactly the
  functions whose artifacts could differ.  The Report IR document is
  re-assembled from a per-function cache, so a one-file edit costs
  O(size of edit + dependents), not O(project) — the
  ``assembly_reuses`` / ``edges_recomputed`` / ``graph_rebuilds`` engine
  counters surface how much was skipped.

* **Shared sharded store** — cache misses probe (and fresh analyses write
  through to) a per-project on-disk store
  (:class:`~repro.project.store.ShardedStore`), so parallel sessions on one
  machine share warm artifacts.

Project findings are file-qualified: every finding carries the defining
``file`` of its function plus ``call_path_files`` aligned with the witness
chain, and the finding fingerprint covers both (a one-file project leaves
findings unqualified, with the fingerprints ``analyze --json`` gives).
The current state records the mode it was analyzed in, and no update
reuses a state analyzed in another mode, so a degraded answer never
sticks.  Protocol details: ``docs/project-protocol.md``.
"""

from __future__ import annotations

from collections import ChainMap, OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..minilang import ast_nodes as A
from ..minilang.semantics import Checker
from ..mpi.thread_levels import ThreadLevel
from ..parallelism import EMPTY, Word, format_word, parse_word
from ..util.faultinject import fault_site
from ..util.resilience import Deadline, ResilienceCounters
from ..core.callgraph import (
    CallGraph,
    ContextMap,
    FunctionSummary,
    build_call_graph,
    collective_summaries,
    contexts_reusable,
    propagate_contexts,
    update_call_graph,
    update_summaries,
)
from ..core.diagnostics import Diagnostic, ErrorCode, SourceRef
from ..core.driver import InterproceduralPlan, build_plan, update_plan
from ..core.engine import AnalysisEngine
from ..core.report import (
    build_report,
    canonical_region_ids,
    diagnostic_finding,
    finding_fingerprint,
    report_from_analysis,
)
from ..core.session import SessionError, _parse_chunk, split_chunks
from ..core.sites import ProgramIndex, index_function, index_program
from .manifest import ProjectManifest, load_manifest
from .store import ShardedStore


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


@dataclass
class _ProjectFile:
    """Per-file state inside the merged project."""

    rel: str
    source: str
    funcs: List[A.FuncDef]
    #: (sha256(text), start_line) -> FuncDef; None = chunking disabled for
    #: this file, every update of it full-parses.
    chunks: Optional[Dict[Tuple[str, int], A.FuncDef]]
    #: Function names in file order (the fast update path requires the name
    #: tuple and the signature map to be stable per file).
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
    #: program passes the semantic check, so a rejected update mutates
    #: nothing.
    patches: List[Tuple[A.FuncDef, int]]
    full_parse: bool
    changed_text: bool


@dataclass
class _ReportCache:
    """Per-function pieces of the current Report IR document.

    The fast update path re-renders the whole report by concatenating these
    cached pieces in program order and replacing only the entries of the
    functions it re-merged — O(edit), not O(project).  Entry dicts and
    finding dicts are shared with emitted reports and therefore never
    mutated in place; every change copies first.
    """

    #: function -> its ``summary.functions`` entry (complete, including the
    #: ``instrumented`` flag and ``collective_summary``).
    entries: Dict[str, dict]
    #: function -> its qualified findings (mono → conc → seq order), only
    #: for functions with at least one.
    base: Dict[str, Tuple[dict, ...]]
    #: function -> its qualified THREAD_LEVEL finding (sparse).
    thread: Dict[str, dict]
    flagged: Set[str]
    has_sites: Set[str]
    instrumented: Set[str]
    requested: Optional[ThreadLevel]
    collective_sorted: List[str]
    flagged_sorted: List[str]
    instrumented_sorted: List[str]


def _summary_entry(art, words, summary: FunctionSummary) -> dict:
    """One ``summary.functions`` entry, field-for-field what
    :func:`~repro.core.report.analysis_summary` produces (``instrumented``
    is patched in afterwards — it is program-level state)."""
    return {
        "blocks": len(art.cfg),
        "collectives": sum(1 for s in art.sites if s.kind == "collective"),
        "sites": len(art.sites),
        "flagged": art.flagged,
        "instrumented": False,
        "multithreaded_sites": len(art.monothread.multithreaded_sites),
        "concurrent_pairs": len(art.concurrency.concurrent_pairs),
        "mismatch_conditionals": len(art.sequence.conditionals),
        "required_level": art.monothread.max_required_level.mpi_name,
        "contexts": [canonical_region_ids(format_word(w)) for w in words],
        "collective_summary": dict(summary.collectives),
    }


def _thread_level_finding(name: str, art,
                          requested: Optional[ThreadLevel]) -> Optional[dict]:
    """The THREAD_LEVEL finding of one function, or None — mirrors the
    program-level comparison in the driver's ``_assemble``."""
    if requested is None:
        return None
    needed = art.monothread.max_required_level
    if not needed > requested:
        return None
    offenders = tuple(
        SourceRef(site.name, site.line)
        for site in art.sites
        if art.monothread.required_levels.get(site.uid,
                                              ThreadLevel.SINGLE) > requested
    )
    return diagnostic_finding(Diagnostic(
        code=ErrorCode.THREAD_LEVEL,
        function=name,
        message=(
            f"collectives require {needed.mpi_name} but the program "
            f"requests only {requested.mpi_name}"
        ),
        collectives=offenders,
    ))


class ProjectSession(ResilienceCounters):
    """A long-lived incremental session over every file of one project.

    ``update_file`` / ``close_file`` / ``update_all`` are the API: each
    folds the current on-disk text into the merged program and returns a
    :class:`ProjectUpdate`.  Construction resolves the manifest
    (``parcoach.toml`` or an explicit file list) but reads no sources; the
    first update does.  ``engine`` shares one engine between sessions.

    With ``one_file=True``, ``root`` is the path of a single file and the
    session presents itself as that file: the manifest is built from the
    path alone (no ``parcoach.toml`` is read, no store is written),
    findings stay unqualified (the fingerprints ``analyze --json`` gives),
    and the merged program carries the file's name.
    """

    #: LRU bound for the checked-function memo (id(func) -> func).
    _CHECKED_LIMIT = 65536

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
        use_store = (self.manifest.store_path is not None
                     if store is None else store)
        self.store: Optional[ShardedStore] = (
            ShardedStore(self.manifest.store_path)
            if use_store and self.manifest.store_path is not None else None)
        self.engine = (engine if engine is not None
                       else AnalysisEngine(store=self.store))

        self.updates = 0
        self.no_op_updates = 0
        self.fast_updates = 0
        self.full_updates = 0
        self.context_reuses = 0

        #: rel -> True for files that *should* be loaded (opened, not
        #: closed).  Files in here but missing from ``_files`` (after a
        #: recover/rebuild self-heal) are re-read by the next update.
        self._open: Dict[str, bool] = {}
        self._files: Dict[str, _ProjectFile] = {}
        self._program: Optional[A.Program] = None
        #: Whether the current state was analyzed interprocedurally (None
        #: before the first update): the no-op shortcuts reuse a state only
        #: for an update asking for the same mode.
        self._interproc: Optional[bool] = None
        self._fingerprints: Dict[str, str] = {}
        self._func_file: Dict[str, str] = {}
        self._callers: Dict[str, Tuple[str, ...]] = {}
        self._summaries: Optional[Dict[str, FunctionSummary]] = None
        self._signatures: Optional[Dict[str, tuple]] = None
        #: finding fingerprint -> finding of the current version.
        self._findings: Dict[str, dict] = {}
        #: Full project-flavoured Report IR of the current version —
        #: rendered lazily from ``_report_cache`` (see the ``report``
        #: property), so an O(edit) update never assembles it.
        self._report_doc: Optional[dict] = None
        self.seq = 0
        #: id(func) -> func LRU of semantically checked functions.
        self._checked: "OrderedDict[int, A.FuncDef]" = OrderedDict()
        # Delta-maintained whole-program state for the fast update path
        # (populated by full interprocedural updates; any None disables it).
        self._graph: Optional[CallGraph] = None
        self._contexts: Optional[ContextMap] = None
        self._plan: Optional[InterproceduralPlan] = None
        self._collective_funcs: Optional[Set[str]] = None
        self._func_by_name: Optional[Dict[str, A.FuncDef]] = None
        self._report_cache: Optional[_ReportCache] = None
        self._checker: Optional[Checker] = None
        #: The current program's index, shared with the engine's program
        #: memo; the fast path re-indexes touched functions in place.
        self._index: Optional[ProgramIndex] = None
        #: rel -> (start, end) span of the file's functions inside the
        #: merged ``program.funcs`` list (sorted-path file order).
        self._file_span: Dict[str, Tuple[int, int]] = {}
        self._func_names: Optional[frozenset] = None

    @property
    def report(self) -> Optional[dict]:
        """Full Report IR of the current project version (assembled on
        first access after a fast update)."""
        if (self._report_doc is None and self._report_cache is not None
                and self._program is not None):
            self._report_doc = self._render_cached_report(self._program,
                                                          self._report_cache)
        return self._report_doc

    @report.setter
    def report(self, doc: Optional[dict]) -> None:
        self._report_doc = doc

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Nothing to release — the session holds memory and writes the
        store through.  With the context-manager protocol it lets callers
        scope a session."""

    def __enter__(self) -> "ProjectSession":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def stats(self) -> Dict[str, object]:
        return {
            "engine": self.engine.cache_info(),
            "session": {
                "files": len(self._files),
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
                "open_files": sorted(self._open),
                "functions": len(self._fingerprints),
                "store": ({"path": self.store.root,
                           "generation": self.store.generation,
                           "entries": self.store.entries()}
                          if self.store is not None else None),
            },
        }

    # -- self-healing --------------------------------------------------------

    def recover_file(self, rel: str) -> None:
        """Targeted self-heal: forget one file's state and evict its
        functions' artifacts.  It stays *open*, so the next update re-reads
        it cold; every other file's warm state survives."""
        state = self._files.pop(rel, None)
        if state is not None:
            doomed = {self._fingerprints[f.name] for f in state.funcs
                      if f.name in self._fingerprints}
            self.engine.invalidate_fingerprints(doomed)

    def rebuild(self) -> None:
        """Last-resort self-heal: fresh engine (still store-backed), no
        per-file state.  Open files are re-read by the next update."""
        self.engine = AnalysisEngine(store=self.store)
        self._files.clear()
        self._checked.clear()
        self._program = None
        self._interproc = None
        self._fingerprints = {}
        self._func_file = {}
        self._callers = {}
        self._summaries = None
        self._signatures = None
        self._graph = None
        self._contexts = None
        self._plan = None
        self._collective_funcs = None
        self._func_by_name = None
        self._report_cache = None
        self._checker = None
        self._index = None
        self._file_span = {}
        self._func_names = None

    # -- per-file parsing ----------------------------------------------------

    def source(self, rel: str) -> Optional[str]:
        """The text of ``rel`` as of the last successful update."""
        state = self._files.get(rel)
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
        previous version: identical (reuse the ``FuncDef`` object), shifted
        (same text at a new start line — queue a line-offset patch), or
        edited (re-parse).  Any anomaly falls back to a full parse.  A
        shift is measured from the function's current line, so patches a
        failed update already applied are never applied twice."""
        prev = self._files.get(rel)
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

    # -- semantic checking ---------------------------------------------------

    @staticmethod
    def _signature_map(funcs: List[A.FuncDef]) -> Dict[str, tuple]:
        return {f.name: (f.ret_type, len(f.params)) for f in funcs}

    def _checked_probe(self, func: A.FuncDef) -> bool:
        """True when ``func`` was already checked; refreshes its LRU slot."""
        key = id(func)
        if self._checked.get(key) is func:
            self._checked.move_to_end(key)
            return True
        return False

    def _note_checked(self, funcs: List[A.FuncDef]) -> None:
        checked = self._checked
        for func in funcs:
            checked[id(func)] = func
            checked.move_to_end(id(func))
        while len(checked) > self._CHECKED_LIMIT:
            checked.popitem(last=False)

    def _check(self, program: A.Program,
               file_of: List[str]) -> None:
        """Cross-file semantic check, incremental while the *global*
        signature map is stable: calls in file B resolve against functions
        defined in file A, so editing a helper's signature re-checks its
        textually unchanged callers in every file.  Issues are prefixed
        with the defining file (``file_of`` aligns with ``program.funcs``)."""
        seen: Dict[str, str] = {}
        duplicates: List[str] = []
        for func, rel in zip(program.funcs, file_of):
            other = seen.get(func.name)
            if other is not None:
                duplicates.append(
                    f"duplicate function {func.name!r} defined in {other} "
                    f"and {rel}")
            else:
                seen[func.name] = rel
        if duplicates:
            raise SessionError("<project>", duplicates)

        rel_by_id = {id(f): rel for f, rel in zip(program.funcs, file_of)}
        sigs = self._signature_map(program.funcs)
        if self._signatures == sigs:
            unchecked = [f for f in program.funcs
                         if not self._checked_probe(f)]
        else:
            unchecked = list(program.funcs)
        checker = Checker(program)
        errors: List[str] = []
        for func in unchecked:
            before = len(checker.issues)
            checker._check_func(func)
            errors.extend(
                f"{rel_by_id[id(func)]}:{issue}"
                for issue in checker.issues[before:]
                if issue.severity == "error")
        if errors:
            raise SessionError("<project>", errors)
        self._note_checked(unchecked)
        self._signatures = sigs
        self._checker = checker

    # -- updates -------------------------------------------------------------

    def update_file(self, rel: str, deadline: Optional[Deadline] = None,
                    interprocedural: Optional[bool] = None) -> ProjectUpdate:
        """(Re-)read one file from disk and fold it into the project."""
        if rel not in self._open:
            self._open[rel] = True
        return self._update({rel}, set(), deadline, interprocedural)

    def close_file(self, rel: str, deadline: Optional[Deadline] = None,
                   interprocedural: Optional[bool] = None) -> ProjectUpdate:
        """Drop one file from the project (its functions disappear; their
        cross-file callers re-check and re-analyze)."""
        if rel not in self._open and rel not in self._files:
            raise SessionError(rel, [f"{rel} is not open"])
        # pop, not del: a self-heal retry of a half-finished close must not
        # trip over the first attempt having already removed the entry.
        self._open.pop(rel, None)
        return self._update(set(), {rel}, deadline, interprocedural)

    def rename_file(self, old: str, new: str,
                    deadline: Optional[Deadline] = None,
                    interprocedural: Optional[bool] = None) -> ProjectUpdate:
        """Atomic rename: fold ``new`` in and drop ``old`` in one update.

        Neither step is expressible alone when other files call the moved
        functions — closing ``old`` first leaves unknown callees, opening
        ``new`` first defines duplicates.  Equal text at equal lines keeps
        the structural fingerprints, so nothing re-analyzes; findings are
        re-qualified to the new file (their fingerprints move with it)."""
        if old not in self._open and old not in self._files:
            raise SessionError(old, [f"{old} is not open"])
        self._open.pop(old, None)
        self._open[new] = True
        return self._update({new}, {old}, deadline, interprocedural)

    def update_all(self, deadline: Optional[Deadline] = None,
                   interprocedural: Optional[bool] = None) -> ProjectUpdate:
        """(Re-)read every project file (the manifest set on first use,
        the open set afterwards)."""
        if not self._open:
            for rel in self.manifest.files:
                self._open[rel] = True
        return self._update(set(self._open), set(), deadline,
                            interprocedural)

    def _update(self, reads: Set[str], closed: Set[str],
                deadline: Optional[Deadline],
                interprocedural: Optional[bool]) -> ProjectUpdate:
        interproc = (self.interprocedural if interprocedural is None
                     else interprocedural)
        self.updates += 1
        # Self-heal hook: open files whose state vanished (recover_file /
        # rebuild) are re-read alongside the requested ones.
        reads = set(reads) | {rel for rel in self._open
                              if rel not in self._files}
        parsed: Dict[str, _ParsedFile] = {}
        for rel in sorted(reads):
            parsed[rel] = self._parse_file(rel, self._read(rel))
        if deadline is not None:
            deadline.check("session.parse")
        return self._refresh(parsed, closed, deadline, interproc)

    def _fast_file_ok(self, rel: str, p: _ParsedFile) -> bool:
        state = self._files[rel]
        if state.names != tuple(f.name for f in p.funcs):
            return False
        return state.sigs == self._signature_map(p.funcs)

    def _refresh(self, parsed: Dict[str, _ParsedFile], closed: Set[str],
                 deadline: Optional[Deadline],
                 interproc: bool) -> ProjectUpdate:
        prev_program = self._program
        had_state = prev_program is not None

        no_text_change = (had_state and not closed
                          and self._interproc == interproc
                          and all(not p.changed_text for p in parsed.values()))
        if no_text_change:
            self.seq += 1
            self.no_op_updates += 1
            delta = self._make_update(tuple(sorted(parsed)), no_op=True,
                                      full_parse=False)
            return delta

        # O(edit) fast path: every touched file keeps its function names
        # and signatures, nothing opened or closed, and the previous update
        # left delta-maintainable whole-program state.
        touched = {rel: p for rel, p in parsed.items() if p.changed_text}
        if (had_state and interproc and not closed
                and self._plan is not None and self._graph is not None
                and self._contexts is not None and self._summaries is not None
                and self._report_cache is not None
                and self._collective_funcs is not None
                and self._func_by_name is not None
                and self._checker is not None
                and self._index is not None
                and self._func_names is not None
                and all(rel in self._files for rel in parsed)
                and all(rel in self._file_span for rel in touched)
                and all(self._fast_file_ok(rel, p)
                        for rel, p in touched.items())):
            delta = self._refresh_fast(parsed, touched, deadline)
            if delta is not None:
                return delta

        # Merged program: functions of every open file, in sorted-path
        # file order (deterministic regardless of open order).
        file_funcs: Dict[str, List[A.FuncDef]] = {}
        for rel in self._open:
            if rel in closed:
                continue
            if rel in parsed:
                p = parsed[rel]
                file_funcs[rel] = p.funcs
            else:
                file_funcs[rel] = self._files[rel].funcs
        order = sorted(file_funcs)
        funcs: List[A.FuncDef] = []
        file_of: List[str] = []
        func_file: Dict[str, str] = {}
        spans: Dict[str, Tuple[int, int]] = {}
        for rel in order:
            start = len(funcs)
            for func in file_funcs[rel]:
                funcs.append(func)
                file_of.append(rel)
                func_file.setdefault(func.name, rel)
            spans[rel] = (start, len(funcs))
        if (prev_program is not None
                and len(prev_program.funcs) == len(funcs)
                and all(a is b for a, b in zip(prev_program.funcs, funcs))):
            program = prev_program  # keep the engine's program memo warm
        else:
            program = A.Program(funcs=funcs,
                                filename=self._program_name,
                                line=1)
        self._check(program, file_of)

        # Commit point: the update is semantically valid.  Apply the
        # queued line-offset patches (AST + cached artifacts + store keys
        # shift together; zero re-analysis).
        patched: List[str] = []
        for p in parsed.values():
            for func, delta_lines in p.patches:
                fault_site("project.patch", func.name)
                self.engine.patch_function_lines(func, delta_lines)
                patched.append(func.name)

        fingerprints = {f.name: self.engine._fingerprint_for(f)
                        for f in program.funcs}
        prev_fps = dict(self._fingerprints)
        for name in patched:
            # A patched function's fingerprint moved with its lines, but
            # the store moved with it — it is not an edit.
            prev_fps[name] = fingerprints[name]
        changed = tuple(n for n in fingerprints
                        if fingerprints[n] != prev_fps.get(n))
        removed = tuple(n for n in prev_fps if n not in fingerprints)

        if (had_state and not changed and not removed and not patched
                and func_file == self._func_file
                and self._interproc == interproc):
            # Whitespace/comment-only edits inside chunks: nothing moved.
            # (A rename keeps every fingerprint but changes func_file — it
            # must fall through so findings re-qualify to the new file.)
            replaced = self._commit_files(parsed, closed)
            self._forget(replaced, {id(f) for f in prev_program.funcs}
                         | {id(f) for p in parsed.values() for f in p.funcs})
            self.seq += 1
            self.no_op_updates += 1
            return self._make_update(tuple(sorted(parsed)), no_op=True,
                                     full_parse=any(p.full_parse
                                                    for p in parsed.values()))

        # Cross-file dependency closure over reverse call edges of both
        # versions (callers of deleted functions and new callers count).
        # The engine's program-facts memo provides the index (one walk,
        # shared with analyze below and with future fast updates).
        dirty: Set[str] = set(changed) | set(removed)
        facts = self.engine._program_facts(program)
        index = facts.index
        graph = build_call_graph(program, index)
        callers: Dict[str, Tuple[str, ...]] = {
            name: tuple(e.caller for e in graph.callers[name])
            for name in graph.order
        }
        merged_callers: Dict[str, Set[str]] = {}
        for source_map in (self._callers, callers):
            for name, who in source_map.items():
                merged_callers.setdefault(name, set()).update(who)
        dependents: List[str] = []
        work = list(dirty)
        seen = set(dirty)
        while work:
            name = work.pop()
            for caller in sorted(merged_callers.get(name, ())):
                if caller not in seen:
                    seen.add(caller)
                    dependents.append(caller)
                    work.append(caller)
        dependents_t = tuple(d for d in dependents if d in fingerprints)

        doomed = {prev_fps[n] for n in dirty if n in prev_fps}
        invalidated = self.engine.invalidate_fingerprints(doomed)

        plan = None
        contexts: Optional[ContextMap] = None
        initial_words: Dict[str, Word] = {}
        if interproc:
            seeds = {e: self.entry_context for e in self.manifest.entries
                     if e in fingerprints}
            contexts = propagate_contexts(program, graph, seeds=seeds,
                                          entry_context=self.entry_context,
                                          record_transfers=True)
            summaries = collective_summaries(
                program, graph, index,
                prev=self._summaries, dirty=set(changed))
            plan = build_plan(program, index,
                              entry_context=self.entry_context,
                              graph=graph, contexts=contexts,
                              summaries=summaries)
        else:
            summaries = None
            if self.entry_context:
                initial_words = {f.name: self.entry_context
                                 for f in program.funcs}
        if deadline is not None:
            deadline.check("session.plan")

        fault_site("session.analyze")
        analysis = self.engine.analyze(
            program, initial_words=initial_words, precision=self.precision,
            interprocedural=interproc, entry_context=self.entry_context,
            plan=plan, deadline=deadline, facts=facts)
        record = self.engine.last
        reanalyzed = record.missed_functions
        dep_reanalyzed = [n for n in reanalyzed if n not in dirty]
        self.engine.stats.dependency_invalidations += len(dep_reanalyzed)

        if deadline is not None:
            deadline.check("session.render")
        report = report_from_analysis(analysis, source_path=None,
                                      source_text=None, tool="project")
        report["source"] = {"file": self.manifest.root}
        self._qualify(report["findings"], func_file)
        new_findings = {f["fingerprint"]: f for f in report["findings"]}

        # Commit.
        replaced = self._commit_files(parsed, closed)
        if prev_program is not None:
            replaced.extend(prev_program.funcs)
        self._forget(replaced, {id(f) for f in program.funcs})
        self._program = program
        self._interproc = interproc
        self._fingerprints = fingerprints
        self._func_file = func_file
        self._callers = callers
        self._summaries = summaries
        self._graph = graph
        self._contexts = contexts
        self._plan = plan
        self._index = index
        self._file_span = spans
        self._func_names = frozenset(fingerprints)
        self._func_by_name = {f.name: f for f in program.funcs}
        if interproc:
            self._collective_funcs = set(analysis.collective_funcs)
            self._report_cache = self._build_report_cache(analysis, report)
        else:
            self._collective_funcs = None
            self._report_cache = None
        old_findings = self._findings
        added = tuple(f for fp, f in new_findings.items()
                      if fp not in old_findings)
        gone = tuple(fp for fp in old_findings if fp not in new_findings)
        self._findings = new_findings
        self.report = report
        self.seq += 1
        self.full_updates += 1

        return self._make_update(
            tuple(sorted(parsed)), no_op=False,
            full_parse=any(p.full_parse for p in parsed.values()),
            changed=changed, removed=removed, patched=tuple(patched),
            dependents=dependents_t, reanalyzed=reanalyzed,
            invalidated=invalidated, added=added, gone=gone)

    # -- the O(edit) fast path ----------------------------------------------

    def _calls_of(self, func: A.FuncDef) -> list:
        """The function's call nodes, via the engine's per-function index
        memo (indexing it here pre-warms the memo for ``index_program``)."""
        memo = self.engine._func_index
        entry = memo.get(id(func))
        if entry is not None and entry[0] is func:
            return entry[1]
        calls, stmts, expr_calls = index_function(func)
        memo[id(func)] = (func, calls, stmts, expr_calls)
        return calls

    def _refresh_fast(self, parsed: Dict[str, _ParsedFile],
                      touched: Dict[str, _ParsedFile],
                      deadline: Optional[Deadline]
                      ) -> Optional[ProjectUpdate]:
        """Delta-maintain every whole-program structure for an update that
        keeps the function name/signature maps intact — O(edit + dependents)
        end to end: every per-name map (fingerprints, callers, func map,
        report cache, findings) is updated with a small delta applied at the
        commit point, never copied wholesale.  Returns ``None`` (before any
        side effect beyond the checked-function memo) when a precondition
        turns out not to hold — the caller then runs the full path."""
        prev_program = self._program
        engine = self.engine

        # Merged function list: splice each touched file's re-parsed
        # functions into its recorded span.  Comparing against the previous
        # program (not the per-file cache) also catches divergence left by
        # an earlier shortcut update, so stale-uid anchors can never
        # survive in the delta-maintained structures.
        reparsed_pairs: List[Tuple[A.FuncDef, A.FuncDef]] = []
        reparsed_pos: List[Tuple[int, A.FuncDef]] = []
        for rel in sorted(touched):
            p = touched[rel]
            start, end = self._file_span[rel]
            if end - start != len(p.funcs):
                return None
            for off, (old, new) in enumerate(
                    zip(prev_program.funcs[start:end], p.funcs)):
                if old is not new:
                    if old.name != new.name:
                        return None
                    reparsed_pairs.append((old, new))
                    reparsed_pos.append((start + off, new))
        reparsed = {new.name for _old, new in reparsed_pairs}
        if reparsed_pairs:
            funcs = list(prev_program.funcs)
            for rel in sorted(touched):
                start, end = self._file_span[rel]
                funcs[start:end] = touched[rel].funcs
            program = A.Program(funcs=funcs,
                                filename=self._program_name,
                                line=1)
        else:
            program = prev_program

        # Semantic check, touched functions only (names and signatures are
        # unchanged, so no new duplicates and no cross-file re-checks).
        checker = self._checker
        checker.issues = []
        fresh: List[A.FuncDef] = []
        errors: List[str] = []
        for rel, p in touched.items():
            for func in p.funcs:
                if self._checked_probe(func):
                    continue
                before = len(checker.issues)
                checker._check_func(func)
                errors.extend(
                    f"{rel}:{issue}"
                    for issue in checker.issues[before:]
                    if issue.severity == "error")
                fresh.append(func)
        if errors:
            raise SessionError("<project>", errors)
        self._note_checked(fresh)

        # The requested thread level is a whole-program fact; let the full
        # path re-derive it when an edit touches MPI initialization.
        for old, new in reparsed_pairs:
            for func in (old, new):
                if any(c.name in ("MPI_Init", "MPI_Init_thread")
                       for c in self._calls_of(func)):
                    return None

        # Commit point — mirrors the full path from here on.
        patched: List[str] = []
        for rel in sorted(touched):
            for func, delta_lines in touched[rel].patches:
                fault_site("project.patch", func.name)
                engine.patch_function_lines(func, delta_lines)
                patched.append(func.name)

        fp_new: Dict[str, str] = {}
        for rel in sorted(touched):
            for func in touched[rel].funcs:
                fp_new[func.name] = engine._fingerprint_for(func)
        patched_set = set(patched)
        changed = tuple(
            name for name, fp in fp_new.items()
            if name not in patched_set and fp != self._fingerprints.get(name))

        full_parse = any(p.full_parse for p in parsed.values())
        if not reparsed_pairs and not patched and not changed:
            # Same objects everywhere: nothing to maintain.
            replaced = self._commit_files(parsed, set())
            self._forget(replaced, {id(f) for p in touched.values()
                                    for f in p.funcs})
            self.seq += 1
            self.no_op_updates += 1
            return self._make_update(tuple(sorted(parsed)), no_op=True,
                                     full_parse=full_parse)

        # Re-index the re-parsed functions *in place* (the index object is
        # shared with the engine's program memo); undone on any failure
        # below so a retried update starts from consistent state.
        index = self._index
        undo_index: Dict[str, tuple] = {}
        for _old, new in reparsed_pairs:
            name = new.name
            undo_index[name] = (index.calls[name], index.call_stmts[name],
                                index.expr_calls[name])
            entry = engine._func_index.get(id(new))
            if entry is not None and entry[0] is new:
                _f, calls, stmts, exprs = entry
            else:
                calls, stmts, exprs = index_function(new)
                engine._func_index[id(new)] = (new, calls, stmts, exprs)
            index.calls[name] = calls
            index.call_stmts[name] = stmts
            index.expr_calls[name] = exprs
        try:
            return self._refresh_fast_indexed(
                parsed, touched, deadline, program, prev_program,
                reparsed_pairs, reparsed_pos, reparsed, patched, fp_new,
                changed, full_parse, index)
        except BaseException:
            for name, (calls, stmts, exprs) in undo_index.items():
                index.calls[name] = calls
                index.call_stmts[name] = stmts
                index.expr_calls[name] = exprs
            raise

    def _refresh_fast_indexed(self, parsed, touched, deadline, program,
                              prev_program, reparsed_pairs, reparsed_pos,
                              reparsed, patched, fp_new, changed,
                              full_parse, index) -> ProjectUpdate:
        engine = self.engine
        new_funcs = {new.name: new for _old, new in reparsed_pairs}
        func_lookup = ChainMap(new_funcs, self._func_by_name)

        patch = update_call_graph(self._graph, program, index, set(reparsed),
                                  order=self._graph.order,
                                  names=self._func_names)
        graph = patch.graph
        engine.stats.edges_recomputed += patch.edges_recomputed
        if patch.rebuilt:
            engine.stats.graph_rebuilds += 1

        # Dependent closure over reverse edges of both graph versions.
        dirty: Set[str] = set(changed)
        dependents: List[str] = []
        work = list(dirty)
        seen = set(dirty)
        old_callers = self._graph.callers
        new_callers = graph.callers
        while work:
            name = work.pop()
            a = old_callers.get(name, ())
            b = new_callers.get(name, ())
            callers = {e.caller for e in a}
            if b is not a:
                callers.update(e.caller for e in b)
            for caller in sorted(callers):
                if caller not in seen:
                    seen.add(caller)
                    dependents.append(caller)
                    work.append(caller)
        dependents_t = tuple(dependents)

        doomed = {self._fingerprints[n] for n in dirty
                  if n in self._fingerprints}
        invalidated = engine.invalidate_fingerprints(doomed) if doomed else 0

        # Contexts: reuse the recorded fixpoint verbatim when the changed
        # functions' transfers replay identically (the seeds are unchanged
        # — the name set is).
        if contexts_reusable(self._contexts, self._graph, graph, program,
                             set(reparsed), funcs=func_lookup):
            contexts = self._contexts
            ctx_recomputed = False
            self.context_reuses += 1
        else:
            seeds = {e: self.entry_context for e in self.manifest.entries
                     if e in self._func_names}
            contexts = propagate_contexts(program, graph, seeds=seeds,
                                          entry_context=self.entry_context,
                                          record_transfers=True)
            ctx_recomputed = True

        summaries, sum_changed = update_summaries(
            program, graph, index, self._summaries, set(reparsed),
            funcs=func_lookup, names=self._func_names, complete=True)

        # Collective-function set: summary may-emptiness equals call-graph
        # reachability, so flips keep the set exact without a fixpoint.
        cf = self._collective_funcs
        flips = [n for n in sum_changed
                 if bool(summaries[n].collectives) != (n in cf)]
        if flips:
            cf = set(cf)
            for n in flips:
                if summaries[n].collectives:
                    cf.add(n)
                else:
                    cf.discard(n)
        cf_changed = bool(flips)

        plan_dirty = set(reparsed)
        for n in flips:
            plan_dirty.update(e.caller for e in graph.callers.get(n, ()))
        plan = update_plan(self._plan, graph, contexts, summaries,
                           plan_dirty, set())

        facts = engine.update_program_facts(prev_program, program,
                                            changed=reparsed, removed=(),
                                            collective_funcs=cf, index=index,
                                            changed_positions=reparsed_pos)

        # Scope: exactly the functions whose merged artifacts could differ
        # — new bodies, shifted lines (or a fingerprint a failed update's
        # patch already moved), a changed cache-key ingredient (collective
        # callees, expression-call tokens), or a changed context word set /
        # witness chain.
        scope: Set[str] = set(reparsed) | set(patched) | set(changed)
        for n in flips:
            scope.update(e.caller for e in graph.callers.get(n, ()))
        for n in plan_dirty:
            if plan.extra_tokens.get(n) != self._plan.extra_tokens.get(n):
                scope.add(n)
        if ctx_recomputed:
            prev_ctx = self._contexts
            for n in graph.order:
                if n in scope:
                    continue
                words = contexts.contexts.get(n, ())
                if words != prev_ctx.contexts.get(n, ()):
                    scope.add(n)
                    continue
                for w in words:
                    if (contexts.chains.get((n, w))
                            != prev_ctx.chains.get((n, w))):
                        scope.add(n)
                        break

        if deadline is not None:
            deadline.check("session.plan")
        fault_site("session.analyze")
        lazy = engine.analyze(
            program, initial_words={}, precision=self.precision,
            interprocedural=True, entry_context=self.entry_context,
            plan=plan, deadline=deadline, facts=facts, scope=scope,
            scope_funcs=[func_lookup[n] for n in sorted(scope)])
        record = engine.last
        reanalyzed = record.missed_functions
        dep_reanalyzed = [n for n in reanalyzed if n not in dirty]
        engine.stats.dependency_invalidations += len(dep_reanalyzed)
        engine.stats.assembly_reuses += len(program.funcs) - len(scope)

        if deadline is not None:
            deadline.check("session.render")

        # Per-function report deltas (applied to the cache at commit).
        cache = self._report_cache
        func_file = self._func_file
        requested = facts.requested
        new_entries: Dict[str, dict] = {}
        base_put: Dict[str, Tuple[dict, ...]] = {}
        base_del: List[str] = []
        thread_put: Dict[str, dict] = {}
        thread_del: List[str] = []
        flag_add: List[str] = []
        flag_del: List[str] = []
        sites_add: List[str] = []
        sites_del: List[str] = []
        old_scope_fps: Set[str] = set()
        new_scope_findings: Dict[str, dict] = {}
        scope_sorted = sorted(scope)
        edges_changed = any(
            {e.callee for e in graph.edges[n]}
            != {e.callee for e in self._graph.edges[n]}
            for n in reparsed)
        for name in scope_sorted:
            for f in cache.base.get(name, ()):
                old_scope_fps.add(f["fingerprint"])
            old_tl = cache.thread.get(name)
            if old_tl is not None:
                old_scope_fps.add(old_tl["fingerprint"])
            art, words, _infos = lazy.merge_one(func_lookup[name])
            new_entries[name] = _summary_entry(art, words, summaries[name])
            findings = [diagnostic_finding(d)
                        for d in (list(art.monothread.diagnostics)
                                  + list(art.concurrency.diagnostics)
                                  + list(art.sequence.diagnostics))]
            self._qualify(findings, func_file)
            for f in findings:
                new_scope_findings[f["fingerprint"]] = f
            if findings:
                base_put[name] = tuple(findings)
            elif name in cache.base:
                base_del.append(name)
            tl = _thread_level_finding(name, art, requested)
            if tl is not None:
                self._qualify([tl], func_file)
                thread_put[name] = tl
                new_scope_findings[tl["fingerprint"]] = tl
            elif name in cache.thread:
                thread_del.append(name)
            if art.flagged != (name in cache.flagged):
                (flag_add if art.flagged else flag_del).append(name)
            if bool(art.sites) != (name in cache.has_sites):
                (sites_add if art.sites else sites_del).append(name)
        for name in sum_changed - scope:
            entry = cache.entries.get(name)
            if entry is not None:
                entry = dict(entry)
                entry["collective_summary"] = dict(summaries[name].collectives)
                new_entries[name] = entry

        # Instrumentation plan: recomputed only when an input changed
        # (flagged set, call edges, collective reachability, site owners).
        flagged_changed = bool(flag_add or flag_del)
        sites_changed = bool(sites_add or sites_del)
        if (patch.rebuilt or cf_changed or edges_changed or flagged_changed
                or sites_changed):
            flagged_now = (cache.flagged | set(flag_add)) - set(flag_del)
            sites_now = (cache.has_sites | set(sites_add)) - set(sites_del)
            to_instrument = set(flagged_now)
            reachable: Set[str] = set()
            bfs = list(flagged_now)
            while bfs:
                f = bfs.pop()
                for e in graph.edges.get(f, ()):
                    if e.callee not in reachable:
                        reachable.add(e.callee)
                        bfs.append(e.callee)
            to_instrument |= {f for f in reachable if f in cf}
            instrumented = {n for n in to_instrument if n in sites_now}
        else:
            instrumented = cache.instrumented
        for name in scope:
            new_entries[name]["instrumented"] = name in instrumented
        if instrumented is not cache.instrumented:
            for name in (instrumented ^ cache.instrumented) - scope:
                entry = dict(new_entries.get(name) or cache.entries[name])
                entry["instrumented"] = name in instrumented
                new_entries[name] = entry

        added = tuple(f for fp, f in new_scope_findings.items()
                      if fp not in self._findings)
        gone = tuple(fp for fp in old_scope_fps
                     if fp not in new_scope_findings)

        # Commit — every mutation below is a small per-name delta.
        replaced = self._commit_files(parsed, set())
        replaced.extend(old for old, _new in reparsed_pairs)
        self._forget(replaced, {id(f) for p in touched.values()
                                for f in p.funcs})
        self._program = program
        self._fingerprints.update(fp_new)
        if patch.rebuilt:
            self._callers = {
                name: tuple(e.caller for e in graph.callers[name])
                for name in graph.order}
        else:
            affected: Set[str] = set()
            for name in reparsed:
                affected.update(e.callee for e in graph.edges[name])
                affected.update(e.callee
                                for e in self._graph.edges[name])
            for callee in affected:
                self._callers[callee] = tuple(
                    e.caller for e in graph.callers.get(callee, ()))
        self._graph = graph
        self._contexts = contexts
        self._summaries = summaries
        self._plan = plan
        self._collective_funcs = cf
        self._func_by_name.update(new_funcs)
        cache.entries.update(new_entries)
        for name in base_del:
            cache.base.pop(name, None)
        cache.base.update(base_put)
        for name in thread_del:
            cache.thread.pop(name, None)
        cache.thread.update(thread_put)
        cache.flagged.difference_update(flag_del)
        cache.flagged.update(flag_add)
        cache.has_sites.difference_update(sites_del)
        cache.has_sites.update(sites_add)
        cache.requested = requested
        if instrumented is not cache.instrumented:
            cache.instrumented = instrumented
            cache.instrumented_sorted = sorted(instrumented)
        if cf_changed:
            cache.collective_sorted = sorted(cf)
        if flagged_changed:
            cache.flagged_sorted = sorted(cache.flagged)
        for fp in old_scope_fps:
            self._findings.pop(fp, None)
        self._findings.update(new_scope_findings)
        self._report_doc = None
        self.seq += 1
        self.fast_updates += 1
        return self._make_update(
            tuple(sorted(parsed)), no_op=not (changed or patched),
            full_parse=full_parse, changed=changed, removed=(),
            patched=tuple(patched), dependents=dependents_t,
            reanalyzed=reanalyzed, invalidated=invalidated,
            added=added, gone=gone)

    # -- report assembly -----------------------------------------------------

    def _build_report_cache(self, analysis, report: dict) -> _ReportCache:
        """Snapshot the per-function report pieces of a full analysis (the
        findings in ``report`` are already file-qualified)."""
        entries: Dict[str, dict] = {}
        base: Dict[str, List[dict]] = {}
        thread: Dict[str, dict] = {}
        flagged: Set[str] = set()
        has_sites: Set[str] = set()
        instrumented: Set[str] = set()
        summaries = analysis.summaries
        for name, fa in analysis.functions.items():
            entry = _summary_entry(fa, fa.context_words, summaries[name])
            entry["instrumented"] = fa.instrumented
            entries[name] = entry
            if fa.flagged:
                flagged.add(name)
            if fa.sites:
                has_sites.add(name)
            if fa.instrumented:
                instrumented.add(name)
        for finding in report["findings"]:
            name = finding.get("function", "")
            if finding.get("code") == ErrorCode.THREAD_LEVEL.value:
                thread[name] = finding
            else:
                base.setdefault(name, []).append(finding)
        return _ReportCache(
            entries=entries,
            base={n: tuple(fs) for n, fs in base.items()},
            thread=thread,
            flagged=flagged, has_sites=has_sites, instrumented=instrumented,
            requested=analysis.requested_level,
            collective_sorted=sorted(analysis.collective_funcs),
            flagged_sorted=sorted(flagged),
            instrumented_sorted=sorted(instrumented),
        )

    def _render_cached_report(self, program: A.Program,
                              cache: _ReportCache) -> dict:
        """Assemble the full Report IR document from the per-function cache
        — byte-identical (via :func:`~repro.core.report.render_json`) to a
        cold ``report_from_analysis`` of the same program state."""
        findings: List[dict] = []
        for func in program.funcs:
            findings.extend(cache.base.get(func.name, ()))
        if cache.requested is not None:
            for func in program.funcs:
                tl = cache.thread.get(func.name)
                if tl is not None:
                    findings.append(tl)
        warnings_by_code: Dict[str, int] = {c.value: 0 for c in ErrorCode}
        for f in findings:
            warnings_by_code[f["code"]] += 1
        summary: Dict[str, Any] = {
            "functions": dict(cache.entries),
            "warnings_total": len(findings),
            "warnings_by_code": warnings_by_code,
            "collective_functions": list(cache.collective_sorted),
            "flagged_functions": list(cache.flagged_sorted),
            "instrumented_functions": list(cache.instrumented_sorted),
            "requested_level": (cache.requested.mpi_name
                                if cache.requested is not None else None),
            "verified": not findings,
            "precision": self.precision,
            "interprocedural": True,
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

    def _commit_files(self, parsed: Dict[str, _ParsedFile],
                      closed: Set[str]) -> List[A.FuncDef]:
        """Install the parsed files' states; returns the functions of the
        states they replaced (closed files included)."""
        replaced: List[A.FuncDef] = []
        for rel in closed:
            state = self._files.pop(rel, None)
            if state is not None:
                replaced.extend(state.funcs)
        for rel, p in parsed.items():
            prev = self._files.get(rel)
            if prev is not None and not p.changed_text:
                continue  # same text, same objects: keep the cached state
            if prev is not None:
                replaced.extend(prev.funcs)
            self._files[rel] = _ProjectFile(
                rel=rel, source=p.source, funcs=p.funcs, chunks=p.chunks,
                names=tuple(f.name for f in p.funcs),
                sigs=self._signature_map(p.funcs))
        return replaced

    def _forget(self, replaced: List[A.FuncDef], live: Set[int]) -> None:
        """Drop the id-keyed memo entries (engine identity and index memos,
        the checked-function memo) of replaced functions whose ids are not
        in ``live``: the memos then hold live functions only."""
        dead = [f for f in replaced if id(f) not in live]
        if not dead:
            return
        self.engine.forget_functions(dead)
        checked = self._checked
        for func in dead:
            if checked.get(id(func)) is func:
                del checked[id(func)]

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
            findings_removed=gone, findings_total=len(self._findings),
        )
        delta.report = delta.document(
            "project", {"file": self.manifest.root},
            files=list(files), patched=list(patched))
        return delta


__all__ = [
    "ProjectSession",
    "ProjectUpdate",
]
