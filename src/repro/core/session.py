"""Persistent incremental analysis sessions — ``parcoach serve`` / ``watch``.

The batch pipeline is one-shot: parse, analyze, report, exit.  This module
turns it into a standing service.  An :class:`AnalysisSession` owns one
:class:`~repro.core.engine.AnalysisEngine` and, per source file, the state
needed to make a re-analysis after an edit cost work proportional to the
*edit*, not the program:

* **Chunked incremental re-parse** — the source is split into top-level
  function chunks (a brace/string/comment scanner).  A chunk whose text and
  start line are unchanged reuses the previous ``FuncDef`` *object*, so the
  engine serves it through the identity fast path with zero hashing; only
  edited chunks are re-parsed (padded to their original line/column so
  positions match a full parse byte-for-byte).  Any anomaly — unbalanced
  braces, a chunk that does not parse to exactly one function — falls back
  to a full parse, which is always correct.

* **Fingerprint diff + dependency invalidation** — per-function structural
  fingerprints (:func:`~repro.core.engine.ast_fingerprint`) of the new parse
  are diffed against the previous ones: the *changed* set (edited, renamed
  or added functions) and the *removed* set drive everything downstream.
  Changed/removed fingerprints are evicted from the engine's
  content-addressed store; the transitive reverse-call-graph closure of the
  changed set (over both the old and new call graphs) is the *dependents*
  set — callers whose context words or collective summaries may change.
  Unchanged functions are never re-analyzed: content addressing guarantees
  their artifacts can only be hit by structurally identical code.

* **Incremental interprocedural plan** — the collective summaries are
  recomputed only for dirty SCCs and the callers whose callee summaries
  actually changed (:func:`~repro.core.callgraph.collective_summaries` with
  ``prev``/``dirty``); call-graph construction and context propagation are
  cheap and rebuilt; the per-function call index is memoized on the reused
  ``FuncDef`` objects.

* **Finding deltas** — every update renders the unified Report IR and diffs
  the finding *fingerprints* against the previous update: the serve stream
  re-emits only findings that appeared, plus the fingerprints of findings
  that disappeared.

Edits that keep every function's fingerprint (same-line whitespace, comment
churn) invalidate nothing: the previous analysis and report are reused
outright.  Line-shifting edits change the fingerprints of the shifted
functions (diagnostics are line-addressed) — those re-analyze; the
in-place, line-count-preserving edit of one function is the designed fast
path and the shape ``benchmarks/bench_incremental.py`` gates.
"""

from __future__ import annotations

import hashlib
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..minilang import ast_nodes as A
from ..minilang.parser import parse_program
from ..minilang.semantics import Checker, check_program
from ..parallelism import EMPTY, Word
from ..util.faultinject import fault_site
from ..util.resilience import Deadline, DeadlineExceeded, Failure
from .callgraph import (
    FunctionSummary,
    build_call_graph,
    collective_summaries,
    propagate_contexts,
)
from .driver import build_plan
from .engine import AnalysisEngine
from .report import (
    REPORT_VERSION,
    build_report,
    render_json,
    report_from_analysis,
    source_stamp,
)
from .sites import index_program


class SessionError(Exception):
    """A source update that cannot be analyzed (parse or semantic errors).

    The session state is untouched: the previous program version stays
    current and the next good update diffs against it."""

    def __init__(self, path: str, messages: List[str]) -> None:
        super().__init__(f"{path}: {len(messages)} error(s)")
        self.path = path
        self.messages = messages


# ---------------------------------------------------------------------------
# Chunked source splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceChunk:
    """One top-level brace-balanced region of the source (a function)."""

    start_line: int
    start_col: int
    text: str

    @property
    def key(self) -> Tuple[str, int]:
        digest = hashlib.sha256(self.text.encode("utf-8")).hexdigest()
        return (digest, self.start_line)


#: Characters that can change the scanner state: string/comment starts and
#: braces.  Everything between two matches is ordinary code.
_INTERESTING = re.compile(r'["/{}]')
_NON_WS = re.compile(r"\S")


def _string_end(source: str, opening: int) -> int:
    """Index one past the closing quote of the string starting at
    ``opening`` — -1 when unterminated (or broken by a newline)."""
    k = opening + 1
    while True:
        quote = source.find('"', k)
        if quote < 0:
            return -1
        newline = source.find("\n", k, quote)
        if newline >= 0:
            return -1
        backslashes = 0
        b = quote - 1
        while b >= 0 and source[b] == "\\":
            backslashes += 1
            b -= 1
        if backslashes % 2 == 0:
            return quote + 1
        k = quote + 1


def split_chunks(source: str) -> Optional[List[SourceChunk]]:
    """Split ``source`` into top-level function chunks.

    Tracks strings (with escapes), ``//`` and ``/* */`` comments and brace
    depth; a chunk runs from the first non-trivia character at depth 0 to
    the brace that closes back to depth 0.  Returns ``None`` on anything
    unbalanced — the caller falls back to a full parse.  The scanner jumps
    between interesting characters with C-speed searches, so re-splitting a
    large file per update costs single-digit milliseconds."""
    chunks: List[SourceChunk] = []
    depth = 0
    start = -1
    i, n = 0, len(source)
    # Incremental line bookkeeping for chunk starts (emitted in order).
    last_pos = 0
    last_line = 1
    while i < n:
        if depth == 0 and start < 0:
            # Looking for the next chunk start: skip whitespace + comments.
            match = _NON_WS.search(source, i)
            if match is None:
                break
            j = match.start()
            two = source[j:j + 2]
            if two == "//":
                end = source.find("\n", j)
                i = n if end < 0 else end + 1
                continue
            if two == "/*":
                end = source.find("*/", j + 2)
                if end < 0:
                    return None
                i = end + 2
                continue
            start = j
            i = j
        match = _INTERESTING.search(source, i)
        if match is None:
            break
        j = match.start()
        ch = source[j]
        if ch == '"':
            end = _string_end(source, j)
            if end < 0:
                return None
            i = end
        elif ch == "/":
            nxt = source[j + 1:j + 2]
            if nxt == "/":
                end = source.find("\n", j)
                i = n if end < 0 else end + 1
            elif nxt == "*":
                end = source.find("*/", j + 2)
                if end < 0:
                    return None
                i = end + 2
            else:
                i = j + 1
        elif ch == "{":
            depth += 1
            i = j + 1
        else:  # "}"
            depth -= 1
            if depth < 0:
                return None
            i = j + 1
            if depth == 0 and start >= 0:
                last_line += source.count("\n", last_pos, start)
                last_pos = start
                newline = source.rfind("\n", 0, start)
                chunks.append(SourceChunk(start_line=last_line,
                                          start_col=start - newline,
                                          text=source[start:j + 1]))
                start = -1
    if depth != 0 or start >= 0:
        return None
    return chunks


def _parse_chunk(chunk: SourceChunk, filename: str) -> Optional[A.FuncDef]:
    """Parse one chunk standalone, padded so every node's line/col matches
    what a full-file parse would assign.  ``None`` when the chunk is not
    exactly one function (the caller falls back to a full parse)."""
    fault_site("session.parse_chunk")
    padded = ("\n" * (chunk.start_line - 1) + " " * (chunk.start_col - 1)
              + chunk.text)
    try:
        program = parse_program(padded, filename)
    except Exception:
        return None
    if len(program.funcs) != 1:
        return None
    return program.funcs[0]


# ---------------------------------------------------------------------------
# Session state
# ---------------------------------------------------------------------------


@dataclass
class SessionUpdate:
    """The delta produced by one :meth:`AnalysisSession.update_source`."""

    path: str
    #: Monotonic per-file update counter (1 = first analysis).
    seq: int
    #: True when the previous analysis was reused outright (identical
    #: source, or an edit that moved no function fingerprint).
    no_op: bool
    #: True when the update could not use chunk-level parse reuse.
    full_parse: bool
    #: Function names whose fingerprint moved or appeared.
    changed: Tuple[str, ...]
    #: Function names that disappeared.
    removed: Tuple[str, ...]
    #: Reverse-call-graph transitive closure of changed ∪ removed (the
    #: callers that *may* need re-analysis), excluding the seeds.
    dependents: Tuple[str, ...]
    #: Functions the engine actually re-analyzed this update.
    reanalyzed: Tuple[str, ...]
    #: Cache entries evicted for changed/removed fingerprints.
    invalidated_entries: int
    #: Findings that appeared this update (full Report IR finding objects).
    findings_added: Tuple[dict, ...]
    #: Fingerprints of findings that disappeared.
    findings_removed: Tuple[str, ...]
    #: Total live findings after the update.
    findings_total: int
    #: Serve-flavoured Report IR document for this delta.
    report: dict = field(repr=False, default_factory=dict)


@dataclass
class _FileState:
    source: str
    program: A.Program
    fingerprints: Dict[str, str]
    #: chunk key -> FuncDef of the current program (None: chunking disabled
    #: for this file; every update full-parses).
    chunks: Optional[Dict[Tuple[str, int], A.FuncDef]]
    #: function -> caller names (reverse call-graph edges, current version).
    callers: Dict[str, Tuple[str, ...]]
    summaries: Optional[Dict[str, FunctionSummary]]
    #: finding fingerprint -> finding (insertion-ordered as reported).
    findings: Dict[str, dict]
    #: The full analyze-flavoured Report IR of the current version.
    report: dict
    seq: int = 1


class AnalysisSession:
    """A long-lived, incremental front end over one analysis engine.

    ``update_source``/``update`` are the whole API: feed the current text of
    a file, get back a :class:`SessionUpdate` describing exactly what was
    re-analyzed and which findings changed.  See the module docstring for
    the invalidation strategy."""

    #: Recent failures kept for ``stats`` (bounded: the record is
    #: diagnostic, not a log).
    MAX_FAILURES = 8

    def __init__(self, precision: str = "paper",
                 interprocedural: bool = True,
                 entry_context: Word = EMPTY) -> None:
        self.engine = AnalysisEngine()
        self.precision = precision
        self.interprocedural = interprocedural
        self.entry_context = entry_context
        self.updates = 0
        self.no_op_updates = 0
        #: Resilience counters (see ``docs/resilience.md``): requests healed
        #: by targeted file-state invalidation, full session rebuilds,
        #: per-request deadline expiries, and requests answered by a
        #: degraded (no-interprocedural / cold single-file) analysis.
        self.recoveries = 0
        self.rebuilds = 0
        self.timeouts = 0
        self.degraded = 0
        self.failures: List[Failure] = []
        self._files: Dict[str, _FileState] = {}
        #: id(func) -> func: functions already semantically checked (valid
        #: while the program's function-name set is unchanged — the checks
        #: are per-function except for call resolution against that set).
        self._checked: Dict[int, A.FuncDef] = {}

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Nothing to release — the session holds only memory.  With the
        context-manager protocol it lets callers scope a session."""

    def __enter__(self) -> "AnalysisSession":
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
                "recoveries": self.recoveries,
                "rebuilds": self.rebuilds,
                "timeouts": self.timeouts,
                "degraded": self.degraded,
                "failures": [f.as_dict() for f in self.failures],
            },
        }

    # -- self-healing ----------------------------------------------------------

    def record_failure(self, site: str, exc: BaseException,
                       attempt: int = 1) -> Failure:
        """Keep a bounded, structured trail of what went wrong (surfaced by
        the ``stats`` command so supervisors can see *why* the counters
        moved without scraping stderr)."""
        failure = Failure.from_exception(site, attempt, exc)
        self.failures.append(failure)
        del self.failures[:-self.MAX_FAILURES]
        return failure

    def recover_file(self, path: str) -> None:
        """Targeted self-heal: forget everything the session knows about
        ``path`` and evict its functions' artifacts from the store.  The
        next update of the file is a cold, from-scratch analysis; every
        other file's warm state survives."""
        state = self._files.pop(path, None)
        if state is not None:
            self.engine.invalidate_fingerprints(set(state.fingerprints.values()))

    def rebuild(self) -> None:
        """Last-resort self-heal: throw the whole warm state away — a fresh
        engine and no per-file state.  The session object itself survives,
        so the serve loop keeps running."""
        self.engine = AnalysisEngine()
        self._files.clear()
        self._checked.clear()

    # -- parsing ---------------------------------------------------------------

    def _full_parse(self, path: str, source: str) -> A.Program:
        try:
            program = parse_program(source, path)
        except Exception as exc:
            raise SessionError(path, [str(exc)]) from exc
        self._check(path, program, prev=None)
        return program

    @staticmethod
    def _signatures(program: A.Program) -> Dict[str, tuple]:
        return {f.name: (f.ret_type, len(f.params)) for f in program.funcs}

    def _check(self, path: str, program: A.Program,
               prev: Optional[_FileState]) -> None:
        """Semantic checks, incremental where sound: a reused ``FuncDef``
        was already checked, and per-function checks depend on the other
        functions only through their *signatures* (name, return type,
        arity — call resolution and arity checks) — so while the signature
        map is unchanged, only re-parsed functions are re-checked.  Any
        signature change (rename, add/remove, arity or return-type edit)
        re-checks the whole program: callers of the edited function may be
        unchanged text yet newly wrong."""
        prev_sigs = (self._signatures(prev.program)
                     if prev is not None else None)
        sigs = self._signatures(program)
        unchecked = [f for f in program.funcs
                     if self._checked.get(id(f)) is not f]
        if (prev_sigs == sigs and len(sigs) == len(program.funcs)):
            checker = Checker(program)
            for func in unchecked:
                checker._check_func(func)
            issues = checker.issues
        else:
            issues = check_program(program)
            unchecked = list(program.funcs)
        errors = [str(i) for i in issues if i.severity == "error"]
        if errors:
            raise SessionError(path, errors)
        for func in unchecked:
            self._checked[id(func)] = func
        while len(self._checked) > 65536:
            self._checked.pop(next(iter(self._checked)))

    def _parse_incremental(
        self, path: str, source: str, prev: Optional[_FileState]
    ) -> Tuple[A.Program, Optional[Dict[Tuple[str, int], A.FuncDef]], bool]:
        """Parse ``source``, reusing the previous version's ``FuncDef``
        objects for unchanged chunks.  Returns (program, chunk map or None,
        full_parse flag)."""
        chunks = split_chunks(source)
        if chunks is None:
            return self._full_parse(path, source), None, True
        reused_any = False
        funcs: List[A.FuncDef] = []
        chunk_map: Dict[Tuple[str, int], A.FuncDef] = {}
        prev_chunks = prev.chunks if prev is not None else None
        for chunk in chunks:
            key = chunk.key
            func = prev_chunks.get(key) if prev_chunks else None
            if func is not None:
                reused_any = True
            else:
                func = _parse_chunk(chunk, path)
                if func is None:
                    # Oddly shaped chunk: full parse decides (and reports
                    # real errors with real positions).
                    program = self._full_parse(path, source)
                    return program, None, True
            funcs.append(func)
            chunk_map[key] = func
        program = A.Program(funcs=funcs, filename=path,
                            line=funcs[0].line if funcs else 1)
        self._check(path, program, prev)
        return program, chunk_map, not reused_any and prev is not None

    # -- updates ---------------------------------------------------------------

    def update(self, path: str, deadline: Optional[Deadline] = None,
               interprocedural: Optional[bool] = None) -> SessionUpdate:
        """Re-read ``path`` from disk and fold it into the session."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            # Fault site: an injected OSError here is a failed read (a
            # SessionError like any other); an injected `truncate` hands a
            # half-read file downstream, which the parse layer must survive.
            source = fault_site("session.read_file", source)
        except OSError as exc:
            raise SessionError(path, [str(exc)]) from exc
        return self.update_source(path, source, deadline=deadline,
                                  interprocedural=interprocedural)

    def _no_op_update(self, path: str, prev: _FileState,
                      source: str, full_parse: bool) -> SessionUpdate:
        prev.source = source
        prev.seq += 1
        self.no_op_updates += 1
        delta = SessionUpdate(
            path=path, seq=prev.seq, no_op=True, full_parse=full_parse,
            changed=(), removed=(), dependents=(), reanalyzed=(),
            invalidated_entries=0, findings_added=(), findings_removed=(),
            findings_total=len(prev.findings),
        )
        delta.report = self._delta_report(path, source, delta, prev)
        return delta

    def update_source(self, path: str, source: str,
                      deadline: Optional[Deadline] = None,
                      interprocedural: Optional[bool] = None) -> SessionUpdate:
        """Fold the current text of ``path`` into the session and return
        what changed.  Raises :class:`SessionError` (state untouched) when
        the text does not parse or check.

        ``deadline`` is checked cooperatively at every phase boundary
        (parse, plan, each cache-miss analysis, render); expiry raises
        :class:`~repro.util.resilience.DeadlineExceeded` with the session
        state *untouched* — the previous version stays current, exactly
        like a :class:`SessionError`.  ``interprocedural`` overrides the
        session default for this one update (the serve deadline ladder
        degrades to the cheaper per-function plan)."""
        interproc = (self.interprocedural if interprocedural is None
                     else interprocedural)
        self.updates += 1
        prev = self._files.get(path)
        if prev is not None and prev.source == source:
            return self._no_op_update(path, prev, source, full_parse=False)

        program, chunk_map, full_parse = self._parse_incremental(path, source,
                                                                 prev)
        if deadline is not None:
            deadline.check("session.parse")
        # Unchanged chunks reuse the previous FuncDef objects, so the
        # engine's id-keyed identity memo skips re-hashing them.
        fingerprints = {f.name: self.engine._fingerprint_for(f)
                        for f in program.funcs}
        prev_fps = prev.fingerprints if prev is not None else {}
        changed = tuple(n for n in fingerprints
                        if fingerprints[n] != prev_fps.get(n))
        removed = tuple(n for n in prev_fps if n not in fingerprints)

        if prev is not None and not changed and not removed:
            # Same structure on every function (whitespace / comment edit):
            # nothing to invalidate, the previous analysis stands.  Keep the
            # OLD program object — its artifacts are the cached ones.
            prev.chunks = (
                {k: prev.program.func(v.name)
                 for k, v in chunk_map.items()} if chunk_map is not None
                else None)
            return self._no_op_update(path, prev, source, full_parse)

        # Dependency closure over reverse call edges — both versions' edges,
        # so callers of deleted functions and new callers both count.
        dirty: Set[str] = set(changed) | set(removed)
        index = index_program(program, memo=self.engine._func_index)
        graph = build_call_graph(program, index)
        callers: Dict[str, Tuple[str, ...]] = {
            name: tuple(e.caller for e in graph.callers[name])
            for name in graph.order
        }
        merged_callers: Dict[str, Set[str]] = {}
        for source_map in (prev.callers if prev is not None else {}, callers):
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

        # Evict the edited functions' artifacts from the store.
        doomed = {prev_fps[n] for n in dirty if n in prev_fps}
        invalidated = self.engine.invalidate_fingerprints(doomed)

        plan = None
        initial_words: Dict[str, Word] = {}
        if interproc:
            contexts = propagate_contexts(program, graph,
                                          entry_context=self.entry_context)
            summaries = collective_summaries(
                program, graph, index,
                prev=prev.summaries if prev is not None else None,
                dirty=set(changed))
            plan = build_plan(program, index,
                              entry_context=self.entry_context,
                              graph=graph, contexts=contexts,
                              summaries=summaries)
        else:
            summaries = None
            if self.entry_context:
                # Mirror the CLI's --no-interprocedural semantics: the
                # initial context applies to every function directly.
                initial_words = {f.name: self.entry_context
                                 for f in program.funcs}
        if deadline is not None:
            deadline.check("session.plan")

        fault_site("session.analyze")
        analysis = self.engine.analyze(
            program, initial_words=initial_words, precision=self.precision,
            interprocedural=interproc,
            entry_context=self.entry_context, plan=plan, deadline=deadline)
        record = self.engine.last
        reanalyzed = record.missed_functions
        dep_reanalyzed = [n for n in reanalyzed if n not in dirty]
        self.engine.stats.dependency_invalidations += len(dep_reanalyzed)

        if deadline is not None:
            deadline.check("session.render")
        report = report_from_analysis(analysis, source_path=path,
                                      source_text=source)
        new_findings = {f["fingerprint"]: f for f in report["findings"]}
        old_findings = prev.findings if prev is not None else {}
        added = tuple(f for fp, f in new_findings.items()
                      if fp not in old_findings)
        gone = tuple(fp for fp in old_findings if fp not in new_findings)

        seq = prev.seq + 1 if prev is not None else 1
        self._files[path] = _FileState(
            source=source, program=program, fingerprints=fingerprints,
            chunks=chunk_map, callers=callers, summaries=summaries,
            findings=new_findings, report=report, seq=seq,
        )
        delta = SessionUpdate(
            path=path, seq=seq, no_op=False, full_parse=full_parse,
            changed=changed, removed=removed, dependents=dependents_t,
            reanalyzed=reanalyzed, invalidated_entries=invalidated,
            findings_added=added, findings_removed=gone,
            findings_total=len(new_findings),
        )
        delta.report = self._delta_report(path, source, delta,
                                          self._files[path])
        return delta

    def report_for(self, path: str) -> Optional[dict]:
        """The full analyze-flavoured Report IR of a file's current
        version (None when the file was never analyzed)."""
        state = self._files.get(path)
        return state.report if state is not None else None

    def _delta_report(self, path: str, source: str, delta: SessionUpdate,
                      state: _FileState) -> dict:
        """The serve-flavoured Report IR: only the findings that appeared,
        plus the incremental bookkeeping every consumer of the stream needs
        to reconstruct the full picture."""
        return build_report(
            "serve",
            source=source_stamp(path, source),
            findings=list(delta.findings_added),
            verdict="findings" if delta.findings_total else "clean",
            summary={
                "update": delta.seq,
                "incremental": {
                    "no_op": delta.no_op,
                    "full_parse": delta.full_parse,
                    "changed": list(delta.changed),
                    "removed": list(delta.removed),
                    "dependents": list(delta.dependents),
                    "reanalyzed": list(delta.reanalyzed),
                    "invalidated_entries": delta.invalidated_entries,
                    "findings_added": len(delta.findings_added),
                    "findings_removed": list(delta.findings_removed),
                    "findings_total": delta.findings_total,
                },
            },
        )


# ---------------------------------------------------------------------------
# serve / watch front ends
# ---------------------------------------------------------------------------


def _error_report(path: Optional[str], messages: List[str],
                  tool: str = "serve") -> dict:
    return build_report(tool, source=source_stamp(path, None), findings=[],
                        verdict="error",
                        summary={"errors": list(messages)})


def _timeout_report(path: str, exc: DeadlineExceeded,
                    deadline_ms: float) -> dict:
    return build_report(
        "serve", source=source_stamp(path, None), findings=[],
        verdict="error",
        summary={
            "errors": [str(exc)],
            "timeout": {
                "deadline_ms": deadline_ms,
                "site": exc.site,
                "elapsed_ms": round(exc.elapsed * 1000.0, 1),
            },
        })


def _internal_error_report(path: Optional[str], failure: Failure,
                           request: str) -> dict:
    """The catch-all response: *any* unexpected exception becomes a valid
    Report IR line instead of a dead server."""
    return build_report(
        "serve", source=source_stamp(path, None), findings=[],
        verdict="error",
        summary={
            "errors": [f"internal error: {failure.error_type}: "
                       f"{failure.message}"],
            "failure": failure.as_dict(),
            "request": request,
        })


def run_serve(session: AnalysisSession, stdin=None, stdout=None,
              deadline_ms: Optional[float] = None,
              clock=time.monotonic) -> int:
    """The ``parcoach serve`` loop: a line protocol on stdin, one Report IR
    JSON document per line on stdout.

    Commands (any may be prefixed ``@ID`` — the id is echoed back as a
    top-level ``request_id`` key on every response to that request)::

        analyze PATH   (re)analyze PATH incrementally, emit the delta report
        stats          emit engine + session counters
        ping           emit a liveness report (cheap, never analyzes)
        quit           exit 0 (EOF does the same)

    The loop is crash-isolated: no request can kill the server.  A
    ``SessionError`` is a normal error report; any *other* exception runs
    the self-heal ladder — invalidate the offending file and retry
    (``recoveries``), then rebuild the whole session and retry
    (``rebuilds``), then answer with an ``internal-error`` report carrying
    a traceback digest.  ``KeyboardInterrupt`` exits 0 cleanly.

    ``deadline_ms`` arms a per-request budget: on expiry the request emits
    a ``timeout`` report, then degrades — retry once with the
    interprocedural plan off, then a cold single-file analysis with no
    deadline (``timeouts`` / ``degraded`` counters)."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout

    def respond(doc: dict, request_id: Optional[str]) -> None:
        if request_id is not None:
            doc = dict(doc)
            doc["request_id"] = request_id
        payload = render_json(doc)
        try:
            written = fault_site("serve.emit", payload)
            if written != payload:
                # A short write would corrupt the line protocol; treat it
                # like any other emit failure and resend the full line.
                raise OSError("short write on response stream")
            stdout.write(payload)
            stdout.flush()
            return
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            session.record_failure("serve.emit", exc)
            session.recoveries += 1
        stdout.write(payload)
        stdout.flush()

    def analyze_with_deadline(path: str, request_id: Optional[str]) -> None:
        """The deadline ladder: emit the delta report, or on budget expiry
        a timeout report followed by the best degraded answer we can
        still produce."""
        if deadline_ms is None:
            respond(session.update(path).report, request_id)
            return
        try:
            delta = session.update(
                path, deadline=Deadline.after_ms(deadline_ms, clock))
        except DeadlineExceeded as exc:
            session.timeouts += 1
            session.record_failure(exc.site or "deadline", exc)
            respond(_timeout_report(path, exc, deadline_ms), request_id)
            try:
                delta = session.update(
                    path, deadline=Deadline.after_ms(deadline_ms, clock),
                    interprocedural=False)
            except DeadlineExceeded as exc2:
                session.record_failure(exc2.site or "deadline", exc2, 2)
                # Last rung: cold single-file, no deadline — always answers.
                session.recover_file(path)
                delta = session.update(path, interprocedural=False)
            session.degraded += 1
        respond(delta.report, request_id)

    def handle_analyze(path: str, request_id: Optional[str],
                       request: str) -> None:
        """The self-heal ladder around one analyze request."""
        for attempt in (1, 2, 3):
            try:
                analyze_with_deadline(path, request_id)
                return
            except SessionError as exc:
                respond(_error_report(exc.path, exc.messages), request_id)
                return
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                failure = session.record_failure("serve.analyze", exc,
                                                 attempt)
                if attempt == 1:
                    session.recover_file(path)
                    session.recoveries += 1
                elif attempt == 2:
                    session.rebuild()
                    session.rebuilds += 1
                else:
                    respond(_internal_error_report(path, failure, request),
                            request_id)
                    return

    try:
        for raw in stdin:
            line = raw.strip()
            if not line:
                continue
            request_id: Optional[str] = None
            if line.startswith("@"):
                head, _, rest = line.partition(" ")
                request_id = head[1:]
                line = rest.strip()
                if not line:
                    respond(_error_report(
                        None, ["empty command after request id"]), request_id)
                    continue
            parts = line.split(None, 1)
            command = parts[0]
            if command == "quit":
                break
            if command == "ping":
                respond(build_report(
                    "serve", source=None, findings=[], verdict="clean",
                    summary={"ping": {
                        "ok": True,
                        "files": len(session._files),
                        "updates": session.updates,
                        "recoveries": session.recoveries,
                        "rebuilds": session.rebuilds,
                    }}), request_id)
                continue
            if command == "stats":
                respond(build_report("serve", source=None, findings=[],
                                     verdict="clean",
                                     summary={"stats": session.stats()}),
                        request_id)
                continue
            if command == "analyze":
                if len(parts) != 2:
                    respond(_error_report(None, ["usage: analyze PATH"]),
                            request_id)
                    continue
                handle_analyze(parts[1], request_id, line)
                continue
            respond(_error_report(
                None, [f"unknown command {command!r} "
                       f"(expected analyze/stats/ping/quit)"]), request_id)
    except KeyboardInterrupt:
        return 0
    return 0


def run_watch(session: AnalysisSession, path: str, interval: float = 0.5,
              max_updates: int = 0, stdout=None,
              clock=time.monotonic, sleep=time.sleep) -> int:
    """The ``parcoach watch`` loop: analyze ``path`` now, then poll it and
    re-emit a delta report whenever its content changes.  ``max_updates``
    bounds the number of emitted updates (0 = until interrupted).

    Crash-isolated like serve: a ``SessionError`` (or any unexpected
    exception, after a targeted ``recover_file`` self-heal) becomes an
    error report, de-duplicated so a persistently broken file reports
    once per distinct error, not once per poll.  ``KeyboardInterrupt``
    anywhere in the loop — including mid-analysis — exits 0 cleanly."""
    stdout = stdout if stdout is not None else sys.stdout

    def emit(doc: dict) -> None:
        stdout.write(render_json(doc))
        stdout.flush()

    emitted = 0
    last_reported_error: Optional[str] = None
    try:
        while True:
            try:
                delta = session.update(path)
            except SessionError as exc:
                message = "\n".join(exc.messages)
                if message != last_reported_error:
                    emit(_error_report(exc.path, exc.messages, tool="watch"))
                    emitted += 1
                    last_reported_error = message
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                failure = session.record_failure("watch.update", exc)
                session.recover_file(path)
                session.recoveries += 1
                message = f"{failure.error_type}: {failure.message}"
                if message != last_reported_error:
                    emit(build_report(
                        "watch", source=source_stamp(path, None),
                        findings=[], verdict="error",
                        summary={"errors": [message],
                                 "failure": failure.as_dict()}))
                    emitted += 1
                    last_reported_error = message
            else:
                last_reported_error = None
                if delta.seq == 1 or not delta.no_op:
                    report = dict(delta.report)
                    report["tool"] = "watch"
                    emit(report)
                    emitted += 1
            if max_updates and emitted >= max_updates:
                return 0
            sleep(interval)
    except KeyboardInterrupt:
        return 0


# Re-exported for the CLI and tests.
__all__ = [
    "AnalysisSession",
    "SessionError",
    "SessionUpdate",
    "SourceChunk",
    "run_serve",
    "run_watch",
    "split_chunks",
    "REPORT_VERSION",
]
