"""Whole-program analysis driver.

Runs, per function: CFG construction, parallelism-word computation, phase 1
(monothread), phase 2 (concurrency), phase 3 (Algorithm 1 / PDF+); then the
program-level passes: collective call graph, MPI thread-level check against
``MPI_Init_thread``, check-group assignment, and the selective
instrumentation plan (which functions get CC/ENTER checks).

Interprocedural context propagation (default on, see
:mod:`repro.core.callgraph`): instead of analyzing every function under the
empty (monothreaded) parallelism word, the driver first computes, per
function, the set of calling-context words reaching it over the call graph
(seeded at ``main``/entries with ``entry_context``), then analyzes the
function *once per distinct context word* and merges the per-context
artifacts.  Diagnostics produced under a non-empty context carry the witness
call chain (``main → worker → helper``).  Calls embedded in expressions —
which have no ``CALL`` block and are invisible to the intraprocedural
phases — become phase-3 sequence points when the callee's summary says it
executes collectives.  ``interprocedural=False`` restores the paper's pure
per-function behaviour.

Selective instrumentation rule: a function is instrumented when any phase
flagged it, or when it may execute collectives and is transitively callable
from a flagged function (keeps the CC pairing aligned across processes
while leaving fully verified call trees untouched — the property Figure 1's
"verification code generation" overhead and the ablation bench measure).

The module is split so the incremental sessions can reuse the pieces:
:func:`_analyze_function` is the pure per-function pipeline (no shared
state, cached by :class:`repro.core.engine.AnalysisEngine`),
:func:`build_plan` / :func:`update_plan` compute the interprocedural plan,
:func:`_merge_artifacts` folds per-context artifacts together, and
:func:`thread_level_diagnostic` is the program-level thread-level check.
:func:`analyze_program` wires everything together for one compilation —
what ``parcoach analyze`` and ``parcoach batch`` run — and ``_assemble``
is its program-level synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from ..cfg import CFG, build_cfg
from ..minilang import ast_nodes as A
from ..mpi.collectives import COLLECTIVES
from ..mpi.thread_levels import LEVEL_FROM_INT, ThreadLevel
from ..parallelism import EMPTY, Word, WordInfo, compute_words, is_monothreaded
from ..util.probe import probe, probes_active
from .callgraph import (
    CallGraph,
    ContextMap,
    FunctionSummary,
    build_call_graph,
    collective_summaries,
    propagate_contexts,
)
from .concurrency import ConcurrencyResult, analyze_concurrency
from .diagnostics import Diagnostic, DiagnosticBag, ErrorCode, SourceRef
from .monothread import MonothreadResult, analyze_monothread
from .sequence import SequenceResult, analyze_sequence
from .sites import (
    CollectiveSite,
    ProgramIndex,
    collect_sites,
    collective_call_graph,
    index_program,
)


@dataclass
class FunctionAnalysis:
    """All per-function analysis artefacts."""

    func: A.FuncDef
    cfg: CFG
    ast_block: Dict[int, int]
    word_info: WordInfo
    sites: List[CollectiveSite]
    monothread: MonothreadResult
    concurrency: ConcurrencyResult
    sequence: SequenceResult
    #: True when any phase flagged this function.
    flagged: bool = False
    #: True when the instrumentation plan covers this function.
    instrumented: bool = False
    #: Site uid -> check-group ids whose ENTER/EXIT counters wrap the site.
    check_groups: Dict[int, List[int]] = field(default_factory=dict)
    #: Site uids that receive a CC call (all sites of instrumented functions).
    cc_sites: Set[int] = field(default_factory=set)
    #: Site uids whose context is multithreaded (ENTER aborts >1 threads).
    multithreaded_sites: Set[int] = field(default_factory=set)
    #: Calling-context words this function was analyzed under (one entry —
    #: the empty word — in intraprocedural mode).
    context_words: Tuple[Word, ...] = (EMPTY,)
    #: Per-context word maps, aligned with ``context_words`` (``word_info``
    #: is the first one).
    word_infos: Tuple[WordInfo, ...] = ()

    @property
    def n_collectives(self) -> int:
        return sum(1 for s in self.sites if s.kind == "collective")


@dataclass
class ProgramAnalysis:
    program: A.Program
    functions: Dict[str, FunctionAnalysis]
    diagnostics: DiagnosticBag
    collective_funcs: Set[str]
    requested_level: Optional[ThreadLevel]
    precision: str = "paper"
    #: Check-group id -> "multithread" | "concurrent" (selects the runtime
    #: error type raised when the group's counter overlaps).
    group_kinds: Dict[int, str] = field(default_factory=dict)
    #: True when interprocedural context propagation ran.
    interprocedural: bool = False
    #: The call graph / summaries the interprocedural layer computed
    #: (``None`` in intraprocedural mode).
    callgraph: Optional[CallGraph] = None
    summaries: Optional[Dict[str, FunctionSummary]] = None

    @property
    def flagged_functions(self) -> List[str]:
        return [n for n, fa in self.functions.items() if fa.flagged]

    @property
    def instrumented_functions(self) -> List[str]:
        return [n for n, fa in self.functions.items() if fa.instrumented]

    @property
    def verified(self) -> bool:
        """True when no warnings were produced — the program is statically
        proven correct and needs zero runtime checks."""
        return len(self.diagnostics) == 0

    def function(self, name: str) -> FunctionAnalysis:
        return self.functions[name]


def _find_requested_level(index: ProgramIndex) -> Optional[ThreadLevel]:
    """Thread level requested via MPI_Init_thread(n) / MPI_Init()."""
    for calls in index.calls.values():
        for node in calls:
            if node.name == "MPI_Init_thread" and node.args:
                arg = node.args[0]
                if isinstance(arg, A.IntLit):
                    return LEVEL_FROM_INT.get(arg.value, ThreadLevel.MULTIPLE)
                return None  # dynamic level: cannot check statically
            if node.name == "MPI_Init":
                return ThreadLevel.SINGLE
    return None


def _call_edges(program: A.Program, index: ProgramIndex) -> Dict[str, Set[str]]:
    funcs = {f.name for f in program.funcs}
    return {
        name: {c.name for c in calls if c.name in funcs}
        for name, calls in index.calls.items()
    }


# ---------------------------------------------------------------------------
# Interprocedural plan
# ---------------------------------------------------------------------------

#: One expression-call sequence point: (anchor-uid chain, point name).
ExtraPoint = Tuple[Tuple[int, ...], str]


@dataclass
class InterproceduralPlan:
    """Everything the interprocedural layer feeds into the per-function
    pipeline and the program-level synthesis."""

    graph: CallGraph
    contexts: ContextMap
    summaries: Dict[str, FunctionSummary]
    #: func -> expression-call sequence points (anchor chain + name).
    extra_points: Dict[str, Tuple[ExtraPoint, ...]]
    #: func -> structural (uid-free) cache token for the extra points.
    extra_tokens: Dict[str, Tuple[Tuple[int, str], ...]]


def build_plan(program: A.Program, index: ProgramIndex,
               initial_words: Optional[Dict[str, Word]] = None,
               entry_context: Word = EMPTY,
               graph: Optional[CallGraph] = None,
               contexts: Optional[ContextMap] = None,
               summaries: Optional[Dict[str, FunctionSummary]] = None,
               cfgs: Optional[Dict[str, Tuple[CFG, Dict[int, int]]]] = None
               ) -> InterproceduralPlan:
    """Call graph + context propagation + summaries + expression-call
    sequence points for one program.

    The three whole-program passes can be supplied precomputed; ``cfgs``
    reaches the summaries (:func:`collective_summaries`)."""
    if graph is None:
        graph = build_call_graph(program, index)
    if contexts is None:
        contexts = propagate_contexts(program, graph, seeds=initial_words,
                                      entry_context=entry_context)
    if summaries is None:
        summaries = collective_summaries(program, graph, index, cfgs)
    return update_plan(None, graph, contexts, summaries, graph.order, ())


def update_plan(prev: Optional[InterproceduralPlan],
                graph: CallGraph,
                contexts: ContextMap,
                summaries: Dict[str, FunctionSummary],
                dirty,
                removed) -> InterproceduralPlan:
    """The expression-call sequence points of :func:`build_plan`, by delta:
    recompute them only for ``dirty`` functions (changed bodies plus
    callers of functions whose collective summary flipped) and drop
    ``removed`` ones; everything else is carried over from ``prev`` (none:
    every function must be dirty).  The whole-program passes (graph /
    contexts / summaries) are supplied already updated."""
    extra_points = dict(prev.extra_points) if prev is not None else {}
    extra_tokens = dict(prev.extra_tokens) if prev is not None else {}
    for name in removed:
        extra_points.pop(name, None)
        extra_tokens.pop(name, None)
    for name in dirty:
        points: List[ExtraPoint] = []
        token: List[Tuple[int, str]] = []
        for edge in graph.edges.get(name, ()):
            if not edge.expression:
                continue  # statement calls already have a CALL block
            if not summaries[edge.callee].collectives:
                continue
            points.append((edge.anchor_uids, f"call:{edge.callee}"))
            token.append((edge.anchor_pos, f"call:{edge.callee}"))
        if points:
            extra_points[name] = tuple(points)
            extra_tokens[name] = tuple(sorted(token))
        else:
            extra_points.pop(name, None)
            extra_tokens.pop(name, None)
    return InterproceduralPlan(graph=graph, contexts=contexts,
                               summaries=summaries,
                               extra_points=extra_points,
                               extra_tokens=extra_tokens)


# ---------------------------------------------------------------------------
# Per-function pipeline (pure — no shared state)
# ---------------------------------------------------------------------------


@dataclass
class FunctionArtifacts:
    """Everything the per-function pipeline produces.

    This is the unit the :class:`repro.core.engine.AnalysisEngine` caches;
    :func:`analyze_program` wraps it into a :class:`FunctionAnalysis` (the
    check-group / instrumentation fields are program-level state and must
    not be shared).
    """

    func: A.FuncDef
    cfg: CFG
    ast_block: Dict[int, int]
    word_info: WordInfo
    sites: List[CollectiveSite]
    monothread: MonothreadResult
    concurrency: ConcurrencyResult
    sequence: SequenceResult
    flagged: bool


def _analyze_function(
    func: A.FuncDef,
    func_names: Set[str],
    collective_funcs: Set[str],
    word: Word,
    precision: str,
    call_stmts: Optional[List[A.ExprStmt]] = None,
    prebuilt: Optional[Tuple[CFG, Dict[int, int]]] = None,
    extra_points: Optional[Tuple[ExtraPoint, ...]] = None,
) -> FunctionArtifacts:
    """Run all per-function phases for one function under one context word."""
    if prebuilt is not None:
        cfg, ast_block = prebuilt
    else:
        cfg, ast_block = build_cfg(func, func_names)
    info = compute_words(func, word)
    sites = collect_sites(func, collective_funcs, call_stmts)
    mono = analyze_monothread(func, info, sites)
    conc = analyze_concurrency(func, info, sites)
    seq_extra: Optional[Dict[str, List[int]]] = None
    if extra_points:
        seq_extra = {}
        for anchor_uids, name in extra_points:
            block = next((ast_block[u] for u in anchor_uids if u in ast_block),
                         None)
            # Statements in dead code (after an unconditional return/break)
            # keep their ast_block entry, but the block itself is pruned
            # from the CFG — an unreachable call can never diverge, so it
            # contributes no PDF+ point (found by ``parcoach fuzz``).
            if block is not None and block in cfg.blocks:
                seq_extra.setdefault(name, []).append(block)
    seq = analyze_sequence(func.name, cfg, collective_funcs, precision,
                           extra_points=seq_extra)
    flagged = bool(
        mono.multithreaded_sites or conc.concurrent_pairs or seq.conditionals
    )
    return FunctionArtifacts(
        func=func, cfg=cfg, ast_block=ast_block, word_info=info,
        sites=sites, monothread=mono, concurrency=conc, sequence=seq,
        flagged=flagged,
    )


# ---------------------------------------------------------------------------
# Per-context artifact merging
# ---------------------------------------------------------------------------


def _diag_identity(diag: Diagnostic) -> tuple:
    """Dedup key for context-merged diagnostics (ignores the call path: the
    same finding reached over two chains is reported once)."""
    return (diag.code, diag.function, diag.message, diag.collectives,
            diag.conditionals, diag.severity, diag.context)


def _with_chain(diags: List[Diagnostic],
                chain: Tuple[str, ...]) -> List[Diagnostic]:
    if len(chain) < 2:
        return diags
    return [replace(d, call_path=chain) for d in diags]


def _merge_artifacts(
    parts: List[Tuple[Word, FunctionArtifacts]],
    chains: Dict[Word, Tuple[str, ...]],
) -> Tuple[FunctionArtifacts, Tuple[Word, ...], Tuple[WordInfo, ...]]:
    """Fold the per-context artifacts of one function into a single view.

    With one empty-context part this is the identity (byte-for-byte the
    intraprocedural result — cached objects pass through untouched).
    Otherwise a fresh :class:`FunctionArtifacts` is built: sites/CFG come
    from the first context, phase results are unioned (deduplicating by site
    uid / diagnostic identity), and every diagnostic produced under a
    non-empty context gets that context's witness call chain attached
    (copies — cached artifacts are shared and must not be mutated).
    """
    words = tuple(w for w, _art in parts)
    infos = tuple(art.word_info for _w, art in parts)
    if len(parts) == 1:
        word, art = parts[0]
        chain = chains.get(word, ())
        if word == EMPTY or len(chain) < 2:
            return art, words, infos
        merged = replace(
            art,
            monothread=replace(art.monothread, diagnostics=_with_chain(
                art.monothread.diagnostics, chain)),
            concurrency=replace(art.concurrency, diagnostics=_with_chain(
                art.concurrency.diagnostics, chain)),
            sequence=replace(art.sequence, diagnostics=_with_chain(
                art.sequence.diagnostics, chain)),
        )
        return merged, words, infos

    base = parts[0][1]
    mono = MonothreadResult()
    conc = ConcurrencyResult()
    seq = SequenceResult()
    seen_sites: Set[int] = set()
    seen_pairs: Set[Tuple[int, int]] = set()
    seen_diags: Set[tuple] = set()
    flagged = False

    def extend_diags(out: List[Diagnostic], diags: List[Diagnostic],
                     word: Word) -> None:
        chain = chains.get(word, ())
        for diag in _with_chain(list(diags), chain) if word != EMPTY else diags:
            key = _diag_identity(diag)
            if key in seen_diags:
                continue
            seen_diags.add(key)
            out.append(diag)

    for word, art in parts:
        flagged = flagged or art.flagged
        for site in art.monothread.multithreaded_sites:
            if site.uid not in seen_sites:
                seen_sites.add(site.uid)
                mono.multithreaded_sites.append(site)
        mono.sipw_uids |= art.monothread.sipw_uids
        for uid, level in art.monothread.required_levels.items():
            if uid not in mono.required_levels or mono.required_levels[uid] < level:
                mono.required_levels[uid] = level
        extend_diags(mono.diagnostics, art.monothread.diagnostics, word)

        for pair in art.concurrency.concurrent_pairs:
            if pair not in seen_pairs:
                seen_pairs.add(pair)
                conc.concurrent_pairs.append(pair)
        conc.scc_uids |= art.concurrency.scc_uids
        extend_diags(conc.diagnostics, art.concurrency.diagnostics, word)

        for name, finding in art.sequence.findings.items():
            merged_finding = seq.findings.get(name)
            if merged_finding is None:
                seq.findings[name] = replace(
                    finding,
                    divergence_blocks=set(finding.divergence_blocks),
                    suppressed_blocks=set(finding.suppressed_blocks),
                )
            else:
                merged_finding.divergence_blocks |= finding.divergence_blocks
                merged_finding.suppressed_blocks |= finding.suppressed_blocks
        seq.conditionals |= art.sequence.conditionals
        extend_diags(seq.diagnostics, art.sequence.diagnostics, word)

    # Concurrency groups: connected components over the merged pair set.
    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in conc.concurrent_pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    for uid in parent:
        conc.groups[uid] = find(uid)

    merged = FunctionArtifacts(
        func=base.func, cfg=base.cfg, ast_block=base.ast_block,
        word_info=base.word_info, sites=base.sites,
        monothread=mono, concurrency=conc, sequence=seq, flagged=flagged,
    )
    return merged, words, infos


# ---------------------------------------------------------------------------
# Program-level synthesis
# ---------------------------------------------------------------------------


def thread_level_diagnostic(name: str, art,
                            requested: Optional[ThreadLevel]
                            ) -> Optional[Diagnostic]:
    """The THREAD_LEVEL diagnostic of one function's (merged) artifacts, or
    None when the program requests no checkable level or the function needs
    no more than it."""
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
    return Diagnostic(
        code=ErrorCode.THREAD_LEVEL,
        function=name,
        message=(
            f"collectives require {needed.mpi_name} but the program "
            f"requests only {requested.mpi_name}"
        ),
        collectives=offenders,
    )


def _assemble(
    program: A.Program,
    index: ProgramIndex,
    collective_funcs: Set[str],
    merged: Dict[str, Tuple[FunctionArtifacts, Tuple[Word, ...],
                            Tuple[WordInfo, ...]]],
    precision: str,
    instrument_all: bool,
    requested: Optional[ThreadLevel],
    plan: Optional[InterproceduralPlan],
) -> ProgramAnalysis:
    """Program-level synthesis over each function's merged artifacts,
    context words and word infos: diagnostics bag, check groups,
    thread-level comparison, and the selective instrumentation plan.

    Deterministic: iterates ``program.funcs`` in source order, so group
    numbering and diagnostic order follow the program text."""
    diagnostics = DiagnosticBag()
    functions: Dict[str, FunctionAnalysis] = {}
    group_counter = 0
    group_kinds: Dict[int, str] = {}

    for func in program.funcs:
        art, words, infos = merged[func.name]
        fa = FunctionAnalysis(
            func=func, cfg=art.cfg, ast_block=art.ast_block,
            word_info=art.word_info, sites=art.sites,
            monothread=art.monothread, concurrency=art.concurrency,
            sequence=art.sequence, flagged=art.flagged,
            context_words=words, word_infos=infos,
        )

        # Check-group assignment: one group per multithreaded site, one per
        # concurrency component.
        for site in art.monothread.multithreaded_sites:
            group_counter += 1
            group_kinds[group_counter] = "multithread"
            fa.check_groups.setdefault(site.uid, []).append(group_counter)
            fa.multithreaded_sites.add(site.uid)
        component_group: Dict[int, int] = {}
        for site_uid, root in art.concurrency.groups.items():
            if root not in component_group:
                group_counter += 1
                group_kinds[group_counter] = "concurrent"
                component_group[root] = group_counter
            fa.check_groups.setdefault(site_uid, []).append(component_group[root])

        diagnostics.extend(art.monothread.diagnostics)
        diagnostics.extend(art.concurrency.diagnostics)
        diagnostics.extend(art.sequence.diagnostics)
        functions[func.name] = fa

    # Thread-level comparison against the requested level.
    for name, fa in functions.items():
        diag = thread_level_diagnostic(name, fa, requested)
        if diag is not None:
            diagnostics.add(diag)

    # Selective instrumentation plan.
    flagged = {n for n, fa in functions.items() if fa.flagged}
    if instrument_all:
        to_instrument = {n for n, fa in functions.items() if fa.sites}
    else:
        to_instrument = set(flagged)
        edges = _call_edges(program, index)
        # Transitive closure of calls from flagged functions.
        work = list(flagged)
        reachable: Set[str] = set()
        while work:
            f = work.pop()
            for callee in edges.get(f, ()):
                if callee not in reachable:
                    reachable.add(callee)
                    work.append(callee)
        to_instrument |= {f for f in reachable if f in collective_funcs}

    for name in to_instrument:
        fa = functions[name]
        if not fa.sites:
            continue
        fa.instrumented = True
        fa.cc_sites = {s.uid for s in fa.sites}

    return ProgramAnalysis(
        program=program, functions=functions, diagnostics=diagnostics,
        collective_funcs=collective_funcs, requested_level=requested,
        precision=precision, group_kinds=group_kinds,
        interprocedural=plan is not None,
        callgraph=plan.graph if plan is not None else None,
        summaries=plan.summaries if plan is not None else None,
    )


def analyze_program(
    program: A.Program,
    initial_words: Optional[Dict[str, Word]] = None,
    precision: str = "paper",
    instrument_all: bool = False,
    cfgs: Optional[Dict[str, tuple]] = None,
    interprocedural: bool = True,
    entry_context: Word = EMPTY,
) -> ProgramAnalysis:
    """Run the full static analysis (one-shot, no caching).

    Parameters
    ----------
    initial_words:
        Per-function initial parallelism word (the paper's initial-level
        option).  In interprocedural mode these are *additional* seed
        contexts for the named functions; in intraprocedural mode each
        function is analyzed under exactly this word (default empty).
    precision:
        Passed to phase 3 (``"paper"`` or ``"counting"``).
    instrument_all:
        Ablation switch: plan CC/ENTER checks for *every* collective of every
        function, regardless of the static verdict (blanket instrumentation
        baseline for the selective-instrumentation ablation).
    cfgs:
        Pre-built CFGs (``{name: (cfg, ast_block)}``) from the compiler's
        middle end; PARCOACH reuses them instead of rebuilding (the paper's
        pass works directly on GCC's CFG).  The driver builds the missing
        ones, one per function, before any pass: the collective summaries
        and every context's phases share them.
    interprocedural:
        Propagate calling-context words over the call graph and analyze each
        function once per distinct context (default).  ``False`` restores
        the paper's intraprocedural behaviour.
    entry_context:
        Parallelism word seeding the entry functions (``main`` / functions
        nobody calls) in interprocedural mode — the CLI's
        ``--initial-context``.
    """
    initial_words = initial_words or {}
    index = index_program(program)
    collective_funcs = collective_call_graph(program, index)
    func_names = {f.name for f in program.funcs}
    given = cfgs or {}
    cfgs = {f.name: given[f.name] if f.name in given
            else build_cfg(f, func_names) for f in program.funcs}
    plan: Optional[InterproceduralPlan] = None
    if interprocedural:
        plan = build_plan(program, index, initial_words, entry_context,
                          cfgs=cfgs)

    merged = {}
    for func in program.funcs:
        call_stmts = index.call_stmts.get(func.name)
        if plan is not None:
            words = plan.contexts.contexts[func.name]
            extra = plan.extra_points.get(func.name)
            chains = {w: plan.contexts.chains.get((func.name, w), ())
                      for w in words}
        else:
            words = (initial_words.get(func.name, EMPTY),)
            extra = None
            chains = {}
        parts = [
            (word, _analyze_function(func, func_names, collective_funcs,
                                     word, precision, call_stmts,
                                     cfgs[func.name], extra))
            for word in words
        ]
        merged[func.name] = _merge_artifacts(parts, chains)

    analysis = _assemble(program, index, collective_funcs, merged, precision,
                         instrument_all, _find_requested_level(index), plan)
    if probes_active():
        probe("drv:mode:" + ("inter" if plan is not None else "intra"))
        if plan is not None and plan.extra_points:
            probe("drv:extra-points")
        for diag in analysis.diagnostics:
            probe("drv:diag:" + diag.code.value)
        for fa in analysis.functions.values():
            if fa.instrumented:
                probe("drv:instrumented")
    return analysis
