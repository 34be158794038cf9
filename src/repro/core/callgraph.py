"""Interprocedural layer: call graph, context propagation, summaries.

The per-function phases (:mod:`repro.core.driver`) are intraprocedural,
PARCOACH-style: each function is analyzed under one initial parallelism word
(empty unless the user supplies ``--initial-context``).  That misses exactly
the hybrid scenarios the paper targets — a collective inside a helper called
from an ``omp parallel`` region is silently treated as monothreaded.  This
module closes the gap with three whole-program passes:

* **Call graph** — every call edge of the program, including calls embedded
  in expressions (``x = helper(x);``, conditions, arguments), which have no
  ``CALL`` basic block and are invisible to the intraprocedural phases.
  Strongly connected components (Tarjan) condense recursion.

* **Context propagation** — a worklist fixpoint computing, per function, the
  *set* of calling-context parallelism words: the word in effect at every
  call site, seeded at the entry functions (``main`` / functions nobody
  calls) with the ``--initial-context`` word.  Context words are
  *canonicalized* (region ids renumbered to -1, -2, ... in first-occurrence
  order) so they are stable across re-parses — the analysis engine keys its
  cache on them — and can never collide with the callee's own AST uids.
  Each ``(function, word)`` pair records one witness call chain
  (``main → worker → helper``) for diagnostics.  Degenerate context growth
  (a barrier-appending recursion under ``parallel``) is bounded by
  :data:`MAX_CONTEXTS` / :data:`MAX_CONTEXT_LEN`; functions that hit the
  bound are marked ``saturated`` and keep the contexts found so far.

* **Collective summaries** — per function and collective name, one of
  ``always`` / ``conditional`` / ``never``: whether every / some / no
  execution of the function runs the collective.  Computed by a fixpoint
  over the SCC DAG in reverse topological order (callees first; members of a
  cyclic SCC iterate until stable from an optimistic ``never`` start, so
  recursion is handled soundly).  ``may`` is exact on the AST; ``must`` is a
  sound under-approximation combining two views: the structural walk
  (workshare-aware — ``single``/``master``/``sections`` bodies execute per
  MPI process) and a CFG post-dominance formulation — a collective is
  ``always`` when the set of CFG blocks executing it collectively
  post-dominates the entry, i.e. removing those blocks disconnects the
  entry from the exit.  The CFG view classifies ``always`` through early
  ``return``s and branch-duplicated collectives, which demote to
  ``conditional`` under the purely structural rule; ``task`` bodies stay
  may-only (deferred execution).  Each statement's calls come from the
  program index, and the CFGs from the driver, which builds one per
  function for every phase.  The driver uses the summaries to turn
  expression-level calls to collective-executing helpers into phase-3
  sequence points.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, FrozenSet, List, Optional, Set, Tuple

from ..cfg import BlockKind, build_cfg
from ..minilang import ast_nodes as A
from ..mpi.collectives import is_collective
from ..parallelism import EMPTY, Word, compute_words
from ..parallelism.word import B, P, S
from ..util.probe import probe, probes_active
from .sites import ProgramIndex, index_program

#: Bounds for the context-propagation fixpoint (per function).
MAX_CONTEXTS = 16
MAX_CONTEXT_LEN = 24

#: Summary classes, ordered never < conditional < always.
NEVER = "never"
CONDITIONAL = "conditional"
ALWAYS = "always"


# ---------------------------------------------------------------------------
# Call graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CallEdge:
    """One call site: ``caller`` invokes ``callee``.

    ``anchor_uids`` is the chain of enclosing-statement uids (innermost
    first) — the first one with a parallelism word / CFG block anchors the
    call.  ``expression`` is True for calls embedded in expressions (no
    ``CALL`` block, no :class:`~repro.core.sites.CollectiveSite`).
    """

    caller: str
    callee: str
    anchor_uids: Tuple[int, ...]
    anchor_pos: int
    line: int
    expression: bool


@dataclass
class CallGraph:
    """Explicit call graph of one program (user functions only)."""

    #: Function names in source order.
    order: List[str]
    #: caller -> its call edges, in source order.
    edges: Dict[str, List[CallEdge]]
    #: callee -> incoming edges.
    callers: Dict[str, List[CallEdge]]
    #: Functions nobody calls (analysis entry points; ``main`` is always an
    #: entry even when called, so a recursive main stays seeded).
    entries: List[str]
    #: SCCs in reverse topological order (callees before callers).
    sccs: List[Tuple[str, ...]]
    #: function -> index into ``sccs``.
    scc_of: Dict[str, int]
    #: Members of a cyclic SCC (including self-recursion).
    recursive: FrozenSet[str]

    @property
    def n_edges(self) -> int:
        return sum(len(e) for e in self.edges.values())


def _derive_edges(name: str, index: ProgramIndex,
                  names: Set[str]) -> List[CallEdge]:
    """Call edges of one function, in source order."""
    edges: List[CallEdge] = []
    stmt_calls = {id(s.expr): s for s in index.call_stmts.get(name, [])}
    expr_sites = {id(s.call): s for s in index.expr_calls.get(name, [])}
    for call in index.calls.get(name, []):
        if call.name not in names:
            continue
        stmt = stmt_calls.get(id(call))
        if stmt is not None:
            edge = CallEdge(caller=name, callee=call.name,
                            anchor_uids=(stmt.uid,), anchor_pos=-1,
                            line=stmt.line or call.line, expression=False)
        else:
            site = expr_sites[id(call)]
            edge = CallEdge(caller=name, callee=call.name,
                            anchor_uids=site.stmt_uids,
                            anchor_pos=site.stmt_pos,
                            line=site.line, expression=True)
        edges.append(edge)
    return edges


def _entries_of(order: List[str],
                callers: Dict[str, List[CallEdge]]) -> List[str]:
    entries = [n for n in order if not callers[n] or n == "main"]
    if not entries:  # every function called: fall back to source order head
        entries = order[:1]
    return entries


def _graph_from_edges(order: List[str],
                      edges: Dict[str, List[CallEdge]]) -> CallGraph:
    """Assemble a :class:`CallGraph` from per-function edge lists (callers,
    entries, Tarjan condensation, recursion)."""
    callers: Dict[str, List[CallEdge]] = {name: [] for name in order}
    for name in order:
        for edge in edges[name]:
            callers[edge.callee].append(edge)
    entries = _entries_of(order, callers)
    sccs, scc_of = _tarjan(order, edges)
    recursive = frozenset(
        n for scc in sccs for n in scc
        if len(scc) > 1 or any(e.callee == n for e in edges[n])
    )
    return CallGraph(order=order, edges=edges, callers=callers,
                     entries=entries, sccs=sccs, scc_of=scc_of,
                     recursive=recursive)


def build_call_graph(program: A.Program,
                     index: Optional[ProgramIndex] = None) -> CallGraph:
    """Build the program's call graph from *all* call nodes."""
    if index is None:
        index = index_program(program)
    order = [f.name for f in program.funcs]
    names = set(order)
    edges = {name: _derive_edges(name, index, names) for name in order}
    return _graph_from_edges(order, edges)


@dataclass
class GraphPatch:
    """Result of :func:`update_call_graph`."""

    graph: CallGraph
    #: Functions whose edges were re-derived from the index.
    edges_recomputed: int
    #: True when the SCC condensation had to be rebuilt from scratch.
    rebuilt: bool


def update_call_graph(prev: CallGraph, program: A.Program,
                      index: ProgramIndex,
                      changed: Set[str],
                      order: Optional[List[str]] = None,
                      names: Optional[Set[str]] = None) -> GraphPatch:
    """Delta-update ``prev`` for a program where only ``changed`` functions
    have new bodies (same function *set* or not — additions/removals force a
    condensation rebuild, still re-deriving edges only for ``changed``).

    Never mutates ``prev`` — returns a new :class:`CallGraph` sharing the
    edge lists of unchanged functions.  On the patch path the SCC list keeps
    its previous ordering (still a valid reverse-topological order, checked
    edge by edge) and ``callers`` lists are order-unspecified; no consumer
    depends on either beyond validity.

    ``order``/``names`` short-circuit the O(program) name-list walk when the
    caller already holds them; passing ``prev.order`` as ``order`` asserts
    the function list (names and positions) is unchanged, which also skips
    the name-set comparison.
    """
    if order is None:
        order = [f.name for f in program.funcs]
    if names is None:
        names = set(order)
    changed = {n for n in changed if n in names}
    new_edges = {n: _derive_edges(n, index, names) for n in changed}

    rebuild = False if order is prev.order else names != set(prev.edges)
    if not rebuild:
        for name in changed:
            old_pairs = {(e.caller, e.callee) for e in prev.edges[name]}
            cur_pairs = {(e.caller, e.callee) for e in new_edges[name]}
            for u, v in cur_pairs - old_pairs:
                su, sv = prev.scc_of[u], prev.scc_of[v]
                # A new edge is safe iff it stays inside one SCC or points
                # from a later SCC to an earlier one (callees first): either
                # way the condensation and its order remain valid.
                if su != sv and not sv < su:
                    rebuild = True
            for u, v in old_pairs - cur_pairs:
                # Removing an intra-SCC edge can split the component.
                if prev.scc_of[u] == prev.scc_of[v]:
                    rebuild = True

    if rebuild:
        edges = {n: new_edges[n] if n in changed else prev.edges[n]
                 for n in order}
        return GraphPatch(graph=_graph_from_edges(order, edges),
                          edges_recomputed=len(changed), rebuilt=True)

    edges = dict(prev.edges)
    callers = dict(prev.callers)
    touched_callees: Set[str] = set()
    for name in changed:
        touched_callees.update(e.callee for e in prev.edges[name])
        touched_callees.update(e.callee for e in new_edges[name])
        edges[name] = new_edges[name]
    for callee in touched_callees:
        kept = [e for e in prev.callers[callee] if e.caller not in changed]
        for name in sorted(changed):
            kept.extend(e for e in new_edges[name] if e.callee == callee)
        callers[callee] = kept
    # Entry membership only depends on caller-list *emptiness* (and the
    # "main" special case, which no edge change can affect).
    if any(bool(callers[c]) != bool(prev.callers.get(c, ()))
           for c in touched_callees):
        entries = _entries_of(order, callers)
    else:
        entries = prev.entries
    recursive = prev.recursive
    for name in changed:
        scc = prev.sccs[prev.scc_of[name]]
        is_rec = len(scc) > 1 or any(e.callee == name for e in edges[name])
        if is_rec and name not in recursive:
            recursive = recursive | {name}
        elif not is_rec and name in recursive:
            recursive = recursive - {name}
    graph = CallGraph(order=order, edges=edges, callers=callers,
                      entries=entries, sccs=prev.sccs, scc_of=prev.scc_of,
                      recursive=recursive)
    return GraphPatch(graph=graph, edges_recomputed=len(changed),
                      rebuilt=False)


def _tarjan(order: List[str],
            edges: Dict[str, List[CallEdge]]) -> Tuple[List[Tuple[str, ...]],
                                                       Dict[str, int]]:
    """Iterative Tarjan SCC; components come out in reverse topological
    order (every callee SCC before its caller SCCs)."""
    index_of: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[Tuple[str, ...]] = []
    counter = [0]

    for root in order:
        if root in index_of:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, ei = work.pop()
            if ei == 0:
                index_of[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            succs = [e.callee for e in edges[node]]
            while ei < len(succs):
                succ = succs[ei]
                ei += 1
                if succ not in index_of:
                    work.append((node, ei))
                    work.append((succ, 0))
                    recurse = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index_of[succ])
            if recurse:
                continue
            if low[node] == index_of[node]:
                comp: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.append(member)
                    if member == node:
                        break
                sccs.append(tuple(sorted(comp)))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    scc_of = {n: i for i, scc in enumerate(sccs) for n in scc}
    return sccs, scc_of


# ---------------------------------------------------------------------------
# Context propagation
# ---------------------------------------------------------------------------


def canonical_word(word: Word) -> Word:
    """Renumber the region ids of ``word`` to -1, -2, ... in first-occurrence
    order.  Canonical words are stable across re-parses (uids are not) and
    their negative ids can never collide with real AST uids, so a context
    prefix stays distinguishable from the callee's own constructs."""
    mapping: Dict[int, int] = {}
    out: List = []
    for token in word:
        if isinstance(token, B):
            out.append(token)
            continue
        rid = mapping.get(token.region_id)
        if rid is None:
            rid = -(len(mapping) + 1)
            mapping[token.region_id] = rid
        if isinstance(token, P):
            out.append(P(rid))
        else:
            out.append(S(rid, token.kind))
    return tuple(out)


def _word_sort_key(word: Word):
    return (len(word), tuple(str(t) for t in word))


@dataclass
class ContextMap:
    """Result of context propagation."""

    #: function -> canonical context words, sorted (empty word first).
    contexts: Dict[str, Tuple[Word, ...]]
    #: (function, word) -> witness call chain from an entry (inclusive).
    chains: Dict[Tuple[str, Word], Tuple[str, ...]]
    #: Functions whose context set hit MAX_CONTEXTS / MAX_CONTEXT_LEN.
    saturated: FrozenSet[str] = frozenset()
    #: (function, word) -> the ``(callee, canonical word at the call)`` tuple
    #: this evaluation handed to its edges, in edge order.  Recorded only
    #: when ``record_transfers`` was requested; the session layer compares a
    #: changed function's recomputed transfers against these to decide
    #: whether the whole fixpoint can be reused verbatim.
    transfers: Optional[Dict[Tuple[str, Word],
                             Tuple[Tuple[str, Word], ...]]] = None


def propagate_contexts(program: A.Program, graph: CallGraph,
                       seeds: Optional[Dict[str, Word]] = None,
                       entry_context: Word = EMPTY,
                       record_transfers: bool = False) -> ContextMap:
    """Worklist fixpoint over the call graph.

    ``entry_context`` seeds every entry function (the CLI's
    ``--initial-context``); ``seeds`` adds per-function extra contexts (the
    programmatic ``initial_words`` of :func:`analyze_program`).  Every
    function ends with at least one context: unreached ones (dead cycles)
    fall back to the entry context.
    """
    seeds = seeds or {}
    funcs = {f.name: f for f in program.funcs}
    contexts: Dict[str, Dict[Word, Tuple[str, ...]]] = {n: {} for n in graph.order}
    saturated: Set[str] = set()
    worklist: Deque[Tuple[str, Word]] = deque()

    def add(name: str, word: Word, chain: Tuple[str, ...]) -> None:
        known = contexts[name]
        if word in known:
            return
        if len(known) >= MAX_CONTEXTS or len(word) > MAX_CONTEXT_LEN:
            saturated.add(name)
            probe("cg:saturated")
            return
        known[word] = chain
        worklist.append((name, word))
        probe("cg:context")

    for name in graph.order:
        if name in graph.entries:
            add(name, canonical_word(entry_context), (name,))
        if name in seeds:
            add(name, canonical_word(seeds[name]), (name,))

    transfers: Optional[Dict[Tuple[str, Word], Tuple[Tuple[str, Word], ...]]]
    transfers = {} if record_transfers else None
    word_cache: Dict[Tuple[str, Word], Dict[int, Word]] = {}
    while worklist:
        name, word = worklist.popleft()
        key = (name, word)
        if not graph.edges[name]:
            if transfers is not None:
                transfers[key] = ()
            continue
        words = word_cache.get(key)
        if words is None:
            words = compute_words(funcs[name], word).words
            word_cache[key] = words
        chain = contexts[name][word]
        sent: List[Tuple[str, Word]] = []
        for edge in graph.edges[name]:
            anchor = next((u for u in edge.anchor_uids if u in words), None)
            at_call = words[anchor] if anchor is not None else word
            canon = canonical_word(at_call)
            sent.append((edge.callee, canon))
            add(edge.callee, canon, chain + (edge.callee,))
        if transfers is not None:
            transfers[key] = tuple(sent)

    fallback = canonical_word(entry_context)
    for name in graph.order:
        if not contexts[name]:
            contexts[name][fallback] = (name,)

    ordered = {
        name: tuple(sorted(words, key=_word_sort_key))
        for name, words in contexts.items()
    }
    chains = {
        (name, word): chain
        for name, words in contexts.items()
        for word, chain in words.items()
    }
    return ContextMap(contexts=ordered, chains=chains,
                      saturated=frozenset(saturated), transfers=transfers)


def contexts_reusable(prev: ContextMap, prev_graph: CallGraph,
                      graph: CallGraph, program: A.Program,
                      changed: Set[str],
                      funcs: Optional[Dict[str, A.FuncDef]] = None) -> bool:
    """True when the context fixpoint recorded in ``prev`` is still exact
    for a program where only ``changed`` functions have new bodies.

    The propagation is deterministic in its inputs: the seed sequence
    (``graph.order`` restricted to entries/seeds) and, per evaluated
    ``(function, word)`` pair, the ``(callee, word-at-call)`` transfers it
    emits.  Unchanged functions emit identical transfers by construction
    (same body, same shared edge lists), so if every changed function's
    recomputed transfers match the recorded ones — for exactly the words it
    was evaluated under — the whole fixpoint replays identically and
    ``prev`` (contexts, witness chains, saturation) is valid verbatim.

    Callers must additionally ensure the ``seeds``/``entry_context`` inputs
    are unchanged; this function checks the graph-shape inputs
    (``order``/``entries``) and the transfer behavior.  ``funcs`` optionally
    supplies a name->FuncDef mapping (current bodies; only ``changed`` names
    are looked up), skipping the O(program) map build.
    """
    if prev.transfers is None:
        return False
    if graph.order != prev_graph.order or graph.entries != prev_graph.entries:
        return False
    if funcs is None:
        funcs = {f.name: f for f in program.funcs}
    for name in changed:
        contexts = prev.contexts.get(name)
        if contexts is None:
            return False
        edges = graph.edges[name]
        for word in contexts:
            recorded = prev.transfers.get((name, word))
            if recorded is None:
                # Fallback context added after the fixpoint drained: never
                # evaluated, so the new body cannot diverge through it.
                continue
            if not edges:
                if recorded != ():
                    return False
                continue
            words = compute_words(funcs[name], word).words
            sent = []
            for edge in edges:
                anchor = next((u for u in edge.anchor_uids if u in words),
                              None)
                at_call = words[anchor] if anchor is not None else word
                sent.append((edge.callee, canonical_word(at_call)))
            if tuple(sent) != recorded:
                return False
    return True


# ---------------------------------------------------------------------------
# Collective summaries
# ---------------------------------------------------------------------------


@dataclass
class FunctionSummary:
    """Which collectives a function executes, and how reliably."""

    #: Collective name -> ALWAYS | CONDITIONAL (NEVER entries are omitted).
    collectives: Dict[str, str] = field(default_factory=dict)

    def classify(self, name: str) -> str:
        return self.collectives.get(name, NEVER)

    def describe(self) -> str:
        if not self.collectives:
            return "no collectives"
        return ", ".join(f"{n} [{c}]" for n, c in sorted(self.collectives.items()))


def _calls_by_stmt(name: str, index: ProgramIndex) -> Dict[int, List[A.Call]]:
    """Statement uid -> the calls in that statement's own expressions (not
    its nested statements'), read off the index: a statement call belongs
    to its ``ExprStmt``, an expression call to its innermost enclosing
    statement."""
    out: Dict[int, List[A.Call]] = {}
    for stmt in index.call_stmts.get(name, ()):
        out.setdefault(stmt.uid, []).append(stmt.expr)
    for site in index.expr_calls.get(name, ()):
        out.setdefault(site.stmt_uids[0], []).append(site.call)
    return out


def _summarize(body: A.Block, summaries: Dict[str, FunctionSummary],
               names: Set[str], calls_at: Dict[int, List[A.Call]]
               ) -> Tuple[Set[str], Set[str]]:
    """``(may, must)`` of a function body under the callees' ``summaries``;
    ``calls_at`` is :func:`_calls_by_stmt`.

    ``must`` is a conservative under-approximation: accumulation stops at
    the first statement that can leave a sequence early (return / break /
    continue), and loops contribute nothing (zero-trip possibility).
    """

    def effect(call: A.Call) -> Tuple[Set[str], Set[str]]:
        if is_collective(call.name):
            return {call.name}, {call.name}
        summary = summaries.get(call.name) if call.name in names else None
        if summary is None:
            return set(), set()
        return (set(summary.collectives),
                {n for n, c in summary.collectives.items() if c == ALWAYS})

    def block(stmts: List[A.Stmt]) -> Tuple[Set[str], Set[str], bool]:
        may: Set[str] = set()
        must: Set[str] = set()
        exited = False
        for child in stmts:
            s_may, s_must, s_exit = stmt(child)
            may |= s_may
            if not exited:
                must |= s_must
            if s_exit:
                exited = True
        return may, must, exited

    def stmt(node: A.Stmt) -> Tuple[Set[str], Set[str], bool]:
        may: Set[str] = set()
        must: Set[str] = set()
        for call in calls_at.get(node.uid, ()):
            c_may, c_must = effect(call)
            may |= c_may
            must |= c_must

        if isinstance(node, (A.Return, A.Break, A.Continue)):
            return may, must, True
        if isinstance(node, A.Block):
            b_may, b_must, b_exit = block(node.stmts)
            return may | b_may, must | b_must, b_exit
        if isinstance(node, A.If):
            t_may, t_must, t_exit = block(node.then_body.stmts)
            may |= t_may
            if node.else_body is not None:
                e_may, e_must, e_exit = block(node.else_body.stmts)
                may |= e_may
                must |= t_must & e_must
                return may, must, t_exit or e_exit
            return may, must, t_exit
        if isinstance(node, A.While):
            return may | block(node.body.stmts)[0], must, False
        if isinstance(node, (A.For, A.OmpFor)):
            loop = node.loop if isinstance(node, A.OmpFor) else node
            if loop.init is not None:  # runs once, before the first test
                i_may, i_must, _exit = stmt(loop.init)
                may |= i_may
                must |= i_must
            if isinstance(node, A.OmpFor):
                # The inner For is a statement of its own: its condition's
                # calls are filed under it, not under the OmpFor.
                for call in calls_at.get(loop.uid, ()):
                    may |= effect(call)[0]
            if loop.step is not None:  # zero-trip loops skip it: may only
                may |= stmt(loop.step)[0]
            return may | block(loop.body.stmts)[0], must, False
        if isinstance(node, A.OmpTask):
            # Deferred execution: counts as "may", never as "must".
            return may | block(node.body.stmts)[0], must, False
        if isinstance(node, (A.OmpParallel, A.OmpSingle, A.OmpMaster,
                             A.OmpCritical)):
            # Per MPI process the region body executes (by the team, one
            # thread, or the master — all at least once per process).
            b_may, b_must, _exit = block(node.body.stmts)
            return may | b_may, must | b_must, False
        if isinstance(node, A.OmpSections):
            for section in node.sections:
                s_may, s_must, _exit = block(section.stmts)
                may |= s_may
                must |= s_must
            return may, must, False
        return may, must, False

    may, must, _exit = block(body.stmts)
    return may, must


@dataclass
class _CfgFacts:
    """Per-function facts for the CFG post-dominance ``must`` check."""

    cfg: object
    #: collective name -> live CFG block ids directly executing it
    #: (task-deferred calls excluded: their execution point is unordered).
    direct: Dict[str, Set[int]]
    #: (callee name, block id) for every live, non-deferred call to a user
    #: function — blocked too when the callee's summary says ALWAYS.
    user_calls: Tuple[Tuple[str, int], ...]


def _exit_reachable_avoiding(cfg, blocked: Set[int]) -> bool:
    """True when some entry→exit path avoids every block in ``blocked`` —
    i.e. ``blocked`` does *not* collectively post-dominate the entry."""
    if cfg.entry_id in blocked:
        return False
    seen = {cfg.entry_id}
    stack = [cfg.entry_id]
    while stack:
        block = stack.pop()
        if block == cfg.exit_id:
            return True
        for succ in cfg.successors(block):
            if succ not in seen and succ not in blocked:
                seen.add(succ)
                stack.append(succ)
    return False


def _deferred_uids(cfg) -> Set[int]:
    """Uids of every node inside a live ``task`` (each ``OMP_TASK`` block
    carries its ``OmpTask`` node): their execution point is unordered."""
    return {node.uid for block in cfg.blocks.values()
            if block.kind is BlockKind.OMP_TASK
            for node in block.pragma.walk()}


def _build_cfg_facts(func: A.FuncDef, names: Set[str], index: ProgramIndex,
                     built: Optional[Tuple[object, Dict[int, int]]] = None
                     ) -> _CfgFacts:
    """The post-dominance check's facts of ``func``, on the caller's
    ``(cfg, ast_block)`` when there is one."""
    cfg, ast_block = built if built is not None else build_cfg(func, names)
    deferred = _deferred_uids(cfg)
    anchored = [(s.expr, (s.uid,))
                for s in index.call_stmts.get(func.name, ())]
    anchored += [(s.call, s.stmt_uids)
                 for s in index.expr_calls.get(func.name, ())]
    direct: Dict[str, Set[int]] = {}
    user_calls: List[Tuple[str, int]] = []
    for call, uids in anchored:
        target = call.name
        if not (is_collective(target) or target in names):
            continue
        if call.uid in deferred:
            continue  # may-only, never a must event
        block = next((ast_block[u] for u in uids if u in ast_block), None)
        if block is None or block not in cfg.blocks:
            continue  # dead code: the call can never execute
        if is_collective(target):
            direct.setdefault(target, set()).add(block)
        else:
            user_calls.append((target, block))
    return _CfgFacts(cfg=cfg, direct=direct, user_calls=tuple(user_calls))


def collective_summaries(program: A.Program,
                         graph: Optional[CallGraph] = None,
                         index: Optional[ProgramIndex] = None,
                         cfgs: Optional[Dict[str, tuple]] = None
                         ) -> Dict[str, FunctionSummary]:
    """Always/conditionally/never summaries for every function:
    :func:`update_summaries` from no summaries at all, which visits every
    SCC once, callees first (cyclic SCCs iterate until stable).

    ``must`` is the union of the structural under-approximation and the CFG
    post-dominance check: a collective some path duplicates across branches
    (or runs just before an early ``return``) is still ``always`` when every
    entry→exit path of the CFG passes a block executing it.  Each
    statement's calls come from ``index``; ``cfgs`` (the driver's
    ``{name: (cfg, ast_block)}``) holds the CFGs that check runs on.
    """
    if index is None:
        index = index_program(program)
    if graph is None:
        graph = build_call_graph(program, index)
    summaries, _changed = update_summaries(program, graph, index, {}, set(),
                                           cfgs=cfgs)
    if probes_active():
        if graph.recursive:
            probe("cg:recursive")
        for summary in summaries.values():
            for cls in summary.collectives.values():
                probe("cg:summary:" + cls)
    return summaries


def update_summaries(program: A.Program, graph: CallGraph,
                     index: ProgramIndex,
                     prev: Dict[str, FunctionSummary],
                     dirty: Set[str],
                     funcs: Optional[Dict[str, A.FuncDef]] = None,
                     names: Optional[Set[str]] = None,
                     complete: bool = False,
                     cfgs: Optional[Dict[str, tuple]] = None
                     ) -> Tuple[Dict[str, FunctionSummary], Set[str]]:
    """Scoped re-summarization: recompute only the SCCs containing ``dirty``
    names, then walk *up* the caller DAG exactly as far as summaries really
    change — O(dirty + changed-summary ancestors), not O(program).

    It never touches an SCC that cannot be affected; from empty ``prev``
    summaries it computes every SCC once (:func:`collective_summaries`).
    Recomputed members get *fresh*
    :class:`FunctionSummary` objects (``prev`` is never mutated); cyclic
    SCCs restart from the optimistic bottom so the least fixpoint matches a
    cold run byte for byte.  Returns ``(summaries, changed_names)`` where
    ``changed_names`` is every function whose summary differs from ``prev``.

    ``funcs`` (name -> current FuncDef) and ``names`` skip the O(program)
    map builds when the caller holds them; ``complete=True`` asserts every
    current function already has an entry in ``prev`` (no additions), which
    replaces the per-name seeding loop with one plain dict copy.  ``cfgs``
    (``{name: (cfg, ast_block)}``) supplies the post-dominance check's
    CFGs; a function missing from it gets one built only when the
    structural rule leaves one of its collectives conditional.
    """
    if funcs is None:
        funcs = {f.name: f for f in program.funcs}
    if names is None:
        names = set(funcs)
    if complete:
        summaries = dict(prev)
        pending = {n for n in dirty if n in names}
    else:
        summaries = {}
        for n in graph.order:
            known = prev.get(n)
            summaries[n] = known if known is not None else FunctionSummary()
        pending = {n for n in dirty if n in names}
        pending.update(n for n in names if n not in prev)
    cfg_facts: Dict[str, _CfgFacts] = {}

    def recompute(name: str) -> Dict[str, str]:
        # One evaluation given the callees' current summaries: the
        # structural walk, then the CFG post-dominance upgrade.
        may, must = _summarize(funcs[name].body, summaries, names,
                               _calls_by_stmt(name, index))
        if may - must:
            facts = cfg_facts.get(name)
            if facts is None:
                facts = cfg_facts[name] = _build_cfg_facts(
                    funcs[name], names, index,
                    cfgs.get(name) if cfgs is not None else None)
            for cname in sorted(may - must):
                blocked = set(facts.direct.get(cname, ()))
                for callee, block in facts.user_calls:
                    if summaries[callee].collectives.get(cname) == ALWAYS:
                        blocked.add(block)
                if blocked and not _exit_reachable_avoiding(facts.cfg,
                                                            blocked):
                    must.add(cname)
        return {n: (ALWAYS if n in must else CONDITIONAL) for n in sorted(may)}

    heap = sorted({graph.scc_of[n] for n in pending})
    queued = set(heap)
    changed_names: Set[str] = set()
    # Ascending SCC index == reverse topological order, so every SCC is
    # final before any of its callers is processed (changes only propagate
    # toward strictly larger indices); each SCC is visited at most once.
    while heap:
        si = heapq.heappop(heap)
        members = graph.sccs[si]
        if len(members) == 1 and members[0] not in graph.recursive:
            name = members[0]
            fresh = FunctionSummary()
            summaries[name] = fresh
            fresh.collectives = recompute(name)
        else:
            for m in members:
                summaries[m] = FunctionSummary()
            iterating = True
            while iterating:
                iterating = False
                for m in members:
                    new = recompute(m)
                    if new != summaries[m].collectives:
                        summaries[m].collectives = new
                        iterating = True
        for m in members:
            old = prev.get(m)
            if old is None or summaries[m].collectives != old.collectives:
                changed_names.add(m)
                for edge in graph.callers.get(m, ()):
                    ci = graph.scc_of[edge.caller]
                    if ci != si and ci not in queued:
                        heapq.heappush(heap, ci)
                        queued.add(ci)
    return summaries, changed_names


# ---------------------------------------------------------------------------
# Graphviz export (same style as cfg/dot.py)
# ---------------------------------------------------------------------------

_SUMMARY_COLORS = {
    ALWAYS: "gold",
    CONDITIONAL: "khaki",
    NEVER: "white",
}


def callgraph_to_dot(graph: CallGraph, contexts: ContextMap,
                     summaries: Dict[str, FunctionSummary]) -> str:
    """Render the call graph as a DOT digraph: one node per function labeled
    with its context words and collective summary (gold = always executes a
    collective, khaki = conditionally, white = never; a doubled border marks
    recursion), one edge per call site (dashed = expression-level call)."""
    from ..parallelism import format_word  # local import: avoid cycle noise

    lines = ['digraph "callgraph" {', "  node [shape=box, style=filled];"]
    for name in graph.order:
        summary = summaries[name]
        worst = NEVER
        for cls in summary.collectives.values():
            if cls == ALWAYS:
                worst = ALWAYS
            elif worst != ALWAYS:
                worst = CONDITIONAL
        color = _SUMMARY_COLORS[worst]
        ctx = " | ".join(format_word(w) for w in contexts.contexts[name])
        label = f"{name}\\nctx: {ctx}\\n{summary.describe()}"
        extra = ", peripheries=2" if name in graph.recursive else ""
        lines.append(f'  "{name}" [label="{label}", fillcolor={color}{extra}];')
    for name in graph.order:
        for edge in graph.edges[name]:
            style = " [style=dashed]" if edge.expression else ""
            lines.append(f'  "{edge.caller}" -> "{edge.callee}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"
