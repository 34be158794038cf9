"""The per-function analysis cache behind the incremental sessions.

A session update re-analyzes only the functions it scopes, and most of
those repeat work already done: a function that only moved, a file
re-opened or served twice, a context word seen before.
:class:`AnalysisEngine` removes that redundancy:

* **Memoization** — per-function artifacts are cached in memory under a
  *structural fingerprint* of the function AST (type/field/line-sensitive,
  uid- and column-insensitive), plus everything else the per-function
  pipeline depends on: the context parallelism word, the phase-3 precision,
  and the function's calls that resolve to user / collective functions.
  The session computes each function's fingerprint once, when the object
  is new or shifted, and passes it in.  Every cache entry also records the
  cached tree's pre-order uid sequence (``uid_at_pos``): a re-parse of the
  same source hits the cache, and the uid-keyed artifact maps are rebuilt
  from that position sequence with a single walk of the *new* tree
  (``stats.remaps`` counts these).

Results are computed when asked and returned whole:
:meth:`AnalysisEngine.analyze_functions` returns the merged artifacts of
the functions a session update scopes.  One-shot analysis is
:func:`~repro.core.driver.analyze_program`, which caches nothing.

Caveats (by design):

* Analyzed ASTs are treated as immutable.  The one sanctioned in-place
  mutator, ``instrument_program(..., in_place=True)``, bumps a
  ``structure_version`` marker on every function it rewrites; the engine
  checks the marker in O(1) and re-analyzes instead of serving stale
  artifacts.  Other out-of-band AST mutation is undefined behaviour.
* Cached diagnostics are shared objects.  Their rendered text embeds the
  parallelism-word region ids of the *first* analyzed instance; a remapped
  hit reuses that text (semantically identical — region ids are arbitrary
  internal labels).
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..minilang import ast_nodes as A
from ..util.faultinject import fault_site
from ..util.resilience import Deadline
from ..parallelism import EMPTY, Word, WordInfo
from ..parallelism.word import P, S
from .concurrency import ConcurrencyResult
from .driver import (
    FunctionArtifacts,
    InterproceduralPlan,
    _analyze_function,
    _find_requested_level,
    _merge_artifacts,
)
from .diagnostics import SourceRef
from .monothread import MonothreadResult
from .sites import CollectiveSite, ProgramIndex


def ast_fingerprint(func: A.FuncDef) -> str:
    """Structural hash of a function AST.

    Dataclass ``repr`` recursively serializes every node with its fields and
    ``line`` but *excludes* ``uid`` and ``col`` (declared ``repr=False``), so
    two re-parses of the same source — or of sources differing only in
    same-line whitespace — share a fingerprint, while any structural or
    line-position difference changes it.  (Lines are part of the fingerprint
    because diagnostics are line-addressed; columns are reported nowhere.)"""
    return hashlib.sha256(repr(func).encode("utf-8")).hexdigest()


#: Cache key: fingerprint + everything else `_analyze_function` reads —
#: the context word, the precision, the resolved call sets, and the
#: structural token of the interprocedural expression-call points.
_Key = Tuple[str, Word, str, Tuple[str, ...], Tuple[str, ...],
             Tuple[Tuple[int, str], ...]]


@dataclass
class EngineStats:
    """Counters exposed by :meth:`AnalysisEngine.cache_info`.

    All fields are plain ints, so :meth:`as_dict` round-trips through JSON
    losslessly; the derived ``hit_rate`` is recomputed, never stored.
    """

    programs: int = 0
    functions: int = 0
    hits: int = 0
    misses: int = 0
    #: Reparse hits: cached artifacts transplanted onto a new tree.
    remaps: int = 0
    #: Cache entries dropped via :meth:`AnalysisEngine.invalidate_fingerprints`
    #: (the session evicts edited / renamed / deleted functions' artifacts).
    evictions: int = 0
    #: Functions re-analyzed because a call-graph *dependency* changed (a
    #: callee's summary or context made the cache key move), not their own
    #: body — counted by the session layer.
    dependency_invalidations: int = 0
    #: Open files whose merged-program contribution (function list,
    #: fingerprints, signatures) was reused verbatim across a session update
    #: instead of being rebuilt — counted by the session layer.
    assembly_reuses: int = 0
    #: Functions whose call edges were re-derived by the incremental call
    #: graph (:func:`repro.core.callgraph.update_call_graph`) — everyone
    #: else's edge lists were shared with the previous graph.
    edges_recomputed: int = 0
    #: Incremental call-graph updates that fell back to a full SCC
    #: condensation rebuild (an edge changed SCC membership or the function
    #: set changed).
    graph_rebuilds: int = 0
    #: Functions whose cached artifacts were shifted in place by a
    #: line-offset patch (:meth:`AnalysisEngine.patch_function_lines`)
    #: instead of being re-analyzed.
    line_patches: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {**asdict(self), "hit_rate": round(self.hit_rate, 4)}


@dataclass
class _CacheEntry:
    artifacts: FunctionArtifacts
    #: `structure_version` of `artifacts.func` at analysis time.  In-place
    #: instrumentation bumps the version, so a mutated cache source is
    #: detected in O(1) instead of being served as stale artifacts.
    version: int
    #: The cached function's uids in pre-order.  A remap onto a re-parsed
    #: tree only walks the *new* tree (equal fingerprints guarantee equal
    #: shape) and pairs its nodes with this sequence positionally; the old
    #: tree is never re-walked.
    uid_at_pos: Tuple[int, ...]


@dataclass
class ProgramFacts:
    """The program-level facts :meth:`AnalysisEngine.analyze_functions`
    reads: the call index, the collective functions, the function names and
    the requested thread level.  A session keeps them in its record and
    derives each update's from the last
    (:meth:`AnalysisEngine.update_program_facts`)."""

    index: ProgramIndex
    collective_funcs: set
    func_names: set
    requested: object


def _version(func: A.FuncDef) -> int:
    return getattr(func, "structure_version", 0)


def _remap_word(word: Word, uid_map: Dict[int, int]) -> Word:
    """Rewrite the region ids inside a parallelism word onto new AST uids."""
    out = []
    for token in word:
        if isinstance(token, P):
            out.append(P(uid_map.get(token.region_id, token.region_id)))
        elif isinstance(token, S):
            out.append(S(uid_map.get(token.region_id, token.region_id), token.kind))
        else:
            out.append(token)
    return tuple(out)


def _remap_artifacts(entry: _CacheEntry,
                     new_func: A.FuncDef) -> Optional[FunctionArtifacts]:
    """Transplant cached artifacts onto a structurally identical AST.

    Equal fingerprints guarantee equal tree shape, so the cached pre-order
    uid sequence (``entry.uid_at_pos``) pairs up position-for-position with
    a single pre-order walk of the *new* function; every uid-keyed map is
    rewritten through that pairing (the old tree is not re-walked and no
    per-node type checks are needed — the fingerprint already proved the
    shapes equal).  The CFG (keyed by block ids, not uids) and the phase-3
    result ride along unchanged — including the dominator trees already
    cached on the CFG.  Returns ``None`` when the node counts do not match
    after all (mutated cache source): caller re-analyzes.
    """
    old = entry.artifacts
    uid_at_pos = entry.uid_at_pos
    new_nodes = list(new_func.walk())
    if len(uid_at_pos) != len(new_nodes):
        return None
    node_map: Dict[int, A.Node] = dict(zip(uid_at_pos, new_nodes))
    uid_map: Dict[int, int] = {o: n.uid for o, n in zip(uid_at_pos, new_nodes)}

    sites: List[CollectiveSite] = []
    for s in old.sites:
        stmt = node_map[s.stmt.uid]
        assert isinstance(stmt, A.ExprStmt)
        sites.append(CollectiveSite(stmt=stmt, call=stmt.expr,  # type: ignore[arg-type]
                                    kind=s.kind, name=s.name, line=s.line))
    site_by_old_uid = {o.uid: new for o, new in zip(old.sites, sites)}

    mono = MonothreadResult(
        multithreaded_sites=[site_by_old_uid[s.uid]
                             for s in old.monothread.multithreaded_sites],
        sipw_uids={uid_map[u] for u in old.monothread.sipw_uids},
        required_levels={uid_map[k]: v
                         for k, v in old.monothread.required_levels.items()},
        diagnostics=old.monothread.diagnostics,
    )
    conc = ConcurrencyResult(
        concurrent_pairs=[(uid_map[a], uid_map[b])
                          for a, b in old.concurrency.concurrent_pairs],
        scc_uids={uid_map[u] for u in old.concurrency.scc_uids},
        groups={uid_map[k]: uid_map[v]
                for k, v in old.concurrency.groups.items()},
        diagnostics=old.concurrency.diagnostics,
    )
    wi = old.word_info
    word_info = WordInfo(
        words={uid_map[k]: _remap_word(w, uid_map) for k, w in wi.words.items()},
        enclosing={uid_map[k]: tuple(uid_map[e] for e in v)
                   for k, v in wi.enclosing.items()},
        construct_kinds={uid_map[k]: v for k, v in wi.construct_kinds.items()},
        construct_nodes={uid_map[k]: node_map[k] for k in wi.construct_nodes},
    )
    return FunctionArtifacts(
        func=new_func, cfg=old.cfg,
        ast_block={uid_map[k]: v for k, v in old.ast_block.items()},
        word_info=word_info, sites=sites, monothread=mono, concurrency=conc,
        sequence=old.sequence, flagged=old.flagged,
    )


def _shift_artifact_lines(art: FunctionArtifacts, delta: int) -> None:
    """Shift every line-addressed field of one function's artifacts in
    place (the AST itself is shifted separately via ``shift_lines``)."""
    for site in art.sites:
        site.line += delta
    for block in art.cfg:
        block.line += delta
    for result in (art.monothread, art.concurrency, art.sequence):
        for diag in result.diagnostics:
            diag.collectives = tuple(
                SourceRef(ref.name, ref.line + delta)
                for ref in diag.collectives)
            diag.conditionals = tuple(c + delta for c in diag.conditionals)


@dataclass
class AnalyzeRecord:
    """What one analysis call did, per function — consumed by the session
    layer to report which functions were actually re-analyzed vs served
    from the cache."""

    #: (function name, context word) pairs analyzed from scratch.
    missed: List[Tuple[str, Word]] = field(default_factory=list)

    @property
    def missed_functions(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(name for name, _word in self.missed))


class AnalysisEngine:
    """The driver's per-function pipeline with every function analysis
    whose cache key repeats served from one in-memory cache."""

    def __init__(self) -> None:
        self.stats = EngineStats()
        #: Per-function record of the most recent analysis call.
        self.last = AnalyzeRecord()
        self._cache: Dict[_Key, _CacheEntry] = {}
        #: fingerprint -> set of cache keys with that fingerprint, so
        #: invalidation and line-patch re-keying are O(affected entries)
        #: instead of a scan of the whole cache per edited function.
        self._by_fp: Dict[str, set] = {}

    # -- cache management ------------------------------------------------------

    def _cache_put(self, key: _Key, entry: _CacheEntry) -> None:
        self._cache[key] = entry
        self._by_fp.setdefault(key[0], set()).add(key)

    def _cache_del(self, key: _Key) -> None:
        del self._cache[key]
        keys = self._by_fp.get(key[0])
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_fp[key[0]]

    def invalidate_fingerprints(self, fingerprints) -> int:
        """Drop every cache entry whose function fingerprint is in
        ``fingerprints`` (all context words / precisions of it).

        The session layer calls this for edited, renamed or deleted
        functions and counts the drops as dependency invalidations; entries
        of *unchanged* functions stay — content addressing guarantees they
        can only be hit by structurally identical re-parses."""
        doomed = frozenset(fingerprints)
        if not doomed:
            return 0
        fault_site("engine.evict")
        victims = [k for fp in doomed for k in self._by_fp.get(fp, ())]
        for key in victims:
            self._cache_del(key)
        self.stats.evictions += len(victims)
        return len(victims)

    def cache_info(self) -> Dict[str, float]:
        info = self.stats.as_dict()
        info["entries"] = len(self._cache)
        return info

    # -- line-offset patching --------------------------------------------------

    def patch_function_lines(self, func: A.FuncDef, delta: int,
                             fingerprint: str) -> str:
        """Shift ``func`` (in place) and every cached artifact of it by
        ``delta`` source lines, re-keying the cache from ``fingerprint``
        (``func``'s before the shift) to the shifted fingerprint, which is
        returned.

        This is the line-offset patch pass: an edit that only moves a
        function down/up (a line inserted or deleted *above* it) changes
        nothing but line numbers, yet fingerprints are line-sensitive — so
        without this pass the function would re-analyze from scratch.
        Instead the AST is shifted in place (uids and ``structure_version``
        untouched, so every uid-keyed map stays valid) and all
        line-addressed artifact state — collective sites, CFG block lines,
        diagnostic source refs and conditional lines — is shifted in
        lock-step.

        An entry anchored on another tree (an earlier parse, or the same
        function served from another file over this engine) keeps that
        tree as it is: the tree may still be live elsewhere, and a reparse
        hit reads only the entry's artifacts and uid sequence, never its
        anchor's lines."""
        if delta == 0:
            return fingerprint
        A.shift_lines(func, delta)
        new_fp = ast_fingerprint(func)
        patched_arts: set = set()
        for key in list(self._by_fp.get(fingerprint, ())):
            entry = self._cache[key]
            self._cache_del(key)
            art = entry.artifacts
            if id(art) not in patched_arts:
                patched_arts.add(id(art))
                _shift_artifact_lines(art, delta)
            self._cache_put((new_fp,) + key[1:], entry)
        self.stats.line_patches += 1
        return new_fp

    # -- analysis --------------------------------------------------------------

    def update_program_facts(self, prev: ProgramFacts, changed, removed,
                             collective_funcs: set, index: ProgramIndex,
                             func_names: set) -> ProgramFacts:
        """Derive a program's facts from ``prev`` (the previous program's)
        by delta: the caller supplies the new index, collective functions
        and name set; only functions named in ``changed`` have new bodies
        and ``removed`` names are gone.

        The requested thread level is re-derived only when a changed or
        removed function mentions ``MPI_Init``/``MPI_Init_thread`` before or
        after the update (the index keeps program order, so the first call
        still wins)."""

        def mentions_init(calls) -> bool:
            return any(c.name in ("MPI_Init", "MPI_Init_thread")
                       for c in calls or ())

        requested = prev.requested
        for name in set(changed) | set(removed):
            if (mentions_init(prev.index.calls.get(name))
                    or mentions_init(index.calls.get(name))):
                requested = _find_requested_level(index)
                break
        return ProgramFacts(index=index, collective_funcs=collective_funcs,
                            func_names=func_names, requested=requested)

    def analyze_functions(
        self,
        funcs: List[A.FuncDef],
        fingerprints: Mapping[str, str],
        facts: ProgramFacts,
        plan: Optional[InterproceduralPlan],
        initial_words: Dict[str, Word],
        precision: str,
        deadline: Optional[Deadline] = None,
    ) -> Dict[str, Tuple[FunctionArtifacts, Tuple[Word, ...],
                         Tuple[WordInfo, ...]]]:
        """Analyze ``funcs``, functions of the program ``facts`` describes,
        and return ``{name: (merged artifacts, context words, word infos)}``
        in their order.  ``fingerprints`` maps each function's name to its
        :func:`ast_fingerprint`.

        Each function is analyzed once per context word of ``plan`` (the
        word ``initial_words`` gives it when ``plan`` is None: the
        intraprocedural mode), and its per-context artifacts are merged as
        :func:`~repro.core.driver.analyze_program` merges them.  A context
        whose cache key repeats is a hit: the cached artifacts themselves
        when they were computed on this tree, else the artifacts remapped
        onto it.  ``deadline`` is checked cooperatively before each miss;
        expiry raises :class:`~repro.util.resilience.DeadlineExceeded` and
        leaves the cache consistent — everything analyzed so far stays
        cached."""
        self.stats.programs += 1
        self.last = record = AnalyzeRecord()
        index = facts.index
        func_names, collective_funcs = facts.func_names, facts.collective_funcs
        results = {}
        for func in funcs:
            name = func.name
            self.stats.functions += 1
            if plan is not None:
                words = plan.contexts.contexts[name]
                extra = plan.extra_points.get(name)
                token = plan.extra_tokens.get(name, ())
                chains = {w: plan.contexts.chains.get((name, w), ())
                          for w in words}
            else:
                words = (initial_words.get(name, EMPTY),)
                extra, token, chains = None, (), {}
            called = {c.name for c in index.calls.get(name, ())}
            calls_key = (tuple(sorted(called & func_names)),
                         tuple(sorted(called & collective_funcs)), token)
            fp = fingerprints[name]
            uid_at_pos: Optional[Tuple[int, ...]] = None
            parts = []
            for word in words:
                key: _Key = (fp, word, precision) + calls_key
                art = self._lookup(key, func)
                if art is not None:
                    self.stats.hits += 1
                else:
                    self.stats.misses += 1
                    record.missed.append((name, word))
                    if deadline is not None:
                        deadline.check("engine.task")
                    fault_site("engine.task")
                    art = _analyze_function(
                        func, func_names, collective_funcs, word, precision,
                        index.call_stmts.get(name), None, extra)
                    if uid_at_pos is None:
                        uid_at_pos = tuple(n.uid for n in func.walk())
                    self._cache_put(key, _CacheEntry(
                        artifacts=art, version=_version(func),
                        uid_at_pos=uid_at_pos))
                parts.append((word, art))
            results[name] = _merge_artifacts(parts, chains)
        return results

    def _lookup(self, key: _Key,
                func: A.FuncDef) -> Optional[FunctionArtifacts]:
        """The cached artifacts of ``key`` on ``func``'s tree, remapped when
        they were computed on another tree; None is a miss.  An entry whose
        tree was instrumented in place since, or whose remap fails, is
        dropped — the miss that follows replaces it."""
        entry = self._cache.get(key)
        if entry is None:
            return None
        art = entry.artifacts
        if _version(art.func) == entry.version:
            if art.func is func:
                return art
            remapped = _remap_artifacts(entry, func)
            if remapped is not None:
                self.stats.remaps += 1
                return remapped
        self._cache_del(key)
        return None
