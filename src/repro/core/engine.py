"""Memoized batch analysis engine.

Batch workloads (the errors gallery, the EPCC suite, `parcoach batch`, the
compile pipeline run once per mode) re-analyze structurally identical
functions over and over.  :class:`AnalysisEngine` removes that redundancy:

* **Memoization** — per-function artifacts are cached under a *structural
  fingerprint* of the function AST (type/field/line-sensitive, uid- and
  column-insensitive), plus everything else the per-function pipeline
  depends on: the initial parallelism word, the phase-3 precision, and the
  function's calls that resolve to user / collective functions.  Every
  cache entry also records the cached tree's pre-order uid sequence
  (``uid_at_pos``) — stable pre-order *positions*, not transient uids, are
  the native key of the store: a re-parse of the same source hits the cache
  and the uid-keyed artifact maps are rebuilt from the position sequence
  with a single walk of the *new* tree only, and only **lazily** — the
  remap is deferred until something actually consumes the per-uid maps
  (rendering a report, instrumenting).  A reparse hit whose result is never
  rendered does zero per-uid remap work and is exactly as cheap as an
  identity hit (``stats.lazy_hits`` counts deferred hits, ``stats.remaps``
  counts remaps actually materialized).

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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..minilang import ast_nodes as A
from ..util.faultinject import fault_site
from ..util.resilience import Deadline
from ..parallelism import EMPTY, Word, WordInfo
from ..parallelism.word import P, S
from .concurrency import ConcurrencyResult
from .driver import (
    FunctionArtifacts,
    InterproceduralPlan,
    ProgramAnalysis,
    _analyze_function,
    _assemble,
    _find_requested_level,
    _merge_artifacts,
    build_plan,
)
from .diagnostics import SourceRef
from .monothread import MonothreadResult
from .sites import (
    CollectiveSite,
    ProgramIndex,
    collective_call_graph,
    index_program,
)


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
    losslessly (``from_dict(json.loads(json.dumps(s.as_dict()))) == s``);
    the derived ``hit_rate`` is recomputed, never stored.
    """

    programs: int = 0
    functions: int = 0
    hits: int = 0
    misses: int = 0
    #: Reparse hits whose per-uid remap was deferred (served as a lazy view).
    lazy_hits: int = 0
    #: Remaps actually materialized (a consumer touched the per-uid maps).
    remaps: int = 0
    #: Deferred remaps whose cache source had mutated by materialization
    #: time; the function was re-analyzed from scratch instead.
    remap_fallbacks: int = 0
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
    #: Cache misses satisfied from the shared on-disk artifact store.
    store_hits: int = 0
    #: Cache misses that probed the on-disk store and found nothing.
    store_misses: int = 0
    #: Artifacts written through to the on-disk store.
    store_writes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def deferred_remaps(self) -> int:
        """Lazy hits whose remap was never (or not yet) materialized."""
        return self.lazy_hits - self.remaps - self.remap_fallbacks

    def as_dict(self) -> Dict[str, float]:
        return {
            "programs": self.programs,
            "functions": self.functions,
            "hits": self.hits,
            "misses": self.misses,
            "lazy_hits": self.lazy_hits,
            "remaps": self.remaps,
            "deferred_remaps": self.deferred_remaps,
            "remap_fallbacks": self.remap_fallbacks,
            "evictions": self.evictions,
            "dependency_invalidations": self.dependency_invalidations,
            "assembly_reuses": self.assembly_reuses,
            "edges_recomputed": self.edges_recomputed,
            "graph_rebuilds": self.graph_rebuilds,
            "line_patches": self.line_patches,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "store_writes": self.store_writes,
            "hit_rate": round(self.hit_rate, 4),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "EngineStats":
        """Inverse of :meth:`as_dict` (derived entries are ignored)."""
        kwargs = {f: int(data[f]) for f in (
            "programs", "functions", "hits", "misses", "lazy_hits", "remaps",
            "remap_fallbacks", "evictions", "dependency_invalidations",
            "assembly_reuses", "edges_recomputed", "graph_rebuilds",
            "line_patches", "store_hits", "store_misses", "store_writes",
        ) if f in data}
        return cls(**kwargs)


@dataclass
class _CacheEntry:
    artifacts: FunctionArtifacts
    #: `structure_version` of `artifacts.func` at analysis time.  In-place
    #: instrumentation bumps the version, so a mutated cache source is
    #: detected in O(1) instead of being served as stale artifacts.
    version: int
    key: _Key
    #: The cached function's uids in pre-order — the content-addressed
    #: store's native coordinate system.  A remap onto a re-parsed tree only
    #: walks the *new* tree (equal fingerprints guarantee equal shape) and
    #: pairs its nodes with this sequence positionally; the old tree is
    #: never re-walked.
    uid_at_pos: Tuple[int, ...] = ()


@dataclass
class _ProgramMemo:
    """Cached program-level facts (index, call graph, requested level) for
    the identity fast path — valid while the program's function list and the
    structure versions of all its functions are unchanged."""

    program: A.Program
    funcs: Tuple[A.FuncDef, ...]
    versions: Tuple[int, ...]
    index: ProgramIndex
    collective_funcs: set
    func_names: set
    requested: object
    #: (entry_context, sorted initial_words items) -> interprocedural plan.
    plans: Dict[tuple, InterproceduralPlan] = field(default_factory=dict)


def _version(func: A.FuncDef) -> int:
    return getattr(func, "structure_version", 0)


#: Bounds for the id-keyed identity/program memos.  They only pay off when
#: the *same object* is re-analyzed, so entries from one-shot parses (e.g.
#: `parcoach batch`, which re-parses per file) are dead weight — evict
#: oldest-first instead of pinning every AST ever seen for the engine's
#: lifetime.  The limit must exceed the function count of the largest
#: project held live in one session (the XXL bench shape is 1000 files
#: x ~8 functions), or every whole-project pass thrashes the memos.
_IDENTITY_MEMO_LIMIT = 65536
_PROGRAM_MEMO_LIMIT = 64


def _evict_oldest(memo: Dict, limit: int) -> None:
    while len(memo) > limit:
        memo.pop(next(iter(memo)))


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
    uid_at_pos = entry.uid_at_pos or tuple(n.uid for n in old.func.walk())
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
class _PendingRemap:
    """A reparse cache hit whose per-uid remap has not been materialized.

    Carries everything needed either to materialize the remap (the cache
    entry + the new function) or — if the cached source mutated in the
    meantime — to re-analyze the function from scratch."""

    entry: _CacheEntry
    func: A.FuncDef
    word: Word
    call_stmts: object
    extra: object


class LazyProgramAnalysis:
    """Deferred :class:`~repro.core.driver.ProgramAnalysis`.

    The engine returns this from :meth:`AnalysisEngine.analyze`: cache
    lookups, plan computation and cache-miss analyses have already happened
    eagerly, but per-context merging, program-level synthesis and — crucially
    — the per-uid remap of reparse hits are all deferred until the first
    attribute access (rendering a report, instrumenting, reading
    diagnostics).  A caller that never touches the result (an incremental
    probe, a benchmark round, a session update whose findings are diffed by
    fingerprint) pays nothing beyond the cache lookups.

    The proxy forwards every attribute, so it is a drop-in stand-in for
    ``ProgramAnalysis`` everywhere short of ``isinstance`` checks.
    """

    __slots__ = ("_thunk", "_analysis", "merge_one")

    def __init__(self, thunk, merge_one=None) -> None:
        self._thunk = thunk
        self._analysis = None
        #: Per-function merge hook: ``merge_one(func) -> (artifacts,
        #: context_words, word_infos)`` — lets the session layer assemble a
        #: single function's merged artifacts (materializing only *its*
        #: pending remaps) without forcing the whole program analysis.
        self.merge_one = merge_one

    @property
    def materialized(self) -> bool:
        """True once the underlying analysis has been forced."""
        return self._analysis is not None

    def force(self) -> ProgramAnalysis:
        """Materialize (idempotent) and return the underlying analysis."""
        analysis = self._analysis
        if analysis is None:
            analysis = self._analysis = self._thunk()
            self._thunk = None
        return analysis

    def __getattr__(self, name: str):
        return getattr(self.force(), name)


@dataclass
class AnalyzeRecord:
    """What one :meth:`AnalysisEngine.analyze` call did, per function —
    consumed by the session layer to report which functions were actually
    re-analyzed vs served from the content-addressed store."""

    #: (function name, context word) pairs analyzed from scratch.
    missed: List[Tuple[str, Word]] = field(default_factory=list)
    #: Function names served as deferred (lazy) reparse hits.
    lazy: List[str] = field(default_factory=list)
    #: Function names served by object identity (same AST, warm path).
    identity: List[str] = field(default_factory=list)

    @property
    def missed_functions(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for name, _word in self.missed:
            if name not in seen:
                seen.append(name)
        return tuple(seen)


class AnalysisEngine:
    """Stateful batch front end over :func:`repro.core.driver.analyze_program`.

    Parameters
    ----------
    cache:
        Disable to make the engine a plain driver (no fingerprinting cost);
        :func:`analyze_program` uses exactly that configuration.
    """

    def __init__(self, cache: bool = True, store=None) -> None:
        self.cache_enabled = bool(cache)
        #: Optional shared on-disk artifact store (duck-typed:
        #: ``load(key) -> (FunctionArtifacts, uid_at_pos) | None`` and
        #: ``save(key, artifacts, uid_at_pos)``, see
        #: :class:`repro.project.store.ShardedStore`).  In-memory misses
        #: probe it; fresh analyses write through.
        self.store = store
        self.stats = EngineStats()
        #: Per-function record of the most recent :meth:`analyze` call.
        self.last = AnalyzeRecord()
        self._cache: Dict[_Key, _CacheEntry] = {}
        #: fingerprint -> set of cache keys with that fingerprint, so
        #: invalidation and line-patch re-keying are O(affected entries)
        #: instead of a scan of the whole cache per edited function.
        self._by_fp: Dict[str, set] = {}
        #: id(func) -> (func, structure_version, fingerprint): skips hashing
        #: when the very same AST object is re-analyzed (warm batch loops).
        self._identity: Dict[int, Tuple[A.FuncDef, int, str]] = {}
        #: id(program) -> memoized program-level facts.
        self._programs: Dict[int, _ProgramMemo] = {}
        #: id(func) -> per-function index entry (see sites.index_program):
        #: re-indexing a program that reuses FuncDef objects (the session
        #: layer's incremental re-parse) costs lookups, not tree walks.
        self._func_index: Dict[int, tuple] = {}

    # -- cache management ------------------------------------------------------

    def clear_cache(self) -> None:
        self._cache.clear()
        self._by_fp.clear()
        self._identity.clear()
        self._programs.clear()
        self._func_index.clear()

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
        fault_site("store.evict")
        victims = [k for fp in doomed for k in self._by_fp.get(fp, ())]
        for key in victims:
            self._cache_del(key)
        self.stats.evictions += len(victims)
        return len(victims)

    def cache_info(self) -> Dict[str, float]:
        info = self.stats.as_dict()
        info["entries"] = len(self._cache)
        return info

    def _load_from_store(self, key: _Key) -> Optional[_CacheEntry]:
        """Probe the shared on-disk store for ``key``; a hit is promoted
        into the in-memory cache (anchored on the unpickled tree)."""
        try:
            payload = self.store.load(key)
        except Exception:
            payload = None  # a corrupt/racing shard read is just a miss
        if payload is None:
            self.stats.store_misses += 1
            return None
        art, uid_at_pos = payload
        self.stats.store_hits += 1
        entry = _CacheEntry(artifacts=art, version=_version(art.func),
                            key=key, uid_at_pos=tuple(uid_at_pos))
        self._cache_put(key, entry)
        return entry

    # -- line-offset patching --------------------------------------------------

    def patch_function_lines(self, func: A.FuncDef, delta: int) -> int:
        """Shift ``func`` (in place) and every cached artifact of it by
        ``delta`` source lines, re-keying the content-addressed store to the
        shifted fingerprint.  Returns the number of re-keyed cache entries.

        This is the line-offset patch pass: an edit that only moves a
        function down/up (a line inserted or deleted *above* it) changes
        nothing but line numbers, yet fingerprints are line-sensitive — so
        without this pass the function would re-analyze from scratch.
        Instead the AST is shifted in place (uids and ``structure_version``
        untouched, so every uid-keyed map and program memo stays valid) and
        all line-addressed artifact state — collective sites, CFG block
        lines, diagnostic source refs and conditional lines — is shifted in
        lock-step.  The on-disk store is *not* patched: its entries stay
        content-addressed to the lines they were analyzed at.

        An entry anchored on another tree (an earlier parse, or the same
        function served from another file over this engine) keeps that
        tree as it is: the tree may still be live elsewhere, and a reparse
        hit reads only the entry's artifacts and uid sequence, never its
        anchor's lines."""
        if delta == 0:
            return 0
        old_fp = self._fingerprint_for(func)
        A.shift_lines(func, delta)
        new_fp = ast_fingerprint(func)
        self._identity[id(func)] = (func, _version(func), new_fp)
        patched_arts: set = set()
        moved = 0
        for key in list(self._by_fp.get(old_fp, ())):
            entry = self._cache[key]
            self._cache_del(key)
            art = entry.artifacts
            if id(art) not in patched_arts:
                patched_arts.add(id(art))
                _shift_artifact_lines(art, delta)
            new_key: _Key = (new_fp,) + key[1:]
            entry.key = new_key
            self._cache_put(new_key, entry)
            moved += 1
        self.stats.line_patches += 1
        return moved

    # -- analysis --------------------------------------------------------------

    def forget_functions(self, funcs) -> None:
        """Drop the id-keyed memo entries of functions that are no longer
        live (a session calls this when an update replaces or removes
        them), so the memos track the live program instead of growing
        with every edit until their caps."""
        for memo in (self._identity, self._func_index):
            for func in funcs:
                entry = memo.get(id(func))
                if entry is not None and entry[0] is func:
                    del memo[id(func)]

    def _fingerprint_for(self, func: A.FuncDef) -> str:
        version = _version(func)
        ident = self._identity.get(id(func))
        if ident is not None:
            known_func, known_version, fp = ident
            if known_func is func and known_version == version:
                return fp
        fp = ast_fingerprint(func)
        self._identity[id(func)] = (func, version, fp)
        _evict_oldest(self._identity, _IDENTITY_MEMO_LIMIT)
        return fp

    def _program_facts(self, program: A.Program) -> _ProgramMemo:
        funcs = tuple(program.funcs)
        versions = tuple(_version(f) for f in funcs)
        memo = self._programs.get(id(program))
        if (memo is not None and memo.program is program
                and len(memo.funcs) == len(funcs)
                and all(a is b for a, b in zip(memo.funcs, funcs))
                and memo.versions == versions):
            return memo
        index = index_program(program, memo=self._func_index)
        _evict_oldest(self._func_index, _IDENTITY_MEMO_LIMIT)
        memo = _ProgramMemo(
            program=program, funcs=funcs, versions=versions, index=index,
            collective_funcs=collective_call_graph(program, index),
            func_names={f.name for f in funcs},
            requested=_find_requested_level(index),
        )
        self._programs[id(program)] = memo
        _evict_oldest(self._programs, _PROGRAM_MEMO_LIMIT)
        return memo

    def update_program_facts(self, prev: _ProgramMemo,
                             program: A.Program, changed, removed,
                             collective_funcs: set, index: ProgramIndex,
                             func_names: set,
                             changed_positions=None) -> _ProgramMemo:
        """Derive ``program``'s facts memo from ``prev`` (the previous
        program's) by delta: the caller supplies the new index, collective
        functions and name set; only functions named in ``changed`` have new
        bodies and ``removed`` names are gone.

        The requested thread level is re-derived only when a changed or
        removed function mentions ``MPI_Init``/``MPI_Init_thread`` before or
        after the update (the index keeps program order, so the first call
        still wins).  ``changed_positions`` (``[(pos, func), ...]``) names
        the exact positions of new objects in an unchanged-length function
        list, so the versions are spliced in O(changed); without it they
        are recomputed.  The memo is the caller's to keep and to pass as
        ``analyze(facts=...)``; the program memo table does not hold it."""
        funcs = tuple(program.funcs)

        def mentions_init(calls) -> bool:
            return any(c.name in ("MPI_Init", "MPI_Init_thread")
                       for c in calls or ())

        requested = prev.requested
        for name in set(changed) | set(removed):
            if (mentions_init(prev.index.calls.get(name))
                    or mentions_init(index.calls.get(name))):
                requested = _find_requested_level(index)
                break
        if changed_positions is not None:
            spliced = list(prev.versions)
            for pos, func in changed_positions:
                spliced[pos] = _version(func)
            versions = tuple(spliced)
        else:
            versions = tuple(_version(f) for f in funcs)
        return _ProgramMemo(
            program=program, funcs=funcs, versions=versions, index=index,
            collective_funcs=collective_funcs, func_names=func_names,
            requested=requested,
        )

    def _plan_for(self, memo: _ProgramMemo, program: A.Program,
                  initial_words: Dict[str, Word],
                  entry_context: Word) -> InterproceduralPlan:
        """Interprocedural plan, memoized on the program facts memo (so the
        warm identity fast path skips call-graph + propagation work)."""
        key = (entry_context, tuple(sorted(initial_words.items())))
        plan = memo.plans.get(key)
        if plan is None:
            plan = build_plan(program, memo.index, initial_words, entry_context)
            memo.plans[key] = plan
        return plan

    def analyze(
        self,
        program: A.Program,
        initial_words: Optional[Dict[str, Word]] = None,
        precision: str = "paper",
        instrument_all: bool = False,
        cfgs: Optional[Dict[str, tuple]] = None,
        interprocedural: bool = True,
        entry_context: Word = EMPTY,
        plan: Optional[InterproceduralPlan] = None,
        deadline: Optional[Deadline] = None,
        facts: Optional[_ProgramMemo] = None,
        scope: Optional[List[A.FuncDef]] = None,
    ) -> ProgramAnalysis:
        """Drop-in replacement for :func:`analyze_program` with memoization.
        Same signature, same rendered output.  ``plan`` short-circuits the interprocedural plan
        computation — the session layer passes the incrementally updated
        plan it already built for its dependency diff.  ``deadline`` is
        checked cooperatively before each cache-miss analysis (cached work
        always completes); expiry raises
        :class:`~repro.util.resilience.DeadlineExceeded` and leaves the
        cache consistent — everything analyzed so far stays stored.

        The result is a :class:`LazyProgramAnalysis`: cache lookups and
        cache-miss analyses happen now (so the store is filled, the stats
        are final for hit/miss accounting, and analysis errors surface
        here), but the per-uid remap of reparse hits plus the per-context
        merge and program-level synthesis are deferred until the result is
        first inspected.  A reparse hit whose result is never rendered does
        zero per-uid remap work.

        ``facts`` injects a program-facts memo the caller maintained by
        delta (:meth:`update_program_facts`), skipping the validity check.
        ``scope`` restricts the per-function loop — cache probing, miss
        analysis, stats — to the given functions of ``program``, in that
        order; a scoped result cannot be forced into a whole-program
        analysis (``force`` raises ``RuntimeError``), only its ``merge_one``
        hook may be used."""
        initial_words = initial_words or {}
        self.stats.programs += 1
        self.last = record = AnalyzeRecord()
        memo = facts if facts is not None else self._program_facts(program)
        index, collective_funcs = memo.index, memo.collective_funcs
        func_names = memo.func_names
        if not interprocedural:
            plan = None
        elif plan is None:
            plan = self._plan_for(memo, program, initial_words, entry_context)

        #: (function name, context word) -> artifacts or a deferred remap.
        artifacts: Dict[Tuple[str, Word], object] = {}
        #: (func, key, word, call_stmts, prebuilt, extra) per cache miss.
        pending: List[tuple] = []
        func_words: Dict[str, Tuple[Word, ...]] = {}
        for func in (program.funcs if scope is None else scope):
            self.stats.functions += 1
            call_stmts = index.call_stmts.get(func.name)
            prebuilt = cfgs.get(func.name) if cfgs is not None else None
            if plan is not None:
                words = plan.contexts.contexts[func.name]
                extra = plan.extra_points.get(func.name)
                token = plan.extra_tokens.get(func.name, ())
            else:
                words = (initial_words.get(func.name, EMPTY),)
                extra = None
                token = ()
            func_words[func.name] = words
            for word in words:
                if not self.cache_enabled or prebuilt is not None:
                    # A caller-supplied CFG is not part of the fingerprint,
                    # so artifacts built on it must neither be cached nor
                    # satisfied from cache — analyze this function as-is.
                    pending.append((func, None, word, call_stmts, prebuilt,
                                    extra))
                    continue
                called_names = {c.name for c in index.calls.get(func.name, ())}
                key: _Key = (
                    self._fingerprint_for(func), word, precision,
                    tuple(sorted(called_names & func_names)),
                    tuple(sorted(called_names & collective_funcs)),
                    token,
                )
                entry = self._cache.get(key)
                if entry is not None and _version(entry.artifacts.func) == entry.version:
                    self.stats.hits += 1
                    if entry.artifacts.func is func:
                        record.identity.append(func.name)
                        artifacts[(func.name, word)] = entry.artifacts
                    else:
                        # Reparse hit: defer the per-uid remap — the store
                        # is position-keyed, so nothing needs the new uids
                        # until the result is rendered.
                        self.stats.lazy_hits += 1
                        record.lazy.append(func.name)
                        artifacts[(func.name, word)] = _PendingRemap(
                            entry=entry, func=func, word=word,
                            call_stmts=call_stmts, extra=extra)
                    continue
                if entry is not None:
                    # Stale: the cached AST was mutated after analysis.
                    self._cache_del(key)
                if self.store is not None:
                    entry = self._load_from_store(key)
                    if entry is not None:
                        # A disk hit is a reparse hit anchored on the
                        # unpickled tree: same lazy-remap path as a warm
                        # in-memory reparse.
                        self.stats.hits += 1
                        self.stats.lazy_hits += 1
                        record.lazy.append(func.name)
                        artifacts[(func.name, word)] = _PendingRemap(
                            entry=entry, func=func, word=word,
                            call_stmts=call_stmts, extra=extra)
                        continue
                self.stats.misses += 1
                record.missed.append((func.name, word))
                pending.append((func, key, word, call_stmts, prebuilt, extra))

        self._run_pending(pending, func_names, collective_funcs,
                          precision, artifacts, deadline=deadline)

        def merge_one(func: A.FuncDef):
            words = func_words[func.name]
            if plan is not None:
                chains = {w: plan.contexts.chains.get((func.name, w), ())
                          for w in words}
            else:
                chains = {}
            parts = []
            for w in words:
                art = artifacts[(func.name, w)]
                if isinstance(art, _PendingRemap):
                    art = self._materialize(art, func_names,
                                            collective_funcs, precision)
                    artifacts[(func.name, w)] = art
                parts.append((w, art))
            return _merge_artifacts(parts, chains)

        def materialize() -> ProgramAnalysis:
            if scope is not None:
                raise RuntimeError(
                    "a scope-restricted analyze() result cannot be forced "
                    "into a whole-program analysis; use merge_one")
            merged: Dict[str, FunctionArtifacts] = {}
            context_info: Dict[str, Tuple[Tuple[Word, ...],
                                          Tuple[WordInfo, ...]]] = {}
            for func in program.funcs:
                merged[func.name], ctx_words, infos = merge_one(func)
                context_info[func.name] = (ctx_words, infos)
            return _assemble(program, index, collective_funcs, merged,
                             precision, instrument_all, memo.requested,
                             plan=plan, context_info=context_info)

        return LazyProgramAnalysis(materialize, merge_one=merge_one)

    def _materialize(self, pending: _PendingRemap, func_names, collective_funcs,
                     precision: str) -> FunctionArtifacts:
        """Turn a deferred reparse hit into concrete artifacts: remap the
        cached per-uid maps onto the new AST (one walk of the new tree), or
        — if the cached source mutated since the lookup — re-analyze.  The
        fallback also repairs the store: the stale entry is evicted and the
        fresh artifacts take its place (anchored on the new AST, whose
        fingerprint is what the key matched)."""
        entry = pending.entry
        if _version(entry.artifacts.func) == entry.version:
            remapped = _remap_artifacts(entry, pending.func)
            if remapped is not None:
                self.stats.remaps += 1
                return remapped
        self.stats.remap_fallbacks += 1
        art = _analyze_function(pending.func, func_names, collective_funcs,
                                pending.word, precision, pending.call_stmts,
                                None, pending.extra)
        if self.cache_enabled and self._cache.get(entry.key) is entry:
            self._cache_put(entry.key, _CacheEntry(
                artifacts=art, version=_version(art.func), key=entry.key,
                uid_at_pos=tuple(n.uid for n in art.func.walk())))
        return art

    def _run_pending(self, pending, func_names, collective_funcs,
                     precision, artifacts,
                     deadline: Optional[Deadline] = None) -> None:
        """Analyze the cache misses, in program order, and store them."""
        uid_seqs: Dict[int, Tuple[int, ...]] = {}
        for func, key, word, call_stmts, prebuilt, extra in pending:
            if deadline is not None:
                deadline.check("engine.task")
            fault_site("engine.task")
            art = _analyze_function(func, func_names, collective_funcs,
                                    word, precision, call_stmts, prebuilt,
                                    extra)
            artifacts[(func.name, word)] = art
            if self.cache_enabled and key is not None:
                seq = uid_seqs.get(id(art.func))
                if seq is None:
                    seq = tuple(n.uid for n in art.func.walk())
                    uid_seqs[id(art.func)] = seq
                self._cache_put(key, _CacheEntry(
                    artifacts=art, version=_version(art.func), key=key,
                    uid_at_pos=seq))
                if self.store is not None:
                    try:
                        self.store.save(key, art, seq)
                        self.stats.store_writes += 1
                    except Exception:
                        pass  # a full/readonly shard must not fail analysis
