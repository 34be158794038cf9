"""Dominator/post-dominator trees and (iterated) dominance frontiers.

Implementation follows Cooper, Harvey & Kennedy, *A Simple, Fast Dominance
Algorithm* — the same engine serves both directions: post-dominators are
dominators of the reverse graph rooted at the CFG exit.

Dominance queries are O(1): after the idom fixpoint the tree is numbered by
a DFS interval (Euler-tour) pass, so ``a dominates b`` is two integer
comparisons (``tin[a] <= tin[b] <= tout[a]``) instead of an O(depth) walk up
the parent chain.  The chain walk survives as :meth:`dominates_via_chain`,
the oracle the property tests compare against.

The **iterated post-dominance frontier** ``PDF+`` is the core of PARCOACH's
Algorithm 1: for the set ``S_c`` of nodes calling collective ``c``,
``PDF+(S_c)`` is exactly the set of branch points where the execution of the
remaining ``c``-sequence may diverge between MPI processes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from .graph import CFG


class DominatorTree:
    """Immediate-(post)dominator tree for a CFG.

    Parameters
    ----------
    cfg:
        The graph to analyse.
    post:
        When True compute *post*-dominators (reverse graph, rooted at exit).
    """

    def __init__(self, cfg: CFG, post: bool = False) -> None:
        self.cfg = cfg
        self.post = post
        self.root = cfg.exit_id if post else cfg.entry_id
        self._preds = cfg.successors if post else cfg.predecessors
        self._succs = cfg.predecessors if post else cfg.successors
        #: node -> immediate dominator (root maps to itself)
        self.idom: Dict[int, int] = {}
        self._rpo: List[int] = cfg.reverse_postorder(self.root, reverse_graph=post)
        self._rpo_index = {b: i for i, b in enumerate(self._rpo)}
        self._compute()
        self._children: Optional[Dict[int, List[int]]] = None
        self._frontier: Optional[Dict[int, Set[int]]] = None
        #: DFS interval numbering of the dominator tree (lazy; O(1) queries).
        self._tin: Optional[Dict[int, int]] = None
        self._tout: Optional[Dict[int, int]] = None

    # -- Cooper–Harvey–Kennedy ------------------------------------------------

    def _intersect(self, a: int, b: int) -> int:
        idom = self.idom
        index = self._rpo_index
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    def _compute(self) -> None:
        self.idom = {self.root: self.root}
        changed = True
        while changed:
            changed = False
            for node in self._rpo:
                if node == self.root:
                    continue
                new_idom: Optional[int] = None
                for pred in self._preds(node):
                    if pred not in self._rpo_index:
                        continue  # unreachable in this direction
                    if pred in self.idom:
                        new_idom = pred if new_idom is None else self._intersect(new_idom, pred)
                if new_idom is None:
                    continue
                if self.idom.get(node) != new_idom:
                    self.idom[node] = new_idom
                    changed = True

    # -- interval numbering ----------------------------------------------------

    def _ensure_intervals(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Number the dominator tree with DFS entry/exit times.

        ``a`` dominates ``b`` iff ``tin[a] <= tin[b] <= tout[a]`` — the
        subtree of ``a`` occupies the contiguous interval
        ``[tin[a], tout[a]]`` of entry times.
        """
        if self._tin is None:
            children = self.children()
            tin: Dict[int, int] = {}
            tout: Dict[int, int] = {}
            clock = 0
            # Iterative DFS (generated benchmark CFGs nest deeply).
            stack: List[Tuple[int, bool]] = [(self.root, False)]
            while stack:
                node, done = stack.pop()
                if done:
                    tout[node] = clock - 1
                    continue
                tin[node] = clock
                clock += 1
                stack.append((node, True))
                for child in reversed(children.get(node, ())):
                    stack.append((child, False))
            self._tin, self._tout = tin, tout
        return self._tin, self._tout  # type: ignore[return-value]

    # -- queries -----------------------------------------------------------------

    def dominates(self, a: int, b: int) -> bool:
        """True when ``a`` (post)dominates ``b`` (reflexive) — O(1)."""
        if a == b:
            return True
        tin, tout = self._ensure_intervals()
        ta = tin.get(a)
        tb = tin.get(b)
        if ta is None or tb is None:
            return False  # unreachable nodes dominate only themselves
        return ta <= tb <= tout[a]

    def dominates_via_chain(self, a: int, b: int) -> bool:
        """O(depth) parent-chain oracle for :meth:`dominates` (kept for the
        property tests; not used on any hot path)."""
        node = b
        while True:
            if node == a:
                return True
            parent = self.idom.get(node)
            if parent is None or parent == node:
                return node == a
            node = parent

    def children(self) -> Dict[int, List[int]]:
        """Dominator-tree children mapping."""
        if self._children is None:
            kids: Dict[int, List[int]] = {n: [] for n in self.idom}
            for node, parent in self.idom.items():
                if node != parent:
                    kids[parent].append(node)
            self._children = kids
        return self._children

    def dominance_frontier(self) -> Dict[int, Set[int]]:
        """Classic per-node dominance frontier (Cytron et al. via CHK).

        One pass over a precomputed join-point predecessor table; the runner
        walks stop at ``idom[join]`` exactly as in CHK.
        """
        if self._frontier is not None:
            return self._frontier
        idom = self.idom
        frontier: Dict[int, Set[int]] = {n: set() for n in idom}
        # Precompute the (filtered) predecessor table of the join points —
        # only nodes with >= 2 reachable predecessors contribute.
        joins: List[Tuple[int, List[int]]] = []
        for node in idom:
            preds = [p for p in self._preds(node) if p in idom]
            if len(preds) >= 2:
                joins.append((node, preds))
        for node, preds in joins:
            stop = idom[node]
            for runner in preds:
                while runner != stop:
                    frontier[runner].add(node)
                    nxt = idom.get(runner)
                    if nxt is None or nxt == runner:
                        break
                    runner = nxt
        self._frontier = frontier
        return frontier

    def iterated_frontier(self, nodes: Iterable[int]) -> Set[int]:
        """Iterated (post)dominance frontier ``DF+``/``PDF+`` of ``nodes``."""
        frontier = self.dominance_frontier()
        result: Set[int] = set()
        work = [n for n in nodes if n in self.idom]
        seen: Set[int] = set(work)
        while work:
            node = work.pop()
            for f in frontier.get(node, ()):  # frontier nodes are branch points
                if f not in result:
                    result.add(f)
                    if f not in seen:
                        seen.add(f)
                        work.append(f)
        return result


def dominators(cfg: CFG) -> DominatorTree:
    """Dominator tree of ``cfg`` (cached on the graph — CFGs are immutable
    once built, and PARCOACH reuses the compiler's trees)."""
    if cfg.dom_cache is None:
        cfg.dom_cache = DominatorTree(cfg, post=False)
    return cfg.dom_cache


def post_dominators(cfg: CFG) -> DominatorTree:
    """Post-dominator tree of ``cfg`` (cached, see :func:`dominators`)."""
    if cfg.pdom_cache is None:
        cfg.pdom_cache = DominatorTree(cfg, post=True)
    return cfg.pdom_cache


def pdf_plus(cfg: CFG, nodes: Iterable[int],
             pdom: Optional[DominatorTree] = None) -> Set[int]:
    """``PDF+`` of ``nodes`` — PARCOACH Algorithm 1's divergence points."""
    tree = pdom if pdom is not None else post_dominators(cfg)
    return tree.iterated_frontier(nodes)
