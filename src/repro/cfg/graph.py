"""The control-flow graph container.

A :class:`CFG` owns its blocks and the (ordered) successor/predecessor
adjacency.  It always has a unique ``entry`` and a unique ``exit`` block;
``ensure_exit_reachable`` adds virtual edges so post-dominance is well
defined even with infinite loops.

Adjacency is **frozen** once construction ends (:meth:`freeze`):
``successors``/``predecessors`` then return the internal tuples directly —
zero-copy views safe to hand out because tuples are immutable.  Every
fixpoint loop in the analyses (dominators, dataflow, possible-counts) sits
on top of these accessors, so the freeze removes one list allocation per
visited edge per iteration.  Unfrozen graphs (hand-built in tests) still
get defensive copies.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..minilang import ast_nodes as A
from ..mpi.collectives import is_collective
from .basic_block import BasicBlock, BlockKind


class CFG:
    def __init__(self, func_name: str = "<anon>") -> None:
        self.func_name = func_name
        self.blocks: Dict[int, BasicBlock] = {}
        self._succ: Dict[int, Sequence[int]] = {}
        self._pred: Dict[int, Sequence[int]] = {}
        self._frozen = False
        self._next_id = 0
        self.entry_id: int = -1
        self.exit_id: int = -1
        #: Edges added only to make the exit reachable (ignored by execution).
        self.virtual_edges: Set[Tuple[int, int]] = set()
        #: Dominator-tree caches (filled by repro.cfg.dominance; CFGs are
        #: immutable once built, so the compiler and PARCOACH share them).
        self.dom_cache = None
        self.pdom_cache = None

    # -- construction ---------------------------------------------------------

    def new_block(self, kind: BlockKind, **kwargs) -> BasicBlock:
        self._check_mutable()
        block = BasicBlock(id=self._next_id, kind=kind, **kwargs)
        self.blocks[block.id] = block
        self._succ[block.id] = []
        self._pred[block.id] = []
        self._next_id += 1
        return block

    def add_edge(self, src: int, dst: int, virtual: bool = False) -> None:
        self._check_mutable()
        if dst not in self._succ[src]:
            self._succ[src].append(dst)  # type: ignore[union-attr]
            self._pred[dst].append(src)  # type: ignore[union-attr]
        if virtual:
            self.virtual_edges.add((src, dst))

    def _check_mutable(self) -> None:
        if self._frozen:
            raise RuntimeError(
                f"CFG of {self.func_name!r} is frozen; structural mutation "
                f"after construction is not allowed"
            )

    def freeze(self) -> "CFG":
        """Seal the graph: adjacency becomes immutable tuples and the
        accessors below switch to zero-copy views.  Idempotent."""
        if not self._frozen:
            self._succ = {bid: tuple(s) for bid, s in self._succ.items()}
            self._pred = {bid: tuple(p) for bid, p in self._pred.items()}
            self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- queries ------------------------------------------------------------------

    def successors(self, block_id: int) -> Sequence[int]:
        """Ordered successors — a read-only view (tuple) once frozen."""
        succs = self._succ[block_id]
        return succs if self._frozen else tuple(succs)

    def predecessors(self, block_id: int) -> Sequence[int]:
        """Ordered predecessors — a read-only view (tuple) once frozen."""
        preds = self._pred[block_id]
        return preds if self._frozen else tuple(preds)

    def block(self, block_id: int) -> BasicBlock:
        return self.blocks[block_id]

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterable[BasicBlock]:
        return iter(self.blocks.values())

    def blocks_of_kind(self, *kinds: BlockKind) -> List[BasicBlock]:
        wanted = set(kinds)
        return [b for b in self.blocks.values() if b.kind in wanted]

    def collective_blocks(self) -> List[BasicBlock]:
        return self.blocks_of_kind(BlockKind.COLLECTIVE)

    # -- traversals --------------------------------------------------------------

    def reverse_postorder(self, start: Optional[int] = None,
                          reverse_graph: bool = False) -> List[int]:
        """Reverse postorder over (possibly reversed) edges from ``start``."""
        if start is None:
            start = self.exit_id if reverse_graph else self.entry_id
        adj = self._pred if reverse_graph else self._succ
        seen: Set[int] = set()
        order: List[int] = []
        # Iterative DFS with an explicit stack to avoid recursion limits on
        # the large generated benchmark programs.
        stack: List[Tuple[int, int]] = [(start, 0)]
        seen.add(start)
        while stack:
            node, i = stack[-1]
            succs = adj[node]
            if i < len(succs):
                stack[-1] = (node, i + 1)
                nxt = succs[i]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, 0))
            else:
                stack.pop()
                order.append(node)
        order.reverse()
        return order

    def reachable_from_entry(self) -> Set[int]:
        return set(self.reverse_postorder(self.entry_id))

    def can_reach_exit(self) -> Set[int]:
        return set(self.reverse_postorder(self.exit_id, reverse_graph=True))

    # -- normalization ---------------------------------------------------------------

    def remove_unreachable(self) -> int:
        """Drop blocks not reachable from entry (keep exit). Returns count removed."""
        self._check_mutable()
        reachable = self.reachable_from_entry()
        reachable.add(self.exit_id)
        doomed = [bid for bid in self.blocks if bid not in reachable]
        for bid in doomed:
            for succ in self._succ.pop(bid, []):
                if succ in self._pred:
                    self._pred[succ] = [p for p in self._pred[succ] if p != bid]
            for pred in self._pred.pop(bid, []):
                if pred in self._succ:
                    self._succ[pred] = [s for s in self._succ[pred] if s != bid]
            del self.blocks[bid]
        return len(doomed)

    def ensure_exit_reachable(self) -> int:
        """Add virtual edges so every block can reach exit (infinite loops).

        Returns the number of virtual edges added.  Needed for post-dominator
        computation; execution semantics are unaffected because virtual edges
        are recorded in :attr:`virtual_edges`.

        Single reverse-reachability pass: the can-reach-exit set is computed
        once and updated incrementally after each virtual edge (everything
        that reaches the new edge's source now reaches exit), instead of the
        former recompute-from-scratch loop — O(V+E) total instead of
        O(edges_added * (V+E)).
        """
        self._check_mutable()
        can_reach = self.can_reach_exit()
        stuck = {bid for bid in self.blocks if bid not in can_reach}
        if not stuck:
            return 0
        # Forward reachability never changes here: a virtual edge targets the
        # exit, which has no successors, so one pass suffices for candidates.
        reachable = self.reachable_from_entry()
        added = 0
        while stuck:
            # Pick the smallest stuck id that is reachable from entry to keep
            # the virtual structure deterministic.
            candidates = [b for b in stuck if b in reachable] or sorted(stuck)
            chosen = min(candidates)
            self.add_edge(chosen, self.exit_id, virtual=True)
            added += 1
            # Everything that can reach `chosen` can now reach the exit.
            can_reach.add(chosen)
            stuck.discard(chosen)
            work = [chosen]
            while work:
                node = work.pop()
                for pred in self._pred[node]:
                    if pred not in can_reach:
                        can_reach.add(pred)
                        stuck.discard(pred)
                        work.append(pred)
        return added

    def validate(self) -> List[str]:
        """Structural sanity checks; returns a list of problem descriptions."""
        problems: List[str] = []
        if self.entry_id not in self.blocks:
            problems.append("missing entry block")
        if self.exit_id not in self.blocks:
            problems.append("missing exit block")
        for bid, succs in self._succ.items():
            for s in succs:
                if s not in self.blocks:
                    problems.append(f"edge {bid}->{s} to unknown block")
                elif bid not in self._pred[s]:
                    problems.append(f"asymmetric edge {bid}->{s}")
        for block in self.blocks.values():
            nsucc = len(self._succ[block.id])
            if block.kind is BlockKind.CONDITION and nsucc != 2:
                problems.append(f"condition block {block.id} has {nsucc} successors")
            if block.kind is BlockKind.EXIT and nsucc != 0:
                problems.append(f"exit block has successors {list(self._succ[block.id])}")
            if block.kind is BlockKind.COLLECTIVE:
                n_coll = sum(
                    1 for s in block.stmts
                    if isinstance(s, A.ExprStmt)
                    and isinstance(s.expr, A.Call)
                    and is_collective(s.expr.name)
                )
                if n_coll != 1:
                    problems.append(
                        f"collective block {block.id} contains {n_coll} "
                        f"collective statements (expected exactly 1)"
                    )
                if block.collective is None:
                    problems.append(f"collective block {block.id} without collective name")
        return problems

    def edge_list(self) -> List[Tuple[int, int]]:
        return [(src, dst) for src, succs in self._succ.items() for dst in succs]
