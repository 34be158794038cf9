"""Computation of parallelism words for every statement of a function.

The paper observes that with a perfectly nested fork/join model the control
flow has no impact on the parallelism word, so the word is computed by a
single structural walk of the AST (the region tree), not by a CFG fixpoint:
sequential control flow (``if``/``while``/``for``) passes the word through,
barriers inside them are appended in traversal order, loop bodies contribute
once.

Results are keyed by AST node uid and can be transferred onto CFG blocks via
the builder's ``ast_block`` map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..minilang import ast_nodes as A
from .word import EMPTY, P, S, Word, barrier


@dataclass
class WordInfo:
    """Per-function parallelism-word facts.

    Attributes
    ----------
    words:
        AST uid → parallelism word in effect *at* that node.
    enclosing:
        AST uid → tuple of enclosing OpenMP construct uids, outermost first
        (used to locate the ``Sipw`` instrumentation points).
    construct_kinds:
        OpenMP construct uid → kind string
        (``parallel``/``single``/``master``/``section``/``task``/…).
    construct_nodes:
        OpenMP construct uid → the AST node itself.
    """

    words: Dict[int, Word] = field(default_factory=dict)
    enclosing: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    construct_kinds: Dict[int, str] = field(default_factory=dict)
    construct_nodes: Dict[int, A.Node] = field(default_factory=dict)


class _WordWalker:
    def __init__(self, initial: Word) -> None:
        self.word: List = list(initial)
        self.enclosing: List[int] = []
        self.info = WordInfo()

    # -- helpers ------------------------------------------------------------

    def _record(self, node: A.Node) -> None:
        self.info.words[node.uid] = tuple(self.word)
        self.info.enclosing[node.uid] = tuple(self.enclosing)

    def _append_barrier(self) -> None:
        """Append ``B`` only when a region is open (top-level joins reset to
        the empty — monothreaded — context)."""
        if self.word:
            self.word.append(barrier())

    def _push(self, token, node: A.Node, kind: str) -> int:
        self.word.append(token)
        self.enclosing.append(node.uid)
        self.info.construct_kinds[node.uid] = kind
        self.info.construct_nodes[node.uid] = node
        return len(self.word) - 1

    def _pop(self, depth: int) -> None:
        del self.word[depth:]
        self.enclosing.pop()

    # -- walk ------------------------------------------------------------------

    def walk_block(self, block: A.Block) -> None:
        self._record(block)
        for stmt in block.stmts:
            self.walk_stmt(stmt)

    def walk_stmt(self, stmt: A.Stmt) -> None:
        self._record(stmt)

        if isinstance(stmt, A.Block):
            for inner in stmt.stmts:
                self.walk_stmt(inner)
        elif isinstance(stmt, A.If):
            self.walk_block(stmt.then_body)
            if stmt.else_body is not None:
                self.walk_block(stmt.else_body)
        elif isinstance(stmt, A.While):
            self.walk_block(stmt.body)
        elif isinstance(stmt, A.For):
            if stmt.init is not None:
                self._record(stmt.init)
            if stmt.step is not None:
                self._record(stmt.step)
            self.walk_block(stmt.body)
        elif isinstance(stmt, A.OmpParallel):
            depth = self._push(P(stmt.uid), stmt, "parallel")
            self.walk_block(stmt.body)
            self._pop(depth)
            self._append_barrier()  # join barrier of the parallel region
        elif isinstance(stmt, A.OmpSingle):
            depth = self._push(S(stmt.uid, "single"), stmt, "single")
            self.walk_block(stmt.body)
            self._pop(depth)
            if not stmt.nowait:
                self._append_barrier()
        elif isinstance(stmt, A.OmpMaster):
            depth = self._push(S(stmt.uid, "master"), stmt, "master")
            self.walk_block(stmt.body)
            self._pop(depth)
            # master has no implicit barrier
        elif isinstance(stmt, A.OmpCritical):
            # critical serializes but *every* thread executes the body: the
            # level of thread parallelism is unchanged.
            self.info.construct_kinds[stmt.uid] = "critical"
            self.info.construct_nodes[stmt.uid] = stmt
            self.walk_block(stmt.body)
        elif isinstance(stmt, A.OmpTask):
            # Outside the paper's model; conservatively multithreaded.
            depth = self._push(P(stmt.uid), stmt, "task")
            self.walk_block(stmt.body)
            self._pop(depth)
        elif isinstance(stmt, A.OmpBarrier):
            self._append_barrier()
        elif isinstance(stmt, A.OmpFor):
            # Worksharing keeps the multithreaded level; iterations are
            # spread over the team.
            self.info.construct_kinds[stmt.uid] = "for"
            self.info.construct_nodes[stmt.uid] = stmt
            loop = stmt.loop
            self.info.words[loop.uid] = tuple(self.word)
            self.info.enclosing[loop.uid] = tuple(self.enclosing)
            if loop.init is not None:
                self._record(loop.init)
            if loop.step is not None:
                self._record(loop.step)
            self.walk_block(loop.body)
            if not stmt.nowait:
                self._append_barrier()
        elif isinstance(stmt, A.OmpSections):
            self.info.construct_kinds[stmt.uid] = "sections"
            self.info.construct_nodes[stmt.uid] = stmt
            for section in stmt.sections:
                depth = self._push(S(section.uid, "section"), section, "section")
                for inner in section.stmts:
                    self.walk_stmt(inner)
                self._pop(depth)
            if not stmt.nowait:
                self._append_barrier()
        # Simple statements (VarDecl/Assign/ExprStmt/Return/...) carry no
        # sub-structure relevant to the word; _record above suffices.


def compute_words(func: A.FuncDef, initial: Word = EMPTY) -> WordInfo:
    """Parallelism words for all statements of ``func``.

    ``initial`` is the paper's "initial prefix" option: the thread context the
    function is assumed to be called from (empty = monothreaded main context).
    """
    walker = _WordWalker(initial)
    walker.info.words[func.uid] = tuple(initial)
    walker.info.enclosing[func.uid] = ()
    walker.walk_block(func.body)
    return walker.info
