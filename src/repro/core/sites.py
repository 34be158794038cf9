"""Collective call sites — the unit all three analysis phases operate on.

A *site* is either a direct MPI collective call statement or a call to a
user function that may (transitively) execute collectives; the latter lets
the per-function analyses stay intraprocedural, PARCOACH-style, while still
covering collectives reached through calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..minilang import ast_nodes as A
from ..mpi.collectives import is_collective


@dataclass(frozen=True)
class ExprCallSite:
    """A call that is *not* a standalone call statement (it sits inside an
    initializer, an assignment, a condition, an argument list, ...).

    Such calls have no ``CALL`` basic block and no :class:`CollectiveSite`,
    so the intraprocedural phases cannot see them; the interprocedural layer
    (:mod:`repro.core.callgraph`) anchors them on the nearest enclosing
    statement instead.
    """

    call: A.Call
    #: uids of the enclosing statements, innermost first (the anchor chain —
    #: the first uid with a CFG block is the call's sequence point).
    stmt_uids: Tuple[int, ...]
    #: Pre-order position of the innermost enclosing statement inside the
    #: function AST (structural — stable across re-parses, unlike uids; the
    #: engine keys its cache on this).
    stmt_pos: int
    line: int


@dataclass
class ProgramIndex:
    """One-walk-per-function index of call expressions and call statements
    (every analysis that needs "all calls of f" reads this instead of
    re-walking the AST)."""

    #: function name -> every Call node in its body.
    calls: Dict[str, List[A.Call]] = field(default_factory=dict)
    #: function name -> statement-level calls (ExprStmt wrapping a Call).
    call_stmts: Dict[str, List[A.ExprStmt]] = field(default_factory=dict)
    #: function name -> calls embedded in expressions (no CALL block).
    expr_calls: Dict[str, List[ExprCallSite]] = field(default_factory=dict)


#: Every call node, the statement-level calls, the expression-embedded calls.
_Found = Tuple[List[A.Call], List[A.ExprStmt], List[ExprCallSite]]


def index_function(func: A.FuncDef) -> _Found:
    """Index one function: every call node, the statement-level calls, and
    the expression-embedded calls with their anchor chains.  Pure per
    function — the results only depend on the function's own AST, so the
    session layer indexes only the functions an update re-parsed."""
    found: _Found = ([], [], [])
    _index_node(func, 0, None, found)
    return found


def _index_node(node: A.Node, pos: int, enclosing, found: _Found) -> int:
    """Index ``node``, at pre-order position ``pos``, and its subtree;
    return the position after the subtree.  ``enclosing`` is ``None`` or
    ``(statement, its position, the statement's own enclosing)`` for the
    innermost statement around ``node``.  The parser bounds the depth of
    the tree, so the recursion stays shallow."""
    cls = type(node)
    if cls is A.Call:
        found[0].append(node)
        if enclosing is not None:
            stmt = enclosing[0]
            if type(stmt) is A.ExprStmt and stmt.expr is node:
                found[1].append(stmt)
            else:
                uids = []
                chain = enclosing
                while chain is not None:
                    uids.append(chain[0].uid)
                    chain = chain[2]
                found[2].append(ExprCallSite(
                    call=node, stmt_uids=tuple(uids), stmt_pos=enclosing[1],
                    line=node.line or stmt.line,
                ))
    elif isinstance(node, A.Stmt):
        enclosing = (node, pos, enclosing)
    pos += 1
    for name, many in cls._node_fields:
        value = getattr(node, name)
        if many:
            for child in value:
                pos = _index_node(child, pos, enclosing, found)
        elif value is not None:
            pos = _index_node(value, pos, enclosing, found)
    return pos


def index_program(program: A.Program) -> ProgramIndex:
    """Index every function of ``program``."""
    index = ProgramIndex()
    for func in program.funcs:
        calls, stmts, expr_calls = index_function(func)
        index.calls[func.name] = calls
        index.call_stmts[func.name] = stmts
        index.expr_calls[func.name] = expr_calls
    return index


@dataclass
class CollectiveSite:
    """One collective-relevant call statement inside a function."""

    stmt: A.ExprStmt
    call: A.Call
    kind: str  # "collective" | "call"
    name: str  # MPI name, or "call:<func>" for user calls
    line: int

    @property
    def uid(self) -> int:
        return self.stmt.uid


def collect_sites(func: A.FuncDef,
                  collective_funcs: Optional[Set[str]] = None,
                  call_stmts: Optional[List[A.ExprStmt]] = None) -> List[CollectiveSite]:
    """All collective sites of ``func`` in source order.

    ``collective_funcs`` is the set of user functions that may execute a
    collective (computed by the driver's call-graph pass); ``call_stmts``
    optionally provides the pre-indexed statement-level calls.
    """
    collective_funcs = collective_funcs or set()
    sites: List[CollectiveSite] = []
    if call_stmts is None:
        call_stmts = [
            node for node in func.walk()
            if isinstance(node, A.ExprStmt) and isinstance(node.expr, A.Call)
        ]
    for node in call_stmts:
        expr = node.expr
        assert isinstance(expr, A.Call)
        if is_collective(expr.name):
            sites.append(CollectiveSite(
                stmt=node, call=expr, kind="collective",
                name=expr.name, line=node.line or expr.line,
            ))
        elif expr.name in collective_funcs:
            sites.append(CollectiveSite(
                stmt=node, call=expr, kind="call",
                name=f"call:{expr.name}", line=node.line or expr.line,
            ))
    return sites


def collective_call_graph(program: A.Program,
                          index: Optional[ProgramIndex] = None) -> Set[str]:
    """Names of user functions that may (transitively) execute an MPI
    collective — fixpoint over the call graph."""
    funcs = {f.name: f for f in program.funcs}
    if index is None:
        index = index_program(program)
    direct: dict = {}
    calls: dict = {}
    for name in funcs:
        func_calls = index.calls.get(name, [])
        direct[name] = any(is_collective(c.name) for c in func_calls)
        calls[name] = {c.name for c in func_calls if c.name in funcs}
    callers: dict = {}
    for name, callees in calls.items():
        for callee in callees:
            callers.setdefault(callee, []).append(name)
    result = {name for name, has in direct.items() if has}
    worklist = list(result)
    while worklist:
        member = worklist.pop()
        for caller in callers.get(member, ()):
            if caller not in result:
                result.add(caller)
                worklist.append(caller)
    return result
