"""AST node definitions for minilang.

Every node carries a source position (``line``/``col``) used by diagnostics
(the paper reports collective names *and source lines*).  Structural equality
that ignores positions is provided by :func:`ast_equal` for round-trip tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import List, Optional, Sequence, Tuple

_node_counter = itertools.count(1)

#: Per-class cache of the data (non-position) field names, because
#: ``dataclasses.fields()`` is too slow to call once per node in tree walks.
_CHILD_FIELDS: dict = {}


def _child_fields(cls: type) -> tuple:
    names = _CHILD_FIELDS.get(cls)
    if names is None:
        names = tuple(
            f.name for f in fields(cls) if f.name not in ("line", "col", "uid")
        )
        _CHILD_FIELDS[cls] = names
    return names


@dataclass
class Node:
    """Base class for all AST nodes."""

    line: int = field(default=0, kw_only=True)
    #: Excluded from ``repr`` (like ``uid``) so the structural fingerprints
    #: of :mod:`repro.core.engine` are column-insensitive: no diagnostic or
    #: artifact ever reports a column, so a same-line whitespace edit must
    #: not invalidate cached analyses or session state.
    col: int = field(default=0, kw_only=True, repr=False)
    uid: int = field(default_factory=lambda: next(_node_counter), kw_only=True, repr=False)

    def children(self) -> List["Node"]:
        """Direct child nodes, in source order."""
        out: List[Node] = []
        for name in _child_fields(type(self)):
            val = getattr(self, name)
            if isinstance(val, Node):
                out.append(val)
            elif isinstance(val, (list, tuple)):
                out.extend(v for v in val if isinstance(v, Node))
        return out

    def walk(self):
        """Yield this node and all descendants, pre-order (iterative — the
        generated benchmark programs nest deeply)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr(Node):
    pass


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class FloatLit(Expr):
    value: float = 0.0


@dataclass
class BoolLit(Expr):
    value: bool = False


@dataclass
class StringLit(Expr):
    value: str = ""


@dataclass
class VarRef(Expr):
    name: str = ""


@dataclass
class ArrayRef(Expr):
    name: str = ""
    index: Expr = field(default_factory=lambda: IntLit(value=0))


@dataclass
class BinOp(Expr):
    op: str = "+"
    left: Expr = field(default_factory=lambda: IntLit(value=0))
    right: Expr = field(default_factory=lambda: IntLit(value=0))


@dataclass
class UnaryOp(Expr):
    op: str = "-"
    operand: Expr = field(default_factory=lambda: IntLit(value=0))


@dataclass
class Call(Expr):
    """A function call; MPI operations and OpenMP query functions included."""

    name: str = ""
    args: List[Expr] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    pass


@dataclass
class Block(Stmt):
    stmts: List[Stmt] = field(default_factory=list)


@dataclass
class VarDecl(Stmt):
    type_name: str = "int"
    name: str = ""
    init: Optional[Expr] = None
    array_size: Optional[Expr] = None  # non-None => array declaration


@dataclass
class Assign(Stmt):
    """``target op value`` where op is '=', '+=', '-=', '*=', '/='."""

    target: Expr = field(default_factory=VarRef)  # VarRef or ArrayRef
    op: str = "="
    value: Expr = field(default_factory=lambda: IntLit(value=0))


@dataclass
class ExprStmt(Stmt):
    expr: Expr = field(default_factory=Call)


@dataclass
class If(Stmt):
    cond: Expr = field(default_factory=lambda: BoolLit(value=True))
    then_body: Block = field(default_factory=Block)
    else_body: Optional[Block] = None


@dataclass
class While(Stmt):
    cond: Expr = field(default_factory=lambda: BoolLit(value=True))
    body: Block = field(default_factory=Block)


@dataclass
class For(Stmt):
    """C-style ``for (init; cond; step) body``.

    ``init`` is a VarDecl or Assign (or None); ``step`` an Assign (or None).
    """

    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Stmt] = None
    body: Block = field(default_factory=Block)


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# ---------------------------------------------------------------------------
# OpenMP constructs
# ---------------------------------------------------------------------------


@dataclass
class OmpStmt(Stmt):
    """Base class for OpenMP constructs."""


@dataclass
class OmpParallel(OmpStmt):
    body: Block = field(default_factory=Block)
    num_threads: Optional[Expr] = None
    private: List[str] = field(default_factory=list)
    shared: List[str] = field(default_factory=list)


@dataclass
class OmpSingle(OmpStmt):
    body: Block = field(default_factory=Block)
    nowait: bool = False


@dataclass
class OmpMaster(OmpStmt):
    body: Block = field(default_factory=Block)


@dataclass
class OmpCritical(OmpStmt):
    body: Block = field(default_factory=Block)
    name: str = ""


@dataclass
class OmpBarrier(OmpStmt):
    pass


@dataclass
class OmpFor(OmpStmt):
    loop: For = field(default_factory=For)
    nowait: bool = False
    schedule: str = "static"


@dataclass
class OmpSections(OmpStmt):
    sections: List[Block] = field(default_factory=list)
    nowait: bool = False


@dataclass
class OmpTask(OmpStmt):
    """Explicit task — parsed and executed, flagged by the nesting checker
    when it contains MPI collectives (outside the paper's fork/join model)."""

    body: Block = field(default_factory=Block)


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass
class Param(Node):
    type_name: str = "int"
    name: str = ""


@dataclass
class FuncDef(Node):
    ret_type: str = "void"
    name: str = ""
    params: List[Param] = field(default_factory=list)
    body: Block = field(default_factory=Block)


@dataclass
class Program(Node):
    funcs: List[FuncDef] = field(default_factory=list)
    filename: str = "<string>"

    def func(self, name: str) -> FuncDef:
        """Return the function definition named ``name`` (KeyError if absent)."""
        for f in self.funcs:
            if f.name == name:
                return f
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Structural equality (ignoring positions and uids)
# ---------------------------------------------------------------------------


def ast_equal(a: object, b: object) -> bool:
    """Structural AST equality that ignores line/col/uid metadata."""
    if isinstance(a, Node) and isinstance(b, Node):
        if type(a) is not type(b):
            return False
        for f in fields(a):
            if f.name in ("line", "col", "uid", "filename"):
                continue
            if not ast_equal(getattr(a, f.name), getattr(b, f.name)):
                return False
        return True
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(ast_equal(x, y) for x, y in zip(a, b))
    return a == b


def collect(node: Node, node_type: type) -> List[Node]:
    """All descendants of ``node`` (inclusive) that are instances of ``node_type``."""
    return [n for n in node.walk() if isinstance(n, node_type)]


def shift_lines(node: Node, delta: int) -> None:
    """Shift the ``line`` of ``node`` and every descendant by ``delta``.

    The one sanctioned whole-subtree position edit: a source edit that moves
    a function down or up without touching its text (a line inserted above
    it) produces exactly this transformation of the re-parsed tree.  Uids
    and structure are untouched, so every uid-keyed artifact map stays
    valid; only consumers of line-addressed state (diagnostics, collective
    sites, CFG block lines) need patching, which
    :meth:`repro.core.engine.AnalysisEngine.patch_function_lines` does in
    lock-step with re-keying the engine's cache."""
    if delta == 0:
        return
    for n in node.walk():
        n.line += delta
