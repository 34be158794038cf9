"""AST node definitions for minilang.

Every node carries a source position (``line``/``col``) used by diagnostics
(the paper reports collective names *and source lines*).  Structural equality
that ignores positions is provided by :func:`ast_equal` for round-trip tests.

Child fields: a field holds nodes when its annotation names a node class,
alone, as ``Optional[...]`` or as ``List[...]``; an annotation that names
one in any other shape is a ``TypeError`` at import.  Each class records
those fields once, in declaration order, in ``_node_fields`` (pairs of the
field name and whether it holds a list).  :meth:`Node.children` returns
the nodes they hold in that order: a single field's node unless it is
``None``, a list field's nodes in list order.  :meth:`Node.walk` yields a
node and then, depth first, the walks of its children in that order
(pre-order).  Position fields and the other data fields (names,
operators, flags, ``List[str]`` clauses) hold no nodes.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field, fields
from typing import List, Optional

_node_counter = itertools.count(1)


@dataclass
class Node:
    """Base class for all AST nodes."""

    line: int = field(default=0, kw_only=True)
    #: Excluded from ``repr`` (like ``uid``) so the structural fingerprints
    #: of :mod:`repro.core.engine` are column-insensitive: no diagnostic or
    #: artifact ever reports a column, so a same-line whitespace edit must
    #: not invalidate cached analyses or session state.
    col: int = field(default=0, kw_only=True, repr=False)
    uid: int = field(default_factory=_node_counter.__next__, kw_only=True, repr=False)

    #: ``(name, holds a list)`` for each field that holds nodes, in
    #: declaration order; set on every class at the end of this module.
    _node_fields = ()

    def children(self) -> List["Node"]:
        """Direct child nodes, in source order."""
        out: List[Node] = []
        for name, many in self._node_fields:
            value = getattr(self, name)
            if many:
                out += value
            elif value is not None:
                out.append(value)
        return out

    def walk(self):
        """Yield this node and all descendants, pre-order (iterative — the
        generated benchmark programs nest deeply)."""
        stack = [self]
        pop = stack.pop
        while stack:
            node = pop()
            yield node
            kids = node.children()
            kids.reverse()
            stack += kids


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


#: The annotations of a field that holds nodes: ``X``, ``Optional[X]``
#: or ``List[X]`` for a node class ``X``.
_CHILD_ANNOTATION = re.compile(r"(?:(Optional|List)\[)?(\w+)(?(1)\])")


def _is_node_class(name: str) -> bool:
    hint = globals().get(name)
    return isinstance(hint, type) and issubclass(hint, Node)


def _node_fields_of(cls: type) -> tuple:
    """``cls``'s child fields (see the module docstring), read off the
    annotation strings (``from __future__ import annotations``), such as
    ``"Optional[Expr]"``, without evaluating them.  An annotation that
    names a node class in any other shape is a ``TypeError``: the walks
    would not see the nodes such a field holds."""
    out = []
    for f in fields(cls):
        if not any(map(_is_node_class, re.findall(r"\w+", f.type))):
            continue
        match = _CHILD_ANNOTATION.fullmatch(f.type)
        if match is None or not _is_node_class(match[2]):
            raise TypeError(f"{cls.__name__}.{f.name}: a field that holds "
                            f"nodes is annotated X, Optional[X] or List[X], "
                            f"not {f.type!r}")
        out.append((f.name, match[1] == "List"))
    return tuple(out)


for _cls in list(globals().values()):
    if isinstance(_cls, type) and issubclass(_cls, Node):
        _cls._node_fields = _node_fields_of(_cls)


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
