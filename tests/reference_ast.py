"""The AST walks that per-class child fields and the one-pass call index
replaced, kept as the reference for ``tests/test_ast_reference.py``.

``reference_children`` is the generic field scan ``Node.children`` ran:
every dataclass field but the position fields, a node taken as is and the
nodes of a list or tuple in order.  ``reference_walk`` is the pre-order
stack walk over it.  ``reference_index_function`` is the stack walk
``repro.core.sites.index_function`` ran: a tuple of enclosing statements
per pushed child and a uid-to-position dict.
"""

from dataclasses import fields

from repro.core.sites import ExprCallSite
from repro.minilang import ast_nodes as A


def reference_children(node):
    out = []
    for f in fields(node):
        if f.name in ("line", "col", "uid"):
            continue
        val = getattr(node, f.name)
        if isinstance(val, A.Node):
            out.append(val)
        elif isinstance(val, (list, tuple)):
            out.extend(v for v in val if isinstance(v, A.Node))
    return out


def reference_walk(node):
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(reference_children(node)))


def reference_index_function(func):
    calls = []
    stmts = []
    expr_calls = []
    stack = [(func, ())]
    pos = 0
    stmt_pos = {}
    while stack:
        node, enclosing = stack.pop()
        if isinstance(node, A.Stmt):
            stmt_pos[node.uid] = pos
            enclosing = (node,) + enclosing
        pos += 1
        if isinstance(node, A.Call):
            calls.append(node)
            stmt = enclosing[0] if enclosing else None
            if isinstance(stmt, A.ExprStmt) and stmt.expr is node:
                stmts.append(stmt)
            elif stmt is not None:
                expr_calls.append(ExprCallSite(
                    call=node,
                    stmt_uids=tuple(s.uid for s in enclosing),
                    stmt_pos=stmt_pos[stmt.uid],
                    line=node.line or stmt.line,
                ))
        stack.extend((child, enclosing)
                     for child in reversed(reference_children(node)))
    return calls, stmts, expr_calls
