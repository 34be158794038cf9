"""The AST walks the collective summaries ran before they read the call
index and the driver's CFGs, kept as the reference for
``tests/test_summary_reference.py``.

``calls_in_exprs`` is the expression scan the structural summary walk ran
on every statement: the calls hanging off the statement's own expression
fields (not its nested statements), pre-order.  ``task_walk_uids`` is the
whole-function walk that found the task-deferred calls of the CFG
post-dominance check: the uids of every node inside any ``task``, live or
dead.
"""

from repro.minilang import ast_nodes as A


def calls_in_exprs(stmt):
    out = []
    stack = [child for child in stmt.children() if isinstance(child, A.Expr)]
    stack.reverse()
    while stack:
        node = stack.pop()
        if isinstance(node, A.Call):
            out.append(node)
        stack.extend(reversed([c for c in node.children()
                               if isinstance(c, A.Expr)]))
    return out


def task_walk_uids(func):
    uids = set()
    for node in func.walk():
        if isinstance(node, A.OmpTask):
            uids.update(n.uid for n in node.walk())
    return uids
