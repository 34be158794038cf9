"""The dependent closure the project session walked while
``CallGraph.callers`` held each callee's incoming edges, kept as the
reference for ``tests/test_session_reference.py``.

Each function's callers are derived here from ``graph.edges``, so the
reference reads nothing of ``graph.callers``.
"""


def callers_from_edges(graph):
    """callee -> the set of its callers' names, from the edge lists."""
    callers = {name: set() for name in graph.order}
    for name in graph.order:
        for edge in graph.edges[name]:
            callers[edge.callee].add(edge.caller)
    return callers


def dependents(dirty, old, new):
    """The reverse-call-graph closure of ``dirty`` over the callers in both
    graph versions, minus the seeds.  Seeds and callers are walked in sorted
    order: the last seed first, each function's callers depth-first."""
    before, after = callers_from_edges(old), callers_from_edges(new)
    out = []
    work = sorted(dirty)
    seen = set(dirty)
    while work:
        name = work.pop()
        callers = before.get(name, set()) | after.get(name, set())
        for caller in sorted(callers):
            if caller not in seen:
                seen.add(caller)
                out.append(caller)
                work.append(caller)
    return tuple(out)
