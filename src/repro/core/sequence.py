"""Phase 3 — inter-process verification (PARCOACH Algorithm 1).

All MPI processes must execute the same sequence of collectives.  On the
function's CFG, for each collective name ``c``, the iterated post-dominance
frontier ``PDF+(S_c)`` of the set ``S_c`` of nodes calling ``c`` is exactly
the set of conditionals where the control flow may diverge between processes
with different outcomes for the remaining ``c`` sequence.  A non-empty
``PDF+`` yields a ``COLLECTIVE_MISMATCH`` warning naming the collective, the
call lines and the guilty conditional lines; those conditionals drive the
*selective* instrumentation.

``precision="counting"`` adds a refinement beyond the paper: a flagged
conditional is suppressed when, on the loop-free part of the CFG, every
outgoing path provably executes the same number of ``c`` calls (e.g.
``if/else`` with one call in each branch).  The default ``"paper"`` mode
reproduces PARCOACH's published behaviour, where such patterns warn and are
cleared by the dynamic check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..cfg import CFG, BlockKind, DominatorTree, dominators, post_dominators
from ..cfg.loops import find_back_edges
from .diagnostics import Diagnostic, ErrorCode, SourceRef

#: Cap on the possible-count sets of the counting refinement.
_MAX_COUNTS = 8
_UNKNOWN: FrozenSet[int] = frozenset()  # sentinel: "too many / loop-tainted"


@dataclass
class CollectiveFinding:
    """Algorithm 1 output for one collective name."""

    name: str
    call_blocks: List[int]
    divergence_blocks: Set[int]
    suppressed_blocks: Set[int] = field(default_factory=set)


@dataclass
class SequenceResult:
    """Output of phase 3 for one function."""

    findings: Dict[str, CollectiveFinding] = field(default_factory=dict)
    #: Union of divergence blocks over all collective names (the set O).
    conditionals: Set[int] = field(default_factory=set)
    diagnostics: List[Diagnostic] = field(default_factory=list)


def _collective_points(cfg: CFG, collective_funcs: Set[str]) -> Dict[str, List[int]]:
    points: Dict[str, List[int]] = {}
    for block in cfg:
        if block.kind is BlockKind.COLLECTIVE and block.collective:
            points.setdefault(block.collective, []).append(block.id)
        elif block.kind is BlockKind.CALL and block.callee in collective_funcs:
            points.setdefault(f"call:{block.callee}", []).append(block.id)
    return points


def _possible_counts(cfg: CFG, target_blocks: Set[int],
                     loop_nodes: Set[int],
                     back: FrozenSet[Tuple[int, int]]) -> Dict[int, FrozenSet[int]]:
    """Possible number of executions of ``target_blocks`` from each node to
    exit, on the back-edge-free graph (``back`` holds the back edges,
    computed once per function by the caller); loop-tainted nodes get
    ``_UNKNOWN``."""
    # Reverse topological order on the DAG (exit first).
    order = cfg.reverse_postorder()
    counts: Dict[int, FrozenSet[int]] = {}
    for node in reversed(order):
        if node in loop_nodes:
            counts[node] = _UNKNOWN
            continue
        succs = [s for s in cfg.successors(node) if (node, s) not in back]
        if not succs:
            base: FrozenSet[int] = frozenset([0])
        else:
            acc: Set[int] = set()
            unknown = False
            for s in succs:
                c = counts.get(s, _UNKNOWN)
                if c is _UNKNOWN or not c:
                    unknown = True
                    break
                acc |= c
            if unknown or len(acc) > _MAX_COUNTS:
                counts[node] = _UNKNOWN
                continue
            base = frozenset(acc)
        here = 1 if node in target_blocks else 0
        counts[node] = frozenset(c + here for c in base)
    return counts


def analyze_sequence(func_name: str, cfg: CFG,
                     collective_funcs: Optional[Set[str]] = None,
                     precision: str = "paper",
                     extra_points: Optional[Dict[str, List[int]]] = None
                     ) -> SequenceResult:
    """Run Algorithm 1 on one function's CFG.

    Parameters
    ----------
    precision:
        ``"paper"`` (PDF+ exactly as published) or ``"counting"`` (suppress
        provably-balanced conditionals; see module docstring).
    extra_points:
        Additional collective points (name -> block ids) the CFG itself
        cannot see — the interprocedural layer supplies one per
        expression-level call to a collective-executing helper (those calls
        have no ``CALL`` block).
    """
    if precision not in ("paper", "counting"):
        raise ValueError(f"unknown precision {precision!r}")
    collective_funcs = collective_funcs or set()
    result = SequenceResult()
    points = _collective_points(cfg, collective_funcs)
    if extra_points:
        for name, blocks in extra_points.items():
            merged = points.setdefault(name, [])
            merged.extend(b for b in blocks if b not in merged)
    if not points:
        return result

    pdom = post_dominators(cfg)
    loop_nodes: Set[int] = set()
    # Dominators and back edges depend only on the CFG — compute them once
    # per function and thread them through; the counting path used to redo
    # both for every collective name.
    back_edges: FrozenSet[Tuple[int, int]] = frozenset()
    if precision == "counting":
        dom = dominators(cfg)
        back_edges = frozenset(find_back_edges(cfg, dom))
        for src, header in back_edges:
            body = {header, src}
            stack = [src]
            while stack:
                node = stack.pop()
                if node == header:
                    continue
                for pred in cfg.predecessors(node):
                    if pred not in body:
                        body.add(pred)
                        stack.append(pred)
            loop_nodes |= body

    for name in sorted(points):
        call_blocks = points[name]
        divergence = pdom.iterated_frontier(call_blocks)
        suppressed: Set[int] = set()
        if precision == "counting" and divergence:
            counts = _possible_counts(cfg, set(call_blocks), loop_nodes, back_edges)
            for cond in sorted(divergence):
                succ_counts = [counts.get(s, _UNKNOWN) for s in cfg.successors(cond)]
                if (
                    succ_counts
                    and all(c is not _UNKNOWN and len(c) == 1 for c in succ_counts)
                    and len({next(iter(c)) for c in succ_counts}) == 1
                ):
                    suppressed.add(cond)
            divergence = divergence - suppressed

        finding = CollectiveFinding(
            name=name, call_blocks=sorted(call_blocks),
            divergence_blocks=divergence, suppressed_blocks=suppressed,
        )
        result.findings[name] = finding
        if not divergence:
            continue
        result.conditionals |= divergence
        call_refs = tuple(
            SourceRef(name, cfg.block(b).line) for b in sorted(call_blocks)
        )
        cond_lines = tuple(cfg.block(b).line for b in sorted(divergence))
        result.diagnostics.append(Diagnostic(
            code=ErrorCode.COLLECTIVE_MISMATCH,
            function=func_name,
            message=(
                f"{name}: MPI processes may execute different numbers of "
                f"calls depending on control flow — possible deadlock"
            ),
            collectives=call_refs,
            conditionals=cond_lines,
        ))
    return result
