"""Natural-loop detection (back edges via dominators).

Used for CFG statistics in reports and to sanity-check the benchmark
generators (the NAS-MZ skeletons are loop-heavy by design).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .dominance import DominatorTree, dominators
from .graph import CFG


@dataclass
class NaturalLoop:
    header: int
    back_edge: Tuple[int, int]
    body: Set[int] = field(default_factory=set)


def find_back_edges(cfg: CFG, dom: DominatorTree) -> List[Tuple[int, int]]:
    """Edges ``(src, dst)`` where ``dst`` dominates ``src``."""
    edges = []
    for src, dst in cfg.edge_list():
        if (src, dst) in cfg.virtual_edges:
            continue
        if src in dom.idom and dst in dom.idom and dom.dominates(dst, src):
            edges.append((src, dst))
    return edges


def natural_loops(cfg: CFG) -> List[NaturalLoop]:
    """All natural loops, one per back edge."""
    dom = dominators(cfg)
    loops: List[NaturalLoop] = []
    for src, header in find_back_edges(cfg, dom):
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
        loops.append(NaturalLoop(header=header, back_edge=(src, header), body=body))
    return loops


def loop_nesting_depth(cfg: CFG) -> Dict[int, int]:
    """Per-block loop nesting depth (0 = not in any loop)."""
    depth: Dict[int, int] = {bid: 0 for bid in cfg.blocks}
    for loop in natural_loops(cfg):
        for bid in loop.body:
            depth[bid] += 1
    return depth
