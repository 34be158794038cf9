"""Basic blocks of the control-flow graph.

Following the paper's compile-time phase, OpenMP directives live in their own
blocks (``BlockKind.OMP_*``), implicit thread barriers get dedicated blocks,
and every MPI collective call sits alone in its block so the analyses can
treat "node" and "collective occurrence" interchangeably.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from ..minilang import ast_nodes as A


class BlockKind(enum.Enum):
    ENTRY = "entry"
    EXIT = "exit"
    NORMAL = "normal"          # straight-line simple statements
    CONDITION = "condition"    # ends the block with a 2-way branch
    COLLECTIVE = "collective"  # exactly one MPI collective call
    CALL = "call"              # call to a user function (possible collectives inside)
    OMP_PARALLEL = "omp_parallel"
    OMP_SINGLE = "omp_single"
    OMP_MASTER = "omp_master"
    OMP_CRITICAL = "omp_critical"
    OMP_FOR = "omp_for"
    OMP_SECTIONS = "omp_sections"
    OMP_SECTION = "omp_section"
    OMP_TASK = "omp_task"
    OMP_END = "omp_end"        # structured-block end marker (region close)
    OMP_BARRIER = "omp_barrier"  # explicit or implicit barrier


#: Kinds opening an OpenMP region (matched by an OMP_END block).
OMP_REGION_KINDS = {
    BlockKind.OMP_PARALLEL,
    BlockKind.OMP_SINGLE,
    BlockKind.OMP_MASTER,
    BlockKind.OMP_CRITICAL,
    BlockKind.OMP_FOR,
    BlockKind.OMP_SECTIONS,
    BlockKind.OMP_SECTION,
    BlockKind.OMP_TASK,
}


@dataclass
class BasicBlock:
    """One CFG node.

    Attributes
    ----------
    id:
        Dense integer id, unique within the function's CFG.
    kind:
        The block's role (see :class:`BlockKind`).
    stmts:
        Simple statements executed by the block (empty for markers).
    cond:
        The branch condition expression for ``CONDITION`` blocks.
    pragma:
        The OpenMP AST node for ``OMP_*`` blocks.
    collective:
        MPI collective name for ``COLLECTIVE`` blocks.
    callee:
        Called user-function name for ``CALL`` blocks.
    implicit:
        For ``OMP_BARRIER``: True when the barrier is implied by a region end
        rather than written as ``#pragma omp barrier``.
    region_open_id:
        For ``OMP_END``: the id of the block that opened the region.
    line:
        Source line (for diagnostics).
    """

    id: int
    kind: BlockKind
    stmts: List[A.Stmt] = field(default_factory=list)
    cond: Optional[A.Expr] = None
    pragma: Optional[A.Stmt] = None
    collective: Optional[str] = None
    callee: Optional[str] = None
    implicit: bool = False
    region_open_id: Optional[int] = None
    line: int = 0

    @property
    def is_omp(self) -> bool:
        return self.kind.name.startswith("OMP_")

    def label(self) -> str:
        """Short human-readable label (used by the DOT exporter and reports)."""
        if self.kind is BlockKind.COLLECTIVE:
            return f"{self.id}: {self.collective} (l.{self.line})"
        if self.kind is BlockKind.CALL:
            return f"{self.id}: call {self.callee} (l.{self.line})"
        if self.kind is BlockKind.CONDITION:
            return f"{self.id}: branch (l.{self.line})"
        if self.kind is BlockKind.OMP_BARRIER:
            tag = "implicit" if self.implicit else "explicit"
            return f"{self.id}: barrier [{tag}]"
        if self.is_omp:
            return f"{self.id}: {self.kind.value} (l.{self.line})"
        if self.kind in (BlockKind.ENTRY, BlockKind.EXIT):
            return f"{self.id}: {self.kind.value}"
        return f"{self.id}: block[{len(self.stmts)} stmts]"
