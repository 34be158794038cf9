"""Registry of MPI operations known to the analysis and the runtime.

Each collective gets a stable *color* (a small positive integer) used by the
``CC`` runtime check: before entering collective ``c`` every process
all-reduces ``color(c)`` with MIN and MAX; a disagreement means the processes
are about to execute different collectives (or one of them none at all —
color 0 is reserved for "returning without further collectives").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Color 0 is reserved for the before-return check ("no more collectives").
RETURN_COLOR = 0


@dataclass(frozen=True)
class CollectiveInfo:
    """Static description of an MPI collective operation.

    Parameters
    ----------
    name:
        The MPI function name as written in source (e.g. ``MPI_Bcast``).
    color:
        Unique id used by the CC runtime check.
    has_root:
        Whether the operation is rooted (Bcast/Reduce/Gather/Scatter).
    arity:
        ``(min_args, max_args)`` accepted in minilang's simplified signature.
    synchronizing:
        True when the operation implies full synchronization of the
        communicator (Barrier, Allreduce, ...); informational only.
    """

    name: str
    color: int
    has_root: bool
    arity: Tuple[int, int]
    synchronizing: bool = True


#: Minilang signatures (simplified from C):
#:   MPI_Barrier()
#:   MPI_Bcast(var, root)
#:   MPI_Reduce(sendvar, recvvar, op, root)
#:   MPI_Allreduce(sendvar, recvvar, op)
#:   MPI_Gather(sendvar, recvarray, root)
#:   MPI_Scatter(sendarray, recvvar, root)
#:   MPI_Allgather(sendvar, recvarray)
#:   MPI_Alltoall(sendarray, recvarray)
#:   MPI_Scan(sendvar, recvvar, op)
#:   MPI_Exscan(sendvar, recvvar, op)
#:   MPI_Reduce_scatter_block(sendarray, recvvar, op)
#:   MPI_Finalize()
COLLECTIVES: Dict[str, CollectiveInfo] = {
    info.name: info
    for info in [
        CollectiveInfo("MPI_Barrier", 1, False, (0, 0)),
        CollectiveInfo("MPI_Bcast", 2, True, (2, 2)),
        CollectiveInfo("MPI_Reduce", 3, True, (4, 4)),
        CollectiveInfo("MPI_Allreduce", 4, False, (3, 3)),
        CollectiveInfo("MPI_Gather", 5, True, (3, 3)),
        CollectiveInfo("MPI_Scatter", 6, True, (3, 3)),
        CollectiveInfo("MPI_Allgather", 7, False, (2, 2)),
        CollectiveInfo("MPI_Alltoall", 8, False, (2, 2)),
        CollectiveInfo("MPI_Scan", 9, False, (3, 3)),
        CollectiveInfo("MPI_Exscan", 10, False, (3, 3)),
        CollectiveInfo("MPI_Reduce_scatter_block", 11, False, (3, 3)),
        CollectiveInfo("MPI_Finalize", 12, False, (0, 0)),
    ]
}

#: Point-to-point / query operations: executable by the runtime but *not*
#: collectives — the analysis ignores them (the paper checks collectives only).
POINT_TO_POINT = {
    "MPI_Send": (3, 3),     # MPI_Send(value, dest, tag)
    "MPI_Recv": (3, 3),     # MPI_Recv(var, source, tag)
    "MPI_Sendrecv": (6, 6), # MPI_Sendrecv(value, dest, stag, var, source, rtag)
}

#: Query functions usable in expressions.
MPI_QUERIES = {
    "MPI_Comm_rank": 0,
    "MPI_Comm_size": 0,
    "MPI_Wtime": 0,
}

#: Non-collective setup call (MPI_Init is not a collective in the MPI sense
#: relevant here; MPI_Init_thread(level) requests a thread support level).
MPI_SETUP = {
    "MPI_Init": (0, 0),
    "MPI_Init_thread": (1, 1),
}

_COLOR_TO_NAME: Dict[int, str] = {RETURN_COLOR: "<return>"}
_COLOR_TO_NAME.update({info.color: name for name, info in COLLECTIVES.items()})


def is_collective(name: str) -> bool:
    """True when ``name`` is an MPI collective tracked by the analysis."""
    return name in COLLECTIVES


def is_mpi_call(name: str) -> bool:
    """True for any MPI operation (collective, P2P, query, or setup)."""
    return (
        name in COLLECTIVES
        or name in POINT_TO_POINT
        or name in MPI_QUERIES
        or name in MPI_SETUP
    )


def collective_color(name: str) -> int:
    """The CC color of collective ``name`` (KeyError for non-collectives)."""
    return COLLECTIVES[name].color


def color_name(color: int) -> str:
    """Human-readable collective name for a CC color."""
    return _COLOR_TO_NAME.get(color, f"<unknown color {color}>")
