"""MPI operation registry and thread-level model."""

from .collectives import (
    COLLECTIVES,
    MPI_QUERIES,
    MPI_SETUP,
    POINT_TO_POINT,
    RETURN_COLOR,
    CollectiveInfo,
    collective_color,
    color_name,
    is_collective,
    is_mpi_call,
)
from .thread_levels import LEVEL_FROM_INT, ThreadLevel, required_level

__all__ = [
    "COLLECTIVES",
    "MPI_QUERIES",
    "MPI_SETUP",
    "POINT_TO_POINT",
    "RETURN_COLOR",
    "CollectiveInfo",
    "collective_color",
    "color_name",
    "is_collective",
    "is_mpi_call",
    "LEVEL_FROM_INT",
    "ThreadLevel",
    "required_level",
]
