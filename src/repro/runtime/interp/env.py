"""Lexically scoped environments with shared cells.

OpenMP shared-by-default semantics fall out naturally: team threads execute
with child environments whose parent chain contains the *same* frames the
encountering thread sees, so assignments to outer variables hit shared
cells; names declared inside the region (and ``private`` clause names) live
in the per-thread child frame.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class InterpError(Exception):
    """Internal interpreter error (bad program shapes the semantic checker
    should have rejected)."""


class Cell:
    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


class Env:
    __slots__ = ("parent", "vars")

    def __init__(self, parent: Optional["Env"] = None) -> None:
        self.parent = parent
        self.vars: Dict[str, Cell] = {}

    def child(self) -> "Env":
        return Env(self)

    def declare(self, name: str, value: Any) -> None:
        self.vars[name] = Cell(value)

    def cell(self, name: str) -> Cell:
        env: Optional[Env] = self
        while env is not None:
            cell = env.vars.get(name)
            if cell is not None:
                return cell
            env = env.parent
        raise InterpError(f"undefined variable {name!r}")

    def get(self, name: str) -> Any:
        return self.cell(name).value

    def is_declared(self, name: str) -> bool:
        env: Optional[Env] = self
        while env is not None:
            if name in env.vars:
                return True
            env = env.parent
        return False
