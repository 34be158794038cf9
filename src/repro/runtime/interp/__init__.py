"""Compiled interpreter for minilang programs: each function lowered to
closures once per program."""

from .env import Cell, Env, InterpError
from .interpreter import ExecCtx, Interpreter

__all__ = ["Cell", "Env", "InterpError", "ExecCtx", "Interpreter"]
