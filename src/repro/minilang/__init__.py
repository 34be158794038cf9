"""minilang — the C-like MPI+OpenMP mini-language substrate.

Public surface: :func:`parse_program`, :func:`pretty`, the AST node classes
(``repro.minilang.ast_nodes``) and semantic checking.
"""

from . import ast_nodes
from .ast_nodes import Program, FuncDef, ast_equal
from .lexer import tokenize
from .parser import ParseError, parse_function, parse_program
from .pretty import pretty
from .semantics import SemanticError, SemanticIssue, check_program
from .tokens import LexError

__all__ = [
    "ast_nodes",
    "Program",
    "FuncDef",
    "ast_equal",
    "tokenize",
    "ParseError",
    "parse_function",
    "parse_program",
    "pretty",
    "SemanticError",
    "SemanticIssue",
    "check_program",
    "LexError",
]
