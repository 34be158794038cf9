"""Semantic checks for minilang programs.

Two groups of checks:

* classic front-end checks — undeclared variables, duplicate declarations,
  unknown functions, break/continue placement, call arity;
* OpenMP legality checks matching the paper's program model (explicit
  fork/join, *perfectly nested* regions): a ``barrier`` may not be closely
  nested inside ``single``/``master``/``critical``/``sections``/``task``; a
  worksharing or ``single``/``master`` construct may not be closely nested
  inside another worksharing/``single``/``master``/``critical``/``task``
  region of the same team.

Checks produce :class:`SemanticIssue` records; errors can be raised as a
single :class:`SemanticError` via ``check_program(..., strict=True)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Union

from ..mpi.collectives import (
    COLLECTIVES,
    MPI_QUERIES,
    MPI_SETUP,
    POINT_TO_POINT,
    is_mpi_call,
)
from . import ast_nodes as A

#: Built-in functions available in expressions, name -> (min_args, max_args).
EXPR_BUILTINS = {
    "omp_get_thread_num": (0, 0),
    "omp_get_num_threads": (0, 0),
    "omp_get_max_threads": (0, 0),
    "abs": (1, 1),
    "min": (2, 2),
    "max": (2, 2),
    "sqrt": (1, 1),
    # Floor modulo, like Fortran's MODULO: mod(0 - 7, 4) is 1, while the
    # % operator is C's remainder, (0 - 7) % 4 is -3.
    "mod": (2, 2),
}

#: Built-in statement-level functions.
STMT_BUILTINS = {
    "print": (0, 8),
    "work": (1, 1),  # simulated compute: advances the thread's Wtime clock
}

#: Verification functions the instrumentation pass inserts; accepted by the
#: checker so instrumented programs re-check cleanly.
CHECK_BUILTINS = {
    "PARCOACH_CC": (3, 3),       # (color, name, line)
    "PARCOACH_ENTER": (2, 2),    # (node_id, what)
    "PARCOACH_EXIT": (1, 1),     # (node_id)
}


@dataclass(frozen=True)
class SemanticIssue:
    severity: str  # "error" | "warning"
    code: str
    message: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.severity}: [{self.code}] {self.message}"


class SemanticError(Exception):
    def __init__(self, issues: List[SemanticIssue]) -> None:
        super().__init__("\n".join(str(i) for i in issues))
        self.issues = issues


# OpenMP closely-nested contexts where a barrier is illegal.
_NO_BARRIER_CONTEXTS = {"single", "master", "critical", "sections", "task", "for"}
# Contexts in which worksharing/single/master constructs may not be closely nested.
_NO_WORKSHARE_CONTEXTS = {"single", "master", "critical", "sections", "task", "for"}
# ``in_loop`` in an ``omp for`` body: continue may end an iteration, but
# break may not leave the worksharing loop.
_OMP_FOR_BODY = "omp for"


class _Scope:
    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.parent = parent
        self.names: Set[str] = set()

    def declare(self, name: str) -> bool:
        """Declare ``name``; returns False when already declared in this scope."""
        if name in self.names:
            return False
        self.names.add(name)
        return True

    def is_declared(self, name: str) -> bool:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:
                return True
            scope = scope.parent
        return False


class Checker:
    def __init__(self, program: A.Program) -> None:
        self.program = program
        self.issues: List[SemanticIssue] = []
        self.func_names = {f.name for f in program.funcs}
        self.func_arity = {f.name: (len(f.params), len(f.params)) for f in program.funcs}

    # -- reporting ------------------------------------------------------------

    def error(self, code: str, message: str, node: A.Node) -> None:
        self.issues.append(SemanticIssue("error", code, message, node.line, node.col))

    def warning(self, code: str, message: str, node: A.Node) -> None:
        self.issues.append(SemanticIssue("warning", code, message, node.line, node.col))

    # -- entry ----------------------------------------------------------------

    def check(self) -> List[SemanticIssue]:
        seen: Set[str] = set()
        for func in self.program.funcs:
            if func.name in seen:
                self.error("DUP_FUNC", f"duplicate function {func.name!r}", func)
            seen.add(func.name)
        for func in self.program.funcs:
            self._check_func(func)
        return self.issues

    def _check_func(self, func: A.FuncDef) -> None:
        scope = _Scope()
        for param in func.params:
            if not scope.declare(param.name):
                self.error("DUP_PARAM", f"duplicate parameter {param.name!r}", param)
        self._check_block(func.body, scope, omp_ctx=[], in_loop=False, func=func)

    # -- statements -----------------------------------------------------------

    def _check_block(self, block: A.Block, scope: _Scope, omp_ctx: List[str],
                     in_loop: Union[bool, str], func: A.FuncDef) -> None:
        inner = _Scope(scope)
        for stmt in block.stmts:
            self._check_stmt(stmt, inner, omp_ctx, in_loop, func)

    def _check_stmt(self, stmt: A.Stmt, scope: _Scope, omp_ctx: List[str],
                    in_loop: Union[bool, str], func: A.FuncDef) -> None:
        if isinstance(stmt, A.Block):
            self._check_block(stmt, scope, omp_ctx, in_loop, func)
        elif isinstance(stmt, A.VarDecl):
            if stmt.array_size is not None:
                self._check_expr(stmt.array_size, scope)
            if stmt.init is not None:
                self._check_expr(stmt.init, scope)
            if not scope.declare(stmt.name):
                self.error("DUP_VAR", f"duplicate variable {stmt.name!r} in scope", stmt)
        elif isinstance(stmt, A.Assign):
            self._check_expr(stmt.target, scope)
            self._check_expr(stmt.value, scope)
        elif isinstance(stmt, A.ExprStmt):
            self._check_expr(stmt.expr, scope, stmt_level=True)
        elif isinstance(stmt, A.If):
            self._check_expr(stmt.cond, scope)
            self._check_block(stmt.then_body, scope, omp_ctx, in_loop, func)
            if stmt.else_body is not None:
                self._check_block(stmt.else_body, scope, omp_ctx, in_loop, func)
        elif isinstance(stmt, A.While):
            self._check_expr(stmt.cond, scope)
            self._check_block(stmt.body, scope, omp_ctx, True, func)
        elif isinstance(stmt, A.For):
            loop_scope = _Scope(scope)
            if stmt.init is not None:
                self._check_stmt(stmt.init, loop_scope, omp_ctx, in_loop, func)
            if stmt.cond is not None:
                self._check_expr(stmt.cond, loop_scope)
            if stmt.step is not None:
                self._check_stmt(stmt.step, loop_scope, omp_ctx, in_loop, func)
            self._check_block(stmt.body, loop_scope, omp_ctx, True, func)
        elif isinstance(stmt, A.Return):
            if omp_ctx:
                self.error(
                    "RETURN_IN_OMP",
                    "return may not branch out of an OpenMP structured block",
                    stmt,
                )
            if stmt.value is not None:
                self._check_expr(stmt.value, scope)
                if func.ret_type == "void":
                    self.error("RET_VALUE", f"void function {func.name!r} returns a value", stmt)
            elif func.ret_type != "void":
                self.error("RET_MISSING", f"non-void function {func.name!r} returns no value", stmt)
        elif isinstance(stmt, A.Break):
            if in_loop is not True:
                self.error("BREAK_OUTSIDE", "break outside of a loop", stmt)
        elif isinstance(stmt, A.Continue):
            if not in_loop:
                self.error("CONTINUE_OUTSIDE", "continue outside of a loop", stmt)
        elif isinstance(stmt, A.OmpStmt):
            self._check_omp(stmt, scope, omp_ctx, in_loop, func)
        else:  # pragma: no cover - defensive
            self.error("UNKNOWN_STMT", f"unknown statement {type(stmt).__name__}", stmt)

    # -- OpenMP nesting ---------------------------------------------------------

    def _check_omp(self, stmt: A.OmpStmt, scope: _Scope, omp_ctx: List[str],
                   in_loop: Union[bool, str], func: A.FuncDef) -> None:
        closest = omp_ctx[-1] if omp_ctx else None
        if isinstance(stmt, A.OmpBarrier):
            if closest in _NO_BARRIER_CONTEXTS:
                self.error(
                    "BARRIER_NESTING",
                    f"barrier may not be closely nested inside a {closest!r} region",
                    stmt,
                )
            return
        if isinstance(stmt, A.OmpParallel):
            if stmt.num_threads is not None:
                self._check_expr(stmt.num_threads, scope)
            for name in stmt.private + stmt.shared:
                if not scope.is_declared(name):
                    self.error("UNDECLARED", f"clause names undeclared variable {name!r}", stmt)
            # break/continue may not escape the structured block: reset in_loop.
            self._check_block(stmt.body, scope, omp_ctx + ["parallel"], False, func)
            return
        if isinstance(stmt, A.OmpSingle):
            self._enforce_workshare_nesting("single", closest, stmt)
            self._check_block(stmt.body, scope, omp_ctx + ["single"], False, func)
            return
        if isinstance(stmt, A.OmpMaster):
            self._enforce_workshare_nesting("master", closest, stmt)
            self._check_block(stmt.body, scope, omp_ctx + ["master"], False, func)
            return
        if isinstance(stmt, A.OmpCritical):
            self._check_block(stmt.body, scope, omp_ctx + ["critical"], False, func)
            return
        if isinstance(stmt, A.OmpTask):
            self.warning(
                "TASK_MODEL",
                "task constructs are outside the paper's fork/join model; "
                "collectives inside tasks are treated as multithreaded",
                stmt,
            )
            self._check_block(stmt.body, scope, omp_ctx + ["task"], False, func)
            return
        if isinstance(stmt, A.OmpFor):
            self._enforce_workshare_nesting("for", closest, stmt)
            loop = stmt.loop
            if not isinstance(loop.init, A.VarDecl) and loop.init is not None:
                self.warning("OMPFOR_INIT", "omp for loop should declare its induction variable", stmt)
            loop_scope = _Scope(scope)
            if loop.init is not None:
                self._check_stmt(loop.init, loop_scope, omp_ctx, in_loop, func)
            if loop.cond is not None:
                self._check_expr(loop.cond, loop_scope)
            if loop.step is not None:
                self._check_stmt(loop.step, loop_scope, omp_ctx, in_loop, func)
            # Nested loops re-enable break.
            self._check_block(loop.body, loop_scope, omp_ctx + ["for"],
                              _OMP_FOR_BODY, func)
            return
        if isinstance(stmt, A.OmpSections):
            self._enforce_workshare_nesting("sections", closest, stmt)
            for section in stmt.sections:
                self._check_block(section, scope, omp_ctx + ["sections"], False, func)
            return
        self.error("UNKNOWN_OMP", f"unknown OpenMP node {type(stmt).__name__}", stmt)

    def _enforce_workshare_nesting(self, kind: str, closest: Optional[str],
                                   stmt: A.Stmt) -> None:
        if closest in _NO_WORKSHARE_CONTEXTS:
            self.error(
                "WORKSHARE_NESTING",
                f"{kind!r} construct may not be closely nested inside a {closest!r} region",
                stmt,
            )

    # -- expressions ---------------------------------------------------------

    def _check_expr(self, expr: A.Expr, scope: _Scope, stmt_level: bool = False) -> None:
        if isinstance(expr, (A.IntLit, A.FloatLit, A.BoolLit, A.StringLit)):
            return
        if isinstance(expr, A.VarRef):
            if not scope.is_declared(expr.name):
                self.error("UNDECLARED", f"undeclared variable {expr.name!r}", expr)
            return
        if isinstance(expr, A.ArrayRef):
            if not scope.is_declared(expr.name):
                self.error("UNDECLARED", f"undeclared array {expr.name!r}", expr)
            self._check_expr(expr.index, scope)
            return
        if isinstance(expr, A.BinOp):
            self._check_expr(expr.left, scope)
            self._check_expr(expr.right, scope)
            return
        if isinstance(expr, A.UnaryOp):
            self._check_expr(expr.operand, scope)
            return
        if isinstance(expr, A.Call):
            self._check_call(expr, scope, stmt_level)
            return
        self.error("UNKNOWN_EXPR", f"unknown expression {type(expr).__name__}", expr)

    def _check_call(self, call: A.Call, scope: _Scope, stmt_level: bool) -> None:
        name = call.name
        arity: Optional[tuple] = None
        if name in self.func_arity:
            arity = self.func_arity[name]
        elif name in COLLECTIVES:
            arity = COLLECTIVES[name].arity
        elif name in POINT_TO_POINT:
            arity = POINT_TO_POINT[name]
        elif name in MPI_SETUP:
            arity = MPI_SETUP[name]
        elif name in MPI_QUERIES:
            arity = (0, 0)
        elif name in EXPR_BUILTINS:
            arity = EXPR_BUILTINS[name]
        elif name in STMT_BUILTINS:
            arity = STMT_BUILTINS[name]
        elif name in CHECK_BUILTINS:
            arity = CHECK_BUILTINS[name]
        else:
            self.error("UNKNOWN_FUNC", f"call to unknown function {name!r}", call)
        if arity is not None:
            lo, hi = arity
            if not (lo <= len(call.args) <= hi):
                self.error(
                    "ARITY",
                    f"{name} expects between {lo} and {hi} arguments, got {len(call.args)}",
                    call,
                )
        # MPI buffer arguments are passed by variable name; check the lvalues
        # exist, other arguments are plain expressions.
        for arg in call.args:
            self._check_expr(arg, scope)


def check_program(program: A.Program, strict: bool = False) -> List[SemanticIssue]:
    """Run all semantic checks.

    With ``strict=True`` raise :class:`SemanticError` when any *error*
    severity issue is found (warnings never raise).
    """
    issues = Checker(program).check()
    if strict:
        errors = [i for i in issues if i.severity == "error"]
        if errors:
            raise SemanticError(errors)
    return issues
