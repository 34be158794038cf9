"""Constant folding and algebraic simplification (AST → AST).

Part of the baseline middle end: the paper's overhead is measured against a
*full* compile, so the pipeline runs a realistic set of optimizations in
every mode.  Folding is pure and position-preserving; it never removes
statements (DCE is a separate concern) but simplifies branch conditions so
downstream passes see ``if (true)``/``if (false)`` explicitly.
"""

from __future__ import annotations

from typing import Optional, Union

from ..minilang import ast_nodes as A

Number = Union[int, float]


def _is_const(expr: A.Expr) -> bool:
    return isinstance(expr, (A.IntLit, A.FloatLit, A.BoolLit))


def _value(expr: A.Expr):
    return expr.value  # type: ignore[union-attr]


def _make_lit(value, like: A.Expr) -> A.Expr:
    if isinstance(value, bool):
        return A.BoolLit(value=value, line=like.line, col=like.col)
    if isinstance(value, int):
        return A.IntLit(value=value, line=like.line, col=like.col)
    return A.FloatLit(value=float(value), line=like.line, col=like.col)


def fold_expr(expr: A.Expr) -> A.Expr:
    """Return a (possibly) folded copy of ``expr``."""
    if isinstance(expr, A.BinOp):
        left = fold_expr(expr.left)
        right = fold_expr(expr.right)
        if _is_const(left) and _is_const(right):
            folded = _eval_binop(expr.op, _value(left), _value(right))
            if folded is not None:
                return _make_lit(folded, expr)
        simplified = _algebraic(expr.op, left, right, expr)
        if simplified is not None:
            return simplified
        return A.BinOp(op=expr.op, left=left, right=right, line=expr.line, col=expr.col)
    if isinstance(expr, A.UnaryOp):
        operand = fold_expr(expr.operand)
        if _is_const(operand):
            if expr.op == "-":
                return _make_lit(-_value(operand), expr)
            if expr.op == "!":
                return A.BoolLit(value=not _value(operand), line=expr.line, col=expr.col)
        if expr.op == "-" and isinstance(operand, A.UnaryOp) and operand.op == "-":
            return operand.operand  # --x = x
        return A.UnaryOp(op=expr.op, operand=operand, line=expr.line, col=expr.col)
    if isinstance(expr, A.Call):
        return A.Call(
            name=expr.name, args=[fold_expr(a) for a in expr.args],
            line=expr.line, col=expr.col,
        )
    if isinstance(expr, A.ArrayRef):
        return A.ArrayRef(name=expr.name, index=fold_expr(expr.index),
                          line=expr.line, col=expr.col)
    return expr


def _eval_binop(op: str, a, b) -> Optional[Number | bool]:
    try:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0:
                return None  # keep the runtime error behaviour
            if isinstance(a, int) and isinstance(b, int):
                return int(a / b)
            return a / b
        if op == "%":
            if b == 0:
                return None
            if isinstance(a, int) and isinstance(b, int):
                import math
                return int(math.fmod(a, b))
            return None
        if op == "==":
            return a == b
        if op == "!=":
            return a != b
        if op == "<":
            return a < b
        if op == ">":
            return a > b
        if op == "<=":
            return a <= b
        if op == ">=":
            return a >= b
        if op == "&&":
            return bool(a) and bool(b)
        if op == "||":
            return bool(a) or bool(b)
    except TypeError:
        return None
    return None


def _algebraic(op: str, left: A.Expr, right: A.Expr, orig: A.BinOp) -> Optional[A.Expr]:
    """Identity simplifications that are safe for int/float alike."""
    def is_zero(e: A.Expr) -> bool:
        return isinstance(e, (A.IntLit, A.FloatLit)) and _value(e) == 0

    def is_one(e: A.Expr) -> bool:
        return isinstance(e, (A.IntLit, A.FloatLit)) and _value(e) == 1

    if op == "+":
        if is_zero(left):
            return right
        if is_zero(right):
            return left
    elif op == "-":
        if is_zero(right):
            return left
    elif op == "*":
        if is_one(left):
            return right
        if is_one(right):
            return left
    elif op == "/":
        if is_one(right):
            return left
    elif op == "&&":
        if isinstance(left, A.BoolLit):
            return right if left.value else A.BoolLit(value=False, line=orig.line, col=orig.col)
    elif op == "||":
        if isinstance(left, A.BoolLit):
            return A.BoolLit(value=True, line=orig.line, col=orig.col) if left.value else right
    return None


class _Folder:
    """Statement-level walker applying :func:`fold_expr` everywhere."""

    def fold_stmt(self, stmt: A.Stmt) -> A.Stmt:
        if isinstance(stmt, A.VarDecl):
            return A.VarDecl(
                type_name=stmt.type_name, name=stmt.name,
                init=fold_expr(stmt.init) if stmt.init is not None else None,
                array_size=fold_expr(stmt.array_size) if stmt.array_size is not None else None,
                line=stmt.line, col=stmt.col,
            )
        if isinstance(stmt, A.Assign):
            return A.Assign(target=fold_expr(stmt.target), op=stmt.op,
                            value=fold_expr(stmt.value), line=stmt.line, col=stmt.col)
        if isinstance(stmt, A.ExprStmt):
            return A.ExprStmt(expr=fold_expr(stmt.expr), line=stmt.line, col=stmt.col)
        if isinstance(stmt, A.Return):
            return A.Return(
                value=fold_expr(stmt.value) if stmt.value is not None else None,
                line=stmt.line, col=stmt.col,
            )
        if isinstance(stmt, A.Block):
            return self.fold_block(stmt)
        if isinstance(stmt, A.If):
            return A.If(cond=fold_expr(stmt.cond),
                        then_body=self.fold_block(stmt.then_body),
                        else_body=self.fold_block(stmt.else_body) if stmt.else_body else None,
                        line=stmt.line, col=stmt.col)
        if isinstance(stmt, A.While):
            return A.While(cond=fold_expr(stmt.cond), body=self.fold_block(stmt.body),
                           line=stmt.line, col=stmt.col)
        if isinstance(stmt, A.For):
            return A.For(
                init=self.fold_stmt(stmt.init) if stmt.init is not None else None,
                cond=fold_expr(stmt.cond) if stmt.cond is not None else None,
                step=self.fold_stmt(stmt.step) if stmt.step is not None else None,
                body=self.fold_block(stmt.body), line=stmt.line, col=stmt.col,
            )
        if isinstance(stmt, A.OmpParallel):
            return A.OmpParallel(
                body=self.fold_block(stmt.body),
                num_threads=fold_expr(stmt.num_threads) if stmt.num_threads is not None else None,
                private=list(stmt.private), shared=list(stmt.shared),
                line=stmt.line, col=stmt.col,
            )
        if isinstance(stmt, A.OmpSingle):
            return A.OmpSingle(body=self.fold_block(stmt.body), nowait=stmt.nowait,
                               line=stmt.line, col=stmt.col)
        if isinstance(stmt, A.OmpMaster):
            return A.OmpMaster(body=self.fold_block(stmt.body), line=stmt.line, col=stmt.col)
        if isinstance(stmt, A.OmpCritical):
            return A.OmpCritical(body=self.fold_block(stmt.body), name=stmt.name,
                                 line=stmt.line, col=stmt.col)
        if isinstance(stmt, A.OmpTask):
            return A.OmpTask(body=self.fold_block(stmt.body), line=stmt.line, col=stmt.col)
        if isinstance(stmt, A.OmpFor):
            folded_loop = self.fold_stmt(stmt.loop)
            assert isinstance(folded_loop, A.For)
            return A.OmpFor(loop=folded_loop, nowait=stmt.nowait, schedule=stmt.schedule,
                            line=stmt.line, col=stmt.col)
        if isinstance(stmt, A.OmpSections):
            return A.OmpSections(sections=[self.fold_block(s) for s in stmt.sections],
                                 nowait=stmt.nowait, line=stmt.line, col=stmt.col)
        return stmt  # Break/Continue/OmpBarrier

    def fold_block(self, block: A.Block) -> A.Block:
        return A.Block(stmts=[self.fold_stmt(s) for s in block.stmts],
                       line=block.line, col=block.col)


def fold_program(program: A.Program) -> A.Program:
    """Constant-fold a whole program (returns a new AST)."""
    folder = _Folder()
    funcs = [
        A.FuncDef(ret_type=f.ret_type, name=f.name, params=list(f.params),
                  body=folder.fold_block(f.body), line=f.line, col=f.col)
        for f in program.funcs
    ]
    return A.Program(funcs=funcs, filename=program.filename,
                     line=program.line, col=program.col)
