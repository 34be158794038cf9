"""The tree-walking minilang interpreter: the test-only reference for the
compiled one in :mod:`repro.runtime.interp.interpreter`.

This is the interpreter that walked the AST on every run, kept so the
closures each function is lowered to can be checked against it output for
output, verdict for verdict and footprint for footprint.  Its
:class:`Interpreter` takes the same arguments as the compiled one, so
binding it as ``repro.runtime.run.Interpreter`` runs every program, sweep
and fuzz seed on the tree-walker (:func:`reference_runtime`).

What follows is the original module, unchanged but for absolute imports and
the helper at the end.  It describes itself:

Tree-walking interpreter for minilang on simmpi + simomp.

One interpreter instance runs per MPI rank; each OpenMP team thread executes
interpreter code re-entrantly with its own :class:`ExecCtx`.  MPI calls route
through the rank's :class:`MpiProcess` (thread-level guard + collective
engine); the inserted ``PARCOACH_*`` calls route to
:class:`~repro.runtime.checks.CheckState`.

Logical threads are generators the world's scheduler resumes: code that
can reach a SchedPoint (an MPI operation, an inserted check, an OpenMP
construct, a call of a function that reaches one) runs on the generator
path, reached by ``yield from``, and all other code keeps the direct call
path (``exec_stmt``, ``eval``), as decided once per node, by uid
(:meth:`Interpreter._blocks`).  Loops and OpenMP constructs exist only as
generators, which the direct path drives to their end; the other
constructs share value-level helpers between the two paths.  Every
statement and loop iteration checks the abort flag and the run's
cooperative deadline (``MpiWorld.check``).
"""

from __future__ import annotations

import contextlib
import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.minilang import ast_nodes as A
from repro.runtime.checks import CheckState
from repro.runtime.interp.env import Env, InterpError
from repro.runtime.simmpi.process import MpiProcess
from repro.runtime.simomp import Team

_MAX_CALL_DEPTH = 200

#: Python frames one level of minilang calls may take, nested statements
#: and expressions included.  Every ``_ROOM_EVERY`` nested calls, a call
#: makes sure the recursion limit has room for the levels still allowed
#: above it, so the call-depth limit, not the caller's stack depth, decides
#: where a recursion ends.
_FRAMES_PER_CALL = 25
_ROOM_EVERY = 16

#: Seconds ``MPI_Wtime`` counts per unit of the compute clock ``work(n)``
#: advances: about one iteration of the LCG loop ``work`` once ran, on a
#: 2-vCPU x86-64 host with CPython 3.11.
WTIME_UNIT = 1e-7

_NON_CANONICAL = "omp for requires a canonical for loop"

_LOOP_TESTS = {"<": operator.lt, "<=": operator.le,
               ">": operator.gt, ">=": operator.ge}

#: How each collective reads its arguments, in evaluation order (``root``:
#: an int; ``red``: a reduction op; ``send``: the payload; ``root send``:
#: the payload, read at the root only), which argument its result is
#: stored to, and when: ``always``, ``at root`` or ``if any`` (unless the
#: result is None).
_COLLECTIVE_ARGS = {
    "MPI_Barrier": ((), None, None),
    "MPI_Finalize": ((), None, None),
    "MPI_Bcast": ((("root", 1), ("root send", 0)), 0, "always"),
    "MPI_Reduce": ((("send", 0), ("red", 2), ("root", 3)), 1, "at root"),
    "MPI_Allreduce": ((("send", 0), ("red", 2)), 1, "always"),
    "MPI_Gather": ((("send", 0), ("root", 2)), 1, "at root"),
    "MPI_Scatter": ((("root", 2), ("root send", 0)), 1, "always"),
    "MPI_Allgather": ((("send", 0),), 1, "always"),
    "MPI_Alltoall": ((("send", 0),), 1, "always"),
    "MPI_Scan": ((("send", 0), ("red", 2)), 1, "if any"),
    "MPI_Exscan": ((("send", 0), ("red", 2)), 1, "if any"),
    "MPI_Reduce_scatter_block": ((("red", 2), ("send", 0)), 1, "always"),
}
_MPI_OPS = frozenset(_COLLECTIVE_ARGS) | {"MPI_Send", "MPI_Recv", "MPI_Sendrecv"}


class _BreakEx(Exception):
    pass


class _ContinueEx(Exception):
    pass


class _ReturnEx(Exception):
    def __init__(self, value: Any) -> None:
        super().__init__()
        self.value = value


@dataclass
class ExecCtx:
    """Per-thread execution context."""

    team: Optional[Team] = None
    tid: int = 0
    call_depth: int = 0
    #: construct uid -> how many times *this thread* encountered it
    #: (drives single/sections claim generations).
    encounters: Dict[int, int] = field(default_factory=dict)

    def nested(self, team: Team, tid: int) -> "ExecCtx":
        return ExecCtx(team=team, tid=tid, call_depth=self.call_depth)

    def next_encounter(self, uid: int) -> int:
        n = self.encounters.get(uid, 0)
        self.encounters[uid] = n + 1
        return n


class Interpreter:
    def __init__(self, program: A.Program, proc: MpiProcess,
                 check_state: Optional[CheckState] = None,
                 num_threads: int = 2) -> None:
        self.program = program
        self.proc = proc
        self.world = proc.world
        self.checks = check_state or CheckState(proc)
        self.num_threads = num_threads
        self.funcs = {f.name: f for f in program.funcs}
        # Bound once, so the per-statement hooks skip the world's proxy.
        self._check = self.world.check
        self._note_access = self.world.scheduler.note_access
        # uid -> whether running the node can reach a SchedPoint, kept with
        # the program for its later runs while its functions keep their
        # ``structure_version`` markers (in-place instrumentation bumps them).
        shape = tuple((f.uid, getattr(f, "structure_version", 0))
                      for f in program.funcs)
        memo = getattr(program, "_blocking", None)
        if memo is None or memo[0] != shape:
            memo = program._blocking = (shape, {})
        self._blocking: Dict[int, bool] = memo[1]
        # Shared-variable access tracking for schedule exploration: reads
        # and writes of cells visible to a team of >1 threads feed the
        # running segment's footprint.  Objects (cells, arrays) are labeled
        # lazily in first-access order — deterministic within one scheduled
        # run, which is the only scope footprints are ever compared in.
        self._labels: Dict[int, str] = {}
        #: Every labeled object, kept alive so its id is never reused.
        self._labeled: List[object] = []

    # -- shared-access tracking ----------------------------------------------

    @staticmethod
    def _tracking(ctx: ExecCtx) -> bool:
        return ctx.team is not None and ctx.team.size > 1

    def _label(self, obj: object, name: str) -> str:
        key = id(obj)
        label = self._labels.get(key)
        if label is None:
            label = f"r{self.proc.rank}:{name}#{len(self._labels)}"
            self._labels[key] = label
            self._labeled.append(obj)
        return label

    # -- which path ---------------------------------------------------------------

    def _blocks(self, node: A.Node) -> bool:
        """Whether running ``node`` can reach a SchedPoint.  While a
        function is being decided, a call back into it counts as reaching
        one: a recursion takes the generator path, which runs any code."""
        known = self._blocking.get(node.uid)
        if known is None:
            self._blocking[node.uid] = True
            known = self._blocking[node.uid] = self._reaches(node)
        return known

    def _reaches(self, node: A.Node) -> bool:
        if isinstance(node, A.OmpStmt):
            return True
        if isinstance(node, A.Call):
            if node.name in _MPI_OPS or node.name in _CHECK_IMPL:
                return True
            func = self.funcs.get(node.name)
            if func is not None and self._blocks(func.body):
                return True
        return any(self._blocks(child) for child in node.children())

    def _run_stmt(self, stmt: A.Stmt, env: Env, ctx: ExecCtx):
        """Run ``stmt`` on its path; ``yield from`` the result (``()`` once
        it has run directly)."""
        if self._blocks(stmt):
            self._check()
            return self._g_stmt(stmt, env, ctx)
        self.exec_stmt(stmt, env, ctx)
        return ()

    def _run_block(self, block: A.Block, env: Env, ctx: ExecCtx):
        """Run ``block`` on its path; ``yield from`` the result."""
        if self._blocks(block):
            return self._g_block(block, env, ctx)
        self.exec_block(block, env, ctx)
        return ()

    def _g_value(self, expr: A.Expr, env: Env, ctx: ExecCtx):
        """``expr``'s value on the generator path."""
        if self._blocks(expr):
            return (yield from self._g_eval(expr, env, ctx))
        return self.eval(expr, env, ctx)

    # -- entry ---------------------------------------------------------------------

    def run(self, entry: str = "main", args: tuple = ()):
        """The rank's main thread: a generator for the world's scheduler."""
        if entry not in self.funcs:
            raise InterpError(f"no entry function {entry!r}")
        return (yield from self._g_call_function(self.funcs[entry],
                                                 list(args), ExecCtx()))

    def _enter(self, func: A.FuncDef, args: List[Any],
               ctx: ExecCtx) -> tuple:
        """A call's checks and frame: the callee's environment and context."""
        if ctx.call_depth >= _MAX_CALL_DEPTH:
            raise InterpError(f"call depth exceeded in {func.name}")
        if ctx.call_depth % _ROOM_EVERY == _ROOM_EVERY - 1:
            _make_room((_MAX_CALL_DEPTH - ctx.call_depth) * _FRAMES_PER_CALL)
        if len(args) != len(func.params):
            raise InterpError(
                f"{func.name} expects {len(func.params)} args, got {len(args)}"
            )
        env = Env()
        for param, value in zip(func.params, args):
            env.declare(param.name, value)
        inner = ExecCtx(team=ctx.team, tid=ctx.tid,
                        call_depth=ctx.call_depth + 1, encounters=ctx.encounters)
        return env.child(), inner

    def call_function(self, func: A.FuncDef, args: List[Any], ctx: ExecCtx) -> Any:
        """Call ``func``, whose body reaches no SchedPoint."""
        env, inner = self._enter(func, args, ctx)
        try:
            self.exec_block(func.body, env, inner)
        except _ReturnEx as ret:
            return ret.value
        return None

    def _g_call_function(self, func: A.FuncDef, args: List[Any], ctx: ExecCtx):
        env, inner = self._enter(func, args, ctx)
        try:
            yield from self._run_block(func.body, env, inner)
        except _ReturnEx as ret:
            return ret.value
        return None

    # -- statements: the direct path -------------------------------------------------

    def exec_block(self, block: A.Block, env: Env, ctx: ExecCtx) -> None:
        for stmt in block.stmts:
            self.exec_stmt(stmt, env, ctx)

    def exec_stmt(self, stmt: A.Stmt, env: Env, ctx: ExecCtx) -> None:
        """Run ``stmt``, which reaches no SchedPoint: simple statements and
        branches here, loops and blocks by driving :meth:`_g_stmt` to its
        end."""
        self._check()
        if isinstance(stmt, A.Assign):
            value = self.eval(stmt.value, env, ctx)
            target = stmt.target
            self._assign(stmt, value, env, ctx, self.eval(target.index, env, ctx)
                         if isinstance(target, A.ArrayRef) else None)
        elif isinstance(stmt, A.ExprStmt):
            self.eval(stmt.expr, env, ctx)
        elif isinstance(stmt, A.VarDecl):
            expr = stmt.init if stmt.array_size is None else stmt.array_size
            self._declare(stmt, None if expr is None
                          else self.eval(expr, env, ctx), env)
        elif isinstance(stmt, A.If):
            body = stmt.then_body if self.eval(stmt.cond, env, ctx) else stmt.else_body
            if body is not None:
                self.exec_block(body, env.child(), ctx)
        elif isinstance(stmt, A.Return):
            raise _ReturnEx(self.eval(stmt.value, env, ctx)
                            if stmt.value is not None else None)
        else:
            for _ in self._g_stmt(stmt, env, ctx):
                raise InterpError(f"{type(stmt).__name__} on line {stmt.line} "
                                  f"reached a scheduling point directly")

    # -- statements: the generator path ----------------------------------------------

    def _g_block(self, block: A.Block, env: Env, ctx: ExecCtx):
        for stmt in block.stmts:
            if self._blocks(stmt):
                self._check()
                yield from self._g_stmt(stmt, env, ctx)
            else:
                self.exec_stmt(stmt, env, ctx)

    def _g_stmt(self, stmt: A.Stmt, env: Env, ctx: ExecCtx):
        """Run ``stmt`` on the generator path; its caller has checked."""
        if isinstance(stmt, A.VarDecl):
            expr = stmt.init if stmt.array_size is None else stmt.array_size
            self._declare(stmt, None if expr is None else
                          (yield from self._g_value(expr, env, ctx)), env)
        elif isinstance(stmt, A.Assign):
            value = yield from self._g_value(stmt.value, env, ctx)
            target = stmt.target
            self._assign(stmt, value, env, ctx, (yield from self._g_value(
                target.index, env, ctx)) if isinstance(target, A.ArrayRef) else None)
        elif isinstance(stmt, A.ExprStmt):
            yield from self._g_value(stmt.expr, env, ctx)
        elif isinstance(stmt, A.Block):
            yield from self._run_block(stmt, env.child(), ctx)
        elif isinstance(stmt, A.If):
            taken = yield from self._g_value(stmt.cond, env, ctx)
            body = stmt.then_body if taken else stmt.else_body
            if body is not None:
                yield from self._run_block(body, env.child(), ctx)
        elif isinstance(stmt, A.While):
            yield from self._g_loop(stmt.cond, None, stmt.body, env, ctx)
        elif isinstance(stmt, A.For):
            loop_env = env.child()
            if stmt.init is not None:
                yield from self._run_stmt(stmt.init, loop_env, ctx)
            yield from self._g_loop(stmt.cond, stmt.step, stmt.body,
                                    loop_env, ctx)
        elif isinstance(stmt, A.Return):
            raise _ReturnEx(None if stmt.value is None else
                            (yield from self._g_value(stmt.value, env, ctx)))
        elif isinstance(stmt, A.Break):
            raise _BreakEx()
        elif isinstance(stmt, A.Continue):
            raise _ContinueEx()
        elif isinstance(stmt, A.OmpStmt):
            yield from self._g_omp(stmt, env, ctx)
        else:
            raise InterpError(f"cannot execute {type(stmt).__name__}")

    def _g_loop(self, cond: Optional[A.Expr], step: Optional[A.Stmt],
                body: A.Block, env: Env, ctx: ExecCtx):
        """``while (cond) body`` (``for`` adds ``step`` after each pass);
        every iteration checks the abort flag and the deadline."""
        cond_blocks = cond is not None and self._blocks(cond)
        body_blocks = self._blocks(body)
        while cond is None or ((yield from self._g_eval(cond, env, ctx))
                               if cond_blocks else self.eval(cond, env, ctx)):
            self._check()
            try:
                if body_blocks:
                    yield from self._g_block(body, env.child(), ctx)
                else:
                    self.exec_block(body, env.child(), ctx)
            except _BreakEx:
                break
            except _ContinueEx:
                pass
            if step is not None:
                yield from self._run_stmt(step, env, ctx)

    # -- simple statements' semantics ---------------------------------------------------

    @staticmethod
    def _declare(stmt: A.VarDecl, value: Any, env: Env) -> None:
        """Declare ``stmt``'s variable; ``value`` is its array size or its
        initializer's value (``None`` when it has neither)."""
        if stmt.array_size is not None:
            init = 0.0 if stmt.type_name == "float" else 0
            env.declare(stmt.name, [init] * int(value))
        elif stmt.init is not None:
            env.declare(stmt.name, value)
        else:
            env.declare(stmt.name, _default(stmt.type_name))

    def _assign(self, stmt: A.Assign, value: Any, env: Env, ctx: ExecCtx,
                index: Any) -> None:
        """Store ``value`` through ``stmt``'s target: a variable, or the
        element at ``index`` (evaluated by the caller) of an array."""
        target, op = stmt.target, stmt.op
        if isinstance(target, A.VarRef):
            touched = env.cell(target.name)
            touched.value = value if op == "=" else _apply_compound(op, touched.value, value)
        elif isinstance(target, A.ArrayRef):
            arr = env.get(target.name)
            index = int(index)
            if not isinstance(arr, list):
                raise InterpError(f"{target.name} is not an array")
            if not (0 <= index < len(arr)):
                raise InterpError(
                    f"index {index} out of bounds for {target.name}[{len(arr)}]"
                )
            arr[index] = value if op == "=" else _apply_compound(op, arr[index], value)
            touched = arr
        else:
            raise InterpError("bad assignment target")
        if self._tracking(ctx):
            self._note_access(self._label(touched, target.name), "w")

    # -- OpenMP (generators only) ----------------------------------------------------

    def _g_omp(self, stmt: A.OmpStmt, env: Env, ctx: ExecCtx):
        team = ctx.team
        if isinstance(stmt, A.OmpBarrier):
            if team is not None:
                yield from team.barrier()
        elif isinstance(stmt, A.OmpParallel):
            size = self.num_threads
            if stmt.num_threads is not None:
                size = max(1, int((yield from self._g_value(stmt.num_threads,
                                                            env, ctx))))
            new_team = Team(self.world, self.proc, size)
            private_init = {
                name: (env.get(name) if env.is_declared(name) else 0)
                for name in stmt.private
            }

            def body(tid: int):
                tctx = ctx.nested(new_team, tid)
                tenv = env.child()
                for name, value in private_init.items():
                    tenv.declare(name, value)
                yield from self._run_block(stmt.body, tenv, tctx)
                yield from new_team.barrier()  # the region's implicit join barrier

            yield from new_team.run(body)
        elif isinstance(stmt, A.OmpSingle):
            if team is None or (yield from team.claim(
                    stmt.uid, ctx.next_encounter(stmt.uid), ctx.tid)):
                yield from self._run_block(stmt.body, env.child(), ctx)
            if team is not None and not stmt.nowait:
                yield from team.barrier()
        elif isinstance(stmt, A.OmpMaster):
            if team is None or ctx.tid == 0:
                yield from self._run_block(stmt.body, env.child(), ctx)
        elif isinstance(stmt, A.OmpCritical):
            lock = self.proc.critical_lock(stmt.name or "<anon>")
            yield from lock.acquire()
            try:
                yield from self._run_block(stmt.body, env.child(), ctx)
            finally:
                lock.release()
        elif isinstance(stmt, A.OmpTask):
            # Executed inline by the encountering thread (undeferred task).
            yield from self._run_block(stmt.body, env.child(), ctx)
        elif isinstance(stmt, A.OmpFor):
            loop = stmt.loop
            if not isinstance(loop.init, A.VarDecl) or loop.cond is None or loop.step is None:
                raise InterpError(_NON_CANONICAL)
            start = 0
            if loop.init.init is not None:
                start = yield from self._g_value(loop.init.init, env, ctx)
            if not isinstance(loop.cond, A.BinOp) or loop.cond.op not in _LOOP_TESTS:
                raise InterpError("omp for condition must compare the loop variable")
            bound = yield from self._g_value(loop.cond.right, env, ctx)
            if not isinstance(loop.step, A.Assign) or loop.step.op not in ("+=", "-="):
                raise InterpError("omp for step must be += or -=")
            step = yield from self._g_value(loop.step.value, env, ctx)
            if loop.step.op == "-=":
                step = -step
            if step == 0:
                raise InterpError("omp for step must be nonzero")
            values = _iterations(start, loop.cond.op, bound, step)
            for i in (range(len(values)) if team is None
                      else team.static_chunk(ctx.tid, len(values))):
                self._check()
                iter_env = env.child()
                iter_env.declare(loop.init.name, values[i])
                try:
                    yield from self._run_block(loop.body, iter_env, ctx)
                except _ContinueEx:
                    continue
            if team is not None and not stmt.nowait:
                yield from team.barrier()
        elif isinstance(stmt, A.OmpSections):
            for i, section in enumerate(stmt.sections):
                if team is None or team.section_owner(i) == ctx.tid:
                    yield from self._run_block(section, env.child(), ctx)
            if team is not None and not stmt.nowait:
                yield from team.barrier()
        else:
            raise InterpError(f"cannot execute OpenMP node {type(stmt).__name__}")

    # -- expressions -----------------------------------------------------------------------

    def eval(self, expr: A.Expr, env: Env, ctx: ExecCtx) -> Any:
        """``expr``'s value, for an expression that reaches no SchedPoint."""
        if isinstance(expr, A.IntLit):
            return expr.value
        if isinstance(expr, A.FloatLit):
            return expr.value
        if isinstance(expr, A.BoolLit):
            return expr.value
        if isinstance(expr, A.StringLit):
            return expr.value
        if isinstance(expr, A.VarRef):
            if self._tracking(ctx):
                cell = env.cell(expr.name)
                self._note_access(self._label(cell, expr.name), "r")
                return cell.value
            return env.get(expr.name)
        if isinstance(expr, A.ArrayRef):
            return self._element(expr, self.eval(expr.index, env, ctx), env, ctx)
        if isinstance(expr, A.UnaryOp):
            return _unary(expr.op, self.eval(expr.operand, env, ctx))
        if isinstance(expr, A.BinOp):
            op = expr.op
            if op == "&&":
                return bool(self.eval(expr.left, env, ctx)) and bool(self.eval(expr.right, env, ctx))
            if op == "||":
                return bool(self.eval(expr.left, env, ctx)) or bool(self.eval(expr.right, env, ctx))
            return _binop(op, self.eval(expr.left, env, ctx),
                          self.eval(expr.right, env, ctx))
        if isinstance(expr, A.Call):
            return self._eval_call(expr, env, ctx)
        raise InterpError(f"cannot evaluate {type(expr).__name__}")

    def _eval_call(self, call: A.Call, env: Env, ctx: ExecCtx) -> Any:
        # Apart from eval: the comprehension's closure would cost every
        # evaluation three cells.
        impl = _BUILTIN_IMPL.get(call.name)
        func = None if impl is not None else self._callee(call)
        args = [self.eval(a, env, ctx) for a in call.args]
        if impl is not None:
            return impl(self, ctx, args)
        return self.call_function(func, args, ctx)

    def _g_eval(self, expr: A.Expr, env: Env, ctx: ExecCtx):
        """``expr``'s value on the generator path: a call that reaches a
        SchedPoint, or an operator over one."""
        if isinstance(expr, A.Call):
            return (yield from self._g_call(expr, env, ctx))
        if isinstance(expr, A.BinOp):
            op = expr.op
            left = yield from self._g_value(expr.left, env, ctx)
            if op == "&&":
                return bool(left) and bool((yield from self._g_value(expr.right, env, ctx)))
            if op == "||":
                return bool(left) or bool((yield from self._g_value(expr.right, env, ctx)))
            return _binop(op, left, (yield from self._g_value(expr.right, env, ctx)))
        if isinstance(expr, A.UnaryOp):
            return _unary(expr.op, (yield from self._g_value(expr.operand, env, ctx)))
        if isinstance(expr, A.ArrayRef):
            index = yield from self._g_value(expr.index, env, ctx)
            return self._element(expr, index, env, ctx)
        raise InterpError(f"cannot evaluate {type(expr).__name__}")

    def _element(self, expr: A.ArrayRef, index: Any, env: Env,
                 ctx: ExecCtx) -> Any:
        arr = env.get(expr.name)
        index = int(index)
        if not isinstance(arr, list):
            raise InterpError(f"{expr.name} is not an array")
        if not (0 <= index < len(arr)):
            raise InterpError(
                f"index {index} out of bounds for {expr.name}[{len(arr)}]"
            )
        value = arr[index]
        if self._tracking(ctx):
            self._note_access(self._label(arr, expr.name), "r")
        return value

    # -- calls ------------------------------------------------------------------------------

    def _callee(self, call: A.Call) -> A.FuncDef:
        func = self.funcs.get(call.name)
        if func is None:
            raise InterpError(f"call to unknown function {call.name!r}")
        return func

    def _g_call(self, call: A.Call, env: Env, ctx: ExecCtx):
        name = call.name
        if name in _MPI_OPS:
            return (yield from self._g_mpi(call, env, ctx))
        check = _CHECK_IMPL.get(name)
        impl = _BUILTIN_IMPL.get(name)
        func = None if check is not None or impl is not None else self._callee(call)
        args = []
        for a in call.args:
            args.append((yield from self._g_value(a, env, ctx)))
        if check is not None:
            return (yield from check(self, call, args))
        if impl is not None:
            return impl(self, ctx, args)
        if self._blocks(func.body):
            return (yield from self._g_call_function(func, args, ctx))
        return self.call_function(func, args, ctx)

    # -- MPI (generators only) -------------------------------------------------------------

    def _g_store(self, expr: A.Expr, value: Any, env: Env, ctx: ExecCtx,
                 what: str):
        """Write an MPI result back through an lvalue (variable or array
        element)."""
        if isinstance(expr, A.VarRef):
            touched = env.cell(expr.name)
            touched.value = value
        elif isinstance(expr, A.ArrayRef):
            touched = env.get(expr.name)
            index = int((yield from self._g_value(expr.index, env, ctx)))
            if not isinstance(touched, list) or not (0 <= index < len(touched)):
                raise InterpError(f"{what}: bad array element {expr.name}[{index}]")
            touched[index] = value
        else:
            raise InterpError(f"{what} buffer argument must be an lvalue")
        if self._tracking(ctx):
            self._note_access(self._label(touched, expr.name), "w")

    def _g_mpi(self, call: A.Call, env: Env, ctx: ExecCtx):
        name = call.name
        proc = self.proc
        line = call.line
        a = call.args
        value = self._g_value
        if name in _COLLECTIVE_ARGS:
            reads, buffer, when = _COLLECTIVE_ARGS[name]
            root = red = payload = None
            for kind, i in reads:
                if kind == "red":
                    red = yield from value(a[i], env, ctx)
                    if not isinstance(red, str):
                        raise InterpError("reduction op must be a string: "
                                          "'sum'|'prod'|'min'|'max'")
                elif kind == "root":
                    root = int((yield from value(a[i], env, ctx)))
                elif kind == "send" or proc.rank == root:
                    payload = yield from value(a[i], env, ctx)
            signature = tuple(v for v in (root, red) if v is not None)
            result = yield from proc.collective(name, signature, payload,
                                                line=line)
            if buffer is None:
                return result
            if (when == "always" or (when == "at root" and proc.rank == root)
                    or (when == "if any" and result is not None)):
                yield from self._g_store(a[buffer], result, env, ctx, name)
            return None
        # Point to point: MPI_Send(value, dest, tag), MPI_Recv(var, source,
        # tag) and MPI_Sendrecv(value, dest, tag, var, source, tag).
        if name != "MPI_Recv":
            send = yield from value(a[0], env, ctx)
            dest = int((yield from value(a[1], env, ctx)))
            tag = int((yield from value(a[2], env, ctx)))
        if name != "MPI_Send":
            var = 3 if name == "MPI_Sendrecv" else 0
            source = int((yield from value(a[var + 1], env, ctx)))
            rtag = int((yield from value(a[var + 2], env, ctx)))
        if name != "MPI_Recv":
            yield from proc.send(dest, tag, send, line=line)
        if name != "MPI_Send":
            result = yield from proc.recv(source, rtag, line=line)
            yield from self._g_store(a[var], result, env, ctx, name)
        return None


def _make_room(frames: int) -> None:
    """Let ``frames`` more Python frames fit above the caller's.  The
    recursion limit is only ever raised, so runs on several OS threads
    cannot take each other's room away."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    if sys.getrecursionlimit() < depth + frames:
        sys.setrecursionlimit(depth + frames)


def _iterations(start: Any, op: str, bound: Any, step: Any) -> Sequence[Any]:
    """The values the canonical loop of an ``omp for`` takes, in order —
    the sequential loop's: a ``range`` when they are ints (O(1) in the trip
    count), stepped out one by one otherwise.  A loop that steps away from
    its bound would never end, so it is not canonical."""
    test = _LOOP_TESTS[op]
    if not test(start, bound):
        return range(0)
    if (step > 0) != (op in ("<", "<=")):
        raise InterpError(_NON_CANONICAL)
    if isinstance(start, int) and isinstance(bound, int) and isinstance(step, int):
        return range(start, bound + {"<=": 1, ">=": -1}.get(op, 0), step)
    values = []
    v = start
    while test(v, bound):
        values.append(v)
        if v + step == v:  # the step vanishes in the float's precision
            raise InterpError(_NON_CANONICAL)
        v += step
    return values


def _default(type_name: str) -> Any:
    if type_name == "float":
        return 0.0
    if type_name == "bool":
        return False
    return 0


def _unary(op: str, value: Any) -> Any:
    if op == "-":
        return -value
    if op == "!":
        return not value
    raise InterpError(f"unknown unary {op}")


def _binop(op: str, left: Any, right: Any) -> Any:
    """``left op right`` for every operator but the short-circuit ones."""
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise InterpError("division by zero")
            if isinstance(left, int) and isinstance(right, int):
                return _c_idiv(left, right)
            return left / right
        if op == "%":
            if right == 0:
                raise InterpError("modulo by zero")
            if isinstance(left, int) and isinstance(right, int):
                return _c_imod(left, right)
            return _c_double_arith(op, left, right)
    except OverflowError:
        return _c_double_arith(op, left, right)
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == ">":
        return left > right
    if op == "<=":
        return left <= right
    if op == ">=":
        return left >= right
    raise InterpError(f"unknown operator {op}")


def _apply_compound(op: str, old: Any, value: Any) -> Any:
    try:
        if op == "+=":
            return old + value
        if op == "-=":
            return old - value
        if op == "*=":
            return old * value
        if op == "/=":
            if value == 0:
                raise InterpError("division by zero")
            if isinstance(old, int) and isinstance(value, int):
                return _c_idiv(old, value)
            return old / value
    except OverflowError:
        return _c_double_arith(op[0], old, value)
    raise InterpError(f"unknown compound op {op}")


def _c_double(value: Any) -> float:
    """``value`` as C converts it to ``double``: an int past the float
    range is ±inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _c_double_arith(op: str, left: Any, right: Any) -> float:
    """``left op right`` in C's ``double`` arithmetic: an int past the float
    range is ±inf (Python raises on meeting a float), and ``fmod`` of an
    infinity is ``nan`` (``math.fmod`` raises)."""
    left, right = _c_double(left), _c_double(right)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left / right
    return math.fmod(left, right) if math.isfinite(left) else math.nan


def _c_idiv(left: int, right: int) -> int:
    """C-style integer division (truncation toward zero) in exact integer
    arithmetic — ``int(left / right)`` detours through a float, which both
    loses precision and overflows once the program computes big values
    (found by ``parcoach fuzz``)."""
    q = abs(left) // abs(right)
    return -q if (left < 0) != (right < 0) else q


def _c_imod(left: int, right: int) -> int:
    """C-style remainder (sign of the dividend) in exact integer
    arithmetic; ``math.fmod`` overflows on big ints the same way."""
    m = abs(left) % abs(right)
    return -m if left < 0 else m


# --------------------------------------------------------------------------------
# Builtins: ``impl(interp, ctx, args)`` over the evaluated arguments.
# --------------------------------------------------------------------------------


def _fmt(value: Any) -> str:
    """Render one print argument.  Astronomically large ints (a fuzz-grown
    ``x *= x`` loop) would trip CPython's int-to-str digit limit — render a
    deterministic magnitude summary instead of crashing the run."""
    if isinstance(value, int) and not isinstance(value, bool):
        try:
            return str(value)
        except ValueError:  # exceeds sys.get_int_max_str_digits()
            sign = "-" if value < 0 else ""
            return f"{sign}<int ~10^{value.bit_length() * 30103 // 100000}>"
    return str(value)


def _b_print(interp: Interpreter, ctx: ExecCtx, args: List[Any]) -> None:
    interp.proc.output.append(" ".join(_fmt(value) for value in args))


def _b_work(interp: Interpreter, ctx: ExecCtx, args: List[Any]) -> int:
    """Simulated compute: ``n`` units on the calling thread's compute clock,
    and the state the 32-bit LCG ``x -> a*x + c`` reaches from 0 in ``n``
    steps, in O(log n): the map applied ``2**k`` times is squared along
    the bits of ``n`` (``n <= 0`` is no step)."""
    n = int(args[0])
    interp.world.scheduler.compute(max(n, 0))
    x, a, c = 0, 1103515245, 12345
    while n > 0:
        if n & 1:
            x = (a * x + c) & 0xFFFFFFFF
        a, c = (a * a) & 0xFFFFFFFF, (a * c + c) & 0xFFFFFFFF
        n >>= 1
    return x


def _b_sqrt(interp: Interpreter, ctx: ExecCtx, args: List[Any]) -> float:
    """C's ``sqrt``: ``nan`` below zero, and the integer root of an int past
    the float range (``inf`` once that root is past it too)."""
    value = args[0]
    if value < 0:
        return math.nan
    try:
        return math.sqrt(value)
    except OverflowError:
        try:
            return float(math.isqrt(value))
        except OverflowError:
            return math.inf


def _b_mod(interp: Interpreter, ctx: ExecCtx, args: List[Any]) -> Any:
    """Floor modulo, like Fortran's ``MODULO``: the result takes the
    divisor's sign, so ``mod(0 - 7, 4)`` is 1 where C's ``(0 - 7) % 4`` is
    -3.  HERA and NAS-MZ index arrays with ``mod(i, n)``, and floor modulo
    keeps a negative ``i`` in range.  An int past the float range meets a
    float as ±inf, as in the operators."""
    left, right = args[:2]
    if right == 0:
        raise InterpError("modulo by zero")
    try:
        return left % right
    except OverflowError:
        return _c_double(left) % _c_double(right)


def _b_wtime(interp: Interpreter, ctx: ExecCtx, args: List[Any]) -> float:
    """The calling thread's compute clock in seconds; ``inf`` once the clock
    is past the float range (``work`` of a value grown by ``x *= x``)."""
    try:
        return interp.world.scheduler.compute() * WTIME_UNIT
    except OverflowError:
        return math.inf


_BUILTIN_IMPL: Dict[str, Callable] = {
    "print": _b_print,
    "work": _b_work,
    "omp_get_thread_num": lambda i, x, a: x.tid,
    "omp_get_num_threads": lambda i, x, a: (x.team.size if x.team else 1),
    "omp_get_max_threads": lambda i, x, a: i.num_threads,
    "abs": lambda i, x, a: abs(a[0]),
    "min": lambda i, x, a: min(a[0], a[1]),
    "max": lambda i, x, a: max(a[0], a[1]),
    "sqrt": _b_sqrt,
    "mod": _b_mod,
    "MPI_Comm_rank": lambda i, x, a: i.proc.rank,
    "MPI_Comm_size": lambda i, x, a: i.world.nprocs,
    "MPI_Wtime": _b_wtime,
    "MPI_Init": lambda i, x, a: i.proc.init(),
    "MPI_Init_thread": lambda i, x, a: i.proc.init_thread(int(a[0])),
}

#: The inserted checks, scheduling decisions all: ``impl(interp, call,
#: args)`` returns the generator that runs the check.
_CHECK_IMPL: Dict[str, Callable] = {
    "PARCOACH_CC": lambda i, c, a: i.checks.cc(int(a[0]), str(a[1]), int(a[2])),
    "PARCOACH_ENTER": lambda i, c, a: i.checks.enter(int(a[0]), str(a[1]), c.line),
    "PARCOACH_EXIT": lambda i, c, a: i.checks.exit(int(a[0])),
}


@contextlib.contextmanager
def reference_runtime():
    """Run every program on this tree-walker inside the ``with`` block:
    ``run_program`` (and so every sweep, replay and fuzz oracle) builds its
    per-rank interpreters from this module."""
    from repro.runtime import run

    compiled = run.Interpreter
    run.Interpreter = Interpreter
    try:
        yield
    finally:
        run.Interpreter = compiled
