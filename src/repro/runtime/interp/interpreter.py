"""Tree-walking interpreter for minilang on simmpi + simomp.

One interpreter instance runs per MPI rank (inside that rank's thread); each
OpenMP team thread executes interpreter code re-entrantly with its own
:class:`ExecCtx`.  MPI calls route through the rank's :class:`MpiProcess`
(thread-level guard + collective engine); the inserted ``PARCOACH_*`` calls
route to :class:`~repro.runtime.checks.CheckState`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ...minilang import ast_nodes as A
from ...mpi.collectives import COLLECTIVES
from ..checks import CheckState
from ..errors import MpiRuntimeError
from ..simmpi.process import MpiProcess
from ..simomp import Team
from .env import Env, InterpError

_MAX_CALL_DEPTH = 200

#: Seconds ``MPI_Wtime`` counts per unit of the compute clock ``work(n)``
#: advances: about one iteration of the LCG loop ``work`` once ran, on a
#: 2-vCPU x86-64 host with CPython 3.11.
WTIME_UNIT = 1e-7


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
    depth: int = 0  # nesting depth of parallel regions
    call_depth: int = 0
    #: construct uid -> how many times *this thread* encountered it
    #: (drives single/sections claim generations).
    encounters: Dict[int, int] = field(default_factory=dict)

    def nested(self, team: Team, tid: int) -> "ExecCtx":
        return ExecCtx(team=team, tid=tid, depth=self.depth + 1,
                       call_depth=self.call_depth, encounters={})

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

    # -- entry -------------------------------------------------------------------

    def run(self, entry: str = "main", args: tuple = ()) -> Any:
        if entry not in self.funcs:
            raise InterpError(f"no entry function {entry!r}")
        return self.call_function(self.funcs[entry], list(args), ExecCtx())

    def call_function(self, func: A.FuncDef, args: List[Any], ctx: ExecCtx) -> Any:
        if ctx.call_depth >= _MAX_CALL_DEPTH:
            raise InterpError(f"call depth exceeded in {func.name}")
        if len(args) != len(func.params):
            raise InterpError(
                f"{func.name} expects {len(func.params)} args, got {len(args)}"
            )
        env = Env()
        for param, value in zip(func.params, args):
            env.declare(param.name, value)
        inner = ExecCtx(team=ctx.team, tid=ctx.tid, depth=ctx.depth,
                        call_depth=ctx.call_depth + 1,
                        encounters=ctx.encounters)
        try:
            self.exec_block(func.body, env.child(), inner)
        except _ReturnEx as ret:
            return ret.value
        return None

    # -- statements -----------------------------------------------------------------

    def exec_block(self, block: A.Block, env: Env, ctx: ExecCtx) -> None:
        for stmt in block.stmts:
            self.exec_stmt(stmt, env, ctx)

    def exec_stmt(self, stmt: A.Stmt, env: Env, ctx: ExecCtx) -> None:
        self.world.check_abort()
        if isinstance(stmt, A.VarDecl):
            if stmt.array_size is not None:
                size = int(self.eval(stmt.array_size, env, ctx))
                init = 0.0 if stmt.type_name == "float" else 0
                env.declare(stmt.name, [init] * size)
            else:
                value = self.eval(stmt.init, env, ctx) if stmt.init is not None else _default(stmt.type_name)
                env.declare(stmt.name, value)
        elif isinstance(stmt, A.Assign):
            self._assign(stmt, env, ctx)
        elif isinstance(stmt, A.ExprStmt):
            self.eval(stmt.expr, env, ctx, stmt_level=True)
        elif isinstance(stmt, A.Block):
            self.exec_block(stmt, env.child(), ctx)
        elif isinstance(stmt, A.If):
            if self.eval(stmt.cond, env, ctx):
                self.exec_block(stmt.then_body, env.child(), ctx)
            elif stmt.else_body is not None:
                self.exec_block(stmt.else_body, env.child(), ctx)
        elif isinstance(stmt, A.While):
            while self.eval(stmt.cond, env, ctx):
                try:
                    self.exec_block(stmt.body, env.child(), ctx)
                except _BreakEx:
                    break
                except _ContinueEx:
                    continue
        elif isinstance(stmt, A.For):
            self._exec_for(stmt, env, ctx)
        elif isinstance(stmt, A.Return):
            raise _ReturnEx(self.eval(stmt.value, env, ctx) if stmt.value is not None else None)
        elif isinstance(stmt, A.Break):
            raise _BreakEx()
        elif isinstance(stmt, A.Continue):
            raise _ContinueEx()
        elif isinstance(stmt, A.OmpStmt):
            self._exec_omp(stmt, env, ctx)
        else:
            raise InterpError(f"cannot execute {type(stmt).__name__}")

    def _exec_for(self, stmt: A.For, env: Env, ctx: ExecCtx) -> None:
        loop_env = env.child()
        if stmt.init is not None:
            self.exec_stmt(stmt.init, loop_env, ctx)
        while stmt.cond is None or self.eval(stmt.cond, loop_env, ctx):
            try:
                self.exec_block(stmt.body, loop_env.child(), ctx)
            except _BreakEx:
                break
            except _ContinueEx:
                pass
            if stmt.step is not None:
                self.exec_stmt(stmt.step, loop_env, ctx)

    def _assign(self, stmt: A.Assign, env: Env, ctx: ExecCtx) -> None:
        value = self.eval(stmt.value, env, ctx)
        target = stmt.target
        if isinstance(target, A.VarRef):
            cell = env.cell(target.name)
            if stmt.op == "=":
                cell.value = value
            else:
                cell.value = _apply_compound(stmt.op, cell.value, value)
            if self._tracking(ctx):
                self.world.note_access(self._label(cell, target.name), "w")
        elif isinstance(target, A.ArrayRef):
            arr = env.get(target.name)
            index = int(self.eval(target.index, env, ctx))
            if not isinstance(arr, list):
                raise InterpError(f"{target.name} is not an array")
            if not (0 <= index < len(arr)):
                raise InterpError(
                    f"index {index} out of bounds for {target.name}[{len(arr)}]"
                )
            if stmt.op == "=":
                arr[index] = value
            else:
                arr[index] = _apply_compound(stmt.op, arr[index], value)
            if self._tracking(ctx):
                self.world.note_access(self._label(arr, target.name), "w")
        else:
            raise InterpError("bad assignment target")

    # -- OpenMP ----------------------------------------------------------------------

    def _exec_omp(self, stmt: A.OmpStmt, env: Env, ctx: ExecCtx) -> None:
        if isinstance(stmt, A.OmpBarrier):
            if ctx.team is not None:
                ctx.team.barrier()
            return

        if isinstance(stmt, A.OmpParallel):
            size = self.num_threads
            if stmt.num_threads is not None:
                size = max(1, int(self.eval(stmt.num_threads, env, ctx)))
            team = Team(self.world, self.proc, size)
            private_init = {
                name: (env.get(name) if env.is_declared(name) else 0)
                for name in stmt.private
            }

            def body(tid: int) -> None:
                tctx = ctx.nested(team, tid)
                tenv = env.child()
                for name, value in private_init.items():
                    tenv.declare(name, value)
                self.exec_block(stmt.body, tenv, tctx)
                team.barrier()  # the region's implicit join barrier

            team.run(body)
            return

        if isinstance(stmt, A.OmpSingle):
            team, tid = ctx.team, ctx.tid
            if team is None:
                self.exec_block(stmt.body, env.child(), ctx)
                return
            encounter = ctx.next_encounter(stmt.uid)
            if team.claim(stmt.uid, encounter, tid):
                self.exec_block(stmt.body, env.child(), ctx)
            if not stmt.nowait:
                team.barrier()
            return

        if isinstance(stmt, A.OmpMaster):
            if ctx.team is None or ctx.tid == 0:
                self.exec_block(stmt.body, env.child(), ctx)
            return

        if isinstance(stmt, A.OmpCritical):
            lock = self.proc.critical_lock(stmt.name or "<anon>")
            with lock:
                self.exec_block(stmt.body, env.child(), ctx)
            return

        if isinstance(stmt, A.OmpTask):
            # Executed inline by the encountering thread (undeferred task).
            self.exec_block(stmt.body, env.child(), ctx)
            return

        if isinstance(stmt, A.OmpFor):
            self._exec_omp_for(stmt, env, ctx)
            return

        if isinstance(stmt, A.OmpSections):
            team, tid = ctx.team, ctx.tid
            for i, section in enumerate(stmt.sections):
                if team is None or team.section_owner(i) == tid:
                    self.exec_block(section, env.child(), ctx)
            if team is not None and not stmt.nowait:
                team.barrier()
            return

        raise InterpError(f"cannot execute OpenMP node {type(stmt).__name__}")

    def _exec_omp_for(self, stmt: A.OmpFor, env: Env, ctx: ExecCtx) -> None:
        loop = stmt.loop
        if not isinstance(loop.init, A.VarDecl) or loop.cond is None or loop.step is None:
            raise InterpError("omp for requires a canonical for loop")
        var_name = loop.init.name
        start = self.eval(loop.init.init, env, ctx) if loop.init.init is not None else 0
        if not isinstance(loop.cond, A.BinOp) or loop.cond.op not in ("<", "<=", ">", ">="):
            raise InterpError("omp for condition must compare the loop variable")
        bound = self.eval(loop.cond.right, env, ctx)
        if not isinstance(loop.step, A.Assign) or loop.step.op not in ("+=", "-="):
            raise InterpError("omp for step must be += or -=")
        step = self.eval(loop.step.value, env, ctx)
        if loop.step.op == "-=":
            step = -step
        if step == 0:
            raise InterpError("omp for step must be nonzero")

        # Normalized iteration values for this thread's static chunk.
        values: List[Any] = []
        v = start
        if step > 0:
            while (v < bound) if loop.cond.op == "<" else (v <= bound):
                values.append(v)
                v += step
        else:
            while (v > bound) if loop.cond.op == ">" else (v >= bound):
                values.append(v)
                v += step

        team = ctx.team
        chunk = team.static_chunk(ctx.tid, len(values)) if team is not None else range(len(values))
        for i in chunk:
            iter_env = env.child()
            iter_env.declare(var_name, values[i])
            try:
                self.exec_block(loop.body, iter_env, ctx)
            except _ContinueEx:
                continue
        if team is not None and not stmt.nowait:
            team.barrier()

    # -- expressions -----------------------------------------------------------------------

    def eval(self, expr: A.Expr, env: Env, ctx: ExecCtx, stmt_level: bool = False) -> Any:
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
                self.world.note_access(self._label(cell, expr.name), "r")
                return cell.value
            return env.get(expr.name)
        if isinstance(expr, A.ArrayRef):
            arr = env.get(expr.name)
            index = int(self.eval(expr.index, env, ctx))
            if not isinstance(arr, list):
                raise InterpError(f"{expr.name} is not an array")
            if not (0 <= index < len(arr)):
                raise InterpError(
                    f"index {index} out of bounds for {expr.name}[{len(arr)}]"
                )
            value = arr[index]
            if self._tracking(ctx):
                self.world.note_access(self._label(arr, expr.name), "r")
            return value
        if isinstance(expr, A.UnaryOp):
            value = self.eval(expr.operand, env, ctx)
            if expr.op == "-":
                return -value
            if expr.op == "!":
                return not value
            raise InterpError(f"unknown unary {expr.op}")
        if isinstance(expr, A.BinOp):
            return self._eval_binop(expr, env, ctx)
        if isinstance(expr, A.Call):
            return self._eval_call(expr, env, ctx)
        raise InterpError(f"cannot evaluate {type(expr).__name__}")

    def _eval_binop(self, expr: A.BinOp, env: Env, ctx: ExecCtx) -> Any:
        op = expr.op
        if op == "&&":
            return bool(self.eval(expr.left, env, ctx)) and bool(self.eval(expr.right, env, ctx))
        if op == "||":
            return bool(self.eval(expr.left, env, ctx)) or bool(self.eval(expr.right, env, ctx))
        left = self.eval(expr.left, env, ctx)
        right = self.eval(expr.right, env, ctx)
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

    # -- calls ------------------------------------------------------------------------------

    def _eval_call(self, call: A.Call, env: Env, ctx: ExecCtx) -> Any:
        name = call.name
        if name in COLLECTIVES or name in ("MPI_Send", "MPI_Recv", "MPI_Sendrecv"):
            return self._exec_mpi(call, env, ctx)
        if name in _MPI_QUERY_IMPL:
            return _MPI_QUERY_IMPL[name](self, call, env, ctx)
        if name in _BUILTIN_IMPL:
            return _BUILTIN_IMPL[name](self, call, env, ctx)
        func = self.funcs.get(name)
        if func is not None:
            args = [self.eval(a, env, ctx) for a in call.args]
            return self.call_function(func, args, ctx)
        raise InterpError(f"call to unknown function {name!r}")

    # -- MPI ------------------------------------------------------------------------------------

    def _store(self, expr: A.Expr, value: Any, env: Env, ctx: ExecCtx,
               what: str) -> None:
        """Write an MPI result back through an lvalue (variable or array
        element)."""
        if isinstance(expr, A.VarRef):
            cell = env.cell(expr.name)
            cell.value = value
            if self._tracking(ctx):
                self.world.note_access(self._label(cell, expr.name), "w")
            return
        if isinstance(expr, A.ArrayRef):
            arr = env.get(expr.name)
            index = int(self.eval(expr.index, env, ctx))
            if not isinstance(arr, list) or not (0 <= index < len(arr)):
                raise InterpError(
                    f"{what}: bad array element {expr.name}[{index}]"
                )
            arr[index] = value
            if self._tracking(ctx):
                self.world.note_access(self._label(arr, expr.name), "w")
            return
        raise InterpError(f"{what} buffer argument must be an lvalue")

    def _exec_mpi(self, call: A.Call, env: Env, ctx: ExecCtx) -> Any:
        name = call.name
        proc = self.proc
        line = call.line
        a = call.args

        if name == "MPI_Barrier":
            return proc.collective("MPI_Barrier", (), None, line=line)
        if name == "MPI_Finalize":
            return proc.collective("MPI_Finalize", (), None, line=line)
        if name == "MPI_Bcast":
            root = int(self.eval(a[1], env, ctx))
            payload = self.eval(a[0], env, ctx) if proc.rank == root else None
            result = proc.collective(name, (root,), payload, line=line)
            self._store(a[0], result, env, ctx, name)
            return None
        if name == "MPI_Reduce":
            send = self.eval(a[0], env, ctx)
            red = self._red_op(a[2], env, ctx)
            root = int(self.eval(a[3], env, ctx))
            result = proc.collective(name, (root, red), send, line=line)
            if proc.rank == root:
                self._store(a[1], result, env, ctx, name)
            return None
        if name == "MPI_Allreduce":
            send = self.eval(a[0], env, ctx)
            red = self._red_op(a[2], env, ctx)
            result = proc.collective(name, (red,), send, line=line)
            self._store(a[1], result, env, ctx, name)
            return None
        if name == "MPI_Gather":
            send = self.eval(a[0], env, ctx)
            root = int(self.eval(a[2], env, ctx))
            result = proc.collective(name, (root,), send, line=line)
            if proc.rank == root:
                self._store(a[1], result, env, ctx, name)
            return None
        if name == "MPI_Scatter":
            root = int(self.eval(a[2], env, ctx))
            payload = self.eval(a[0], env, ctx) if proc.rank == root else None
            result = proc.collective(name, (root,), payload, line=line)
            self._store(a[1], result, env, ctx, name)
            return None
        if name == "MPI_Allgather":
            send = self.eval(a[0], env, ctx)
            result = proc.collective(name, (), send, line=line)
            self._store(a[1], result, env, ctx, name)
            return None
        if name == "MPI_Alltoall":
            result = proc.collective(name, (), self.eval(a[0], env, ctx), line=line)
            self._store(a[1], result, env, ctx, name)
            return None
        if name in ("MPI_Scan", "MPI_Exscan"):
            send = self.eval(a[0], env, ctx)
            red = self._red_op(a[2], env, ctx)
            result = proc.collective(name, (red,), send, line=line)
            if result is not None:
                self._store(a[1], result, env, ctx, name)
            return None
        if name == "MPI_Reduce_scatter_block":
            red = self._red_op(a[2], env, ctx)
            result = proc.collective(name, (red,), self.eval(a[0], env, ctx), line=line)
            self._store(a[1], result, env, ctx, name)
            return None
        if name == "MPI_Send":
            value = self.eval(a[0], env, ctx)
            dest = int(self.eval(a[1], env, ctx))
            tag = int(self.eval(a[2], env, ctx))
            proc.send(dest, tag, value, line=line)
            return None
        if name == "MPI_Recv":
            source = int(self.eval(a[1], env, ctx))
            tag = int(self.eval(a[2], env, ctx))
            self._store(a[0], proc.recv(source, tag, line=line), env, ctx, name)
            return None
        if name == "MPI_Sendrecv":
            value = self.eval(a[0], env, ctx)
            dest = int(self.eval(a[1], env, ctx))
            stag = int(self.eval(a[2], env, ctx))
            source = int(self.eval(a[4], env, ctx))
            rtag = int(self.eval(a[5], env, ctx))
            proc.send(dest, stag, value, line=line)
            self._store(a[3], proc.recv(source, rtag, line=line), env, ctx, name)
            return None
        raise InterpError(f"unhandled MPI call {name}")

    def _red_op(self, expr: A.Expr, env: Env, ctx: ExecCtx) -> str:
        if isinstance(expr, A.StringLit):
            return expr.value
        value = self.eval(expr, env, ctx)
        if isinstance(value, str):
            return value
        raise InterpError("reduction op must be a string: 'sum'|'prod'|'min'|'max'")


def _default(type_name: str) -> Any:
    if type_name == "float":
        return 0.0
    if type_name == "bool":
        return False
    return 0


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
# Builtins
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


def _b_print(interp: Interpreter, call: A.Call, env: Env, ctx: ExecCtx) -> None:
    parts = [_fmt(interp.eval(a, env, ctx)) for a in call.args]
    interp.proc.output.append(" ".join(parts))


def _b_work(interp: Interpreter, call: A.Call, env: Env, ctx: ExecCtx) -> int:
    """Simulated compute: ``n`` units on the calling thread's compute clock,
    and the state the 32-bit LCG ``x -> a*x + c`` reaches from 0 in ``n``
    steps, in O(log n): the map applied ``2**k`` times is squared along
    the bits of ``n`` (``n <= 0`` is no step)."""
    n = int(interp.eval(call.args[0], env, ctx))
    interp.world.scheduler.compute(max(n, 0))
    x, a, c = 0, 1103515245, 12345
    while n > 0:
        if n & 1:
            x = (a * x + c) & 0xFFFFFFFF
        a, c = (a * a) & 0xFFFFFFFF, (a * c + c) & 0xFFFFFFFF
        n >>= 1
    return x


def _b_sqrt(interp: Interpreter, call: A.Call, env: Env, ctx: ExecCtx) -> float:
    """C's ``sqrt``: ``nan`` below zero, and the integer root of an int past
    the float range (``inf`` once that root is past it too)."""
    value = interp.eval(call.args[0], env, ctx)
    if value < 0:
        return math.nan
    try:
        return math.sqrt(value)
    except OverflowError:
        try:
            return float(math.isqrt(value))
        except OverflowError:
            return math.inf


def _b_mod(interp: Interpreter, call: A.Call, env: Env, ctx: ExecCtx) -> Any:
    """Floor modulo, like Fortran's ``MODULO``: the result takes the
    divisor's sign, so ``mod(0 - 7, 4)`` is 1 where C's ``(0 - 7) % 4`` is
    -3.  HERA and NAS-MZ index arrays with ``mod(i, n)``, and floor modulo
    keeps a negative ``i`` in range.  An int past the float range meets a
    float as ±inf, as in the operators."""
    left, right = (interp.eval(arg, env, ctx) for arg in call.args[:2])
    if right == 0:
        raise InterpError("modulo by zero")
    try:
        return left % right
    except OverflowError:
        return _c_double(left) % _c_double(right)


def _b_wtime(interp: Interpreter, call: A.Call, env: Env, ctx: ExecCtx) -> float:
    """The calling thread's compute clock in seconds; ``inf`` once the clock
    is past the float range (``work`` of a value grown by ``x *= x``)."""
    try:
        return interp.world.scheduler.compute() * WTIME_UNIT
    except OverflowError:
        return math.inf


_BUILTIN_IMPL: Dict[str, Callable] = {
    "print": _b_print,
    "work": _b_work,
    "omp_get_thread_num": lambda i, c, e, x: x.tid,
    "omp_get_num_threads": lambda i, c, e, x: (x.team.size if x.team else 1),
    "omp_get_max_threads": lambda i, c, e, x: i.num_threads,
    "abs": lambda i, c, e, x: abs(i.eval(c.args[0], e, x)),
    "min": lambda i, c, e, x: min(i.eval(c.args[0], e, x), i.eval(c.args[1], e, x)),
    "max": lambda i, c, e, x: max(i.eval(c.args[0], e, x), i.eval(c.args[1], e, x)),
    "sqrt": _b_sqrt,
    "mod": _b_mod,
    "PARCOACH_CC": lambda i, c, e, x: i.checks.cc(
        int(i.eval(c.args[0], e, x)), str(i.eval(c.args[1], e, x)),
        int(i.eval(c.args[2], e, x)),
    ),
    "PARCOACH_ENTER": lambda i, c, e, x: i.checks.enter(
        int(i.eval(c.args[0], e, x)), str(i.eval(c.args[1], e, x)), c.line,
    ),
    "PARCOACH_EXIT": lambda i, c, e, x: i.checks.exit(int(i.eval(c.args[0], e, x))),
}

_MPI_QUERY_IMPL: Dict[str, Callable] = {
    "MPI_Comm_rank": lambda i, c, e, x: i.proc.rank,
    "MPI_Comm_size": lambda i, c, e, x: i.world.nprocs,
    "MPI_Wtime": _b_wtime,
    "MPI_Init": lambda i, c, e, x: i.proc.init(),
    "MPI_Init_thread": lambda i, c, e, x: i.proc.init_thread(int(i.eval(c.args[0], e, x))),
}
