"""Compiled interpreter for minilang on simmpi + simomp.

One :class:`Interpreter` runs per MPI rank; each OpenMP team thread runs
the rank's code re-entrantly with its own :class:`ExecCtx`.  MPI calls
route through the rank's :class:`MpiProcess` (thread-level guard +
collective engine); the inserted ``PARCOACH_*`` calls route to
:class:`~repro.runtime.checks.CheckState`.

Every function is lowered to Python closures once per program, when the
program first runs (:class:`_Code`).  Node-type dispatch, what each call
names (a function, a builtin, an MPI operation) and whether a node can
reach a SchedPoint are decided then.  A node that can (an MPI operation, an
inserted check, an OpenMP construct, a call of a function that reaches
one, or a node over one) compiles to a generator closure, reached by
``yield from``; any other node to a plain closure.  The closures take the
rank's :class:`Interpreter`, the environment and the thread's
:class:`ExecCtx` as arguments, so every rank and every run of a program
share them.  They live on the program (``program._code``) while its
functions keep their ``(uid, structure_version)`` pairs: in-place
instrumentation bumps ``structure_version``, so the next run recompiles,
and a copy or a pickle of the program compiles afresh.  An in-place AST
mutation that bumps no marker is undefined behaviour, as for the engine;
a change to ``_BUILTIN_IMPL`` holds for programs compiled after it.

Every statement and loop iteration checks the abort flag and the run's
cooperative deadline (``MpiWorld.check``), and shared objects are labeled
in first-access order.  The tests hold every output, verdict and event
footprint to a tree-walking reference (``tests/reference_interp.py``).
"""

from __future__ import annotations

import math
import operator
import sys
from functools import partial
from itertools import accumulate, islice, repeat
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ...minilang import ast_nodes as A
from ..checks import CheckState
from ..simmpi.process import MpiProcess
from ..simomp import Team
from .env import Env, InterpError

_MAX_CALL_DEPTH = 200

#: Python frames one level of minilang calls may take, nested statements
#: and expressions included: 6 for ``return rec(n - 1) + 1;``, 10 with the
#: call two operators deep in an ``if``, ``for``, ``while`` and ``if``.
#: Every ``_ROOM_EVERY`` nested calls, a call makes sure the recursion
#: limit has room for the levels still allowed above it, so the call-depth
#: limit, not the caller's stack depth, decides where a recursion ends.
_FRAMES_PER_CALL = 12
_ROOM_EVERY = 16

#: Seconds ``MPI_Wtime`` counts per unit of the compute clock ``work(n)``
#: advances: about one iteration of the LCG loop ``work`` once ran, on a
#: 2-vCPU x86-64 host with CPython 3.11.
WTIME_UNIT = 1e-7

_NON_CANONICAL = "omp for requires a canonical for loop"

_LOOP_TESTS = {"<": operator.lt, "<=": operator.le,
               ">": operator.gt, ">=": operator.ge}
_COMPARE = {"==": operator.eq, "!=": operator.ne, **_LOOP_TESTS}
_UNARY = {"-": operator.neg, "!": operator.not_}

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

#: A compiled node, ``(run, gen)``: ``run(rt, env, ctx)`` returns the
#: node's value, or, when ``gen``, what to ``yield from`` for it.
Compiled = Tuple[Callable, bool]


class _BreakEx(Exception):
    pass


class _ContinueEx(Exception):
    pass


class _ReturnEx(Exception):
    def __init__(self, value: Any) -> None:
        super().__init__()
        self.value = value


class ExecCtx:
    """Per-thread execution context."""

    __slots__ = ("team", "tid", "call_depth", "encounters", "tracking")

    def __init__(self, team: Optional[Team] = None, tid: int = 0,
                 call_depth: int = 0,
                 encounters: Optional[Dict[int, int]] = None) -> None:
        self.team = team
        self.tid = tid
        self.call_depth = call_depth
        #: construct uid -> how many times *this thread* encountered it
        #: (drives single/sections claim generations).
        self.encounters = {} if encounters is None else encounters
        #: Whether the thread's shared-variable accesses feed the running
        #: segment's footprint: it is one of a team of more than one.
        self.tracking = team is not None and team.size > 1

    def next_encounter(self, uid: int) -> int:
        n = self.encounters.get(uid, 0)
        self.encounters[uid] = n + 1
        return n


class Interpreter:
    """One rank's run of a program: what its compiled code runs against."""

    __slots__ = ("proc", "world", "checks", "num_threads", "code", "check",
                 "note_access", "_labels", "_labeled")

    def __init__(self, program: A.Program, proc: MpiProcess,
                 check_state: Optional[CheckState] = None,
                 num_threads: int = 2) -> None:
        self.proc = proc
        self.world = proc.world
        self.checks = check_state or CheckState(proc)
        self.num_threads = num_threads
        self.code = _Code.of(program)
        # Bound once, so the per-statement hooks skip the world's proxy.
        self.check = self.world.check
        self.note_access = self.world.scheduler.note_access
        # Shared-variable access tracking for schedule exploration: reads
        # and writes of cells visible to a team of >1 threads feed the
        # running segment's footprint.  Objects (cells, arrays) are labeled
        # lazily in first-access order — deterministic within one scheduled
        # run, which is the only scope footprints are ever compared in.
        self._labels: Dict[int, str] = {}
        #: Every labeled object, kept alive so its id is never reused.
        self._labeled: List[object] = []

    def label(self, obj: object, name: str) -> str:
        key = id(obj)
        label = self._labels.get(key)
        if label is None:
            label = f"r{self.proc.rank}:{name}#{len(self._labels)}"
            self._labels[key] = label
            self._labeled.append(obj)
        return label

    def run(self, entry: str = "main", args: tuple = ()):
        """The rank's main thread: a generator for the world's scheduler."""
        if entry not in self.code.calls:
            raise InterpError(f"no entry function {entry!r}")
        call, gen = self.code.calls[entry]
        result = call(self, list(args), ExecCtx())
        return (yield from result) if gen else result


class _Code:
    """A program's compiled code, valid while its functions keep the
    ``(uid, structure_version)`` pairs in :attr:`shape`, and its compiler:
    ``self._<node class>(node)`` compiles one node."""

    __slots__ = ("shape", "funcs", "blocking", "calls")

    def __init__(self, program: A.Program, shape: tuple) -> None:
        self.shape = shape
        self.funcs = {f.name: f for f in program.funcs}
        #: uid -> whether running the node can reach a SchedPoint.
        self.blocking: Dict[int, bool] = {}
        #: Function name -> its call, compiled: ``call(rt, args, ctx)``.
        self.calls: Dict[str, Compiled] = {}
        for name, func in self.funcs.items():
            self.calls[name] = self.function(func)

    @classmethod
    def of(cls, program: A.Program) -> "_Code":
        shape = tuple((f.uid, getattr(f, "structure_version", 0))
                      for f in program.funcs)
        code = getattr(program, "_code", None)
        if code is None or code.shape != shape:
            code = program._code = cls(program, shape)
        return code

    def __reduce__(self):
        # Closures neither pickle nor deep-copy: a copy compiles afresh.
        return type(None), ()

    def blocks(self, node: A.Node) -> bool:
        """Whether running ``node`` can reach a SchedPoint.  While a
        function is being decided, a call back into it counts as reaching
        one: a recursion takes the generator path, which runs any code."""
        known = self.blocking.get(node.uid)
        if known is None:
            self.blocking[node.uid] = True
            known = self.blocking[node.uid] = self._reaches(node)
        return known

    def _reaches(self, node: A.Node) -> bool:
        if isinstance(node, A.OmpStmt):
            return True
        if isinstance(node, A.Call):
            if node.name in _MPI_OPS or node.name in _CHECK_IMPL:
                return True
            func = self.funcs.get(node.name)
            if func is not None and self.blocks(func.body):
                return True
        return any(self.blocks(child) for child in node.children())

    # -- the compiler ----------------------------------------------------------------

    def function(self, func: A.FuncDef) -> Compiled:
        body, gen = self.block(func.body)
        if gen:
            def g_call(rt, args, ctx):
                env, inner = _enter(func, args, ctx)
                try:
                    yield from body(rt, env, inner)
                except _ReturnEx as ret:
                    return ret.value
            return g_call, True

        def call(rt, args, ctx):
            env, inner = _enter(func, args, ctx)
            try:
                body(rt, env, inner)
            except _ReturnEx as ret:
                return ret.value
        return call, False

    def node(self, node: A.Node) -> Compiled:
        """``node`` compiled: a statement's closure checks the abort flag
        and the deadline first."""
        compile_node = getattr(self, "_" + type(node).__name__, None)
        if compile_node is None:
            raise InterpError(f"cannot compile {type(node).__name__}")
        return compile_node(node)

    def block(self, block: A.Block) -> Compiled:
        """``block``'s statements in order; its caller gives it its own
        environment."""
        stmts = [self.node(stmt) for stmt in block.stmts]
        if len(stmts) == 1:
            return stmts[0]
        if self.blocks(block):
            def g_run(rt, env, ctx):
                for fn, gen in stmts:
                    if gen:
                        yield from fn(rt, env, ctx)
                    else:
                        fn(rt, env, ctx)
            return g_run, True
        fns = tuple(fn for fn, _ in stmts)

        def run(rt, env, ctx):
            for fn in fns:
                fn(rt, env, ctx)
        return run, False

    def body(self, block: A.Block) -> Callable:
        """``block`` in a construct that reaches a SchedPoint: what it
        returns is ``yield from``ed."""
        run, gen = self.block(block)
        return run if gen else _and_nothing(run)

    # -- statements --------------------------------------------------------------------

    def _VarDecl(self, stmt: A.VarDecl) -> Compiled:
        name = stmt.name
        if stmt.array_size is not None:
            zero = 0.0 if stmt.type_name == "float" else 0
            value = _map(lambda size: [zero] * int(size), self.node(stmt.array_size))
        elif stmt.init is not None:
            value = self.node(stmt.init)
        else:
            value = _constant({"float": 0.0, "bool": False}.get(stmt.type_name, 0))
        return _then(value, lambda rt, env, ctx, v: env.declare(name, v), True)

    def _Assign(self, stmt: A.Assign) -> Compiled:
        target = stmt.target
        if isinstance(target, A.ArrayRef):
            return _then(_values([self.node(stmt.value), self.node(target.index)]),
                         _store_element(target.name, stmt.op), True)
        return _then(self.node(stmt.value), _store_var(target.name, stmt.op), True)

    def _ExprStmt(self, stmt: A.ExprStmt) -> Compiled:
        value, gen = self.node(stmt.expr)

        def run(rt, env, ctx):
            rt.check()
            return value(rt, env, ctx)
        return run, gen

    def _Block(self, stmt: A.Block) -> Compiled:
        return _scoped(*self.block(stmt))

    def _If(self, stmt: A.If) -> Compiled:
        gen = self.blocks(stmt)
        then, other = (None if body is None else self.body(body) if gen
                       else self.block(body)[0]
                       for body in (stmt.then_body, stmt.else_body))
        cond, cond_gen = self.node(stmt.cond)
        if cond_gen:
            def g_run(rt, env, ctx):
                rt.check()
                body = then if (yield from cond(rt, env, ctx)) else other
                if body is not None:
                    yield from body(rt, env.child(), ctx)
            return g_run, True

        def run(rt, env, ctx):
            rt.check()
            body = then if cond(rt, env, ctx) else other
            return () if body is None else body(rt, env.child(), ctx)
        return run, gen

    def _For(self, stmt: A.Stmt) -> Compiled:
        """``while (cond) body``; ``for`` runs ``init`` first, in a scope of
        its own, and ``step`` after each pass.  Every iteration checks the
        abort flag and the deadline."""
        is_for = isinstance(stmt, A.For)
        init, init_gen = (self.node(stmt.init) if is_for and stmt.init is not None
                          else _constant(None))
        step, step_gen = (self.node(stmt.step) if is_for and stmt.step is not None
                          else (None, False))
        cond, cond_gen = (self.node(stmt.cond) if stmt.cond is not None
                          else _constant(True))
        body, body_gen = self.block(stmt.body)

        def run(rt, env, ctx):
            rt.check()
            if is_for:
                env = env.child()
                if init_gen:
                    yield from init(rt, env, ctx)
                else:
                    init(rt, env, ctx)
            while (yield from cond(rt, env, ctx)) if cond_gen else cond(rt, env, ctx):
                rt.check()
                try:
                    if body_gen:
                        yield from body(rt, env.child(), ctx)
                    else:
                        body(rt, env.child(), ctx)
                except _BreakEx:
                    break
                except _ContinueEx:
                    pass
                if step_gen:
                    yield from step(rt, env, ctx)
                elif step is not None:
                    step(rt, env, ctx)
        return (run, True) if self.blocks(stmt) else (_direct(run, stmt), False)

    _While = _For

    def _Return(self, stmt: A.Return) -> Compiled:
        return _then(_constant(None) if stmt.value is None
                     else self.node(stmt.value), _return, True)

    def _Break(self, stmt: A.Stmt) -> Compiled:
        jump = _BreakEx if isinstance(stmt, A.Break) else _ContinueEx

        def run(rt, env, ctx):
            rt.check()
            raise jump()
        return run, False

    _Continue = _Break

    # -- OpenMP (generators only) ------------------------------------------------------

    def _OmpParallel(self, stmt: A.OmpParallel) -> Compiled:
        body, private = self.body(stmt.body), tuple(stmt.private)
        size, size_gen = (_constant(None) if stmt.num_threads is None else
                          _map(lambda n: max(1, int(n)), self.node(stmt.num_threads)))

        def run(rt, env, ctx):
            rt.check()
            n = (yield from size(rt, env, ctx)) if size_gen else size(rt, env, ctx)
            team = Team(rt.world, rt.proc, rt.num_threads if n is None else n)
            private_init = {name: (env.get(name) if env.is_declared(name) else 0)
                            for name in private}

            def member(tid: int):
                tctx = ExecCtx(team, tid, ctx.call_depth)
                tenv = env.child()
                for name, value in private_init.items():
                    tenv.declare(name, value)
                yield from body(rt, tenv, tctx)
                yield from team.barrier()  # the region's implicit join barrier

            yield from team.run(member)
        return run, True

    def _OmpSingle(self, stmt: A.OmpSingle) -> Compiled:
        body, uid, nowait = self.body(stmt.body), stmt.uid, stmt.nowait

        def run(rt, env, ctx):
            rt.check()
            team = ctx.team
            if team is None or (yield from team.claim(
                    uid, ctx.next_encounter(uid), ctx.tid)):
                yield from body(rt, env.child(), ctx)
            if team is not None and not nowait:
                yield from team.barrier()
        return run, True

    def _OmpMaster(self, stmt: A.OmpMaster) -> Compiled:
        body = self.body(stmt.body)

        def run(rt, env, ctx):
            rt.check()
            if ctx.team is None or ctx.tid == 0:
                return body(rt, env.child(), ctx)
            return ()
        return run, True

    def _OmpTask(self, stmt: A.OmpTask) -> Compiled:
        # Executed inline by the encountering thread (undeferred task).
        return _scoped(self.body(stmt.body), True)

    def _OmpBarrier(self, stmt: A.OmpBarrier) -> Compiled:
        def run(rt, env, ctx):
            rt.check()
            return () if ctx.team is None else ctx.team.barrier()
        return run, True

    def _OmpCritical(self, stmt: A.OmpCritical) -> Compiled:
        body, name = self.body(stmt.body), stmt.name or "<anon>"

        def run(rt, env, ctx):
            rt.check()
            lock = rt.proc.critical_lock(name)
            yield from lock.acquire()
            try:
                yield from body(rt, env.child(), ctx)
            finally:
                lock.release()
        return run, True

    def _OmpSections(self, stmt: A.OmpSections) -> Compiled:
        sections = [self.body(section) for section in stmt.sections]
        nowait = stmt.nowait

        def run(rt, env, ctx):
            rt.check()
            team = ctx.team
            for i, section in enumerate(sections):
                if team is None or team.section_owner(i) == ctx.tid:
                    yield from section(rt, env.child(), ctx)
            if team is not None and not nowait:
                yield from team.barrier()
        return run, True

    def _OmpFor(self, stmt: A.OmpFor) -> Compiled:
        """Each thread runs its static chunk of a canonical loop's values;
        the loop's shape is checked as its parts are evaluated: start,
        bound, then step."""
        loop, nowait = stmt.loop, stmt.nowait
        init, cond, step = loop.init, loop.cond, loop.step
        test = cond.op if isinstance(cond, A.BinOp) and cond.op in _LOOP_TESTS else None
        stepping = isinstance(step, A.Assign) and step.op in ("+=", "-=")
        if not isinstance(init, A.VarDecl) or cond is None or step is None:
            parts = [_fail(_NON_CANONICAL)]
        else:
            parts = [_constant(0) if init.init is None else self.node(init.init),
                     self.node(cond.right) if test else _fail(
                         "omp for condition must compare the loop variable"),
                     _fail("omp for step must be += or -=") if not stepping
                     else self.node(step.value) if step.op == "+="
                     else _map(operator.neg, self.node(step.value))]
        parts, parts_gen = _values(parts)
        body, body_gen = self.block(loop.body)
        var = getattr(init, "name", "")

        def run(rt, env, ctx):
            rt.check()
            team = ctx.team
            start, bound, by = (yield from parts(rt, env, ctx)) if parts_gen \
                else parts(rt, env, ctx)
            if by == 0:
                raise InterpError("omp for step must be nonzero")
            values = _iterations(start, test, bound, by, rt.check)
            if team is not None:
                chunk = team.static_chunk(ctx.tid, len(values))
                values = values[chunk.start:chunk.stop]
            for value in values:
                rt.check()
                iter_env = env.child()
                iter_env.declare(var, value)
                try:
                    if body_gen:
                        yield from body(rt, iter_env, ctx)
                    else:
                        body(rt, iter_env, ctx)
                except _ContinueEx:
                    continue
            if team is not None and not nowait:
                yield from team.barrier()
        return run, True

    # -- expressions -------------------------------------------------------------------

    def _IntLit(self, expr: A.Expr) -> Compiled:
        return _constant(expr.value)

    _FloatLit = _BoolLit = _StringLit = _IntLit

    def _VarRef(self, expr: A.VarRef) -> Compiled:
        name = expr.name

        def var(rt, env, ctx):
            if ctx.tracking:
                cell = env.cell(name)
                rt.note_access(rt.label(cell, name), "r")
                return cell.value
            return env.cell(name).value
        return var, False

    def _ArrayRef(self, expr: A.ArrayRef) -> Compiled:
        return _then(self.node(expr.index), partial(_element, expr.name))

    def _UnaryOp(self, expr: A.UnaryOp) -> Compiled:
        return _map(_UNARY[expr.op], self.node(expr.operand))

    def _BinOp(self, expr: A.BinOp) -> Compiled:
        op = expr.op
        left, left_gen = self.node(expr.left)
        right, right_gen = self.node(expr.right)
        if op in ("&&", "||"):
            decides = op == "||"  # the left value that decides alone
            if left_gen or right_gen:
                def g_logic(rt, env, ctx):
                    value = bool((yield from left(rt, env, ctx)) if left_gen
                                 else left(rt, env, ctx))
                    return value if value is decides else bool(
                        (yield from right(rt, env, ctx)) if right_gen
                        else right(rt, env, ctx))
                return g_logic, True

            def logic(rt, env, ctx):
                value = bool(left(rt, env, ctx))
                return value if value is decides else bool(right(rt, env, ctx))
            return logic, False
        fn = _COMPARE.get(op) or partial(_binop, op)
        if left_gen or right_gen:
            return _map(lambda values: fn(*values), _values(
                [(left, left_gen), (right, right_gen)]))
        return (lambda rt, env, ctx:
                fn(left(rt, env, ctx), right(rt, env, ctx))), False

    def _Call(self, call: A.Call) -> Compiled:
        """An MPI operation, an inserted check, a builtin or a function, in
        that order; an unknown name raises before any argument is read."""
        name = call.name
        if name in _MPI_OPS:
            return (self._collective if name in _COLLECTIVE_ARGS
                    else self._p2p)(call), True
        check, impl = _CHECK_IMPL.get(name), _BUILTIN_IMPL.get(name)
        gen, calls = self.blocks(call), self.calls
        if not (check or impl or name in self.funcs):
            def unknown(rt, env, ctx):
                raise InterpError(f"call to unknown function {name!r}")
            return unknown, gen
        args, args_gen = _values([self.node(arg) for arg in call.args])
        if not gen:  # a builtin, or a function whose call is plain
            if impl is not None:
                return (lambda rt, env, ctx: impl(rt, ctx, args(rt, env, ctx))), False
            return (lambda rt, env, ctx:
                    calls[name][0](rt, args(rt, env, ctx), ctx)), False

        def g_call(rt, env, ctx):
            values = (yield from args(rt, env, ctx)) if args_gen else args(rt, env, ctx)
            if check is not None:
                return (yield from check(rt, call, values))
            if impl is not None:
                return impl(rt, ctx, values)
            callee, callee_gen = calls[name]
            result = callee(rt, values, ctx)
            return (yield from result) if callee_gen else result
        return g_call, True

    # -- MPI (generators only) ---------------------------------------------------------

    def _collective(self, call: A.Call) -> Callable:
        name, a = call.name, call.args
        spec, buffer, when = _COLLECTIVE_ARGS[name]
        convert = {"root": int, "red": _reduction_op}
        reads = [(kind,) + (_map(convert[kind], self.node(a[i])) if kind in convert
                            else self.node(a[i])) for kind, i in spec]
        kinds = {kind for kind, _ in spec}
        has_root, has_red = "root" in kinds, "red" in kinds
        store = None if buffer is None else self._mpi_store(a[buffer], name)

        def collective(rt, env, ctx):
            proc = rt.proc
            got = {}
            for kind, fn, gen in reads:
                if kind != "root send" or proc.rank == got.get("root"):
                    got[kind] = (yield from fn(rt, env, ctx)) if gen else fn(rt, env, ctx)
            root = got.get("root")
            result = yield from proc.collective(
                name, (root,) * has_root + (got.get("red"),) * has_red,
                got.get("send", got.get("root send")), line=call.line)
            if store is None:
                return result
            if (when == "always" or (when == "at root" and proc.rank == root)
                    or (when == "if any" and result is not None)):
                yield from store(rt, env, ctx, result)
        return collective

    def _p2p(self, call: A.Call) -> Callable:
        # MPI_Send(value, dest, tag), MPI_Recv(var, source, tag) and
        # MPI_Sendrecv(value, dest, tag, var, source, tag).
        name, a = call.name, call.args
        sends, receives = name != "MPI_Recv", name != "MPI_Send"
        var = 3 if name == "MPI_Sendrecv" else 0
        reads = [self.node(a[0])] if sends else []
        reads += [_map(int, self.node(a[i])) for i in (
            ((1, 2) if sends else ()) + ((var + 1, var + 2) if receives else ()))]
        args, args_gen = _values(reads)
        store = self._mpi_store(a[var], name) if receives else None

        def p2p(rt, env, ctx):
            values = (yield from args(rt, env, ctx)) if args_gen else args(rt, env, ctx)
            if sends:
                yield from rt.proc.send(values[1], values[2], values[0],
                                        line=call.line)
            if receives:
                result = yield from rt.proc.recv(values[-2], values[-1],
                                                 line=call.line)
                yield from store(rt, env, ctx, result)
        return p2p

    def _mpi_store(self, expr: A.Expr, what: str) -> Callable:
        """``store(rt, env, ctx, value)``, to ``yield from``: an MPI result
        written back through an lvalue (variable or array element)."""
        name = getattr(expr, "name", "")
        if isinstance(expr, A.VarRef):
            return _and_nothing(_store_var(name, "="))
        if not isinstance(expr, A.ArrayRef):
            return _and_nothing(_fail(f"{what} buffer argument must be an lvalue")[0])
        index, gen = self.node(expr.index)

        def g_store(rt, env, ctx, value):
            arr = env.get(name)
            i = int((yield from index(rt, env, ctx)) if gen else index(rt, env, ctx))
            if not isinstance(arr, list) or not (0 <= i < len(arr)):
                raise InterpError(f"{what}: bad array element {name}[{i}]")
            arr[i] = value
            if ctx.tracking:
                rt.note_access(rt.label(arr, name), "w")
        return g_store


# -- compiled-node helpers -------------------------------------------------------------


def _constant(value: Any) -> Compiled:
    return (lambda rt, env, ctx: value), False


def _fail(message: str) -> Compiled:
    def fail(*args):
        raise InterpError(message)
    return fail, False


def _and_nothing(run: Callable) -> Callable:
    """``run`` followed by an empty iterable: a plain closure where a
    generator's is expected."""
    def direct(*args):
        run(*args)
        return ()
    return direct


def _map(fn: Callable, compiled: Compiled) -> Compiled:
    """``fn`` of a compiled node's value, compiled alike."""
    run, gen = compiled
    if gen:
        def g_mapped(rt, env, ctx):
            return fn((yield from run(rt, env, ctx)))
        return g_mapped, True
    return (lambda rt, env, ctx: fn(run(rt, env, ctx))), False


def _values(compiled: Sequence[Compiled]) -> Compiled:
    """The list of compiled nodes' values, evaluated in order."""
    if any(gen for _, gen in compiled):
        def g_values(rt, env, ctx):
            values = []
            for fn, gen in compiled:
                values.append((yield from fn(rt, env, ctx)) if gen else fn(rt, env, ctx))
            return values
        return g_values, True
    fns = tuple(fn for fn, _ in compiled)

    def values(rt, env, ctx):
        out = []
        for fn in fns:
            out.append(fn(rt, env, ctx))
        return out
    return values, False


def _then(compiled: Compiled, fn: Callable, check: bool = False) -> Compiled:
    """``fn(rt, env, ctx, value)`` of a compiled node's value, compiled
    alike; ``check``: a statement's, which checks first."""
    value, gen = compiled
    if gen:
        def g_then(rt, env, ctx):
            if check:
                rt.check()
            return fn(rt, env, ctx, (yield from value(rt, env, ctx)))
        return g_then, True

    def then(rt, env, ctx):
        if check:
            rt.check()
        return fn(rt, env, ctx, value(rt, env, ctx))
    return then, False


def _scoped(run: Callable, gen: bool) -> Compiled:
    """A statement that checks and then runs ``run`` in a scope of its
    own."""
    def scoped(rt, env, ctx):
        rt.check()
        return run(rt, env.child(), ctx)
    return scoped, gen


def _direct(run: Callable, node: A.Stmt) -> Callable:
    """The generator closure ``run`` of ``node``, which reaches no
    SchedPoint, as a plain closure that drives it to its end."""
    def direct(rt, env, ctx):
        for _ in run(rt, env, ctx):
            raise InterpError(f"{type(node).__name__} on line {node.line} "
                              f"reached a scheduling point directly")
    return direct


# -- what compiled code calls ----------------------------------------------------------


def _enter(func: A.FuncDef, args: List[Any], ctx: ExecCtx) -> tuple:
    """A call's checks and frame: the callee's environment and context."""
    depth = ctx.call_depth
    if depth >= _MAX_CALL_DEPTH:
        raise InterpError(f"call depth exceeded in {func.name}")
    if depth % _ROOM_EVERY == _ROOM_EVERY - 1:
        _make_room((_MAX_CALL_DEPTH - depth) * _FRAMES_PER_CALL)
    params = func.params
    if len(args) != len(params):
        raise InterpError(
            f"{func.name} expects {len(params)} args, got {len(args)}")
    env = Env()
    for param, value in zip(params, args):
        env.declare(param.name, value)
    return env.child(), ExecCtx(ctx.team, ctx.tid, depth + 1, ctx.encounters)


def _return(rt: Interpreter, env: Env, ctx: ExecCtx, value: Any) -> None:
    raise _ReturnEx(value)


def _store_var(name: str, op: str) -> Callable:
    """An assignment's store through variable ``name``; ``x op= v`` stores
    ``x op v``."""
    def store(rt, env, ctx, value):
        cell = env.cell(name)
        cell.value = value if op == "=" else _binop(op[0], cell.value, value)
        if ctx.tracking:
            rt.note_access(rt.label(cell, name), "w")
    return store


def _store_element(name: str, op: str) -> Callable:
    """An assignment's store through an element of array ``name``: the
    value and then the index."""
    def store(rt, env, ctx, value_index):
        value, index = value_index
        arr, index = _array_at(env, name, index)
        arr[index] = value if op == "=" else _binop(op[0], arr[index], value)
        if ctx.tracking:
            rt.note_access(rt.label(arr, name), "w")
    return store


def _element(name: str, rt: Interpreter, env: Env, ctx: ExecCtx,
             index: Any) -> Any:
    arr, index = _array_at(env, name, index)
    value = arr[index]
    if ctx.tracking:
        rt.note_access(rt.label(arr, name), "r")
    return value


def _array_at(env: Env, name: str, index: Any) -> tuple:
    """Array ``name`` and ``index`` as an int, checked in its bounds."""
    arr = env.get(name)
    index = int(index)
    if not isinstance(arr, list):
        raise InterpError(f"{name} is not an array")
    if not (0 <= index < len(arr)):
        raise InterpError(f"index {index} out of bounds for {name}[{len(arr)}]")
    return arr, index


def _reduction_op(op: Any) -> str:
    if not isinstance(op, str):
        raise InterpError("reduction op must be a string: "
                          "'sum'|'prod'|'min'|'max'")
    return op


def _make_room(frames: int) -> None:
    """Let ``frames`` more Python frames fit above the caller's.  The
    recursion limit is only ever raised, so runs on several OS threads
    cannot take each other's room away."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    if sys.getrecursionlimit() < depth + frames:
        sys.setrecursionlimit(depth + frames)


def _iterations(start: Any, op: str, bound: Any, step: Any,
                check: Callable[[], None] = lambda: None) -> Sequence[Any]:
    """The values the canonical loop of an ``omp for`` takes, in order —
    the sequential loop's: a ``range`` when they are ints, else a
    :class:`_Stepped` space, counted here, calling ``check`` on every trip
    as the loop would, and stepped lazily (both O(1) in memory).  A loop
    that steps away from its bound, or whose float step vanishes, would
    never end, so it is not canonical; that is known before any iteration
    runs."""
    test = _LOOP_TESTS[op]
    if not test(start, bound):
        return range(0)
    if (step > 0) != (op in ("<", "<=")):
        raise InterpError(_NON_CANONICAL)
    if isinstance(start, int) and isinstance(bound, int) and isinstance(step, int):
        return range(start, bound + {"<=": 1, ">=": -1}.get(op, 0), step)
    count, v = 0, start
    while test(v, bound):
        check()
        if v + step == v:  # the step vanishes in the float's precision
            raise InterpError(_NON_CANONICAL)
        count += 1
        v += step
    return _Stepped(start, step, count)


class _Stepped:
    """``count`` values from ``start`` by ``step``, each the previous plus
    ``step`` as the sequential loop accumulates them; a slice steps
    through the values before it, so a chunk keeps their rounding."""

    __slots__ = ("start", "step", "count")

    def __init__(self, start: Any, step: Any, count: int) -> None:
        self.start, self.step, self.count = start, step, count

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return islice(accumulate(repeat(self.step), initial=self.start), self.count)

    def __getitem__(self, chunk: slice):
        return islice(self, *chunk.indices(self.count)[:2])


def _binop(op: str, left: Any, right: Any) -> Any:
    """``left op right`` for the arithmetic operators (the comparisons are
    ``_COMPARE``'s, the short-circuit ones compile apart)."""
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
    raise InterpError(f"unknown operator {op}")


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
# Builtins: ``impl(interp, ctx, args)`` over the evaluated arguments, bound
# when a call is compiled.
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
