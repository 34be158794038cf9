"""Seeded random minilang program generator (weighted grammar) + mutator.

``generate_program(seed)`` produces a *well-formed* hybrid MPI+OpenMP
program from a weighted grammar: rank-guarded collectives, ``omp
parallel``/``single``/``master``/``critical`` regions (respecting the
closely-nested legality rules the semantic checker enforces), bounded
loops with ``break``/``return``, and helper functions reached both through
statement calls and through *expression-level* calls (``x = helper(x);`` —
the sites only the interprocedural layer sees).

Determinism contract: the program text is a pure function of
``(seed, GenConfig)``.  All randomness flows through one
``random.Random(seed)``; no iteration over sets or ``id()``-keyed
containers happens anywhere, so two processes produce byte-identical
output for the same seed (``tests/test_fuzz.py`` enforces this
cross-process).

``mutate(source, seed)`` perturbs an existing program — flipping guard
operators and constants, swapping collective names within an
arity-compatible family, wrapping/unwrapping rank guards and
``single``/``master`` regions — and only returns mutants that still pass
the semantic checker (each candidate is re-checked; illegal mutants are
skipped deterministically).

Every generated program is re-parsed and semantically checked before it is
returned; a failure there is a *generator bug* and raises
:class:`GeneratorError` (the fuzz campaign classifies it as a crash).
``generate_checked`` and ``mutate_checked`` return that checked AST with
the text, so the fuzz seed body never parses the same text twice; the
text-only ``generate_program`` and ``mutate`` are front ends over them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Tuple

from ..minilang import ast_nodes as A
from ..minilang.parser import parse_program
from ..minilang.pretty import pretty
from ..minilang.semantics import check_program
from ..util.probe import probe


class GeneratorError(Exception):
    """The generator produced an ill-formed program (a bug in the grammar)."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenConfig:
    """Weighted-grammar knobs.  Weights are relative integers; a weight of 0
    disables the production entirely."""

    max_helpers: int = 2
    #: Statements per block: ``rng.randint(1, max_stmts)``.
    max_stmts: int = 4
    #: Nesting depth budget (guards, loops and regions all consume it).
    max_depth: int = 3
    #: Probability (percent) that main ends with ``MPI_Finalize()``.
    finalize_pct: int = 90

    # -- statement weights --------------------------------------------------
    w_assign: int = 6
    w_print: int = 2
    w_collective: int = 5
    w_guard: int = 4          # if/if-else, rank-dependent or not
    w_loop: int = 3           # bounded for loop
    w_parallel: int = 3       # omp parallel (only outside one)
    w_single: int = 3         # omp single   (parallel ctx, workshare legal)
    w_master: int = 2         # omp master   (parallel ctx, workshare legal)
    w_critical: int = 2       # omp critical (parallel ctx)
    w_barrier: int = 2        # omp barrier  (parallel ctx, workshare legal)
    w_call: int = 3           # helper(x); statement call
    w_expr_call: int = 2      # x = helper(x); expression-level call
    w_return: int = 1
    w_break: int = 2          # only inside loops


#: Collectives the generator emits, with a callback building the argument
#: list from the in-scope variable names (int x / float s, g are always
#: declared).  Restricted to array-free signatures so every generated call
#: is executable.
_COLLECTIVES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("MPI_Barrier", ()),
    ("MPI_Bcast", ("x", "0")),
    ("MPI_Allreduce", ("s", "g", '"sum"')),
    ("MPI_Reduce", ("s", "g", '"sum"', "0")),
    ("MPI_Scan", ("s", "g", '"sum"')),
)

#: Arity-compatible collective families ``mutate`` swaps within.
_SWAP_FAMILIES: Tuple[Tuple[str, ...], ...] = (
    ("MPI_Allreduce", "MPI_Scan"),
    ("MPI_Barrier",),
)

_GUARD_OPS = ("==", "!=", ">", "<", ">=", "<=")


def _lit(value: int) -> A.IntLit:
    return A.IntLit(value=value)


def _var(name: str) -> A.VarRef:
    return A.VarRef(name=name)


@dataclass
class _Ctx:
    """Grammar context threaded through the recursive descent."""

    depth: int
    in_parallel: bool = False
    #: Inside single/master/critical: barrier + worksharing are illegal.
    no_workshare: bool = False
    in_loop: bool = False
    #: Inside any OpenMP structured block: ``return`` may not branch out.
    in_omp: bool = False
    #: Names of helper functions callable from here (acyclic by index).
    callable_helpers: Tuple[str, ...] = ()
    ret_type: str = "void"


class _Gen:
    def __init__(self, rng: random.Random, config: GenConfig) -> None:
        self.rng = rng
        self.config = config
        self.loop_counter = 0

    # -- helpers -------------------------------------------------------------

    def _weighted(self, options: List[Tuple[str, int]]) -> str:
        total = sum(w for _, w in options)
        pick = self.rng.randrange(total)
        for name, weight in options:
            pick -= weight
            if pick < 0:
                return name
        return options[-1][0]

    def _guard_cond(self) -> A.Expr:
        """A branch condition — usually rank-dependent, sometimes not."""
        roll = self.rng.randrange(10)
        if roll < 5:
            op = self.rng.choice(_GUARD_OPS)
            return A.BinOp(op=op, left=_var("r"),
                           right=_lit(self.rng.randrange(3)))
        if roll < 7:
            return A.BinOp(op="==",
                           left=A.BinOp(op="%", left=_var("r"), right=_lit(2)),
                           right=_lit(self.rng.randrange(2)))
        if roll < 9:
            return A.BinOp(op=self.rng.choice((">", "<=")),
                           left=_var("x"), right=_lit(self.rng.randrange(4)))
        return A.BinOp(op=">", left=_var("n"), right=_lit(1))

    def _int_expr(self) -> A.Expr:
        """A small side-effect-free int expression (no division by variables,
        so no runtime arithmetic faults)."""
        roll = self.rng.randrange(8)
        if roll < 3:
            return _lit(self.rng.randrange(7))
        if roll < 5:
            return A.BinOp(op=self.rng.choice(("+", "-", "*")),
                           left=_var("x"), right=_lit(self.rng.randrange(1, 4)))
        if roll < 6:
            return A.BinOp(op="+", left=_var("r"), right=_lit(1))
        if roll < 7:
            return A.BinOp(op="%", left=_var("x"), right=_lit(self.rng.choice((2, 3))))
        return A.BinOp(op="/", left=_var("x"), right=_lit(2))

    def _collective_stmt(self) -> A.ExprStmt:
        name, argspec = _COLLECTIVES[self.rng.randrange(len(_COLLECTIVES))]
        args: List[A.Expr] = []
        for spec in argspec:
            if spec.startswith('"'):
                args.append(A.StringLit(value=spec.strip('"')))
            elif spec.isdigit():
                args.append(_lit(int(spec)))
            else:
                args.append(_var(spec))
        return A.ExprStmt(expr=A.Call(name=name, args=args))

    # -- statement grammar ----------------------------------------------------

    def _options(self, ctx: _Ctx) -> List[Tuple[str, int]]:
        c = self.config
        options = [("assign", c.w_assign), ("print", c.w_print),
                   ("collective", c.w_collective)]
        if ctx.depth > 0:
            options.append(("guard", c.w_guard))
            options.append(("loop", c.w_loop))
            if not ctx.in_parallel:
                options.append(("parallel", c.w_parallel))
            if ctx.in_parallel and not ctx.no_workshare:
                options.extend([("single", c.w_single),
                                ("master", c.w_master),
                                ("barrier", c.w_barrier)])
            if ctx.in_parallel:
                options.append(("critical", c.w_critical))
        if ctx.callable_helpers:
            options.extend([("call", c.w_call), ("expr_call", c.w_expr_call)])
        if not ctx.in_omp:
            options.append(("return", c.w_return))
        if ctx.in_loop:
            options.append(("break", c.w_break))
        return [(name, weight) for name, weight in options if weight > 0]

    def stmt(self, ctx: _Ctx) -> A.Stmt:
        kind = self._weighted(self._options(ctx))
        rng = self.rng
        # Coverage probe: which production fired, and in which grammar
        # context (the _Ctx descent state) — observation only, never part
        # of the rng stream, so generation stays a pure function of
        # (seed, GenConfig) whether or not a sink is installed.
        probe("gen:" + kind
              + (":par" if ctx.in_parallel else "")
              + (":ws" if ctx.no_workshare else "")
              + (":loop" if ctx.in_loop else ""))
        if kind == "assign":
            target = rng.choice(("x", "x", "s"))
            if target == "s":
                return A.Assign(target=_var("s"), op="=",
                                value=A.BinOp(op="+", left=_var("s"),
                                              right=A.FloatLit(value=1.0)))
            op = rng.choice(("=", "+=", "*="))
            return A.Assign(target=_var("x"), op=op, value=self._int_expr())
        if kind == "print":
            return A.ExprStmt(expr=A.Call(
                name="print",
                args=[A.StringLit(value=f"t{rng.randrange(10)}"), _var("x")]))
        if kind == "collective":
            return self._collective_stmt()
        if kind == "guard":
            inner = replace(ctx, depth=ctx.depth - 1)
            node = A.If(cond=self._guard_cond(), then_body=self.block(inner))
            if rng.randrange(3) == 0:
                node.else_body = self.block(inner)
            return node
        if kind == "loop":
            self.loop_counter += 1
            name = f"i{self.loop_counter}"
            inner = replace(ctx, depth=ctx.depth - 1, in_loop=True)
            return A.For(
                init=A.VarDecl(type_name="int", name=name, init=_lit(0)),
                cond=A.BinOp(op="<", left=_var(name),
                             right=_lit(rng.randrange(2, 4))),
                step=A.Assign(target=_var(name), op="+=", value=_lit(1)),
                body=self.block(inner),
            )
        if kind == "parallel":
            inner = replace(ctx, depth=ctx.depth - 1, in_parallel=True,
                            no_workshare=False, in_loop=False, in_omp=True)
            num = _lit(2) if rng.randrange(3) == 0 else None
            return A.OmpParallel(body=self.block(inner), num_threads=num)
        if kind == "single":
            inner = replace(ctx, depth=ctx.depth - 1, no_workshare=True,
                            in_loop=False, in_omp=True)
            return A.OmpSingle(body=self.block(inner),
                               nowait=rng.randrange(4) == 0)
        if kind == "master":
            inner = replace(ctx, depth=ctx.depth - 1, no_workshare=True,
                            in_loop=False, in_omp=True)
            return A.OmpMaster(body=self.block(inner))
        if kind == "critical":
            inner = replace(ctx, depth=ctx.depth - 1, no_workshare=True,
                            in_loop=False, in_omp=True)
            return A.OmpCritical(body=self.block(inner))
        if kind == "barrier":
            return A.OmpBarrier()
        if kind == "call":
            helper = rng.choice(ctx.callable_helpers)
            return A.ExprStmt(expr=A.Call(name=helper, args=[_var("x")]))
        if kind == "expr_call":
            helper = rng.choice(ctx.callable_helpers)
            return A.Assign(target=_var("x"), op="=",
                            value=A.Call(name=helper, args=[_var("x")]))
        if kind == "return":
            value = _var("x") if ctx.ret_type == "int" else None
            return A.Return(value=value)
        if kind == "break":
            return A.Break()
        raise AssertionError(f"unhandled production {kind}")

    def block(self, ctx: _Ctx) -> A.Block:
        count = self.rng.randint(1, self.config.max_stmts)
        return A.Block(stmts=[self.stmt(ctx) for _ in range(count)])

    # -- functions ------------------------------------------------------------

    def helper(self, name: str, callable_helpers: Tuple[str, ...]) -> A.FuncDef:
        """``int NAME(int a)`` with the generic body grammar; ``r``/``n``/
        ``x``/``s``/``g`` are locals so the body productions stay valid."""
        ctx = _Ctx(depth=self.config.max_depth - 1, ret_type="int",
                   callable_helpers=callable_helpers)
        prologue: List[A.Stmt] = [
            A.VarDecl(type_name="int", name="r",
                      init=A.Call(name="MPI_Comm_rank", args=[])),
            A.VarDecl(type_name="int", name="n",
                      init=A.Call(name="MPI_Comm_size", args=[])),
            A.VarDecl(type_name="int", name="x", init=_var("a")),
            A.VarDecl(type_name="float", name="s", init=A.FloatLit(value=1.0)),
            A.VarDecl(type_name="float", name="g", init=A.FloatLit(value=0.0)),
        ]
        body = A.Block(stmts=prologue + self.block(ctx).stmts
                       + [A.Return(value=_var("x"))])
        return A.FuncDef(ret_type="int", name=name,
                         params=[A.Param(type_name="int", name="a")],
                         body=body)

    def main(self, callable_helpers: Tuple[str, ...]) -> A.FuncDef:
        ctx = _Ctx(depth=self.config.max_depth,
                   callable_helpers=callable_helpers)
        level = self.rng.choice((0, 1, 2, 3, 3))  # bias toward MULTIPLE
        probe(f"gen:level:{level}")
        prologue: List[A.Stmt] = [
            A.ExprStmt(expr=A.Call(name="MPI_Init_thread",
                                   args=[_lit(level)])),
            A.VarDecl(type_name="int", name="r",
                      init=A.Call(name="MPI_Comm_rank", args=[])),
            A.VarDecl(type_name="int", name="n",
                      init=A.Call(name="MPI_Comm_size", args=[])),
            A.VarDecl(type_name="int", name="x",
                      init=_lit(self.rng.randrange(5))),
            A.VarDecl(type_name="float", name="s", init=A.FloatLit(value=1.0)),
            A.VarDecl(type_name="float", name="g", init=A.FloatLit(value=0.0)),
        ]
        stmts = prologue + self.block(ctx).stmts
        if self.rng.randrange(100) < self.config.finalize_pct:
            stmts.append(A.ExprStmt(expr=A.Call(name="MPI_Finalize", args=[])))
        return A.FuncDef(ret_type="void", name="main", body=A.Block(stmts=stmts))


def build_program(seed: int, config: GenConfig = GenConfig()) -> A.Program:
    """The generated AST for ``seed`` (before pretty-printing)."""
    rng = random.Random(seed)
    gen = _Gen(rng, config)
    n_helpers = rng.randint(0, config.max_helpers)
    probe(f"gen:helpers:{n_helpers}")
    names = [f"helper{i}" for i in range(n_helpers)]
    helpers: List[A.FuncDef] = []
    # helper i may call helpers i+1.. — acyclic, so no unbounded recursion.
    for i, name in enumerate(names):
        helpers.append(gen.helper(name, tuple(names[i + 1:])))
    funcs = helpers + [gen.main(tuple(names))]
    return A.Program(funcs=funcs, filename=f"<fuzz seed={seed}>")


def generate_program(seed: int, config: GenConfig = GenConfig()) -> str:
    """Deterministic well-formed program text for ``seed``."""
    return generate_checked(seed, config)[0]


def generate_checked(seed: int, config: GenConfig = GenConfig()
                     ) -> Tuple[str, A.Program]:
    """The program text for ``seed`` and its parsed, semantically checked
    AST.

    Raises :class:`GeneratorError` when the emitted text does not re-parse
    and semantically check cleanly (a grammar bug, not a fuzz finding)."""
    source = pretty(build_program(seed, config))
    return source, _checked(source, f"seed {seed}")


def _checked(source: str, what: str) -> A.Program:
    """The round-trip guard: parse and semantically check ``source``."""
    try:
        program = parse_program(source, what)
    except Exception as exc:  # noqa: BLE001 - reported as a generator bug
        raise GeneratorError(f"{what}: generated text does not parse: {exc}")
    errors = [i for i in check_program(program) if i.severity == "error"]
    if errors:
        raise GeneratorError(f"{what}: generated program is ill-formed: "
                             + "; ".join(str(e) for e in errors))
    return program


# ---------------------------------------------------------------------------
# Mutation
# ---------------------------------------------------------------------------


def _mutation_sites(program: A.Program) -> List[Tuple[str, A.Node]]:
    """Deterministic (pre-order) list of perturbation opportunities."""
    sites: List[Tuple[str, A.Node]] = []
    for node in program.walk():
        if isinstance(node, A.If) and isinstance(node.cond, A.BinOp):
            sites.append(("flip-guard-op", node))
            if isinstance(node.cond.right, A.IntLit):
                sites.append(("bump-guard-const", node))
        if isinstance(node, A.ExprStmt) and isinstance(node.expr, A.Call):
            for family in _SWAP_FAMILIES:
                if node.expr.name in family and len(family) > 1:
                    sites.append(("swap-collective", node))
            if node.expr.name.startswith("MPI_") or node.expr.name.startswith("helper"):
                sites.append(("wrap-rank-guard", node))
        if isinstance(node, A.Block):
            for child in node.stmts:
                if isinstance(child, A.If):
                    sites.append(("unwrap-guard", node))
                    break
        if isinstance(node, (A.OmpSingle, A.OmpMaster)):
            sites.append(("toggle-region", node))
    return sites


def _apply_mutation(kind: str, node: A.Node, rng: random.Random,
                    pending: List[Tuple[A.Stmt, A.Stmt]]) -> None:
    """Apply one mutation in place.  Mutations that must *replace* the node
    (rather than edit it) append an ``(old, new)`` pair to ``pending``; the
    caller splices them via :func:`_splice`."""
    if kind == "flip-guard-op":
        cond = node.cond  # type: ignore[attr-defined]
        others = [op for op in _GUARD_OPS if op != cond.op]
        cond.op = rng.choice(others)
    elif kind == "bump-guard-const":
        lit = node.cond.right  # type: ignore[attr-defined]
        lit.value = (lit.value + rng.choice((1, -1))) % 3
    elif kind == "swap-collective":
        call = node.expr  # type: ignore[attr-defined]
        for family in _SWAP_FAMILIES:
            if call.name in family and len(family) > 1:
                call.name = rng.choice([n for n in family if n != call.name])
                return
    elif kind == "wrap-rank-guard":
        guard = A.If(
            cond=A.BinOp(op=rng.choice(("==", "!=")), left=A.VarRef(name="r"),
                         right=A.IntLit(value=rng.randrange(2))),
            then_body=A.Block(stmts=[node]),  # type: ignore[list-item]
        )
        pending.append((node, guard))
    elif kind == "unwrap-guard":
        block = node
        for i, child in enumerate(block.stmts):  # type: ignore[attr-defined]
            if isinstance(child, A.If):
                repl = list(child.then_body.stmts)
                if child.else_body is not None:
                    repl += list(child.else_body.stmts)
                block.stmts[i:i + 1] = repl  # type: ignore[attr-defined]
                return
    elif kind == "toggle-region":
        # single <-> master (changes the winner semantics + required level).
        body = node.body  # type: ignore[attr-defined]
        swapped: A.Stmt = (A.OmpMaster(body=body)
                           if isinstance(node, A.OmpSingle)
                           else A.OmpSingle(body=body))
        pending.append((node, swapped))
    else:
        raise AssertionError(f"unhandled mutation {kind}")


def _splice(program: A.Program,
            pending: List[Tuple[A.Stmt, A.Stmt]]) -> None:
    while pending:
        old, new = pending.pop()
        _replace_first(program, old, new)


def _replace_first(program: A.Program, old: A.Stmt, new: A.Stmt) -> None:
    """Swap ``old`` for ``new`` in its parent block (first occurrence only —
    ``new`` may itself contain ``old``, e.g. wrap-rank-guard)."""
    for node in program.walk():
        if isinstance(node, A.Block):
            for i, child in enumerate(node.stmts):
                if child is old:
                    node.stmts[i] = new
                    return


def mutate(source: str, seed: int, rounds: int = 1) -> str:
    """Perturb ``source`` deterministically: pick one mutation site by seed,
    apply it, and return the mutant *iff* it is still well-formed — illegal
    mutants fall through to the next site (in a seed-rotated deterministic
    order).  Returns ``source`` unchanged when no legal mutation exists.

    ``rounds`` is the coverage fuzzer's **energy**: each extra round applies
    one more mutation to the previous round's output (with a derived rng
    seed), compounding perturbations the single-step mutator cannot reach.
    ``rounds=1`` is byte-identical to the historical single-round mutator —
    the checked-in corpus and the every-``MUTANT_STRIDE``-th-seed contract
    depend on that."""
    try:
        program = parse_program(source, "<mutate>")
    except Exception:  # noqa: BLE001 - not a valid subject
        return source
    return mutate_checked(source, program, seed, rounds)[0]


def mutate_checked(source: str, program: A.Program, seed: int,
                   rounds: int = 1) -> Tuple[str, A.Program]:
    """:func:`mutate` over ``source`` and its parsed ``program``.

    Returns the mutant and its checked AST (the guard's parse of the
    mutant text), or ``source`` and an unmutated AST of it.  ``program`` is
    consumed: mutations are applied to it in place."""
    for round_no in range(max(1, rounds)):
        step_seed = seed if round_no == 0 else seed * 1_000_003 + round_no
        nxt, program = _mutate_once(source, program, step_seed)
        if nxt == source:
            break
        source = nxt
    return source, program


def _mutate_once(source: str, program: A.Program,
                 seed: int) -> Tuple[str, A.Program]:
    rng = random.Random(seed)
    sites = _mutation_sites(program)
    if not sites:
        return source, program
    start = rng.randrange(len(sites))
    for offset in range(len(sites)):
        if offset:
            # The rejected attempt mutated ``program`` in place.
            program = parse_program(source, "<mutate>")
            sites = _mutation_sites(program)
        attempt_rng = random.Random(seed * 1_000_003 + offset)
        kind, node = sites[(start + offset) % len(sites)]
        pending: List[Tuple[A.Stmt, A.Stmt]] = []
        _apply_mutation(kind, node, attempt_rng, pending)
        _splice(program, pending)
        mutant = pretty(program)
        if mutant == source:
            continue
        try:
            checked = _checked(mutant, "<mutant>")
        except GeneratorError:
            continue
        probe("mut:" + kind)
        return mutant, checked
    return source, parse_program(source, "<mutate>")
