"""Verification code generation (the paper's §3).

Transforms the AST of every function the driver planned for instrumentation:

* before each MPI collective call: ``PARCOACH_CC(color, name, line)`` —
  the CC check (Allreduce of the collective color; min ≠ max aborts the run
  *before* the divergent collective executes);
* before each ``return`` and at the end of the function body:
  ``PARCOACH_CC(0, "<return>", line)`` — "no more collectives here";
* around collective sites flagged by phases 1/2:
  ``PARCOACH_ENTER(group, name)`` / ``PARCOACH_EXIT(group)`` — a per-process
  concurrency counter; two threads inside the same group simultaneously
  abort the run (multithreaded execution of a collective, or two concurrent
  monothreaded regions).

Deviation from the paper, documented in DESIGN.md: the paper wraps CC calls
in ``#pragma omp single`` when several threads may reach them.  minilang's
semantic checker forbids ``return`` inside OpenMP regions (structured-block
rule), so return-CCs are always monothreaded here; for collective sites in
multithreaded contexts the ENTER counter aborts before a second thread could
issue a duplicate CC, which preserves the CC pairing invariant without the
``single`` (and avoids the team-deadlock a barrier-carrying ``single`` would
cause on thread-divergent paths).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List

from ..minilang import ast_nodes as A
from ..mpi.collectives import RETURN_COLOR, collective_color
from .driver import FunctionAnalysis, ProgramAnalysis
from .sites import CollectiveSite

CC_FUNC = "PARCOACH_CC"
ENTER_FUNC = "PARCOACH_ENTER"
EXIT_FUNC = "PARCOACH_EXIT"


@dataclass
class InstrumentationReport:
    """What the code generator inserted (drives the ablation benches)."""

    cc_calls: int = 0
    return_ccs: int = 0
    enter_checks: int = 0
    per_function: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.cc_calls + self.return_ccs + self.enter_checks


def _cc_stmt(color: int, name: str, line: int) -> A.ExprStmt:
    return A.ExprStmt(expr=A.Call(
        name=CC_FUNC,
        args=[A.IntLit(value=color), A.StringLit(value=name), A.IntLit(value=line)],
        line=line,
    ), line=line)


def _enter_stmt(group: int, what: str, line: int) -> A.ExprStmt:
    return A.ExprStmt(expr=A.Call(
        name=ENTER_FUNC,
        args=[A.IntLit(value=group), A.StringLit(value=what)],
        line=line,
    ), line=line)


def _exit_stmt(group: int, line: int) -> A.ExprStmt:
    return A.ExprStmt(expr=A.Call(
        name=EXIT_FUNC, args=[A.IntLit(value=group)], line=line,
    ), line=line)


class _FunctionInstrumenter:
    def __init__(self, fa: FunctionAnalysis, report: InstrumentationReport) -> None:
        self.fa = fa
        self.report = report
        self.sites_by_uid: Dict[int, CollectiveSite] = {s.uid: s for s in fa.sites}
        self.count = 0

    def apply(self, func: A.FuncDef) -> None:
        self._transform_block(func.body)
        last = func.body.stmts[-1] if func.body.stmts else None
        if not isinstance(last, A.Return):
            line = last.line if last is not None else func.line
            func.body.stmts.append(_cc_stmt(RETURN_COLOR, "<return>", line))
            self.report.return_ccs += 1
            self.count += 1
        # Structural mutation marker: the AnalysisEngine checks it on every
        # cache hit instead of re-walking the tree, so an in-place
        # instrumented function is never served stale cached artifacts.
        func.structure_version = getattr(func, "structure_version", 0) + 1

    # -- recursion -------------------------------------------------------------

    def _transform_block(self, block: A.Block) -> None:
        new: List[A.Stmt] = []
        for stmt in block.stmts:
            self._transform_stmt(stmt, new)
        block.stmts = new

    def _transform_stmt(self, stmt: A.Stmt, out: List[A.Stmt]) -> None:
        if isinstance(stmt, A.Return):
            out.append(_cc_stmt(RETURN_COLOR, "<return>", stmt.line))
            self.report.return_ccs += 1
            self.count += 1
            out.append(stmt)
            return

        if stmt.uid in self.fa.cc_sites:
            site = self.sites_by_uid[stmt.uid]
            groups = self.fa.check_groups.get(stmt.uid, [])
            for g in groups:
                out.append(_enter_stmt(g, site.name, stmt.line))
                self.report.enter_checks += 1
                self.count += 1
            if site.kind == "collective":
                out.append(_cc_stmt(collective_color(site.name), site.name, site.line))
                self.report.cc_calls += 1
                self.count += 1
            out.append(stmt)
            for g in reversed(groups):
                out.append(_exit_stmt(g, stmt.line))
            return

        # Recurse into compound statements.
        if isinstance(stmt, A.Block):
            self._transform_block(stmt)
        elif isinstance(stmt, A.If):
            self._transform_block(stmt.then_body)
            if stmt.else_body is not None:
                self._transform_block(stmt.else_body)
        elif isinstance(stmt, A.While):
            self._transform_block(stmt.body)
        elif isinstance(stmt, A.For):
            self._transform_block(stmt.body)
        elif isinstance(stmt, A.OmpParallel):
            self._transform_block(stmt.body)
        elif isinstance(stmt, A.OmpSingle):
            self._transform_block(stmt.body)
        elif isinstance(stmt, A.OmpMaster):
            self._transform_block(stmt.body)
        elif isinstance(stmt, A.OmpCritical):
            self._transform_block(stmt.body)
        elif isinstance(stmt, A.OmpTask):
            self._transform_block(stmt.body)
        elif isinstance(stmt, A.OmpFor):
            self._transform_block(stmt.loop.body)
        elif isinstance(stmt, A.OmpSections):
            for section in stmt.sections:
                self._transform_block(section)
        out.append(stmt)


def instrument_program(analysis: ProgramAnalysis,
                       in_place: bool = False) -> tuple[A.Program, InstrumentationReport]:
    """Produce the instrumented version of the analysed program.

    By default the original AST is left untouched (``deepcopy`` keeps node
    uids stable, so the analysis maps keyed by uid apply to the copy
    directly).  ``in_place=True`` mutates the analysed AST instead — what a
    compiler pass does, and what the compile-time benchmark measures.
    """
    program = analysis.program if in_place else copy.deepcopy(analysis.program)
    report = InstrumentationReport()
    for func in program.funcs:
        fa = analysis.functions.get(func.name)
        if fa is None or not fa.instrumented:
            continue
        inst = _FunctionInstrumenter(fa, report)
        inst.apply(func)
        report.per_function[func.name] = inst.count
    return program, report
