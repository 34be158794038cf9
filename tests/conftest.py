"""Shared helpers for the test suite."""

from __future__ import annotations

import pytest

from repro import analyze_program, instrument_program, parse_program, run_program
from repro.core.driver import build_plan
from repro.core.engine import ProgramFacts, ast_fingerprint
from repro.core.report import render_json, report_from_analysis
from repro.core.sites import collective_call_graph, index_program
from repro.mpi.thread_levels import ThreadLevel
from repro.parallelism import EMPTY
from repro.project import ProjectSession


def analyze_source(src: str, **kwargs):
    """parse + analyze in one call."""
    return analyze_program(parse_program(src), **kwargs)


def run_source(src: str, nprocs: int = 2, num_threads: int = 2,
               instrument: bool = False, **kwargs):
    """parse (+ optionally analyze & instrument) + run."""
    program = parse_program(src)
    group_kinds = None
    if instrument:
        analysis = analyze_program(program)
        program, _ = instrument_program(analysis)
        group_kinds = analysis.group_kinds
    return run_program(program, nprocs=nprocs, num_threads=num_threads,
                       group_kinds=group_kinds, **kwargs)


@pytest.fixture
def mk_analysis():
    return analyze_source


@pytest.fixture
def mk_run():
    return run_source


# -- the engine, as the sessions drive it -------------------------------------------


def engine_facts(program):
    """The program facts a session hands the engine, derived cold."""
    index = index_program(program)
    return ProgramFacts(index=index,
                        collective_funcs=collective_call_graph(program, index),
                        func_names={f.name for f in program.funcs},
                        requested=None)


def engine_functions(engine, program, precision="paper", initial_words=None,
                     entry_context=EMPTY, interprocedural=True):
    """``engine.analyze_functions`` over every function of ``program``:
    ``{name: (merged artifacts, context words, word infos)}``.  The plan
    comes from ``build_plan``, the fingerprints from ``ast_fingerprint``."""
    facts = engine_facts(program)
    initial_words = initial_words or {}
    plan = (build_plan(program, facts.index, initial_words, entry_context)
            if interprocedural else None)
    return engine.analyze_functions(
        program.funcs, {f.name: ast_fingerprint(f) for f in program.funcs},
        facts, plan, initial_words, precision)


def artifact_diagnostics(art):
    """Rendered diagnostics of one function's artifacts, phase by phase."""
    return [d.render() for d in (*art.monothread.diagnostics,
                                 *art.concurrency.diagnostics,
                                 *art.sequence.diagnostics)]


def merged_diagnostics(merged):
    """:func:`artifact_diagnostics` of each function of an
    ``analyze_functions`` result."""
    return {name: artifact_diagnostics(art)
            for name, (art, _words, _infos) in merged.items()}


def served_report(engine, path, **mode) -> str:
    """The full Report IR of ``path`` served as a one-file project over
    ``engine`` (what ``parcoach serve`` answers from)."""
    session = ProjectSession(str(path), one_file=True, engine=engine, **mode)
    session.update_all()
    return render_json(session.report)


def driver_report(path, text: str, **mode) -> str:
    """:func:`served_report`'s bytes from the engine-free driver."""
    report = report_from_analysis(
        analyze_program(parse_program(text, str(path)), **mode),
        tool="project")
    report["source"] = {"file": ""}  # a one-file project has no root
    return render_json(report)
