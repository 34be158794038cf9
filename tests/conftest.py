"""Shared helpers for the test suite."""

from __future__ import annotations

import pytest

from repro import analyze_program, instrument_program, parse_program, run_program
from repro.mpi.thread_levels import ThreadLevel


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
