"""Unit tests for the runtime check library (CC protocol, ENTER counters)."""

import pytest

from repro.mpi.thread_levels import ThreadLevel
from repro.runtime import (
    CheckState,
    CollectiveMismatchError,
    ConcurrentCollectiveError,
    MpiWorld,
    ThreadContextError,
)


def run_world(nprocs, fn):
    world = MpiWorld(nprocs, thread_level=ThreadLevel.MULTIPLE)
    return world.run(fn)


def test_cc_matching_colors_pass():
    def body(proc):
        checks = CheckState(proc)
        for color in (3, 1, 12):
            checks.cc(color, "op", 10)
        return proc.cc_calls

    result = run_world(3, body)
    assert result.ok
    assert result.returns[0] == 3


def test_cc_mismatch_aborts_with_both_sides_named():
    def body(proc):
        checks = CheckState(proc)
        if proc.rank == 0:
            checks.cc(2, "MPI_Bcast", 14)   # color of Bcast
        else:
            checks.cc(0, "<return>", 20)    # heading for return

    result = run_world(2, body)
    assert isinstance(result.error, CollectiveMismatchError)
    message = str(result.error)
    assert "MPI_Bcast" in message or "<return>" in message
    assert result.error.detected_by == "CC"


def test_cc_after_finalize_is_noop():
    def body(proc):
        checks = CheckState(proc)
        proc.collective("MPI_Finalize", (), None)
        checks.cc(0, "<return>", 99)  # must not attempt MPI
        return proc.cc_calls

    result = run_world(2, body)
    assert result.ok
    assert result.returns[0] == 0


def test_enter_single_thread_passes():
    def body(proc):
        checks = CheckState(proc, {7: "multithread"})
        for _ in range(10):
            checks.enter(7, "MPI_Barrier")
            checks.exit(7)
        return proc.enter_checks

    result = run_world(1, body)
    assert result.ok
    assert result.returns[0] == 10


def test_enter_overlap_multithread_kind():
    def body(proc):
        checks = CheckState(proc, {5: "multithread"})
        checks.enter(5, "MPI_Barrier")
        checks.enter(5, "MPI_Barrier")  # second entry without exit

    result = run_world(1, body)
    assert isinstance(result.error, ThreadContextError)


def test_enter_overlap_concurrent_kind():
    def body(proc):
        checks = CheckState(proc, {5: "concurrent"})
        checks.enter(5, "MPI_Reduce")
        checks.enter(5, "MPI_Bcast")

    result = run_world(1, body)
    assert isinstance(result.error, ConcurrentCollectiveError)


def test_exit_never_goes_negative():
    def body(proc):
        checks = CheckState(proc, {})
        checks.exit(3)
        checks.enter(3, "x")
        checks.enter(3, "x")  # would be 2 if exit had gone to -1

    result = run_world(1, body)
    assert isinstance(result.error, ThreadContextError)


def test_counters_are_per_group():
    def body(proc):
        checks = CheckState(proc, {1: "multithread", 2: "multithread"})
        checks.enter(1, "a")
        checks.enter(2, "b")  # different group: no overlap
        checks.exit(2)
        checks.exit(1)

    result = run_world(1, body)
    assert result.ok


def test_cc_counts_accumulate_in_run_result():
    def body(proc):
        checks = CheckState(proc)
        checks.cc(1, "MPI_Barrier", 3)
        checks.enter(9, "x")
        checks.exit(9)

    result = run_world(2, body)
    assert result.cc_calls == 2      # both ranks
    assert result.enter_checks == 2


def test_world_rejects_zero_ranks():
    with pytest.raises(ValueError):
        MpiWorld(0)
