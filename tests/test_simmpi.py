"""MPI simulator tests: collective data semantics, mismatch and deadlock
detection, thread levels, point-to-point.  Rank bodies are generators the
world's scheduler resumes; MPI operations are driven with ``yield from``."""

import pytest

from repro.mpi.thread_levels import ThreadLevel
from repro.runtime import DeadlockError, MpiWorld
from repro.runtime.simmpi import ops


def run_world(nprocs, fn, thread_level=ThreadLevel.MULTIPLE):
    world = MpiWorld(nprocs, thread_level=thread_level)
    return world.run(fn)


# -- data semantics (unit tests on ops.combine) ------------------------------------


def test_bcast_semantics():
    out = ops.combine("MPI_Bcast", (1,), {0: None, 1: "hello", 2: None}, [0, 1, 2])
    assert out == {0: "hello", 1: "hello", 2: "hello"}


def test_reduce_semantics():
    out = ops.combine("MPI_Reduce", (0, "sum"), {0: 1, 1: 2, 2: 3}, [0, 1, 2])
    assert out[0] == 6 and out[1] is None and out[2] is None


def test_allreduce_min_max():
    assert ops.combine("MPI_Allreduce", ("max",), {0: 5, 1: 9}, [0, 1]) == {0: 9, 1: 9}
    assert ops.combine("MPI_Allreduce", ("min",), {0: 5, 1: 9}, [0, 1]) == {0: 5, 1: 5}


def test_gather_scatter():
    g = ops.combine("MPI_Gather", (1,), {0: "a", 1: "b"}, [0, 1])
    assert g[1] == ["a", "b"] and g[0] is None
    s = ops.combine("MPI_Scatter", (0,), {0: [10, 20], 1: None}, [0, 1])
    assert s == {0: 10, 1: 20}


def test_allgather_alltoall():
    ag = ops.combine("MPI_Allgather", (), {0: 7, 1: 8}, [0, 1])
    assert ag == {0: [7, 8], 1: [7, 8]}
    at = ops.combine("MPI_Alltoall", (), {0: [1, 2], 1: [3, 4]}, [0, 1])
    assert at == {0: [1, 3], 1: [2, 4]}


def test_scan_exscan():
    sc = ops.combine("MPI_Scan", ("sum",), {0: 1, 1: 2, 2: 3}, [0, 1, 2])
    assert sc == {0: 1, 1: 3, 2: 6}
    ex = ops.combine("MPI_Exscan", ("sum",), {0: 1, 1: 2, 2: 3}, [0, 1, 2])
    assert ex[0] is None and ex[1] == 1 and ex[2] == 3


def test_reduce_scatter_block():
    out = ops.combine("MPI_Reduce_scatter_block", ("sum",),
                      {0: [1, 2], 1: [10, 20]}, [0, 1])
    assert out == {0: 11, 1: 22}


def test_cc_op_returns_min_max_and_votes():
    out = ops.combine("__CC__", (), {0: 2, 1: 5}, [0, 1])
    mn, mx, votes = out[0]
    assert (mn, mx) == (2, 5)
    assert votes == {0: 2, 1: 5}


def test_scatter_bad_buffer_rejected():
    with pytest.raises(ValueError):
        ops.combine("MPI_Scatter", (0,), {0: 42, 1: None}, [0, 1])


def test_unknown_reduction_rejected():
    with pytest.raises(ValueError):
        ops.reduce_values("xor", [1, 2])


def test_unknown_collective_rejected():
    with pytest.raises(ValueError):
        ops.combine("MPI_Nope", (), {0: 1}, [0])


# -- live engine behaviour --------------------------------------------------------


def test_barrier_and_allreduce_across_ranks():
    def body(proc):
        yield from proc.collective("MPI_Barrier", (), None)
        return (yield from proc.collective("MPI_Allreduce", ("sum",), proc.rank + 1))

    result = run_world(3, body)
    assert result.ok, result.error
    assert result.returns == {0: 6, 1: 6, 2: 6}


def test_repeated_collectives_many_rounds():
    def body(proc):
        acc = 0
        for i in range(20):
            acc = yield from proc.collective("MPI_Allreduce", ("sum",), i)
        return acc

    result = run_world(2, body)
    assert result.ok
    assert result.returns[0] == 38  # 19 + 19


def test_mismatched_ops_detected_as_deadlock():
    def body(proc):
        if proc.rank == 0:
            yield from proc.collective("MPI_Barrier", (), None)
        else:
            yield from proc.collective("MPI_Allreduce", ("sum",), 1)

    result = run_world(2, body)
    assert isinstance(result.error, DeadlockError)
    assert "mismatched collective" in str(result.error)


def test_mismatched_roots_detected():
    def body(proc):
        yield from proc.collective("MPI_Bcast", (proc.rank,), 1)

    result = run_world(2, body)
    assert isinstance(result.error, DeadlockError)
    assert "mismatched arguments" in str(result.error)


def test_rank_exiting_early_deadlocks_peers():
    def body(proc):
        if proc.rank == 0:
            yield from proc.collective("MPI_Barrier", (), None)
        # rank 1 returns immediately

    result = run_world(2, body)
    assert isinstance(result.error, DeadlockError)
    assert "finished" in str(result.error)


def test_engine_history_records_rounds():
    def body(proc):
        yield from proc.collective("MPI_Barrier", (), None)
        yield from proc.collective("MPI_Allreduce", ("sum",), 1)

    world = MpiWorld(2)
    world.run(body)
    assert [h[0] for h in world.engine.history] == ["MPI_Barrier", "MPI_Allreduce"]


# -- point to point ------------------------------------------------------------------


def test_send_recv_roundtrip():
    def body(proc):
        if proc.rank == 0:
            yield from proc.send(1, 7, "payload")
            return None
        return (yield from proc.recv(0, 7))

    result = run_world(2, body)
    assert result.ok
    assert result.returns[1] == "payload"


def test_recv_wildcards():
    def body(proc):
        if proc.rank == 0:
            yield from proc.send(1, 42, "x")
            return None
        return (yield from proc.recv(-1, -1))

    result = run_world(2, body)
    assert result.returns[1] == "x"


def test_recv_without_send_deadlocks():
    def body(proc):
        if proc.rank == 1:
            return (yield from proc.recv(0, 9))
        return None

    result = run_world(2, body)
    assert isinstance(result.error, DeadlockError)


# -- thread-level guard ------------------------------------------------------------------


def test_finalize_then_call_is_error():
    from repro.runtime import MpiRuntimeError

    def body(proc):
        yield from proc.collective("MPI_Finalize", (), None)
        yield from proc.collective("MPI_Barrier", (), None)

    result = run_world(2, body)
    assert isinstance(result.error, MpiRuntimeError)


def test_init_thread_caps_at_world_level():
    def body(proc):
        granted = proc.init_thread(3)
        return granted
        yield  # a generator, as every rank body is

    world = MpiWorld(1, thread_level=ThreadLevel.SERIALIZED)
    result = world.run(body)
    assert result.returns[0] == ThreadLevel.SERIALIZED.value
