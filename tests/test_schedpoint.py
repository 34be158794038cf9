"""SchedPoint behavior of a world's default scheduler: an abort or a
matching send wakes a blocked wait, critical sections exclude, and one
wall-clock guard bounds a run that never reaches a scheduling step."""

import time

from repro import parse_program
from repro.explore import Scheduler
from repro.mpi.thread_levels import ThreadLevel
from repro.runtime import DeadlockError, MpiWorld, ValidationError, run_program
from repro.runtime.simmpi import world as world_module
from repro.runtime.simmpi.process import CriticalSection


def test_abort_wakes_a_blocked_collective_promptly():
    """rank 0 blocks in a collective round; rank 1 errors after 0.3 s.
    The abort must make rank 0 runnable at once, so the run ends promptly."""
    def body(proc):
        if proc.rank == 0:
            proc.collective("MPI_Barrier", (), None)
        else:
            time.sleep(0.3)
            raise ValidationError("boom")

    world = MpiWorld(2)
    start = time.perf_counter()
    result = world.run(body)
    elapsed = time.perf_counter() - start
    assert result.error is not None and "boom" in str(result.error)
    assert elapsed < 5.0  # notified, not deadline-bound


def test_abort_wakes_a_blocked_recv_promptly():
    def body(proc):
        if proc.rank == 0:
            return proc.recv(1, 5)
        time.sleep(0.3)
        raise ValidationError("p2p abort")

    world = MpiWorld(2)
    start = time.perf_counter()
    result = world.run(body)
    assert result.error is not None
    assert time.perf_counter() - start < 5.0


def test_send_wakes_matching_recv():
    def body(proc):
        if proc.rank == 0:
            time.sleep(0.1)
            proc.send(1, 3, "late")
            return None
        return proc.recv(0, 3)

    world = MpiWorld(2)
    result = world.run(body)
    assert result.ok
    assert result.returns[1] == "late"


def test_critical_section_is_mutually_exclusive_threaded():
    def body(proc):
        section = proc.critical_lock("c")
        counts = []

        def bump():
            with section:
                current = len(counts)
                time.sleep(0.01)
                counts.append(current)

        import threading
        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return counts

    world = MpiWorld(1)
    result = world.run(body)
    assert result.ok
    assert result.returns[0] == [0, 1, 2, 3]  # strictly serialized


def test_critical_lock_returns_same_section_per_name():
    world = MpiWorld(1, thread_level=ThreadLevel.MULTIPLE)
    proc = world.procs[0]
    assert proc.critical_lock("a") is proc.critical_lock("a")
    assert proc.critical_lock("a") is not proc.critical_lock("b")
    assert isinstance(proc.critical_lock("a"), CriticalSection)


def test_run_result_carries_engine_history():
    def body(proc):
        proc.collective("MPI_Barrier", (), None)
        proc.collective("MPI_Allreduce", ("sum",), proc.rank)

    world = MpiWorld(2)
    result = world.run(body)
    assert [op for op, _ in result.history] == ["MPI_Barrier", "MPI_Allreduce"]


def test_one_wall_guard_bounds_a_yield_free_spin(monkeypatch):
    """Rank 0 spins without a scheduling step and keeps the token; the run
    is declared stalled after one guard, not one guard per rank, and every
    logical thread has unwound when it returns."""
    monkeypatch.setattr(world_module, "WALL_GUARD", 0.5)
    program = parse_program("""
void main() {
    int i = 0;
    while (i >= 0) {
        i = i + 1;
    }
}
""", "spin")
    scheduler = Scheduler()
    start = time.perf_counter()
    result = run_program(program, nprocs=4, scheduler=scheduler)
    assert time.perf_counter() - start < 1.5
    assert isinstance(result.error, DeadlockError)
    assert "run stalled" in str(result.error)
    assert scheduler.await_detached(0)  # no logical thread still attached
