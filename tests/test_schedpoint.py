"""SchedPoint behavior of a world's default scheduler: an abort or a
matching send wakes a blocked wait, critical sections exclude, and one
cooperative wall-clock deadline bounds a run that never reaches a
scheduling step.  Rank bodies are generators; a run starts no OS thread
and leaves no suspended generator behind, whether it ends clean, by an
abort or by ``KeyboardInterrupt``."""

import gc
import inspect
import threading
import time

import pytest

from repro import parse_program
from repro.bench import CASES
from repro.explore import ExploreConfig, Scheduler, explore_config
from repro.explore.strategies import Strategy
from repro.mpi.thread_levels import ThreadLevel
from repro.runtime import DeadlockError, MpiWorld, ValidationError, run_program
from repro.runtime.interp import interpreter
from repro.runtime.schedpoint import SchedPoint
from repro.runtime.simmpi import world as world_module
from repro.runtime.simmpi.process import CriticalSection
from repro.runtime.simomp import Team


def test_abort_wakes_a_blocked_collective_promptly():
    """rank 0 blocks in a collective round; rank 1 errors after 0.3 s.
    The abort must make rank 0 runnable at once, so the run ends promptly."""
    def body(proc):
        if proc.rank == 0:
            yield from proc.collective("MPI_Barrier", (), None)
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
            return (yield from proc.recv(1, 5))
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
            yield from proc.send(1, 3, "late")
            return None
        return (yield from proc.recv(0, 3))

    world = MpiWorld(2)
    result = world.run(body)
    assert result.ok
    assert result.returns[1] == "late"


class _Rotate(Strategy):
    """Hands the token on to the next runnable thread at every decision."""

    def choose(self, index, candidates, current, point):
        if current in candidates:
            return candidates[(candidates.index(current) + 1) % len(candidates)]
        return candidates[0]


def test_critical_section_is_mutually_exclusive_threaded():
    def body(proc):
        section = proc.critical_lock("c")
        counts = []

        def bump(tid):
            yield from section.acquire()
            try:
                current = len(counts)
                # Hand the token on while holding the section.
                yield from proc.sched.yield_point(proc.world,
                                                  SchedPoint.CHECK, "inside")
                counts.append(current)
            finally:
                section.release()

        yield from Team(proc.world, proc, 4).run(bump)
        return counts

    world = MpiWorld(1, scheduler=Scheduler(_Rotate()))
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
        yield from proc.collective("MPI_Barrier", (), None)
        yield from proc.collective("MPI_Allreduce", ("sum",), proc.rank)

    world = MpiWorld(2)
    result = world.run(body)
    assert [op for op, _ in result.history] == ["MPI_Barrier", "MPI_Allreduce"]


def _suspended_generators():
    """Runtime and scheduler generators still suspended mid-body."""
    return [g for g in gc.get_objects()
            if inspect.isgenerator(g)
            and inspect.getgeneratorstate(g) == inspect.GEN_SUSPENDED
            and "repro" in g.gi_code.co_filename]


@pytest.fixture
def thread_starts(monkeypatch):
    """Names of the OS threads started while the test runs."""
    starts = []
    real_start = threading.Thread.start

    def counted_start(thread):
        starts.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    return starts


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
    assert not scheduler._threads  # no logical thread still registered


@pytest.mark.parametrize("loop", [
    "while (1 > 0) { }",
    "while (i >= 0) { i = i + 1; }",
    "\n#pragma omp parallel for num_threads(2)\n"
    "for (float f = 0.0; f < 10000000000000.0; f += 1) { }\n",
], ids=["empty-body", "statement-body", "float-omp-for-trip-count"])
def test_a_stalled_spin_leaves_no_zombie(monkeypatch, thread_starts, loop):
    """The deadline is checked at every loop iteration, so even a loop with
    no statement in its body ends the run; nothing spins on afterwards.  An
    ``omp for`` over 10**13 float trips stalls while it counts them."""
    guard = 0.5
    monkeypatch.setattr(world_module, "WALL_GUARD", guard)
    program = parse_program(f"void main() {{ int i = 0; {loop} }}", "spin")
    start = time.perf_counter()
    result = run_program(program, nprocs=4)
    assert time.perf_counter() - start < 1.5 * guard
    assert "run stalled" in str(result.error)
    cpu, wall = time.process_time(), time.perf_counter()
    time.sleep(0.5)
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    assert cpu < 0.1 * wall
    assert thread_starts == []
    assert _suspended_generators() == []


def test_a_sweep_starts_no_os_thread(thread_starts):
    case = CASES["nested_parallel_single"]
    program = parse_program(case.source, "nested_parallel_single.mc")
    report = explore_config(program, ExploreConfig(nprocs=case.nprocs,
                                                   num_threads=3),
                            strategy="dpor", runs=20, minimize=False)
    assert report.schedules == 20
    assert thread_starts == []


def test_an_aborted_run_leaves_no_suspended_generator():
    case = CASES["barrier_in_parallel"]
    program = parse_program(case.source, "barrier_in_parallel.mc")
    result = run_program(program, nprocs=case.nprocs, num_threads=3)
    assert result.verdict == "ConcurrentCollectiveError"
    assert _suspended_generators() == []


def test_an_interrupted_run_closes_every_logical_thread(monkeypatch):
    """A ``KeyboardInterrupt`` in one logical thread ends the run at once;
    the scheduler closes every other thread's generator on the way out."""
    program = parse_program("""
void main() {
    MPI_Init_thread(3);
    #pragma omp parallel num_threads(3)
    {
        print(omp_get_thread_num());
        #pragma omp barrier
        print(omp_get_thread_num());
    }
    MPI_Finalize();
}
""", "interrupted")
    prints = []

    def interrupting_print(interp, ctx, args):
        prints.append(args)
        if len(prints) == 4:
            raise KeyboardInterrupt

    monkeypatch.setitem(interpreter._BUILTIN_IMPL, "print", interrupting_print)
    with pytest.raises(KeyboardInterrupt):
        run_program(program, nprocs=2)
    assert len(prints) == 4
    assert _suspended_generators() == []
