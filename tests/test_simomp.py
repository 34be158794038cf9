"""OpenMP-like runtime tests: teams, barriers, single claims, worksharing.

Team members are logical threads: ``body(tid)`` returns a generator, and
the blocking operations (``run``, ``barrier``, ``claim``) are driven with
``yield from``."""

import pytest

from repro.mpi.thread_levels import ThreadLevel
from repro.runtime import DeadlockError, MpiWorld
from repro.runtime.simomp import Team


def with_world(fn):
    world = MpiWorld(1, thread_level=ThreadLevel.MULTIPLE)
    return world.run(fn)


def test_team_runs_all_tids():
    seen = []

    def body(proc):
        team = Team(proc.world, proc, 4)

        def tbody(tid):
            seen.append(tid)
            yield from ()

        yield from team.run(tbody)

    result = with_world(body)
    assert result.ok
    assert sorted(seen) == [0, 1, 2, 3]


def test_team_size_one_runs_inline():
    def body(proc):
        team = Team(proc.world, proc, 1)
        holder = []

        def tbody(tid):
            holder.append(proc.world.scheduler.running)
            yield from ()

        yield from team.run(tbody)
        return holder[0] == proc.world.scheduler.running

    result = with_world(body)
    assert result.returns[0] is True


def test_barrier_synchronizes_phases():
    def body(proc):
        team = Team(proc.world, proc, 3)
        phase1 = []
        phase2 = []

        def tbody(tid):
            phase1.append(tid)
            yield from team.barrier()
            # all phase1 entries must exist before any phase2 entry
            assert len(phase1) == 3
            phase2.append(tid)

        yield from team.run(tbody)
        return len(phase2)

    result = with_world(body)
    assert result.ok, result.error
    assert result.returns[0] == 3


def test_single_claim_exactly_one_winner_per_encounter():
    def body(proc):
        team = Team(proc.world, proc, 4)
        wins = {0: [], 1: []}

        def tbody(tid):
            for encounter in (0, 1):
                if (yield from team.claim(99, encounter, tid)):
                    wins[encounter].append(tid)
                yield from team.barrier()

        yield from team.run(tbody)
        return {k: len(v) for k, v in wins.items()}

    result = with_world(body)
    assert result.returns[0] == {0: 1, 1: 1}


def test_static_chunks_partition_iteration_space():
    def body(proc):
        team = Team(proc.world, proc, 3)
        chunks = [team.static_chunk(tid, 10) for tid in range(3)]
        flat = [i for c in chunks for i in c]
        return sorted(flat)
        yield  # a generator, as every rank body is

    result = with_world(body)
    assert result.returns[0] == list(range(10))


def test_static_chunks_empty_when_fewer_iterations_than_threads():
    def body(proc):
        team = Team(proc.world, proc, 4)
        sizes = [len(team.static_chunk(tid, 2)) for tid in range(4)]
        return sizes
        yield  # a generator, as every rank body is

    result = with_world(body)
    assert result.returns[0] == [1, 1, 0, 0]


def test_section_owner_round_robin():
    def body(proc):
        team = Team(proc.world, proc, 2)
        return [team.section_owner(i) for i in range(5)]
        yield  # a generator, as every rank body is

    result = with_world(body)
    assert result.returns[0] == [0, 1, 0, 1, 0]


def test_barrier_timeout_when_thread_never_arrives():
    def body(proc):
        team = Team(proc.world, proc, 2)

        def tbody(tid):
            if tid == 0:
                yield from team.barrier()
            # tid 1 never reaches the barrier

        yield from team.run(tbody)

    result = with_world(body)
    assert isinstance(result.error, DeadlockError)
    assert "barrier" in str(result.error).lower()


def test_validation_error_in_worker_aborts_world():
    from repro.runtime.errors import ValidationError

    def body(proc):
        team = Team(proc.world, proc, 3)

        def tbody(tid):
            if tid == 2:
                raise ValidationError("boom")
            yield from team.barrier()

        yield from team.run(tbody)

    result = with_world(body)
    assert result.error is not None
    assert "boom" in str(result.error)


def test_nested_teams():
    def body(proc):
        outer = Team(proc.world, proc, 2)
        counts = []

        def obody(otid):
            inner = Team(proc.world, proc, 2)

            def ibody(itid):
                counts.append((otid, itid))
                yield from ()

            yield from inner.run(ibody)

        yield from outer.run(obody)
        return sorted(counts)

    result = with_world(body)
    assert result.returns[0] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_zero_size_team_rejected():
    world = MpiWorld(1)
    with pytest.raises(ValueError):
        Team(world, world.procs[0], 0)
