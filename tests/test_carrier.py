"""What a scheduled run leaves behind in its process.

Logical threads once ran on reused OS threads, carriers; they are
generators now, resumed on the OS thread that calls ``MpiWorld.run``.  Two
checks outlive the carriers: a process forked after runs (the ``--jobs``
pools) sweeps like the serial driver, and a finished run keeps no world
alive — freed by reference counts alone, with the cyclic collector off.
"""

import gc
import weakref

import pytest

from repro.bench import CASES
from repro.explore import ExploreConfig, Scheduler, explore_config, run_scheduled
from repro.minilang.parser import parse_program
from repro.runtime import run as run_module
from repro.runtime.run import run_program


def _case(name):
    case = CASES[name]
    return (parse_program(case.source, f"{name}.mc"),
            ExploreConfig(nprocs=case.nprocs, num_threads=3))


def test_a_forked_pool_child_sweeps_like_serial():
    program, config = _case("racy_single_worker_allreduce")
    run_scheduled(program, config)  # the parent has run before it forks

    def sweep(jobs):
        r = explore_config(program, config, strategy="dpor", runs=60,
                           preemptions=2, minimize=False, jobs=jobs,
                           collect_schedules=True)
        return (r.schedules, sorted(r.verdict_counts.items()), r.dpor_stats,
                r.schedule_choices, r.summary())

    serial = sweep(1)
    assert serial[0] > 10
    assert sweep(2) == serial


@pytest.mark.parametrize("name", ["single_region_ok", "barrier_in_parallel"])
def test_a_finished_run_keeps_no_world_alive(monkeypatch, name):
    worlds = []

    class RecordedWorld(run_module.MpiWorld):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            worlds.append(weakref.ref(self))

    monkeypatch.setattr(run_module, "MpiWorld", RecordedWorld)
    program, config = _case(name)
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = run_program(program, nprocs=config.nprocs, num_threads=3,
                             scheduler=Scheduler())
        assert len(worlds) == 1 and worlds[0]() is None, result.verdict
    finally:
        if enabled:
            gc.enable()
