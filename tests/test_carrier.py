"""Carrier threads: reuse across runs, fork safety, retention, failures."""

import gc
import multiprocessing
import sys
import threading
import weakref

import pytest

from repro.bench import CASES
from repro.explore import ExploreConfig, Scheduler, explore_config, run_scheduled
from repro.minilang.parser import parse_program
from repro.runtime import carrier
from repro.runtime import run as run_module
from repro.runtime.run import run_program


def _case(name):
    case = CASES[name]
    return (parse_program(case.source, f"{name}.mc"),
            ExploreConfig(nprocs=case.nprocs, num_threads=3))


def test_scheduled_runs_reuse_parked_carriers(monkeypatch):
    # One default run of this case already has its widest set of
    # simultaneous logical threads (2 ranks x 3), so it parks every
    # carrier the DPOR runs below need.
    program, config = _case("single_region_ok")
    run_scheduled(program, config)
    starts = []
    real_start = threading.Thread.start

    def counted_start(thread):
        starts.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    report = explore_config(program, config, strategy="dpor", runs=20,
                            minimize=False)
    assert report.schedules == 20
    assert starts == []


def _run_in_child(program, config, expected):
    result, _ = run_scheduled(program, config)
    assert result.verdict == expected


def test_forked_child_starts_its_own_carriers():
    program, config = _case("racy_single_worker_allreduce")
    expected = run_scheduled(program, config)[0].verdict  # parks carriers
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(target=_run_in_child,
                        args=(program, config, expected))
    child.start()
    child.join(timeout=30)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung, "the forked child waited on a parent's carrier"
    assert child.exitcode == 0


@pytest.mark.parametrize("name", ["single_region_ok", "barrier_in_parallel"])
def test_parked_carriers_keep_no_world_alive(monkeypatch, name):
    worlds = []

    class RecordedWorld(run_module.MpiWorld):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            worlds.append(weakref.ref(self))

    monkeypatch.setattr(run_module, "MpiWorld", RecordedWorld)
    program, config = _case(name)
    run_program(program, nprocs=config.nprocs, num_threads=3,
                scheduler=Scheduler())
    gc.collect()
    assert len(worlds) == 1 and worlds[0]() is None


@pytest.mark.parametrize("error", [
    ValueError("task bug"),
    # Ends its carrier on purpose; pytest reports the thread's exit.
    pytest.param(SystemExit(3), marks=pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")),
], ids=["exception", "base-exception"])
def test_a_failing_task_leaves_the_pool_usable(error, capsys):
    def failing():
        raise error

    assert carrier.spawn(failing).acquire(timeout=10)
    ran = []
    for _ in range(3):
        assert carrier.spawn(lambda: ran.append(1)).acquire(timeout=10)
    assert ran == [1, 1, 1]
    if isinstance(error, ValueError):
        assert "task bug" in capsys.readouterr().err


def test_concurrent_spawns_run_every_task_once():
    # More spawners than cores, switching often: every task must still run
    # exactly once, and no carrier may be listed as idle twice.
    runs = [0] * 1200
    dones = [[] for _ in range(6)]

    def spawner(k):
        for i in range(k, len(runs), len(dones)):
            def task(i=i):
                runs[i] += 1
            dones[k].append(carrier.spawn(task))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=spawner, args=(k,))
                   for k in range(len(dones))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert all(d.acquire(timeout=30) for ds in dones for d in ds)
    finally:
        sys.setswitchinterval(interval)
    assert runs == [1] * len(runs)
    assert len(set(map(id, carrier._idle))) == len(carrier._idle)
