"""The simulated MPI world: N ranks, one logical thread each.

``MpiWorld.run(target)`` runs the generator ``target(proc)`` of every rank
as a logical thread, resumed by the world's cooperative scheduler
(``schedpoint.py``) on the calling OS thread.  The first
:class:`ValidationError` raised anywhere aborts the world (all blocked
waits unwind via :class:`AbortedError`) and becomes the run's verdict; a
rank finishing while peers wait in a collective is a deadlock.  Runs are
deterministic, time is virtual, and deadlocks and livelocks end on the
virtual clock.  One wall-clock deadline, :data:`WALL_GUARD`, catches what
that clock cannot see, a thread that never reaches a decision point (a
yield-free spin).  It is cooperative: the interpreter checks it at every
statement and loop iteration (:meth:`MpiWorld.check`), and the first check
past it aborts the run with ``run stalled``.  A single operation that
never returns, such as multiplying astronomically large ints, reaches no
check and is not interrupted.  The world's parts hold it through weak
proxies, so a finished world is freed by reference counts alone.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Set, Tuple

from ...mpi.thread_levels import ThreadLevel
from ..errors import AbortedError, DeadlockError, ValidationError
from .engine import CollectiveEngine
from .mailbox import Mailbox
from .process import MpiProcess

#: Wall-clock seconds one run may take before it is declared stalled: the
#: first statement or loop iteration past it aborts the run.
WALL_GUARD = 120.0

#: Checks between two reads of the clock (a statement takes about 1 us).
_CLOCK_EVERY = 1024


@dataclass
class RunResult:
    """Outcome of one simulated MPI run."""

    nprocs: int
    error: Optional[ValidationError] = None
    #: rank -> lines printed by the program.
    outputs: Dict[int, List[str]] = field(default_factory=dict)
    #: rank -> value returned by the entry function (if any).
    returns: Dict[int, object] = field(default_factory=dict)
    #: Counters from the inserted checks (CC calls executed, ENTER checks).
    cc_calls: int = 0
    enter_checks: int = 0
    elapsed: float = 0.0
    #: Completed collective rounds (op name, signature) — the run's
    #: communication history, used by trace replay validation.
    history: List[Tuple[str, tuple]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def verdict(self) -> str:
        if self.error is None:
            return "clean"
        return type(self.error).__name__

    @property
    def detected_by(self) -> str:
        return self.error.detected_by if self.error is not None else ""


class MpiWorld:
    """``nprocs`` simulated ranks run by one cooperative scheduler:
    ``scheduler`` (a :class:`repro.explore.Scheduler`), or a fresh one on
    ``DefaultStrategy`` when it is ``None``."""

    def __init__(self, nprocs: int, thread_level: ThreadLevel = ThreadLevel.MULTIPLE,
                 scheduler=None) -> None:
        if nprocs < 1:
            raise ValueError("need at least one rank")
        if scheduler is None:
            from ...explore.sched import Scheduler
            scheduler = Scheduler()
        self.nprocs = nprocs
        self.thread_level = thread_level
        self.scheduler = scheduler
        self.abort_error: Optional[ValidationError] = None
        self.aborted = False
        #: ``time.monotonic()`` past which the run is stalled (set by run).
        self.deadline = float("inf")
        self._until_clock = 0
        self.finished_ranks: Set[int] = set()
        me = weakref.proxy(self)
        self.engine = CollectiveEngine(me, list(range(nprocs)))
        self.mailbox = Mailbox(me)
        self.procs = [MpiProcess(me, rank) for rank in range(nprocs)]

    # -- abort protocol -----------------------------------------------------------

    def abort(self, error: ValidationError) -> None:
        """Record the first verdict and make every blocked thread runnable,
        so it unwinds."""
        if self.abort_error is None:
            # The verdict keeps no traceback: its frames would hold the
            # world in a reference cycle.
            self.abort_error = error.with_traceback(None)
        self.aborted = True
        self.scheduler.on_abort(self)

    def fail(self, err: Exception, rank: int, where: str = "") -> None:
        """Abort with ``err``, raised on ``rank``: a verdict as it is, any
        other exception as an internal error of the interpreter."""
        if not isinstance(err, ValidationError):
            err = ValidationError(f"internal error on rank {rank}{where}: {err!r}")
        if err.rank is None:
            err.rank = rank
        self.abort(err)

    def check(self) -> None:
        """Unwind once the run has aborted, and abort it as stalled once it
        is past its deadline: every blocking loop and, in the interpreter,
        every statement and loop iteration calls this.  The clock is read
        once every ``_CLOCK_EVERY`` calls, since reading it costs more than
        the rest of a check."""
        if self.aborted:
            raise AbortedError()
        self._until_clock -= 1
        if self._until_clock < 0:
            self._until_clock = _CLOCK_EVERY
            if time.monotonic() > self.deadline:
                self.abort(DeadlockError(
                    f"run stalled: logical thread(s) still running past "
                    f"the {WALL_GUARD:g} s wall guard"
                ))
                raise AbortedError()

    # -- execution ------------------------------------------------------------------

    def run(self, target: Callable[[MpiProcess], Generator]) -> RunResult:
        """Run ``target(proc)`` on every rank; collect the verdict."""
        result = RunResult(nprocs=self.nprocs)
        start = time.perf_counter()
        self.deadline = time.monotonic() + WALL_GUARD
        scheduler = self.scheduler

        def runner(proc: MpiProcess, name: str):
            try:
                proc.main_thread = name
                result.returns[proc.rank] = yield from target(proc)
            except AbortedError:
                pass
            except Exception as err:  # noqa: BLE001 - surface interpreter bugs
                self.fail(err, proc.rank)
            finally:
                self.finished_ranks.add(proc.rank)
                self.engine.on_proc_finished(proc.rank)
                scheduler.detach()

        names = [f"r{proc.rank}" for proc in self.procs]
        scheduler.register(names, [runner(proc, name)
                                   for proc, name in zip(self.procs, names)])
        scheduler.run(self)

        result.error = self.abort_error
        result.elapsed = time.perf_counter() - start
        result.history = list(self.engine.history)
        for proc in self.procs:
            result.outputs[proc.rank] = proc.output
            result.cc_calls += proc.cc_calls
            result.enter_checks += proc.enter_checks
        return result
