"""The simulated MPI world: N ranks, one logical thread each.

``MpiWorld.run(target)`` runs ``target(proc)`` for every rank, each rank
a logical thread on a carrier (a reused OS thread, see
:mod:`repro.runtime.carrier`); the first :class:`ValidationError` raised
anywhere aborts the world (all blocked waits unwind via
:class:`AbortedError`) and becomes the run's verdict.  A rank finishing
while peers wait in a collective is detected as a deadlock by the
engines.

Every blocking decision point delegates to the world's cooperative
scheduler (see ``schedpoint.py``): ``repro.explore.Scheduler`` with
``DefaultStrategy`` unless the caller installs one.  Runs are therefore
deterministic, time is virtual, and deadlocks are detected structurally
the moment every logical thread is blocked.  One wall-clock guard,
:data:`WALL_GUARD`, bounds a whole run.  Deadlocks and livelocks end on
the virtual clock long before it; the guard catches what that clock
cannot see, a thread that keeps the token without ever reaching a
decision point (a yield-free spin).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

from ...mpi.thread_levels import ThreadLevel
from ..carrier import spawn
from ..errors import AbortedError, DeadlockError, ValidationError
from .engine import CollectiveEngine
from .mailbox import Mailbox
from .process import MpiProcess

#: Wall-clock seconds one run may take before it is declared stalled.  A
#: run that has not ended by then is aborted and gets as long again to
#: unwind.
WALL_GUARD = 120.0


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
        self._abort_lock = threading.Lock()
        self.abort_error: Optional[ValidationError] = None
        self.aborted = threading.Event()
        self._fingerprint_providers: Dict[str, Callable[[], object]] = {}
        self.finished_ranks: Set[int] = set()
        self.engine = CollectiveEngine(self, list(range(nprocs)))
        self.mailbox = Mailbox(self)
        self.procs = [MpiProcess(self, rank) for rank in range(nprocs)]

    # -- scheduler façade --------------------------------------------------------

    def yield_point(self, kind: str, detail: str = "") -> None:
        self.scheduler.yield_point(self, kind, detail)

    def wait(self, cond: threading.Condition, describe: str = "",
             predicate=None) -> None:
        """Block on ``cond`` (held by the caller) until its state may have
        changed; callers loop on their own condition."""
        self.scheduler.wait(self, cond, describe, predicate)

    def notify(self, cond: threading.Condition) -> None:
        """State guarded by ``cond`` (held by the caller) changed."""
        self.scheduler.notify(self, cond)

    def note_access(self, obj: str, mode: str = "w") -> None:
        """The running thread touched shared object ``obj`` (footprints)."""
        self.scheduler.note_access(obj, mode)

    def note_observation(self, value) -> None:
        """The running thread observed ``value`` (state fingerprints)."""
        self.scheduler.note_observation(value)

    # -- state fingerprinting ------------------------------------------------------

    def register_fingerprint_provider(self, key: str, provider) -> None:
        """Register a component (e.g. a rank's interpreter) that contributes
        shared state to :meth:`fingerprint_state`; keyed so composition
        order never depends on thread startup order."""
        self._fingerprint_providers[key] = provider

    def fingerprint_state(self):
        """Canonical snapshot of all world-level shared state, consumed by
        the cooperative scheduler's per-decision state hash."""
        providers = tuple(
            (key, self._fingerprint_providers[key]())
            for key in sorted(self._fingerprint_providers)
        )
        return (
            tuple(sorted(self.finished_ranks)),
            self.aborted.is_set(),
            self.engine.fingerprint_state(),
            self.mailbox.fingerprint_state(),
            tuple(proc.fingerprint_state() for proc in self.procs),
            providers,
        )

    # -- abort protocol -----------------------------------------------------------

    def abort(self, error: ValidationError) -> None:
        """Record the first verdict and make every blocked thread runnable,
        so it unwinds."""
        with self._abort_lock:
            if self.abort_error is None:
                self.abort_error = error
        self.aborted.set()
        self.scheduler.on_abort(self)

    def check_abort(self) -> None:
        if self.aborted.is_set():
            raise AbortedError()

    # -- execution ------------------------------------------------------------------

    def run(self, target: Callable[[MpiProcess], object]) -> RunResult:
        """Run ``target(proc)`` on every rank; collect the verdict."""
        result = RunResult(nprocs=self.nprocs)
        start = time.perf_counter()
        scheduler = self.scheduler

        def runner(proc: MpiProcess, name: str) -> None:
            scheduler.attach(name)
            try:
                proc.main_thread = threading.current_thread()
                result.returns[proc.rank] = target(proc)
            except ValidationError as err:
                if err.rank is None:
                    err.rank = proc.rank
                self.abort(err)
            except AbortedError:
                pass
            except Exception as err:  # noqa: BLE001 - surface interpreter bugs
                wrapped = ValidationError(f"internal error on rank {proc.rank}: {err!r}")
                wrapped.rank = proc.rank
                self.abort(wrapped)
            finally:
                self.finished_ranks.add(proc.rank)
                self.engine.on_proc_finished(proc.rank)
                scheduler.detach()

        names = [f"r{proc.rank}" for proc in self.procs]
        scheduler.register(names)
        ranks_done = [spawn(partial(runner, proc, name))
                      for proc, name in zip(self.procs, names)]
        scheduler.start(self)
        if not self._settle(ranks_done, time.monotonic() + WALL_GUARD):
            if self.abort_error is None:
                self.abort(DeadlockError(
                    f"run stalled: logical thread(s) still running past "
                    f"the {WALL_GUARD:g} s wall guard"
                ))
            self._settle(ranks_done, time.monotonic() + WALL_GUARD)

        result.error = self.abort_error
        result.elapsed = time.perf_counter() - start
        result.history = list(self.engine.history)
        for proc in self.procs:
            result.outputs[proc.rank] = proc.output
            result.cc_calls += proc.cc_calls
            result.enter_checks += proc.enter_checks
        return result

    def _settle(self, ranks_done: List, deadline: float) -> bool:
        """Wait until every rank task has ended and every logical thread
        has detached, or until ``deadline``; True when the run is over.
        Locks acquired here leave ``ranks_done``, so a second call waits
        only for the rest."""
        while ranks_done:
            if not ranks_done[0].acquire(
                    timeout=max(0.0, deadline - time.monotonic())):
                return False
            ranks_done.pop(0)
        return self.scheduler.await_detached(
            max(0.0, deadline - time.monotonic()))
