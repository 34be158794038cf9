"""The simulated MPI world: N ranks, one logical thread each.

``MpiWorld.run(target)`` runs ``target(proc)`` for every rank, each rank
a logical thread on a carrier (a reused OS thread, see
:mod:`repro.runtime.carrier`); the first :class:`ValidationError` raised
anywhere aborts the world (all blocked waits unwind via
:class:`AbortedError`) and becomes the run's verdict.  A rank finishing
while peers wait in a collective is detected as a deadlock by the
engines.

Every blocking decision point delegates to the world's
:class:`~repro.runtime.schedpoint.ExecutionHooks` (see ``schedpoint.py``):
the default is free-running OS threads with condition notification; when a
cooperative scheduler from :mod:`repro.explore` is installed instead, the
run is deterministic, time is virtual, and deadlocks are detected
structurally the moment every logical thread is blocked.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

from ...mpi.thread_levels import ThreadLevel
from ..carrier import spawn
from ..errors import AbortedError, DeadlockError, ValidationError
from ..schedpoint import THREADED_HOOKS, ExecutionHooks
from .engine import CollectiveEngine
from .mailbox import Mailbox
from .process import MpiProcess


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
    def __init__(self, nprocs: int, thread_level: ThreadLevel = ThreadLevel.MULTIPLE,
                 timeout: float = 20.0, hooks: Optional[ExecutionHooks] = None) -> None:
        if nprocs < 1:
            raise ValueError("need at least one rank")
        self.nprocs = nprocs
        self.thread_level = thread_level
        self.timeout = timeout
        self.hooks = hooks if hooks is not None else THREADED_HOOKS
        self.clock = self.hooks.clock
        self._abort_lock = threading.Lock()
        self.abort_error: Optional[ValidationError] = None
        self.aborted = threading.Event()
        self._wait_conds: Set[threading.Condition] = set()
        self._fingerprint_providers: Dict[str, Callable[[], object]] = {}
        self.finished_ranks: Set[int] = set()
        self.engine = CollectiveEngine(self, list(range(nprocs)))
        self.mailbox = Mailbox(self)
        self.procs = [MpiProcess(self, rank) for rank in range(nprocs)]

    # -- hook façade ---------------------------------------------------------------

    def yield_point(self, kind: str, detail: str = "") -> None:
        self.hooks.yield_point(self, kind, detail)

    def wait(self, cond: threading.Condition, describe: str = "",
             predicate=None) -> None:
        """Block on ``cond`` (held by the caller) until its state may have
        changed; callers loop on their own condition."""
        self.hooks.wait(self, cond, describe, predicate)

    def notify(self, cond: threading.Condition) -> None:
        """State guarded by ``cond`` (held by the caller) changed."""
        self.hooks.notify(self, cond)

    def note_access(self, obj: str, mode: str = "w") -> None:
        """The running thread touched shared object ``obj`` (footprints)."""
        self.hooks.note_access(obj, mode)

    def note_observation(self, value) -> None:
        """The running thread observed ``value`` (state fingerprints)."""
        self.hooks.note_observation(value)

    def register_wait_cond(self, cond: threading.Condition) -> None:
        with self._abort_lock:
            self._wait_conds.add(cond)

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
        """Record the first verdict and wake every blocked wait."""
        with self._abort_lock:
            if self.abort_error is None:
                self.abort_error = error
            conds = list(self._wait_conds)
        self.aborted.set()
        self.hooks.on_abort(self)
        for cond in conds:
            # Best-effort: an RLock held by *this* thread re-enters fine; one
            # held by another thread is skipped — its owner is either about
            # to wait (and re-checks the abort flag first) or already
            # waiting with the fallback timeout as a bound.
            if cond.acquire(blocking=False):
                try:
                    cond.notify_all()
                finally:
                    cond.release()

    def check_abort(self) -> None:
        if self.aborted.is_set():
            raise AbortedError()

    # -- execution ------------------------------------------------------------------

    def run(self, target: Callable[[MpiProcess], object]) -> RunResult:
        """Run ``target(proc)`` on every rank; collect the verdict."""
        result = RunResult(nprocs=self.nprocs)
        start = time.perf_counter()
        hooks = self.hooks

        def runner(proc: MpiProcess, name: str) -> None:
            hooks.attach(name)
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
                hooks.detach()

        names = [f"r{proc.rank}" for proc in self.procs]
        hooks.register(names)
        ranks_done = [spawn(partial(runner, proc, name))
                      for proc, name in zip(self.procs, names)]
        hooks.start(self)
        guard = hooks.join_timeout(self.timeout)
        if not math.isfinite(guard):
            guard = None
        ended = [done.acquire(timeout=-1 if guard is None else guard)
                 for done in ranks_done]
        stalled = not all(ended) or not hooks.await_detached(guard)
        if stalled and self.abort_error is None:
            self.abort(DeadlockError(
                "run stalled: thread(s) still running past the join guard"
            ))

        result.error = self.abort_error
        result.elapsed = time.perf_counter() - start
        result.history = list(self.engine.history)
        for proc in self.procs:
            result.outputs[proc.rank] = proc.output
            result.cc_calls += proc.cc_calls
            result.enter_checks += proc.enter_checks
        return result
