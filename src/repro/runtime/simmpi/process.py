"""Per-rank MPI state and the thread-level guard.

Every MPI call from the interpreter funnels through :meth:`MpiProcess.mpi_call`
(or the collective/p2p wrappers), which enforces the MPI-2 thread-support
rules the paper's analysis reasons about:

* ``MPI_THREAD_SINGLE`` — no MPI call while a team of >1 threads is active;
* ``MPI_THREAD_FUNNELED`` — only the process's main (master) thread may call;
* ``MPI_THREAD_SERIALIZED`` — no two MPI calls may overlap in time;
* ``MPI_THREAD_MULTIPLE`` — overlap allowed, but two *collectives on the
  same communicator* overlapping within one process is still an MPI-standard
  violation (and exactly the bug class the paper targets).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Dict, List, Optional

from ...mpi.thread_levels import LEVEL_FROM_INT, ThreadLevel
from ..errors import ConcurrentCollectiveError, MpiRuntimeError, ThreadLevelError
from ..schedpoint import SchedPoint


class CriticalSection:
    """A named ``omp critical`` lock that blocks through the world's
    SchedPoint calls, so contention is schedulable (and deadlock-reportable)
    instead of an opaque OS-level block."""

    def __init__(self, world: "MpiWorld", rank: int, name: str) -> None:  # noqa: F821
        self.world = world
        self.rank = rank
        self.name = name
        self.cond = threading.Condition()
        self._held = False

    def __enter__(self) -> "CriticalSection":
        self.world.yield_point(SchedPoint.CRITICAL,
                               f"r{self.rank}:{self.name}")
        with self.cond:
            while self._held:
                self.world.check_abort()
                self.world.wait(
                    self.cond,
                    f"rank {self.rank} waiting for critical({self.name})",
                    lambda: not self._held,
                )
            self._held = True
        return self

    def __exit__(self, *exc) -> None:
        with self.cond:
            self._held = False
            self.world.notify(self.cond)


class MpiProcess:
    def __init__(self, world: "MpiWorld", rank: int) -> None:  # noqa: F821
        self.world = world
        self.rank = rank
        self.main_thread: Optional[threading.Thread] = None
        self.output: List[str] = []
        self.effective_level = world.thread_level
        self.initialized = False
        self.finalized = False
        # Thread-level accounting.
        self._lock = threading.Lock()
        self._in_mpi = 0
        self._collectives_inflight = 0
        self._active_wide_teams = 0  # teams with size > 1 currently open
        # Named critical-section locks (shared by all teams of the process).
        self._critical_locks: Dict[str, CriticalSection] = {}
        self._critical_guard = threading.Lock()
        # Instrumentation counters (populated by CheckState).
        self.cc_calls = 0
        self.enter_checks = 0
        self.check_counters: Dict[int, int] = {}

    # -- OpenMP bookkeeping ------------------------------------------------------

    def enter_parallel(self, size: int) -> None:
        if size > 1:
            with self._lock:
                self._active_wide_teams += 1

    def exit_parallel(self, size: int) -> None:
        if size > 1:
            with self._lock:
                self._active_wide_teams -= 1

    def fingerprint_state(self):
        """Canonical per-rank shared state for state fingerprinting."""
        with self._lock:
            return (
                self.rank, self.initialized, self.finalized, self._in_mpi,
                self._collectives_inflight, self._active_wide_teams,
                tuple(sorted(self.check_counters.items())),
            )

    def critical_lock(self, name: str) -> CriticalSection:
        with self._critical_guard:
            return self._critical_locks.setdefault(
                name, CriticalSection(self.world, self.rank, name))

    # -- MPI setup ------------------------------------------------------------------

    def init(self) -> None:
        self.initialized = True
        self.effective_level = ThreadLevel.SINGLE

    def init_thread(self, requested: int) -> int:
        """``MPI_Init_thread``: the granted level is the minimum of the
        requested one and what the world supports; returns the granted int."""
        self.initialized = True
        level = LEVEL_FROM_INT.get(requested, ThreadLevel.MULTIPLE)
        self.effective_level = min(level, self.world.thread_level)
        return self.effective_level.value

    # -- the guard ----------------------------------------------------------------------

    @contextlib.contextmanager
    def mpi_call(self, op_name: str, collective: bool, line: Optional[int] = None):
        if self.finalized:
            raise MpiRuntimeError(
                f"{op_name} called after MPI_Finalize", rank=self.rank, line=line,
            )
        level = self.effective_level
        with self._lock:
            if level is ThreadLevel.SINGLE and self._active_wide_teams > 0:
                raise ThreadLevelError(
                    f"{op_name} called inside a parallel region but the program "
                    f"runs at MPI_THREAD_SINGLE", rank=self.rank, line=line,
                )
            if level is ThreadLevel.FUNNELED and threading.current_thread() is not self.main_thread:
                raise ThreadLevelError(
                    f"{op_name} called from a non-master thread at "
                    f"MPI_THREAD_FUNNELED", rank=self.rank, line=line,
                )
            if level <= ThreadLevel.SERIALIZED and self._in_mpi > 0:
                raise ThreadLevelError(
                    f"{op_name} overlaps another MPI call within rank "
                    f"{self.rank} at {level.mpi_name}", rank=self.rank, line=line,
                )
            if collective and self._collectives_inflight > 0:
                raise ConcurrentCollectiveError(
                    f"two collective operations overlap on the same "
                    f"communicator within rank {self.rank} ({op_name})",
                    rank=self.rank, line=line,
                )
            self._in_mpi += 1
            if collective:
                self._collectives_inflight += 1
        # The per-rank in-flight counters are shared state the thread-level
        # guard races on: entering/leaving an MPI call never commutes with
        # another MPI call of the same rank.
        self.world.note_access(f"mpi:r{self.rank}", "w")
        try:
            yield
        finally:
            with self._lock:
                self._in_mpi -= 1
                if collective:
                    self._collectives_inflight -= 1
            self.world.note_access(f"mpi:r{self.rank}", "w")

    # -- operations -------------------------------------------------------------------------

    def collective(self, op_name: str, signature: tuple, payload: Any,
                   line: Optional[int] = None) -> Any:
        with self.mpi_call(op_name, collective=True, line=line):
            result = self.world.engine.collective(self.rank, op_name, signature, payload)
        if op_name == "MPI_Finalize":
            self.finalized = True
        return result

    def send(self, dest: int, tag: int, value: Any, line: Optional[int] = None) -> None:
        with self.mpi_call("MPI_Send", collective=False, line=line):
            self.world.mailbox.send(self.rank, dest, tag, value)

    def recv(self, source: int, tag: int, line: Optional[int] = None) -> Any:
        with self.mpi_call("MPI_Recv", collective=False, line=line):
            return self.world.mailbox.recv(self.rank, source, tag)
