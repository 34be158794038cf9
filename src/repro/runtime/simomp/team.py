"""simomp — the explicit fork/join OpenMP-like thread runtime.

A :class:`Team` is one parallel region instance: the encountering thread
becomes tid 0 (the master), ``size - 1`` workers are spawned on carriers
(reused OS threads, see :mod:`repro.runtime.carrier`), and ``Team.run``
joins them (the join is the region's implicit barrier from the
master's perspective; the interpreter emits the semantic implicit barrier
explicitly before the join so *all* threads synchronize, as OpenMP
requires).  Teams nest freely — a worker encountering another ``parallel``
creates a sub-team, which is the perfectly nested model the paper assumes.

All blocking (barriers, the master's join) goes through the world's
SchedPoint calls, so it is cooperative and fully deterministic; workers
get deterministic hierarchical names, so a run is reproducible from its
schedule choice sequence alone.  The master registers the workers with the
scheduler before spawning them, and the join waits on the workers'
completion count alone: a worker's carrier outlives its task, so there is
no OS thread to join.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import Callable, Dict, Optional, Tuple

from ..carrier import spawn
from ..errors import AbortedError, ValidationError
from ..schedpoint import SchedPoint


class Team:
    def __init__(self, world: "MpiWorld", proc: "MpiProcess", size: int) -> None:  # noqa: F821
        if size < 1:
            raise ValueError("team size must be >= 1")
        self.world = world
        self.proc = proc
        self.size = size
        # Generation barrier.
        self._bar_cond = threading.Condition()
        self._bar_count = 0
        self._bar_gen = 0
        # Worker completion (the master's cooperative join).
        self._done_cond = threading.Condition()
        self._done = 0
        # single/sections claims: (construct_uid, encounter_index) -> tid.
        self._claim_lock = threading.Lock()
        self._claims: Dict[Tuple[int, int], int] = {}

    # -- fork/join -------------------------------------------------------------

    def run(self, body: Callable[[int], None]) -> None:
        """Execute ``body(tid)`` on ``size`` threads (master = caller)."""
        self.proc.enter_parallel(self.size)
        try:
            if self.size == 1:
                self._run_guarded(body, 0)
                return
            scheduler = self.world.scheduler
            names = scheduler.child_names(self.size)
            scheduler.register(names)
            for tid in range(1, self.size):
                spawn(partial(self._worker_main, body, tid, names[tid]))
            self._run_guarded(body, 0)
            self._join_workers(self.size - 1)
        finally:
            self.proc.exit_parallel(self.size)

    def _worker_main(self, body: Callable[[int], None], tid: int,
                     name: Optional[str]) -> None:
        scheduler = self.world.scheduler
        scheduler.attach(name)
        try:
            self._run_guarded(body, tid)
        finally:
            with self._done_cond:
                self._done += 1
                self.world.notify(self._done_cond)
            scheduler.detach()

    def _join_workers(self, workers: int) -> None:
        with self._done_cond:
            while self._done < workers:
                self.world.check_abort()
                self.world.wait(
                    self._done_cond,
                    f"rank {self.proc.rank} master joining its team",
                    lambda: self._done >= workers,
                )
        self.world.check_abort()

    def _run_guarded(self, body: Callable[[int], None], tid: int) -> None:
        try:
            body(tid)
        except AbortedError:
            if tid == 0:
                raise
        except ValidationError as err:
            if err.rank is None:
                err.rank = self.proc.rank
            self.world.abort(err)
            with self._bar_cond:
                self.world.notify(self._bar_cond)
            if tid == 0:
                raise AbortedError() from err
        except Exception as err:  # noqa: BLE001 - surface interpreter bugs
            wrapped = ValidationError(
                f"internal error on rank {self.proc.rank} tid {tid}: {err!r}"
            )
            wrapped.rank = self.proc.rank
            self.world.abort(wrapped)
            with self._bar_cond:
                self.world.notify(self._bar_cond)
            if tid == 0:
                raise AbortedError() from err

    # -- barrier --------------------------------------------------------------------

    def barrier(self) -> None:
        """Team barrier; a thread that never arrives leaves the others
        blocked, which the scheduler reports as a deadlock."""
        if self.size == 1:
            self.world.check_abort()
            return
        self.world.yield_point(SchedPoint.OMP_BARRIER, f"r{self.proc.rank}")
        with self._bar_cond:
            gen = self._bar_gen
            self._bar_count += 1
            if self._bar_count == self.size:
                self._bar_count = 0
                self._bar_gen += 1
                self.world.notify(self._bar_cond)
                return
            while self._bar_gen == gen:
                self.world.check_abort()
                self.world.wait(
                    self._bar_cond,
                    f"rank {self.proc.rank} in omp barrier "
                    f"({self._bar_count}/{self.size} arrived)",
                    lambda: self._bar_gen != gen,
                )

    # -- worksharing --------------------------------------------------------------------

    def claim(self, construct_uid: int, encounter: int, tid: int) -> bool:
        """First thread to claim ``(construct, encounter)`` wins (single)."""
        self.world.yield_point(SchedPoint.CLAIM,
                               f"r{self.proc.rank}t{tid}u{construct_uid}")
        with self._claim_lock:
            key = (construct_uid, encounter)
            won = key not in self._claims
            if won:
                self._claims[key] = tid
        return won

    def static_chunk(self, tid: int, count: int) -> range:
        """Indices [0, count) assigned to ``tid`` under static scheduling
        (contiguous blocks, remainder spread over the first threads)."""
        base = count // self.size
        extra = count % self.size
        lo = tid * base + min(tid, extra)
        size = base + (1 if tid < extra else 0)
        return range(lo, lo + size)

    def section_owner(self, index: int) -> int:
        """Round-robin assignment of section ``index`` to a thread."""
        return index % self.size
