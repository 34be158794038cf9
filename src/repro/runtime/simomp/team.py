"""simomp — the explicit fork/join OpenMP-like thread runtime.

A :class:`Team` is one parallel region instance: the encountering thread
becomes tid 0 (the master), ``size - 1`` workers are registered with the
world's scheduler as logical threads, and ``Team.run`` joins them (the join
is the region's implicit barrier from the master's perspective; the
interpreter emits the semantic implicit barrier explicitly before the join
so *all* threads synchronize, as OpenMP requires).  Teams nest freely — a
worker encountering another ``parallel`` creates a sub-team, which is the
perfectly nested model the paper assumes.

Every blocking operation (run and join, barriers, claims) is a generator
that parks through the world's scheduler, so it is cooperative and
fully deterministic; workers get deterministic hierarchical names, so a
run is reproducible from its schedule choice sequence alone.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Tuple

from ..errors import AbortedError
from ..schedpoint import SchedPoint

#: A team member's code: ``body(tid)`` returns the generator that runs it.
TeamBody = Callable[[int], Generator]


class Team:
    def __init__(self, world: "MpiWorld", proc: "MpiProcess", size: int) -> None:  # noqa: F821
        if size < 1:
            raise ValueError("team size must be >= 1")
        self.world = world
        self.proc = proc
        self.size = size
        # Generation barrier; barrier waiters park on ``self._arrivals``.
        self._arrivals = object()
        self._bar_count = 0
        self._bar_gen = 0
        # Worker completion (the master's cooperative join parks on self).
        self._done = 0
        # single/sections claims: (construct_uid, encounter_index) -> tid.
        self._claims: Dict[Tuple[int, int], int] = {}

    # -- fork/join -------------------------------------------------------------

    def run(self, body: TeamBody):
        """Execute ``body(tid)`` on ``size`` threads (master = caller)."""
        self.proc.enter_parallel(self.size)
        try:
            if self.size == 1:
                yield from self._run_guarded(body, 0)
                return
            sched = self.proc.sched
            sched.register(sched.child_names(self.size), [
                self._worker_main(body, tid) for tid in range(1, self.size)])
            yield from self._run_guarded(body, 0)
            while self._done < self.size - 1:  # the master joins its workers
                self.world.check()
                yield from sched.wait(
                    self.world, self,
                    f"rank {self.proc.rank} master joining its team",
                    lambda: self._done >= self.size - 1)
            self.world.check()
        finally:
            self.proc.exit_parallel(self.size)

    def _worker_main(self, body: TeamBody, tid: int):
        try:
            yield from self._run_guarded(body, tid)
        finally:
            self._done += 1
            self.proc.sched.notify(self)
            self.proc.sched.detach()

    def _run_guarded(self, body: TeamBody, tid: int):
        try:
            yield from body(tid)
        except AbortedError:
            if tid == 0:
                raise
        except Exception as err:  # noqa: BLE001 - surface interpreter bugs
            self.world.fail(err, self.proc.rank, f" tid {tid}")
            self.proc.sched.notify(self._arrivals)
            if tid == 0:
                raise AbortedError() from err

    # -- barrier --------------------------------------------------------------------

    def barrier(self):
        """Team barrier; a thread that never arrives leaves the others
        blocked, which the scheduler reports as a deadlock."""
        if self.size == 1:
            self.world.check()
            return
        yield from self.proc.sched.yield_point(
            self.world, SchedPoint.OMP_BARRIER, f"r{self.proc.rank}")
        gen = self._bar_gen
        self._bar_count += 1
        if self._bar_count == self.size:
            self._bar_count = 0
            self._bar_gen += 1
            self.proc.sched.notify(self._arrivals)
            return
        while self._bar_gen == gen:
            self.world.check()
            yield from self.proc.sched.wait(
                self.world, self._arrivals,
                f"rank {self.proc.rank} in omp barrier "
                f"({self._bar_count}/{self.size} arrived)",
                lambda: self._bar_gen != gen,
            )

    # -- worksharing --------------------------------------------------------------------

    def claim(self, construct_uid: int, encounter: int, tid: int):
        """First thread to claim ``(construct, encounter)`` wins (single)."""
        yield from self.proc.sched.yield_point(
            self.world, SchedPoint.CLAIM,
            f"r{self.proc.rank}t{tid}u{construct_uid}")
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
