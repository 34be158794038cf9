"""The collective-matching engine — one per communicator.

All ranks of the communicator enter a *round*; the round completes when all
have arrived with the same operation and signature, then the combined result
is distributed.  The engine is where the simulator plays the role of the
real machine:

* a second distinct operation arriving in an open round means the program
  *would deadlock* on a real machine → :class:`DeadlockError` for everyone;
* a rank finishing (or finalizing) while a round is open that it never
  joined → :class:`DeadlockError`;
* the special ``__CC__`` operation implements the paper's check: payloads
  are the collective colors, every rank receives ``(min, max)`` and the
  caller turns disagreement into a clean :class:`CollectiveMismatchError`.

Blocking goes through the world's scheduler: :meth:`collective` is a
generator, and a waiting rank parks cooperatively (a ``yield``) with an
exact wait-for description until an arrival, a release, a finish or an
abort wakes it.

Data semantics of each collective live in :mod:`.ops`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..errors import AbortedError, DeadlockError
from ..schedpoint import SchedPoint
from . import ops


class CollectiveEngine:
    def __init__(self, world: "MpiWorld", ranks: List[int]) -> None:  # noqa: F821
        self.world = world
        self.sched = world.scheduler
        self.ranks = list(ranks)
        self.round_no = 0
        #: rank -> (op_name, signature, payload) for the open round.
        self.arrivals: Dict[int, Tuple[str, tuple, Any]] = {}
        self._result: Optional[Dict[int, Any]] = None
        self._releasing = False
        self._release_pending = 0
        #: Completed rounds, for traces and tests.
        self.history: List[Tuple[str, tuple]] = []

    # -- public ------------------------------------------------------------------

    def collective(self, rank: int, op_name: str, signature: tuple,
                   payload: Any):
        """Execute one collective round for ``rank`` (a generator); parks
        until matched and returns the rank's result."""
        yield from self.sched.yield_point(self.world, SchedPoint.COLLECTIVE,
                                          f"{op_name}@r{rank}")
        # Wait for the previous round's release phase to finish.
        while self._releasing:
            yield from self._wait(f"rank {rank} awaiting round release",
                                  lambda: not self._releasing)
        self._check_alive_peers()
        if rank in self.arrivals:
            raise AbortedError()  # same rank twice in one round: unwinding
        self.arrivals[rank] = (op_name, signature, payload)
        self._detect_mismatch(op_name, signature)
        if len(self.arrivals) == len(self.ranks):
            self._complete_round()
        else:
            while not self._releasing:
                yield from self._wait(
                    f"rank {rank} in {op_name} (round {self.round_no})",
                    lambda: self._releasing)
                self._check_alive_peers()
        assert self._result is not None
        value = self._result.get(rank)
        self._release_pending -= 1
        if self._release_pending == 0:
            self._releasing = False
            self._result = None
            self.sched.notify(self)
        return value

    def on_proc_finished(self, rank: int) -> None:
        """Called by the world when a rank's main thread exits; wakes a round
        that can now never complete."""
        if self.arrivals and rank not in self.arrivals and not self._releasing:
            waiting = {
                r: self.arrivals[r][0] for r in sorted(self.arrivals)
            }
            desc = ", ".join(f"rank {r} in {op}" for r, op in waiting.items())
            self.world.abort(DeadlockError(
                f"deadlock: rank {rank} finished while {desc} wait(s) "
                f"for the collective to complete"
            ))
        self.sched.notify(self)

    # -- internals -----------------------------------------------------------------

    def _wait(self, describe: str, predicate):
        self.world.check()
        return self.sched.wait(self.world, self, describe, predicate)

    def _check_alive_peers(self) -> None:
        self.world.check()
        finished = self.world.finished_ranks
        if not finished:
            return
        missing = [
            r for r in self.ranks if r in finished and r not in self.arrivals
        ]
        if missing and self.arrivals and not self._releasing:
            waiting = ", ".join(
                f"rank {r} in {v[0]}" for r, v in sorted(self.arrivals.items())
            )
            self.world.abort(DeadlockError(
                f"deadlock: rank(s) {missing} already finished while {waiting}"
            ))
            self.world.check()

    def _detect_mismatch(self, op_name: str, signature: tuple) -> None:
        """The newest arrival against the first: the others agree."""
        if len(self.arrivals) < 2:
            return
        first_name, first_signature, _ = next(iter(self.arrivals.values()))
        if op_name != first_name:
            desc = ", ".join(
                f"rank {r} calls {v[0]}" for r, v in sorted(self.arrivals.items())
            )
            self.world.abort(DeadlockError(
                f"deadlock: mismatched collective operations in one round ({desc})"
            ))
            self.world.check()
        if signature != first_signature:
            self.world.abort(DeadlockError(
                f"deadlock: {op_name} called with mismatched arguments "
                f"(roots/reduction ops differ across ranks)"
            ))
            self.world.check()

    def _complete_round(self) -> None:
        op_name, signature, _ = next(iter(self.arrivals.values()))
        payloads = {r: v[2] for r, v in self.arrivals.items()}
        self._result = ops.combine(op_name, signature, payloads, self.ranks)
        self.history.append((op_name, signature))
        self.round_no += 1
        self.arrivals = {}
        self._releasing = True
        self._release_pending = len(self.ranks)
        self.sched.notify(self)
