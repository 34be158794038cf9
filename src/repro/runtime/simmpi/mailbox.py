"""Point-to-point message store (one per communicator).

Send is buffered (never blocks); Recv blocks until a matching
``(source, tag)`` message exists — woken by sends and abort through the
world's SchedPoint hooks.  Wildcards: ``source=-1`` (any source), ``tag=-1``
(any tag), mirroring ``MPI_ANY_SOURCE``/``MPI_ANY_TAG``.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from ...util.brepr import bounded_repr
from ..errors import DeadlockError
from ..schedpoint import SchedPoint


class Mailbox:
    def __init__(self, world: "MpiWorld") -> None:  # noqa: F821
        self.world = world
        self.cond = threading.Condition()
        #: dest rank -> list of (source, tag, value), FIFO per (source, tag).
        self.queues: Dict[int, List[Tuple[int, int, Any]]] = {}

    def send(self, source: int, dest: int, tag: int, value: Any) -> None:
        self.world.yield_point(SchedPoint.SEND, f"r{source}->r{dest}")
        with self.cond:
            self.queues.setdefault(dest, []).append((source, tag, value))
            self.world.notify(self.cond)

    def fingerprint_state(self):
        """Canonical queue contents for state fingerprinting."""
        return tuple(
            (dest, bounded_repr(tuple(self.queues[dest])))
            for dest in sorted(self.queues) if self.queues[dest]
        )

    def _match(self, dest: int, source: int, tag: int) -> Optional[int]:
        queue = self.queues.setdefault(dest, [])
        for i, (src, t, _value) in enumerate(queue):
            if (source in (-1, src)) and (tag in (-1, t)):
                return i
        return None

    def recv(self, dest: int, source: int, tag: int) -> Any:
        self.world.yield_point(SchedPoint.RECV, f"r{dest}<-{source}")
        deadline = self.world.clock() + self.world.timeout
        with self.cond:
            while True:
                index = self._match(dest, source, tag)
                if index is not None:
                    src, t, value = self.queues[dest].pop(index)
                    self.world.note_observation(("recv", src, t, value))
                    return value
                self.world.check_abort()
                if self.world.clock() > deadline:
                    self.world.abort(DeadlockError(
                        f"deadlock: rank {dest} blocked in MPI_Recv"
                        f"(source={source}, tag={tag}) with no matching send"
                    ))
                    self.world.check_abort()
                self.world.wait(
                    self.cond,
                    f"rank {dest} in MPI_Recv(source={source}, tag={tag})",
                    lambda: self._match(dest, source, tag) is not None,
                )
