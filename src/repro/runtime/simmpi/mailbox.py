"""Point-to-point message store (one per communicator).

Send is buffered (never blocks); Recv blocks until a matching
``(source, tag)`` message exists — woken by sends and abort through the
world's SchedPoint calls.  Both are generators, since both are scheduling
decisions.  Wildcards: ``source=-1`` (any source), ``tag=-1`` (any tag),
mirroring ``MPI_ANY_SOURCE``/``MPI_ANY_TAG``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..schedpoint import SchedPoint


class Mailbox:
    def __init__(self, world: "MpiWorld") -> None:  # noqa: F821
        self.world = world
        #: dest rank -> list of (source, tag, value), FIFO per (source, tag).
        self.queues: Dict[int, List[Tuple[int, int, Any]]] = {}

    def send(self, source: int, dest: int, tag: int, value: Any):
        yield from self.world.yield_point(SchedPoint.SEND, f"r{source}->r{dest}")
        self.queues.setdefault(dest, []).append((source, tag, value))
        self.world.notify(self)

    def _match(self, dest: int, source: int, tag: int) -> Optional[int]:
        queue = self.queues.setdefault(dest, [])
        for i, (src, t, _value) in enumerate(queue):
            if (source in (-1, src)) and (tag in (-1, t)):
                return i
        return None

    def recv(self, dest: int, source: int, tag: int):
        yield from self.world.yield_point(SchedPoint.RECV, f"r{dest}<-{source}")
        while True:
            index = self._match(dest, source, tag)
            if index is not None:
                return self.queues[dest].pop(index)[2]
            self.world.check()
            yield from self.world.wait(
                self,
                f"rank {dest} in MPI_Recv(source={source}, tag={tag})",
                lambda: self._match(dest, source, tag) is not None,
            )
