"""Carrier threads: the OS threads that logical threads run on.

Every logical thread of a simulated world (a rank's main thread, an OpenMP
team worker) runs as a task on a *carrier*: a daemon OS thread that parks
on a raw lock between tasks and is reused by later spawns, in the same run
or in the next one.  A sweep of thousands of runs therefore starts OS
threads only while the pool grows to the widest run's number of
simultaneous logical threads.  There is no size setting: :func:`spawn`
takes a parked carrier or starts a new one.

A carrier parks again only after it has dropped its task, so a parked
carrier keeps no world, interpreter or scheduler alive.  A task that
raises has its traceback printed and the carrier stays in service; a
``BaseException`` ends the carrier, which is then in no list and can
swallow no later spawn.

A forked child inherits the idle list but none of its threads, so the
child empties the list (``os.register_at_fork``).
"""

from __future__ import annotations

import _thread
import os
import threading
import traceback
from typing import Callable, List

#: Parked carriers, ready for the next task.
_idle: List["_Carrier"] = []
_idle_lock = _thread.allocate_lock()


class _Carrier:
    __slots__ = ("wake", "task", "done")

    def __init__(self) -> None:
        self.wake = _thread.allocate_lock()
        self.wake.acquire()
        self.task = None
        self.done = None
        threading.Thread(target=self._serve, name="carrier",
                         daemon=True).start()

    def _serve(self) -> None:
        while True:
            self.wake.acquire()
            task, done = self.task, self.done
            self.task = self.done = None
            try:
                task()
            except Exception:  # noqa: BLE001 - keep the carrier in service
                traceback.print_exc()
            except BaseException:
                done.release()
                raise
            task = None
            with _idle_lock:
                _idle.append(self)
            done.release()


def spawn(task: Callable[[], object]) -> "_thread.LockType":
    """Run ``task()`` on a carrier.  Returns a lock that is held until the
    task has ended and its carrier is back in the idle list."""
    done = _thread.allocate_lock()
    done.acquire()
    with _idle_lock:
        carrier = _idle.pop() if _idle else None
    if carrier is None:
        carrier = _Carrier()
    carrier.task = task
    carrier.done = done
    carrier.wake.release()
    return done


def _forget_parent_carriers() -> None:
    global _idle_lock
    _idle_lock = _thread.allocate_lock()
    _idle.clear()


os.register_at_fork(after_in_child=_forget_parent_carriers)
