"""Compact JSON schedule traces — record, save, load, replay.

A trace is everything needed to reproduce one scheduled run byte for byte:
the program configuration (ranks, team size, thread level, entry,
instrumented or not) and the choice sequence of every *branching* decision
(points with a single runnable thread are forced and not recorded).  The
verdict block is carried along so a replay can be validated against what
the recorded run reported.

JSON schema (``version`` 2)::

    {
      "version": 2,
      "mode": "full" | "minimized",
      "config": {"nprocs": 2, "num_threads": 2, "thread_level": "multiple",
                 "entry": "main", "instrument": false},
      "strategy": {"name": "random", "seed": 7},
      "verdict": {"line": "DeadlockError[simulator] rank=0 line=12: ...",
                  "class": "DeadlockError", "detected_by": "simulator"},
      "choices": [
        {"i": 0, "p": "start", "u": null, "r": ["r0", "r1"], "c": "r1",
         "f": ["comm/c:MPI_Bcast"]},
        ...
      ]
    }

``choices[*]``: ``i`` decision index, ``p`` schedule point (kind:detail),
``u`` the thread that was running (``null`` = forced switch), ``r`` the
sorted runnable set, ``c`` the chosen thread.  Version 2 adds ``f``, the
access footprint of the step the chosen thread actually executed after the
decision (canonical sorted ``object/mode`` strings, see
:mod:`repro.explore.footprint`) — what dynamic partial-order reduction
works from.  Only ``c`` is required to replay; the rest make traces
self-describing.  Version-1 traces (no ``f``) load and replay unchanged,
and so do version-2 traces written with the optional state-fingerprint key
``sf`` that earlier releases recorded (it is ignored).  ``mode: "minimized"``
marks a delta-debugged choice sequence that relies on the deterministic
run-to-completion fallback once exhausted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..mpi.thread_levels import ThreadLevel
from ..runtime.simmpi.world import RunResult
from .footprint import Footprint, footprint_from_list, footprint_to_list
from .strategies import Decision

TRACE_VERSION = 2
_READABLE_VERSIONS = (1, 2)


def verdict_line(result: RunResult) -> str:
    """Canonical one-line verdict used for byte-for-byte comparisons."""
    if result.error is None:
        return "clean"
    err = result.error
    return (f"{type(err).__name__}[{err.detected_by}] "
            f"rank={err.rank} line={err.line}: {err}")


@dataclass
class ScheduleTrace:
    config: Dict[str, object]
    choices: List[Decision] = field(default_factory=list)
    verdict: str = "clean"
    verdict_class: str = ""
    detected_by: str = ""
    mode: str = "full"
    strategy: Dict[str, object] = field(default_factory=dict)
    #: Per choice: the executed step's footprint or None when unknown (v1
    #: traces, truncated runs); JSON spells it as sorted "object/mode"
    #: strings, converted only when a trace is written.
    step_footprints: List[Optional[Footprint]] = field(default_factory=list)

    @property
    def choice_names(self) -> List[str]:
        return [d.chosen for d in self.choices]

    # -- construction -----------------------------------------------------------

    @classmethod
    def record(cls, scheduler, config: Dict[str, object], result: RunResult,
               strategy_info: Optional[Dict[str, object]] = None,
               mode: str = "full") -> "ScheduleTrace":
        events = getattr(scheduler, "events", [])
        event_index = getattr(scheduler, "decision_event_index", [])
        footprints = [events[ei][1] if ei < len(events) else None
                      for ei in event_index[:len(scheduler.decisions)]]
        footprints += [None] * (len(scheduler.decisions) - len(footprints))
        return cls(
            config=dict(config),
            choices=list(scheduler.decisions),
            verdict=verdict_line(result),
            verdict_class=type(result.error).__name__ if result.error else "",
            detected_by=result.detected_by,
            mode=mode,
            strategy=dict(strategy_info or {}),
            step_footprints=footprints,
        )

    # -- (de)serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        choices = []
        for i, d in enumerate(self.choices):
            entry = {"i": d.index, "p": d.point, "u": d.current,
                     "r": list(d.runnable), "c": d.chosen}
            fp = (self.step_footprints[i]
                  if i < len(self.step_footprints) else None)
            if fp is not None:
                entry["f"] = footprint_to_list(fp)
            choices.append(entry)
        return {
            "version": TRACE_VERSION,
            "mode": self.mode,
            "config": self.config,
            "strategy": self.strategy,
            "verdict": {
                "line": self.verdict,
                "class": self.verdict_class,
                "detected_by": self.detected_by,
            },
            "choices": choices,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "ScheduleTrace":
        version = data.get("version", TRACE_VERSION)
        if version not in _READABLE_VERSIONS:
            raise ValueError(f"unsupported trace version {version}")
        verdict = data.get("verdict", {})
        raw_choices = data.get("choices", [])
        choices = [
            Decision(
                index=c.get("i", i),
                point=c.get("p", ""),
                current=c.get("u"),
                runnable=tuple(c.get("r", ())),
                chosen=c["c"],
            )
            for i, c in enumerate(raw_choices)
        ]
        return cls(
            config=dict(data.get("config", {})),
            choices=choices,
            verdict=verdict.get("line", "clean"),
            verdict_class=verdict.get("class", ""),
            detected_by=verdict.get("detected_by", ""),
            mode=data.get("mode", "full"),
            strategy=dict(data.get("strategy", {})),
            step_footprints=[None if c.get("f") is None
                             else footprint_from_list(c["f"])
                             for c in raw_choices],
        )

    @classmethod
    def from_json(cls, text: str) -> "ScheduleTrace":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "ScheduleTrace":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    # -- config helpers ---------------------------------------------------------

    def thread_level(self) -> ThreadLevel:
        name = str(self.config.get("thread_level", "multiple")).upper()
        return ThreadLevel[name]
