"""Deterministic fault injection, keyed by named site and hit count.

The paper validates its checks by injecting errors into MPI programs;
this module does the same to the *tool itself*.  Every recovery path in
the resilience layer is guarded by a named **fault site** — a single
:func:`fault_site` call at the exact point where the fault class can
occur in production.  A :class:`FaultPlan` maps ``(site, hit)`` pairs to
fault kinds, so a test (or the ``chaos-smoke`` CI job) can say
"the *third* session analyze fails", run the workload, and get the
same failure on every machine, byte for byte.

Plan syntax (the ``PARCOACH_FAULTS`` environment variable, or
:func:`FaultPlan.parse`)::

    site[:hit]=kind[,site[:hit]=kind ...]

    PARCOACH_FAULTS="session.analyze:3=exception,session.read_file:1=oserror"

``hit`` is 1-based and defaults to 1: the fault fires on exactly that
invocation of the site and never again (hit counters are per-plan and
per-process).  Fault kinds:

``exception``      raise :class:`InjectedFault`
``oserror``        raise ``OSError``
``broken_pool``    raise ``concurrent.futures.process.BrokenProcessPool``
``pickling``       raise ``pickle.PicklingError``
``timeout``        raise :class:`~repro.util.resilience.DeadlineExceeded`
``keyboard``       raise ``KeyboardInterrupt``
``truncate``       return only the first half of the site's payload
                   (a truncated read: no exception, corrupted data)
``hang``           sleep :data:`HANG_SECONDS` (simulates a livelock; pair
                   with a deadline / ``--seed-timeout``)

The registered site catalog is :data:`SITES`; parsing rejects unknown
sites so plans cannot silently rot when code moves.  With no plan
installed, :func:`fault_site` is a near-free no-op (one module attribute
read), so the hooks stay compiled into production paths permanently —
exactly like the paper keeps its runtime checks cheap enough to ship.
"""

from __future__ import annotations

import os
import pickle
import threading
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .resilience import DeadlineExceeded

#: Seconds an injected ``hang`` sleeps — long enough that any sane
#: deadline/seed-timeout fires first, short enough that a leaked daemon
#: thread cannot outlive a test session by much.
HANG_SECONDS = 30.0

#: The registered fault sites (keep ``docs/resilience.md`` in sync).
SITES = frozenset({
    "engine.task",          # before each serial cache-miss analysis
    "session.read_file",    # after a session re-reads a file (payload: text)
    "session.parse_chunk",  # before an incremental chunk parse
    "session.analyze",      # before the engine analyze of an update
    "store.evict",          # before fingerprint eviction from the engine cache
    "serve.emit",           # before a serve/watch response line is written
    "fuzz.seed",            # inside one fuzz seed's oracle body
    "fuzz.oracle",          # at the start of each differential-oracle run
    "project.manifest_read",  # after a project manifest is read (payload: text)
    "project.patch",        # before a line-offset patch of one function
})


class InjectedFault(Exception):
    """The generic injected error (kind ``exception``)."""


class FaultPlanError(ValueError):
    """A ``PARCOACH_FAULTS`` spec that does not parse or names an
    unregistered site / unknown kind."""


_KINDS = ("exception", "oserror", "broken_pool", "pickling", "timeout",
          "keyboard", "truncate", "hang")


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired (for assertions and stats)."""

    site: str
    hit: int
    kind: str


@dataclass
class FaultPlan:
    """A deterministic fault schedule: ``(site, hit) -> kind``."""

    #: site -> {hit -> kind}
    rules: Dict[str, Dict[int, str]] = field(default_factory=dict)
    #: Per-site invocation counters (1-based after the first fire).
    hits: Dict[str, int] = field(default_factory=dict)
    #: Faults that fired, in order.
    fired: List[FaultEvent] = field(default_factory=list)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        plan = cls()
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise FaultPlanError(f"bad fault rule {part!r} "
                                     f"(expected site[:hit]=kind)")
            where, kind = part.split("=", 1)
            kind = kind.strip()
            if kind not in _KINDS:
                raise FaultPlanError(f"unknown fault kind {kind!r} "
                                     f"(expected one of {', '.join(_KINDS)})")
            if ":" in where:
                site, hit_text = where.rsplit(":", 1)
                try:
                    hit = int(hit_text)
                except ValueError:
                    raise FaultPlanError(
                        f"bad hit count in {part!r}") from None
            else:
                site, hit = where, 1
            site = site.strip()
            if site not in SITES:
                raise FaultPlanError(
                    f"unregistered fault site {site!r} "
                    f"(known: {', '.join(sorted(SITES))})")
            if hit < 1:
                raise FaultPlanError(f"hit count must be >= 1 in {part!r}")
            plan.rules.setdefault(site, {})[hit] = kind
        return plan

    def fire(self, site: str, payload=None):
        """Record one invocation of ``site``; trigger its fault if this is
        the scheduled hit.  Returns ``payload`` (possibly transformed)."""
        n = self.hits.get(site, 0) + 1
        self.hits[site] = n
        kind = self.rules.get(site, {}).get(n)
        if kind is None:
            return payload
        self.fired.append(FaultEvent(site=site, hit=n, kind=kind))
        detail = f"injected {kind} at {site} (hit {n})"
        if kind == "exception":
            raise InjectedFault(detail)
        if kind == "oserror":
            raise OSError(detail)
        if kind == "broken_pool":
            raise BrokenProcessPool(detail)
        if kind == "pickling":
            raise pickle.PicklingError(detail)
        if kind == "timeout":
            raise DeadlineExceeded(site, 0.0, 0.0)
        if kind == "keyboard":
            raise KeyboardInterrupt(detail)
        if kind == "hang":
            import time
            time.sleep(HANG_SECONDS)
            return payload
        # truncate: hand back only the first half of the payload.
        if payload is None:
            return payload
        return payload[: len(payload) // 2]


#: The installed plan (None = faults off).  ``_env_checked`` makes the
#: PARCOACH_FAULTS lookup happen at most once per process unless a test
#: resets it via install_plan/clear_plan.
_plan: Optional[FaultPlan] = None
_env_checked = False


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` process-wide (None disables injection)."""
    global _plan, _env_checked
    _plan = plan
    _env_checked = True


def clear_plan() -> None:
    """Disable injection and allow a later re-read of ``PARCOACH_FAULTS``
    (tests call this in teardown)."""
    global _plan, _env_checked
    _plan = None
    _env_checked = False


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, lazily loaded from ``PARCOACH_FAULTS`` on first
    use (so CLI processes need no extra wiring)."""
    global _plan, _env_checked
    if not _env_checked:
        _env_checked = True
        spec = os.environ.get("PARCOACH_FAULTS", "")
        if spec:
            _plan = FaultPlan.parse(spec)
    return _plan


#: Thread idents whose fault-site hits are suppressed.  A fuzz seed that
#: exceeds its ``--seed-timeout`` keeps running on its (daemon) body thread
#: — Python threads cannot be killed — and every fault site it reaches
#: after the timeout would advance the *shared* plan's hit counters,
#: shifting scheduled faults onto the wrong later seeds.  The campaign
#: quarantines the zombie's thread ident, turning its ``fault_site`` calls
#: into no-ops (hits untouched, nothing fires), so the deterministic plan
#: keeps addressing live seeds only.
_quarantined: Set[int] = set()
_quarantine_lock = threading.Lock()


def quarantine_thread(ident: Optional[int]) -> None:
    """Suppress all future fault-site activity of the thread ``ident``."""
    if ident is None:
        return
    with _quarantine_lock:
        _quarantined.add(ident)


def release_quarantine(ident: Optional[int]) -> None:
    """Lift a quarantine (thread idents are reused by the OS; callers that
    recycle threads should release stale entries)."""
    if ident is None:
        return
    with _quarantine_lock:
        _quarantined.discard(ident)


def quarantined_count() -> int:
    return len(_quarantined)


def fault_site(site: str, payload=None):
    """The production hook: a no-op returning ``payload`` unless a plan
    schedules a fault for this invocation of ``site``."""
    plan = active_plan()
    if plan is None:
        return payload
    if _quarantined and threading.get_ident() in _quarantined:
        return payload
    return plan.fire(site, payload)


__all__ = [
    "FaultEvent",
    "FaultPlan",
    "FaultPlanError",
    "HANG_SECONDS",
    "InjectedFault",
    "SITES",
    "active_plan",
    "clear_plan",
    "fault_site",
    "install_plan",
    "quarantine_thread",
    "quarantined_count",
    "release_quarantine",
]
