"""Statistics, request accounting and run environment for the end-to-end
benchmark (``benchmarks/e2e/run.py``).

Nothing here imports ``repro``: the compare script and the unit tests use
these helpers without loading the system under test.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import signal
import statistics
import time
from collections import Counter
from pathlib import Path
from typing import (Callable, Dict, Hashable, Iterable, List, Optional,
                    Sequence)

#: The benchmark's description: workloads, metric names, units and bounds.
BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics listed
    in ``BENCHMARK.json``, in its order."""
    spec = json.loads(BENCHMARK.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def percentile(values: Sequence[float], q: float,
               weights: Optional[Sequence[float]] = None) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q`` of
    all samples (of their total weight, when ``weights`` are given) at or
    below it.  Always an observed value, never an interpolation, so a
    latency percentile is a latency some request had."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    if weights is None:
        weights = [1.0] * len(values)
    ordered = sorted(zip(values, weights))
    # The epsilon keeps q * total exact when q is a decimal like 0.9.
    target = q * sum(weights) * (1 - 1e-9)
    reached = 0.0
    for value, weight in ordered:
        reached += weight
        if reached >= target:
            return value
    return ordered[-1][0]


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile (``statistics.quantiles``
    with ``n=4``), the spread measure used for run-to-run noise."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def reference_loop() -> int:
    """A fixed slice of interpreter work (about 50 us) that measures how fast
    the machine runs Python right now.  It touches nothing of ``repro``.

    Half of it allocates (tuples, dict updates, string formatting), half is
    plain integer arithmetic.  The host slows the two kinds of work by
    different amounts, and the requests sit between them: in one slow
    period request times moved with the arithmetic loop alone (log-log
    slope 0.92-1.06) but less than with the allocating loop alone
    (0.6-0.7); in another, requests slowed about 1.5 times as much as the
    arithmetic loop did.  Either loop alone turned host drift into a bias
    of up to 12%."""
    table: Dict[str, int] = {}
    head = None
    total = 0
    for i in range(40):
        key = f"k{i % 61}"
        head = (key, head)
        table[key] = table.get(key, 0) + i
    while head is not None:
        total += table[head[0]] & 3
        head = head[1]
    for i in range(400):
        total += (i * 7) % 13
    return total


#: A typical time of :func:`reference_loop` on the reference machine (a
#: 2-vCPU x86-64 VM running CPython 3.11; 40 us in its fast periods).
#: Reported times are scaled to that speed; see :class:`Tally`.
REFERENCE_NS = 53_000

#: Probes run just before and just after every timed interval.
BRACKET_PROBES = 8
#: How often a probe runs inside a timed interval.
PROBE_INTERVAL_S = 0.005


def probe_ns() -> int:
    """Duration of one :func:`reference_loop`.  The cyclic collector is
    paused meanwhile, so a collection that the code around the probe has
    made due runs in that code, and is charged to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        reference_loop()
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """How fast the machine ran Python during one timed interval.

    The hosts this runs on are shared: the median time of one fixed loop
    over half-second windows moved between 0.32 and 0.65 ms within a
    minute, with hardly any steal time visible to the guest, and whole
    runs landed in slow periods.  The speed also drifts within a single
    long request, which two probes at its ends miss.  So :meth:`start`
    runs ``BRACKET_PROBES`` probes and arms an interval timer: every
    ``PROBE_INTERVAL_S`` of the interval, ``SIGALRM`` runs one more probe
    on the main thread.  :meth:`stop` disarms it and runs the closing
    probes.  ``inside_ns`` is the probes' own time within the interval,
    which the caller subtracts; ``mean_ns`` is the mean probe time over the
    whole interval.

    On one 500 ms DPOR sweep repeated twelve times, the spread of log
    times scaled by the two end probes alone was 0.088; scaled by the mean
    over the end probes and 60-70 probes inside, 0.047 (0.103 against
    0.029 on scale XL's 370 ms analysis).  The probes inside cost 0.4-0.6%
    of the interval.  Where ``SIGALRM`` is missing, only the end probes
    run."""

    def __init__(self) -> None:
        self.probes: List[int] = []
        self.inside_ns = 0
        self._previous = None
        self._busy = False

    def _on_alarm(self, _signum, _frame) -> None:
        if self._busy:  # a probe outlasted the interval
            return
        self._busy = True
        try:
            ns = probe_ns()
            self.probes.append(ns)
            self.inside_ns += ns
        finally:
            self._busy = False

    def start(self) -> None:
        self.probes = [probe_ns() for _ in range(BRACKET_PROBES)]
        self.inside_ns = 0
        if hasattr(signal, "setitimer"):
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                             PROBE_INTERVAL_S)

    def stop(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        self.probes.extend(probe_ns() for _ in range(BRACKET_PROBES))

    @property
    def mean_ns(self) -> float:
        return sum(self.probes) / len(self.probes)

    def at_reference_speed(self, elapsed_ns: int) -> float:
        """``elapsed_ns`` of the interval, less the probes inside it,
        scaled to the reference speed."""
        return (elapsed_ns - self.inside_ns) * REFERENCE_NS / self.mean_ns


class Tally:
    """Per-request latency and failure accounting of one run.

    A request *fails* when it raised or when its answer was wrong; either
    way it counts once.  A failed request misses any latency limit: it
    counts as if it had taken the summed time of the whole run, ranking
    above every successful request, and adds that time but no request to
    the throughput.  So a change that fails fast reads slower, never
    faster.

    Reported latencies are *reference-normalized*: each request's time, as
    measured between the probes of a :class:`SpeedProbe`, is scaled by
    ``REFERENCE_NS`` over the probes' mean time — the time the request
    would have taken at the reference speed.  A change to ``repro`` cannot
    move the probes, so a real speed-up shows in full while the host's
    speed cancels out.

    Every request also carries a key naming the work it does; requests with
    equal keys do identical work (the same program or the same sweep, in
    another pass).  The normalized times of a key's successful repeats are
    replaced by their median before percentiles and throughput are taken:
    a single request's time strays by 6-9% even after normalization.  And
    every key weighs the same, however often it was sent: the percentiles
    and the throughput are those of one pass over the workload's keys, so
    a workload may repeat its short requests more often, to steady their
    medians, without shifting either."""

    def __init__(self) -> None:
        self.latencies_ns: List[int] = []
        self.probes_ns: List[float] = []
        self.keys: List[Hashable] = []
        self.ok: List[bool] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def record(self, elapsed_ns: int, ok: bool, key: Hashable,
               probe: float = REFERENCE_NS) -> None:
        """One request: its time less the probes inside it, whether it
        succeeded, its key, and the mean probe time around it."""
        self.latencies_ns.append(elapsed_ns)
        self.probes_ns.append(probe)
        self.keys.append(key)
        self.ok.append(ok)

    def scaled_ms(self) -> List[float]:
        """Every request's own time at the reference speed."""
        return [ns * REFERENCE_NS / probe / 1e6
                for ns, probe in zip(self.latencies_ns, self.probes_ns)]

    def normalized_ms(self) -> List[Optional[float]]:
        """Every request's time at the reference speed, as the median over
        its key's successful repeats; None for a failed request."""
        repeats: Dict[Hashable, List[float]] = {}
        for key, ms, ok in zip(self.keys, self.scaled_ms(), self.ok):
            if ok:
                repeats.setdefault(key, []).append(ms)
        typical = {key: statistics.median(v) for key, v in repeats.items()}
        return [typical[key] if ok else None
                for key, ok in zip(self.keys, self.ok)]

    def weights(self) -> List[float]:
        """Every request's weight: 1 over the number of requests sent with
        its key."""
        sent = Counter(self.keys)
        return [1.0 / sent[key] for key in self.keys]

    def counted_ms(self) -> List[float]:
        """Every request's time as the metrics count it: its key's median,
        or, for a failed request, the summed time of the whole run."""
        ms = self.normalized_ms()
        run_ms = sum(m if m is not None else own
                     for m, own in zip(ms, self.scaled_ms()))
        return [m if m is not None else run_ms for m in ms]

    def latency_metrics(self) -> Dict[str, float]:
        counted, weights = self.counted_ms(), self.weights()
        served = sum(w for w, ok in zip(weights, self.ok) if ok)
        busy_ms = sum(w * ms for w, ms in zip(weights, counted))
        return {
            "latency_p50_ms": percentile(counted, 0.5, weights),
            "latency_p90_ms": percentile(counted, 0.9, weights),
            "throughput_rps": served / (busy_ms / 1e3),
        }

    def samples_beyond(self, q: float) -> int:
        """How many requests lie strictly above the ``q`` percentile — the
        choosing-metrics rule wants at least ten."""
        counted = self.counted_ms()
        limit = percentile(counted, q, self.weights())
        return sum(ms > limit for ms in counted)

    def raw_p50_ms(self) -> float:
        """Median measured time of the successful requests, not scaled: a
        check on the normalization."""
        raw = [ns / 1e6 for ns, ok in zip(self.latencies_ns, self.ok) if ok]
        return percentile(raw, 0.5) if raw else 0.0


def run_units(units: Iterable[list], budget_s: float,
              max_requests: Optional[int], serve: Callable) -> int:
    """Closed-loop client over whole units (a block of edits, a first pass
    over a corpus, a single request): ``serve(item)`` runs one request.  A
    new unit starts only when the previous unit's duration still fits in
    the budget, so the request mix within a unit never depends on where the
    clock ran out.  ``max_requests`` (smoke runs) stops mid-unit.  Returns
    the number of requests served."""
    start = time.perf_counter()
    last = 0.0
    served = 0
    for unit in units:
        unit_start = time.perf_counter()
        if served and unit_start - start + last > budget_s:
            break
        for item in unit:
            if max_requests is not None and served >= max_requests:
                return served
            serve(item)
            served += 1
        last = time.perf_counter() - unit_start
    return served


def peak_rss_mb() -> float:
    """High-water resident set size of this process (``ru_maxrss``)."""
    import resource

    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process (and the children it starts) to one CPU.

    The runtime hands one scheduling token between OS threads; unpinned,
    every handoff can migrate across cores, which made the same DPOR work
    1.4-1.9x slower, and even changed how many schedules it explored.
    Returns the CPU, or None where affinity is unsupported."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def source_digest(src: Path) -> str:
    """SHA-256 over every ``*.py`` file under ``src`` (path + bytes): the
    code that was measured, also where no git metadata exists."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git;
    None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, pinned: Optional[int]) -> Dict[str, object]:
    """What every result line records about where it was measured."""
    return {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "pinned_cpu": pinned,
        "python": platform.python_version(),
        "commit": git_commit(root),
        "source_sha256": source_digest(root / "src"),
    }
