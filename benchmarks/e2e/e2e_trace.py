"""Per-layer tracing for the benchmark's traced run (``--trace 1``).

The tracer records spans from the benchmark's own code: before the first
request it replaces the module-level names through which callers reach
each layer (``repro.minilang.parser.tokenize``, ``repro.cfg.build.build_cfg``
as bound in the driver and the call-graph module, ...) with wrappers that
open and close a span, and puts the originals back afterwards.  Nothing
under ``src/`` changes.

A span is (name, start ns, end ns, parent span, request id, thread id).
Each thread keeps its own span stack; a span opened on a thread with an
empty stack (a simulated rank's OS thread) gets the innermost open span of
the request's main thread as its parent, so scheduler work done on rank
threads nests under the ``run_program`` call that is waiting for it.
Spans stay in memory, in flat arrays, until the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.  Per-decision helpers such as the DPOR
``conflicts`` test are counted, never timed: timing them would cost more
than they do.  *Marks* are inclusive stage timers (the fuzz oracle's
stages) that do not take part in self-time accounting.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from e2e_core import REFERENCE_NS, Tally

#: Name of the root span of every request; its self time is the harness's
#: own, unattributed share of the request.
HARNESS = "harness"


class Tracer:
    """Span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.thread = array("Q")
        #: span index -> process CPU ns spent inside it (CPU-tracked spans).
        self.cpu: Dict[int, int] = {}
        #: Calls of count-only wrappers, by name.
        self.calls: Counter = Counter()
        #: Work counts reported by result hooks (tokens, schedules, ...).
        self.counts: Counter = Counter()
        #: Inclusive stage intervals: (name, start ns, end ns, request id).
        self.marks: List[Tuple[str, int, int, int]] = []
        self.requests = 0
        self._request = -1
        self._root = -1
        self._main_stack: List[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, now: Optional[int] = None) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        with self._lock:
            ident = self._ids.get(name)
            if ident is None:
                ident = self._ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start)
            self.name_id.append(ident)
            self.start.append(time.perf_counter_ns() if now is None else now)
            self.end.append(0)
            self.parent.append(parent)
            self.request.append(self._request)
            self.thread.append(threading.get_ident())
        stack.append(idx)
        return idx

    def close(self, idx: int, now: Optional[int] = None) -> None:
        self.end[idx] = time.perf_counter_ns() if now is None else now
        stack = self._stack()
        if not stack or stack[-1] != idx:
            raise RuntimeError(f"span {self.names[self.name_id[idx]]!r} "
                               "closed out of order")
        stack.pop()

    def begin_request(self, now: int) -> None:
        """Open request ``self.requests`` with its root span."""
        self._request = self.requests
        self._main_stack = self._stack()
        self._root = self.open(HARNESS, now)

    def end_request(self, now: int) -> None:
        self.close(self._root, now)
        self.requests += 1
        self._request = -1
        self._root = -1

    # -- wrappers --------------------------------------------------------------

    def traced(self, func: Callable, name: str,
               on_result: Optional[Callable] = None,
               cpu: bool = False) -> Callable:
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            cpu0 = time.process_time_ns() if cpu else 0
            try:
                result = func(*args, **kwargs)
            finally:
                if cpu:
                    tracer.cpu[idx] = time.process_time_ns() - cpu0
                tracer.close(idx)
            if on_result is not None:
                on_result(tracer.counts, result)
            return result

        return wrapper

    def counted(self, func: Callable, name: str) -> Callable:
        calls = self.calls

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def marked(self, func: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                tracer.marks.append((name, start, time.perf_counter_ns(),
                                     tracer._request))

        return wrapper

    # -- patching ----------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch(self, target: str, make: Callable[[Callable], Callable]) -> int:
        """Replace ``target`` (``"module:function"`` or
        ``"module:Class.method"``) with ``make(original)``.  A function is
        replaced in *every* loaded ``repro`` module that binds the same
        object, so ``from x import f`` copies are covered too.  Returns the
        number of bindings replaced: 0 when the target no longer exists,
        so a refactored entry point drops out of the breakdown instead of
        failing the run."""
        module_name, _, qualname = target.partition(":")
        owner_name, _, attr = qualname.rpartition(".")
        try:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            return 0
        if owner_name:
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(make(raw.__func__)))
            else:
                self._set(owner, attr, make(raw))
            return 1
        wrapper = make(raw)
        replaced = 0
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro"
                                   or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._set(mod, key, wrapper)
                    replaced += 1
        return replaced

    def restore(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------------

    def self_times(self, scale: Optional[Sequence[float]] = None
                   ) -> Tuple[Dict[str, float], Dict[str, float],
                              Dict[str, int]]:
        """Per span name over all request spans: (self ns, inclusive ns,
        span count).  Children covering overlapping intervals are merged
        first, and clipped to the parent's interval.  ``scale[r]``, when
        given, multiplies the times of request ``r``'s spans (its
        reference-speed factor)."""
        children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for idx in range(len(self.start)):
            parent = self.parent[idx]
            if parent >= 0:
                children[parent].append((self.start[idx], self.end[idx]))
        self_ns: Dict[str, float] = defaultdict(int)
        incl_ns: Dict[str, float] = defaultdict(int)
        count: Dict[str, int] = defaultdict(int)
        for idx in range(len(self.start)):
            request = self.request[idx]
            if request < 0:
                continue
            factor = 1 if scale is None else scale[request]
            name = self.names[self.name_id[idx]]
            lo, hi = self.start[idx], self.end[idx]
            covered = _covered(children.get(idx, ()), lo, hi)
            self_ns[name] += (hi - lo - covered) * factor
            incl_ns[name] += (hi - lo) * factor
            count[name] += 1
        return dict(self_ns), dict(incl_ns), dict(count)

    def write_spans(self, path: str) -> None:
        """One JSON object per span, in opening order."""
        with open(path, "w", encoding="utf-8") as handle:
            for idx in range(len(self.start)):
                handle.write(json.dumps({
                    "name": self.names[self.name_id[idx]],
                    "start_ns": self.start[idx], "end_ns": self.end[idx],
                    "parent": self.parent[idx],
                    "request": self.request[idx],
                    "thread": self.thread[idx],
                }) + "\n")


def _covered(intervals: Sequence[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


# ---------------------------------------------------------------------------
# Layer wiring
# ---------------------------------------------------------------------------


def _add(key: str, size: Callable) -> Callable:
    def hook(counts: Counter, result) -> None:
        counts[key] += size(result)
    return hook


def _explore_hook(counts: Counter, report) -> None:
    counts["explore.schedules"] += report.schedules
    for key, value in (report.dpor_stats or {}).items():
        counts["dpor." + key] += value


#: (target, span name, result hook, track CPU).  Several targets may share
#: a span name: the layer is the name, the targets are its entry points.
LAYER_SPANS = (
    ("repro.minilang.lexer:tokenize", "minilang.lex",
     _add("minilang.tokens", len), False),
    ("repro.minilang.parser:parse_program", "minilang.parse", None, False),
    ("repro.minilang.semantics:check_program", "minilang.check", None, False),
    ("repro.minilang.semantics:Checker._check_func", "minilang.check",
     None, False),
    ("repro.cfg.build:build_cfg", "cfg.build", None, False),
    ("repro.parallelism.compute:compute_words", "parallelism.words",
     None, False),
    ("repro.core.sites:index_program", "sites.index", None, False),
    ("repro.core.sites:index_function", "sites.index", None, False),
    ("repro.core.sites:collect_sites", "sites.collect", None, False),
    ("repro.core.monothread:analyze_monothread", "phase1.monothread",
     None, False),
    ("repro.core.concurrency:analyze_concurrency", "phase2.concurrency",
     None, False),
    ("repro.core.sequence:analyze_sequence", "phase3.sequence", None, False),
    ("repro.core.callgraph:build_call_graph", "callgraph.build", None, False),
    ("repro.core.callgraph:propagate_contexts", "callgraph.contexts",
     None, False),
    ("repro.core.callgraph:contexts_reusable", "callgraph.contexts",
     None, False),
    ("repro.core.callgraph:collective_summaries", "callgraph.summaries",
     None, False),
    ("repro.core.callgraph:update_call_graph", "callgraph.update_graph",
     None, False),
    ("repro.core.callgraph:update_summaries", "callgraph.update_summaries",
     None, False),
    ("repro.core.driver:analyze_program", "driver", None, False),
    ("repro.core.driver:build_plan", "driver", None, False),
    ("repro.core.driver:update_plan", "driver", None, False),
    ("repro.core.driver:_analyze_function", "driver", None, False),
    ("repro.core.driver:_merge_artifacts", "driver", None, False),
    ("repro.core.driver:_assemble", "driver", None, False),
    ("repro.core.report:report_from_analysis", "report.build", None, False),
    ("repro.core.report:build_report", "report.build", None, False),
    ("repro.core.report:render_json", "report.render", None, False),
    ("repro.core.engine:AnalysisEngine.analyze", "engine", None, False),
    ("repro.core.engine:AnalysisEngine._materialize", "engine", None, False),
    ("repro.core.engine:AnalysisEngine.patch_function_lines", "engine",
     None, False),
    ("repro.core.engine:AnalysisEngine.invalidate_fingerprints", "engine",
     None, False),
    ("repro.core.engine:AnalysisEngine.update_program_facts", "engine",
     None, False),
    ("repro.project.session:ProjectSession.update_file", "session.update",
     None, False),
    ("repro.core.session:split_chunks", "session.chunk_parse", None, False),
    ("repro.core.session:_parse_chunk", "session.chunk_parse", None, False),
    ("repro.runtime.run:run_program", "runtime.run", None, True),
    ("repro.explore.sched:Scheduler._fingerprint_locked",
     "runtime.fingerprint", None, False),
    ("repro.explore.explore:explore_config", "explore.dpor",
     _explore_hook, False),
    ("repro.explore.trace:ScheduleTrace.record", "explore.trace_record",
     _add("runtime.decisions", lambda trace: len(trace.choices)), False),
    ("repro.util.ddmin:ddmin", "explore.minimize", None, False),
    ("repro.core.instrument:instrument_program", "instrument", None, False),
    ("repro.fuzz.campaign:fuzz_one", "fuzz.campaign", None, False),
    ("repro.fuzz.campaign:program_for_seed", "fuzz.generate", None, False),
)

#: Per-decision helpers: counted, never timed.
COUNTED = (
    ("repro.explore.dpor:conflicts", "explore.conflicts"),
)

#: The fuzz oracle's stages, timed inclusively where the oracle calls them.
ORACLE_MARKS = (
    ("repro.fuzz.oracle:parse_program", "fuzz.oracle_front"),
    ("repro.fuzz.oracle:check_program", "fuzz.oracle_front"),
    ("repro.fuzz.oracle:analyze_program", "fuzz.oracle_static"),
    ("repro.fuzz.oracle:instrument_program", "fuzz.oracle_instrument"),
    ("repro.fuzz.oracle:run_scheduled", "fuzz.oracle_runs"),
    ("repro.fuzz.oracle:explore_config", "fuzz.oracle_dpor"),
)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point (marks last, so they enclose the layer
    wrappers they sit on).  Targets that no longer exist are reported on
    stderr."""
    missing = []
    for target, name, hook, cpu in LAYER_SPANS:
        if not tracer.patch(target, lambda f, n=name, h=hook, c=cpu:
                            tracer.traced(f, n, on_result=h, cpu=c)):
            missing.append(target)
    for target, name in COUNTED:
        if not tracer.patch(target, lambda f, n=name: tracer.counted(f, n)):
            missing.append(target)
    for target, name in ORACLE_MARKS:
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        if attr in module.__dict__:
            tracer._set(module, attr,
                        tracer.marked(module.__dict__[attr], name))
        else:
            missing.append(target)
    if missing:
        print("trace: entry points not found: " + ", ".join(missing),
              file=sys.stderr)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Span name -> metric (self time per request, ms).
SELF_TIME_METRICS = {
    "minilang.lex": "minilang.lex_ms",
    "minilang.parse": "minilang.parse_ms",
    "minilang.check": "minilang.check_ms",
    "cfg.build": "cfg.build_ms",
    "parallelism.words": "parallelism.words_ms",
    "sites.index": "sites.index_ms",
    "sites.collect": "sites.collect_ms",
    "phase1.monothread": "phase1.monothread_ms",
    "phase2.concurrency": "phase2.concurrency_ms",
    "phase3.sequence": "phase3.sequence_ms",
    "callgraph.build": "callgraph.build_ms",
    "callgraph.contexts": "callgraph.contexts_ms",
    "callgraph.summaries": "callgraph.summaries_ms",
    "callgraph.update_graph": "callgraph.update_graph_ms",
    "callgraph.update_summaries": "callgraph.update_summaries_ms",
    "driver": "driver.self_ms",
    "report.build": "report.build_ms",
    "report.render": "report.render_ms",
    "instrument": "instrument.self_ms",
    "engine": "engine.self_ms",
    "session.update": "session.update_self_ms",
    "session.chunk_parse": "session.chunk_parse_ms",
    "runtime.run": "runtime.run_ms",
    "runtime.fingerprint": "runtime.fingerprint_ms",
    "explore.dpor": "explore.dpor_self_ms",
    "explore.trace_record": "explore.trace_record_ms",
    "explore.minimize": "explore.minimize_ms",
    "fuzz.generate": "fuzz.generate_ms",
    "fuzz.campaign": "fuzz.campaign_self_ms",
    HARNESS: "harness.self_ms",
}

#: Mark name -> metric (inclusive stage time per request, ms).
MARK_METRICS = {
    "fuzz.oracle_front": "fuzz.oracle_front_ms",
    "fuzz.oracle_static": "fuzz.oracle_static_ms",
    "fuzz.oracle_instrument": "fuzz.oracle_instrument_ms",
    "fuzz.oracle_runs": "fuzz.oracle_runs_ms",
    "fuzz.oracle_dpor": "fuzz.oracle_dpor_ms",
}

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, tally: Tally,
                  counters: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one traced run (the ``per_layer`` list of
    ``BENCHMARK.json``).  ``counters`` holds the workload's counts read
    from public state (engine and session stats, nondeterministic sweeps,
    coverage signatures).  Times are taken at the reference speed, each
    span scaled like the request it belongs to (see
    :class:`~e2e_core.Tally`)."""
    n = max(1, tally.attempted)
    scale = [REFERENCE_NS / probe for probe in tally.probes_ns]
    self_ns, incl_ns, count = tracer.self_times(scale)
    out = {metric: self_ns.get(name, 0) / 1e6 / n
           for name, metric in SELF_TIME_METRICS.items()}
    marks: Dict[str, float] = defaultdict(int)
    for name, start, end, request in tracer.marks:
        if request >= 0:
            marks[name] += (end - start) * scale[request]
    out.update({metric: marks[name] / 1e6 / n
                for name, metric in MARK_METRICS.items()})

    c = tracer.counts
    out["minilang.tokens_per_s"] = _ratio(
        c["minilang.tokens"], self_ns.get("minilang.lex", 0) / 1e9)
    out["cfg.builds_per_request"] = count.get("cfg.build", 0) / n

    hits, misses = counters.get("engine.hits", 0), counters.get(
        "engine.misses", 0)
    out["engine.hit_ratio"] = _ratio(hits, hits + misses)
    out["engine.remaps_per_request"] = counters.get("engine.remaps", 0) / n
    out["engine.line_patches_per_request"] = counters.get(
        "engine.line_patches", 0) / n

    out["session.fast_update_ratio"] = _ratio(
        counters.get("session.fast_updates", 0),
        counters.get("session.updates", 0))
    for key in ("reanalyzed", "assembly_reuses", "edges_recomputed"):
        out[f"session.{key}_per_edit"] = counters.get(f"session.{key}", 0) / n

    runs = [i for i in range(len(tracer.start))
            if tracer.request[i] >= 0 and i in tracer.cpu]
    wall = sum(tracer.end[i] - tracer.start[i] for i in runs)
    cpu = sum(tracer.cpu[i] for i in runs)
    out["runtime.runs_per_request"] = count.get("runtime.run", 0) / n
    out["runtime.decisions_per_run"] = _ratio(
        c["runtime.decisions"], count.get("explore.trace_record", 0))
    out["runtime.offcpu_share"] = 1.0 - cpu / wall if wall else 0.0

    out["explore.schedules_per_s"] = _ratio(
        c["explore.schedules"], incl_ns.get("explore.dpor", 0) / 1e9)
    pruned = (c["dpor.sleep_skips"] + c["dpor.independent_skips"]
              + c["dpor.fingerprint_prunes"])
    out["explore.prune_ratio"] = _ratio(pruned, pruned + c["dpor.expanded"])
    out["explore.nondeterministic_sweeps"] = counters.get(
        "explore.nondeterministic_sweeps", 0)
    out["explore.conflict_checks_per_request"] = tracer.calls[
        "explore.conflicts"] / n
    out["fuzz.signatures"] = counters.get("fuzz.signatures", 0)

    out["harness.self_share"] = _ratio(
        self_ns.get(HARNESS, 0),
        sum(ns * f for ns, f in zip(tally.latencies_ns, scale)))
    out["traced.latency_p50_ms"] = (tally.latency_metrics()["latency_p50_ms"]
                                    if tally.attempted else 0.0)
    return out
