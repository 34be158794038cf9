"""Differential oracle: static verdicts vs. deterministic dynamic runs.

For one parsed, semantically checked program, the oracle collects every
verdict source the system has:

* **static, interprocedural** — ``analyze_program(interprocedural=True)``
  (context propagation + expression-call points);
* **static, intraprocedural** — the paper's per-function mode;
* **dynamic, raw** — one deterministic scheduled run of the original
  program (structural deadlock detection, no wall-clock timeouts);
* **dynamic, instrumented** — the same default-schedule run of the
  selectively instrumented program (CC / thread-check verdicts fire
  *before* the deadlock);
* **dynamic, explored** — a bounded-preemption DPOR sweep (wakeup
  sequences + sleep sets, see :mod:`repro.explore.dpor`) of thread
  interleavings of the instrumented program, catching schedule-sensitive
  bugs the default interleaving misses at a fraction of the raw DFS cost.

and classifies their agreement:

``agree``
    both sides clean, or the static side warned and some dynamic run
    failed (true positive).
``static-miss``
    a dynamic run failed but *neither* static mode warned — a soundness
    bug, the fuzzer's headline finding.
``static-overapprox``
    a static warning with every explored schedule clean — allowed (the
    analysis is a conservative over-approximation) but tracked, because
    the rate is the paper's precision metric.
``crash``
    any phase raised an internal error (parse/semantic failure of a
    supposedly well-formed input, an analysis exception, or an
    interpreter bug surfacing as a bare ``ValidationError``).

Each job runs once.  :func:`run_oracle_checked` takes the AST the fuzz
generator already checked (:func:`run_oracle` is its front end for program
text) and instruments it in place after the raw run.  The sweep's first
schedule is the default one (its empty prefix leaves every choice to
:class:`~repro.explore.DefaultStrategy`), so it doubles as the
instrumented run; only ``explore_runs == 0`` runs that schedule on its own.

Every dynamic run is scheduled (virtual clock), so the whole oracle is
deterministic: same source ⇒ same :class:`OracleVerdict`, across
processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..cfg import build_program_cfgs
from ..core import analyze_program, instrument_program
from ..explore import DefaultStrategy, ExploreConfig, explore_config, run_scheduled
from ..explore.trace import verdict_line
from ..minilang import ast_nodes as A
from ..minilang.parser import parse_program
from ..minilang.semantics import check_program
from ..mpi.thread_levels import ThreadLevel
from ..util.faultinject import fault_site

#: Classification labels (stable strings — they appear in corpus JSON).
AGREE = "agree"
STATIC_MISS = "static-miss"
STATIC_OVERAPPROX = "static-overapprox"
CRASH = "crash"
CLASSIFICATIONS = (AGREE, STATIC_MISS, STATIC_OVERAPPROX, CRASH)


@dataclass(frozen=True)
class OracleConfig:
    """Execution parameters of the differential oracle."""

    nprocs: int = 2
    num_threads: int = 2
    thread_level: ThreadLevel = ThreadLevel.MULTIPLE
    #: Bounded DPOR sweep size (schedules) and preemption bound.
    explore_runs: int = 12
    explore_preemptions: int = 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "nprocs": self.nprocs,
            "num_threads": self.num_threads,
            "thread_level": self.thread_level.name.lower(),
            "explore_runs": self.explore_runs,
            "explore_preemptions": self.explore_preemptions,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "OracleConfig":
        return cls(
            nprocs=int(data.get("nprocs", 2)),
            num_threads=int(data.get("num_threads", 2)),
            thread_level=ThreadLevel[
                str(data.get("thread_level", "multiple")).upper()],
            explore_runs=int(data.get("explore_runs", 12)),
            explore_preemptions=int(data.get("explore_preemptions", 1)),
        )


@dataclass
class OracleVerdict:
    """Everything both phases said about one program, plus the agreement
    classification."""

    classification: str
    #: Sorted diagnostic codes per static mode (duplicates collapsed).
    static_interproc: Tuple[str, ...] = ()
    static_intraproc: Tuple[str, ...] = ()
    #: Canonical verdict lines of the two deterministic default-schedule runs.
    raw_verdict: str = "clean"
    instrumented_verdict: str = "clean"
    #: Bounded DPOR sweep: schedules explored / failed, distinct error classes.
    explored: int = 0
    explored_failed: int = 0
    explored_classes: Tuple[str, ...] = ()
    #: Non-empty for ``crash``: which phase and what it raised.
    crash_detail: str = ""

    @property
    def static_warned(self) -> bool:
        return bool(self.static_interproc or self.static_intraproc)

    @property
    def dynamic_failed(self) -> bool:
        return (self.raw_verdict != "clean"
                or self.instrumented_verdict != "clean"
                or self.explored_failed > 0)

    def as_dict(self) -> Dict[str, object]:
        return {
            "classification": self.classification,
            "static": {"interproc": list(self.static_interproc),
                       "intraproc": list(self.static_intraproc)},
            "dynamic": {"raw": self.raw_verdict,
                        "instrumented": self.instrumented_verdict,
                        "explored": self.explored,
                        "explored_failed": self.explored_failed,
                        "explored_classes": list(self.explored_classes)},
            "crash_detail": self.crash_detail,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "OracleVerdict":
        static = data.get("static", {})
        dynamic = data.get("dynamic", {})
        return cls(
            classification=str(data.get("classification", "")),
            static_interproc=tuple(static.get("interproc", ())),
            static_intraproc=tuple(static.get("intraproc", ())),
            raw_verdict=str(dynamic.get("raw", "clean")),
            instrumented_verdict=str(dynamic.get("instrumented", "clean")),
            explored=int(dynamic.get("explored", 0)),
            explored_failed=int(dynamic.get("explored_failed", 0)),
            explored_classes=tuple(dynamic.get("explored_classes", ())),
            crash_detail=str(data.get("crash_detail", "")),
        )

    def describe(self) -> str:
        bits = [self.classification,
                f"static={','.join(self.static_interproc) or 'clean'}"]
        if tuple(self.static_intraproc) != tuple(self.static_interproc):
            bits.append(f"intra={','.join(self.static_intraproc) or 'clean'}")
        bits.append(f"raw={self.raw_verdict.split('[')[0]}")
        bits.append(f"inst={self.instrumented_verdict.split('[')[0]}")
        if self.explored:
            bits.append(f"explore={self.explored_failed}/{self.explored}")
        if self.crash_detail:
            bits.append(f"crash={self.crash_detail}")
        return " ".join(bits)


def _is_internal(line: str) -> bool:
    """A bare ``ValidationError`` verdict means the interpreter blew up —
    an internal error, never a legitimate program verdict."""
    return line.startswith("ValidationError[")


def _diag_codes(diags) -> Tuple[str, ...]:
    return tuple(sorted({d.code.value for d in diags}))


def run_oracle(source: str,
               config: OracleConfig = OracleConfig(),
               name: str = "<fuzz>") -> OracleVerdict:
    """Parse and check ``source``, then :func:`run_oracle_checked` it.

    A text that does not parse or semantically check comes back as a
    ``crash`` verdict naming the phase."""
    try:
        program = parse_program(source, name)
        issues = check_program(program)
    except Exception as exc:  # noqa: BLE001 - classified, not propagated
        return OracleVerdict(classification=CRASH,
                             crash_detail=f"parse: {exc!r}")
    errors = [i for i in issues if i.severity == "error"]
    if errors:
        return OracleVerdict(classification=CRASH,
                             crash_detail=f"semantic: {errors[0]}")
    return run_oracle_checked(program, config)


def run_oracle_checked(program: A.Program,
                       config: OracleConfig = OracleConfig()) -> OracleVerdict:
    """Run every verdict source over a parsed, semantically checked
    ``program`` and classify the agreement.

    ``program`` is instrumented in place once the raw run is done with it.
    Never raises for program-level problems: anything unexpected comes back
    as a ``crash`` verdict with ``crash_detail`` naming the phase."""
    fault_site("fuzz.oracle")
    # -- static phase --------------------------------------------------------
    try:
        # One CFG per function serves both modes: a CFG never changes once
        # built, and both analyses end before instrumentation edits the AST.
        cfgs = build_program_cfgs(program)
        inter = analyze_program(program, interprocedural=True, cfgs=cfgs)
        intra = analyze_program(program, interprocedural=False, cfgs=cfgs)
    except Exception as exc:  # noqa: BLE001
        return OracleVerdict(classification=CRASH,
                             crash_detail=f"static: {exc!r}")
    verdict = OracleVerdict(
        classification=AGREE,
        static_interproc=_diag_codes(inter.diagnostics),
        static_intraproc=_diag_codes(intra.diagnostics),
    )

    # -- dynamic phase -------------------------------------------------------
    run_cfg = ExploreConfig(nprocs=config.nprocs,
                            num_threads=config.num_threads,
                            thread_level=config.thread_level)
    try:
        raw_result, _ = run_scheduled(program, run_cfg, DefaultStrategy())
        verdict.raw_verdict = verdict_line(raw_result)

        instrumented, _report = instrument_program(inter, in_place=True)
        inst_cfg = ExploreConfig(nprocs=config.nprocs,
                                 num_threads=config.num_threads,
                                 thread_level=config.thread_level,
                                 instrument=True)
        if config.explore_runs > 0:
            report = explore_config(
                instrumented, inst_cfg, strategy="dpor",
                runs=config.explore_runs,
                preemptions=config.explore_preemptions,
                group_kinds=inter.group_kinds, minimize=False)
            # The sweep's first schedule (prefix ``()``) is the default one;
            # failures are listed in schedule order.
            failures = report.failures
            if failures and failures[0].index == 1:
                verdict.instrumented_verdict = failures[0].verdict
            verdict.explored = report.schedules
            verdict.explored_failed = report.failed
            verdict.explored_classes = tuple(sorted(
                cls for cls in report.verdict_counts if cls != "clean"))
        else:
            inst_result, _ = run_scheduled(instrumented, inst_cfg,
                                           DefaultStrategy(),
                                           group_kinds=inter.group_kinds)
            verdict.instrumented_verdict = verdict_line(inst_result)
    except Exception as exc:  # noqa: BLE001
        verdict.classification = CRASH
        verdict.crash_detail = f"dynamic: {exc!r}"
        return verdict

    # -- classification ------------------------------------------------------
    internal = [line for line in
                (verdict.raw_verdict, verdict.instrumented_verdict)
                if _is_internal(line)]
    internal.extend(c for c in verdict.explored_classes
                    if c == "ValidationError")
    if internal:
        verdict.classification = CRASH
        verdict.crash_detail = f"internal: {internal[0]}"
    elif verdict.dynamic_failed and not verdict.static_warned:
        verdict.classification = STATIC_MISS
    elif verdict.static_warned and not verdict.dynamic_failed:
        verdict.classification = STATIC_OVERAPPROX
    else:
        verdict.classification = AGREE
    return verdict
