"""Human- and machine-readable rendering of analysis results.

Besides the classic text report this module owns the **unified Report IR**:
one versioned JSON schema (``schema: "parcoach-report"``, ``version: 1``)
that every verdict-producing subcommand — ``analyze``, ``callgraph``,
``explore``, ``fuzz`` and the ``serve``/``watch`` session layer — emits via
``--json``.  Every *finding* (a static diagnostic, a failing schedule
class, a fuzzer disagreement) carries a stable **fingerprint**: a SHA-256
over the finding's reportable content with all parse-transient identity
(AST uids inside parallelism-word region ids) canonicalized away, so two
runs over identical source produce byte-identical reports regardless of
parse identity, and a session can diff two reports by fingerprint set.
The schema contract lives in ``docs/report-schema.md``.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any, Dict, List, Optional

from ..parallelism import EMPTY, format_word
from .diagnostics import Diagnostic, ErrorCode
from .driver import ProgramAnalysis


def analysis_summary(analysis: ProgramAnalysis,
                     canonical: bool = False) -> Dict[str, Any]:
    """A JSON-friendly summary of one program analysis.

    With ``canonical=True`` the per-function context words are renumbered
    through :func:`canonical_region_ids` so the summary is stable across
    re-parses (the Report IR uses this; the human verbose report keeps the
    raw region ids, which are real AST uids)."""
    summaries = analysis.summaries
    per_function = {
        name: function_entry(
            fa, fa.context_words, fa.instrumented,
            summaries[name] if summaries is not None else None, canonical)
        for name, fa in analysis.functions.items()
    }
    warnings_by_code = {
        code.value: analysis.diagnostics.count(code) for code in ErrorCode
    }
    return {
        "functions": per_function,
        "warnings_total": len(analysis.diagnostics),
        "warnings_by_code": warnings_by_code,
        "collective_functions": sorted(analysis.collective_funcs),
        "flagged_functions": sorted(analysis.flagged_functions),
        "instrumented_functions": sorted(analysis.instrumented_functions),
        "requested_level": (
            analysis.requested_level.mpi_name if analysis.requested_level else None
        ),
        "verified": analysis.verified,
        "precision": analysis.precision,
        "interprocedural": analysis.interprocedural,
    }


def function_entry(art, context_words, instrumented: bool,
                   summary=None, canonical: bool = True) -> Dict[str, Any]:
    """One ``summary.functions`` entry from a function's merged artifacts:
    the counts, the flags, the context words (canonical or raw, see
    :func:`analysis_summary`) and, in interprocedural mode, its collective
    ``summary``."""
    fmt = ((lambda w: canonical_region_ids(format_word(w))) if canonical
           else format_word)
    entry = {
        "blocks": len(art.cfg),
        "collectives": sum(1 for s in art.sites if s.kind == "collective"),
        "sites": len(art.sites),
        "flagged": art.flagged,
        "instrumented": instrumented,
        "multithreaded_sites": len(art.monothread.multithreaded_sites),
        "concurrent_pairs": len(art.concurrency.concurrent_pairs),
        "mismatch_conditionals": len(art.sequence.conditionals),
        "required_level": art.monothread.max_required_level.mpi_name,
        "contexts": [fmt(w) for w in context_words],
    }
    if summary is not None:
        entry["collective_summary"] = dict(summary.collectives)
    return entry


def render_report(analysis: ProgramAnalysis, verbose: bool = False) -> str:
    """Multi-line text report (what the CLI prints)."""
    lines = []
    summary = analysis_summary(analysis)
    lines.append(f"PARCOACH analysis of {analysis.program.filename}")
    lines.append(
        f"  functions: {len(analysis.functions)}; "
        f"with collectives: {len(analysis.collective_funcs)}; "
        f"flagged: {len(analysis.flagged_functions)}; "
        f"instrumented: {len(analysis.instrumented_functions)}"
    )
    if analysis.requested_level is not None:
        lines.append(f"  requested thread level: {analysis.requested_level.mpi_name}")
    lines.append(f"  warnings: {summary['warnings_total']}")
    for code, count in summary["warnings_by_code"].items():
        if count:
            lines.append(f"    {code}: {count}")
    lines.append("")
    lines.append(analysis.diagnostics.render().rstrip() or "no warnings")
    if verbose:
        lines.append("")
        for name, fa in sorted(analysis.functions.items()):
            lines.append(f"  function {name}: {len(fa.cfg)} blocks, "
                         f"{fa.n_collectives} collectives")
            if fa.context_words != (EMPTY,):
                formatted = " | ".join(format_word(w) for w in fa.context_words)
                lines.append(f"    contexts: {formatted}")
            infos = fa.word_infos or (fa.word_info,)
            for site in fa.sites:
                words = []
                for info in infos:
                    text = format_word(info.words[site.uid])
                    if text not in words:
                        words.append(text)
                lines.append(
                    f"    {site.name} (line {site.line}): pw = {' | '.join(words)}"
                )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Unified Report IR (schema "parcoach-report", version 1)
# ---------------------------------------------------------------------------

REPORT_SCHEMA = "parcoach-report"
REPORT_VERSION = 1

#: Region-id token inside a formatted parallelism word: P<uid> / S<uid>.
#: Canonical interprocedural words use negative ids (P-1), per-function
#: words use raw AST uids — both renumber to 1, 2, ... first-occurrence.
_REGION_ID = re.compile(r"\b([PS])(-?\d+)\b")


def canonical_region_ids(text: str) -> str:
    """Renumber every ``P<i>``/``S<i>`` region id in ``text`` to 1, 2, ...
    in first-occurrence order.

    Region ids are AST uids — transient parse identity.  No two structurally
    identical parses share them, so any uid reaching the Report IR would
    break byte-identity across re-parses; this is the one normalization the
    IR applies to rendered parallelism words."""
    mapping: Dict[str, str] = {}

    def sub(match: "re.Match[str]") -> str:
        rid = match.group(2)
        new = mapping.get(rid)
        if new is None:
            new = mapping[rid] = str(len(mapping) + 1)
        return match.group(1) + new

    return _REGION_ID.sub(sub, text)


def finding_fingerprint(payload: Dict[str, Any]) -> str:
    """Stable 16-hex-digit fingerprint of one finding.

    Hashes the canonical JSON (sorted keys, compact separators) of the
    finding's content — everything except the ``fingerprint`` field itself.
    Stability guarantee: the fingerprint changes iff a reportable field
    changes; it never depends on parse identity (callers canonicalize
    region ids first), discovery order, or schedule timing."""
    content = {k: v for k, v in payload.items() if k != "fingerprint"}
    blob = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _fingerprinted(payload: Dict[str, Any]) -> Dict[str, Any]:
    payload["fingerprint"] = finding_fingerprint(payload)
    return payload


def diagnostic_finding(diag: Diagnostic) -> Dict[str, Any]:
    """One static diagnostic as a Report IR finding."""
    return _fingerprinted({
        "kind": "static-diagnostic",
        "code": diag.code.value,
        "function": diag.function,
        "message": diag.message,
        "severity": diag.severity,
        "collectives": [{"name": c.name, "line": c.line}
                        for c in diag.collectives],
        "conditionals": sorted(set(diag.conditionals)),
        "context": canonical_region_ids(diag.context),
        "call_path": list(diag.call_path),
    })


def source_stamp(path: Optional[str],
                 text: Optional[str]) -> Optional[Dict[str, Any]]:
    if path is None and text is None:
        return None
    stamp: Dict[str, Any] = {"file": path}
    if text is not None:
        stamp["sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return stamp


def build_report(tool: str, *, source: Optional[Dict[str, Any]],
                 findings: List[Dict[str, Any]],
                 summary: Dict[str, Any],
                 verdict: Optional[str] = None) -> Dict[str, Any]:
    """Assemble one Report IR document (see ``docs/report-schema.md``)."""
    if verdict is None:
        verdict = "findings" if findings else "clean"
    return {
        "schema": REPORT_SCHEMA,
        "version": REPORT_VERSION,
        "tool": tool,
        "source": source,
        "verdict": verdict,
        "findings": findings,
        "summary": summary,
    }


def render_json(report: Dict[str, Any]) -> str:
    """The IR's one serialization: sorted keys, compact separators, one
    trailing newline — byte-identical for equal content."""
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


# -- per-tool report builders -------------------------------------------------------


def report_from_analysis(analysis: ProgramAnalysis,
                         source_path: Optional[str] = None,
                         source_text: Optional[str] = None,
                         tool: str = "analyze") -> Dict[str, Any]:
    findings = [diagnostic_finding(d) for d in analysis.diagnostics]
    return build_report(
        tool,
        source=source_stamp(source_path, source_text),
        findings=findings,
        summary=analysis_summary(analysis, canonical=True),
    )


def report_from_callgraph(graph, contexts, summaries,
                          source_path: Optional[str] = None,
                          source_text: Optional[str] = None) -> Dict[str, Any]:
    functions = {}
    for name in graph.order:
        functions[name] = {
            "contexts": [canonical_region_ids(format_word(w))
                         for w in contexts.contexts[name]],
            "collectives": dict(summaries[name].collectives),
            "recursive": name in graph.recursive,
            "saturated": name in contexts.saturated,
            "calls": [{"callee": e.callee, "line": e.line,
                       "expression": e.expression}
                      for e in graph.edges[name]],
        }
    return build_report(
        "callgraph",
        source=source_stamp(source_path, source_text),
        findings=[],
        summary={"functions": functions, "entries": list(graph.entries),
                 "call_edges": graph.n_edges},
    )


def report_from_explore(config_reports,
                        source_path: Optional[str] = None,
                        source_text: Optional[str] = None) -> Dict[str, Any]:
    findings: List[Dict[str, Any]] = []
    configs: List[Dict[str, Any]] = []
    for report in config_reports:
        configs.append({
            "config": report.config.as_dict(),
            "strategy": report.strategy,
            "schedules": report.schedules,
            "clean": report.clean,
            "failed": report.failed,
            "verdicts": dict(sorted(report.verdict_counts.items())),
        })
        if report.failed:
            first = report.failures[0] if report.failures else None
            findings.append(_fingerprinted({
                "kind": "schedule-failure",
                "config": report.config.as_dict(),
                "strategy": report.strategy,
                "schedules": report.schedules,
                "failed": report.failed,
                "verdict": first.verdict if first else "",
                "verdict_class": first.verdict_class if first else "",
            }))
    return build_report(
        "explore",
        source=source_stamp(source_path, source_text),
        findings=findings,
        summary={"configurations": configs,
                 "schedules": sum(c["schedules"] for c in configs),
                 "failed": sum(c["failed"] for c in configs)},
    )


def report_from_fuzz(fuzz_report, seeds: int, base_seed: int) -> Dict[str, Any]:
    findings = []
    for outcome in fuzz_report.disagreements:
        findings.append(_fingerprinted({
            "kind": "fuzz-disagreement",
            "seed": outcome.seed,
            "classification": outcome.classification,
            "verdict": outcome.verdict.as_dict(),
            "repro": outcome.repro,
        }))
    summary = {
        "seeds": seeds,
        "base_seed": base_seed,
        "counts": dict(sorted(fuzz_report.counts.items())),
        "overapprox_seeds": list(fuzz_report.overapprox_seeds),
        "reduced": [{"name": n, "path": p} for n, p in fuzz_report.reduced],
    }
    coverage_map = getattr(fuzz_report, "coverage_map", None)
    if coverage_map is not None:
        # Deterministic aggregates only (no elapsed/rate): two runs of the
        # same campaign emit byte-identical coverage summaries.
        summary["coverage"] = {
            "features": coverage_map.feature_count,
            "signatures": coverage_map.distinct_signatures,
            "distinct_findings": len(fuzz_report.dedupe),
            "duplicates": fuzz_report.duplicates,
        }
    return build_report(
        "fuzz",
        source=None,
        findings=findings,
        summary=summary,
    )


# -- schema validation --------------------------------------------------------------

_FINDING_REQUIRED: Dict[str, tuple] = {
    "static-diagnostic": ("code", "function", "message", "severity",
                          "collectives", "conditionals", "context",
                          "call_path"),
    "schedule-failure": ("config", "strategy", "schedules", "failed",
                         "verdict", "verdict_class"),
    "fuzz-disagreement": ("seed", "classification", "verdict", "repro"),
}

_FINGERPRINT_RE = re.compile(r"^[0-9a-f]{16}$")


def validate_report(report: Any) -> List[str]:
    """Structural validation of one Report IR document.

    Returns a list of problems (empty = valid).  Deliberately hand-rolled —
    the container must not depend on a jsonschema package — and strict about
    the invariants the IR guarantees: schema/version stamp, known tool,
    verdict consistency, finding kinds, and fingerprints that *recompute* to
    their recorded value (the stability contract, checked end-to-end)."""
    problems: List[str] = []
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    if report.get("schema") != REPORT_SCHEMA:
        problems.append(f"schema must be {REPORT_SCHEMA!r}")
    if report.get("version") != REPORT_VERSION:
        problems.append(f"version must be {REPORT_VERSION}")
    tool = report.get("tool")
    if tool not in ("analyze", "callgraph", "explore", "fuzz", "serve",
                    "watch", "batch", "project"):
        problems.append(f"unknown tool {tool!r}")
    verdict = report.get("verdict")
    if verdict not in ("clean", "findings", "error"):
        problems.append(f"unknown verdict {verdict!r}")
    source = report.get("source")
    if source is not None:
        if not isinstance(source, dict) or "file" not in source:
            problems.append("source must be null or an object with 'file'")
    if not isinstance(report.get("summary"), dict):
        problems.append("summary must be an object")
    findings = report.get("findings")
    if not isinstance(findings, list):
        return problems + ["findings must be an array"]
    summary = report.get("summary")
    incremental = (summary.get("incremental")
                   if isinstance(summary, dict) else None)
    if tool in ("serve", "watch", "project") and isinstance(incremental, dict):
        # Delta documents list only the findings that *appeared*; the
        # verdict tracks the total live findings instead.
        total = incremental.get("findings_total", 0)
        if verdict == "clean" and total:
            problems.append("verdict 'clean' with findings_total > 0")
        if verdict == "findings" and not total:
            problems.append("verdict 'findings' with findings_total == 0")
    else:
        if verdict == "clean" and findings:
            problems.append("verdict 'clean' with non-empty findings")
        if verdict == "findings" and not findings:
            problems.append("verdict 'findings' with no findings")
    for i, finding in enumerate(findings):
        where = f"findings[{i}]"
        if not isinstance(finding, dict):
            problems.append(f"{where}: not an object")
            continue
        kind = finding.get("kind")
        required = _FINDING_REQUIRED.get(kind)
        if required is None:
            problems.append(f"{where}: unknown kind {kind!r}")
            continue
        missing = [f for f in required if f not in finding]
        if missing:
            problems.append(f"{where}: missing fields {missing}")
        fp = finding.get("fingerprint")
        if not isinstance(fp, str) or not _FINGERPRINT_RE.match(fp):
            problems.append(f"{where}: malformed fingerprint {fp!r}")
        elif finding_fingerprint(finding) != fp:
            problems.append(f"{where}: fingerprint does not recompute "
                            f"(recorded {fp}, "
                            f"computed {finding_fingerprint(finding)})")
    return problems


def _validate_main(argv: List[str]) -> int:
    """``python -m repro.core.report FILE...`` — validate Report IR files
    (``-`` reads stdin; files may hold one document or JSON lines).  Exit 0
    when every document validates, 2 otherwise."""
    import sys

    failed = False
    for path in argv or ["-"]:
        text = (sys.stdin.read() if path == "-"
                else open(path, "r", encoding="utf-8").read())
        docs: List[Any] = []
        try:
            docs = [json.loads(text)]
        except json.JSONDecodeError:
            try:
                docs = [json.loads(line) for line in text.splitlines() if line]
            except json.JSONDecodeError as exc:
                print(f"{path}: not JSON ({exc})", file=sys.stderr)
                failed = True
                continue
        for i, doc in enumerate(docs):
            problems = validate_report(doc)
            for problem in problems:
                print(f"{path}[{i}]: {problem}", file=sys.stderr)
            failed = failed or bool(problems)
            if not problems:
                print(f"{path}[{i}]: ok ({doc.get('tool')}, "
                      f"{len(doc.get('findings', []))} findings)")
    return 2 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    import sys

    sys.exit(_validate_main(sys.argv[1:]))
