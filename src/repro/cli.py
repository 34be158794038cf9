"""``parcoach`` command-line interface.

Subcommands::

    parcoach analyze FILE [--precision paper|counting] [--initial-context W]
                          [--no-interprocedural]
        run the static analysis, print the warning report (exit 1 if
        warnings).  Interprocedural context propagation is on by default:
        calling-context parallelism words flow over the call graph from the
        entry functions (seeded by ``--initial-context``), each function is
        analyzed once per distinct context, and diagnostics caused by a
        non-empty context carry the witness call chain
        (``main → worker → helper``).  ``--no-interprocedural`` restores the
        paper's pure per-function analysis, where ``--initial-context``
        applies to every function directly.
    parcoach callgraph FILE [--dot] [--initial-context W]
        print the call graph: per function the calling-context words, the
        collective summary (always/conditionally/never executes each
        collective), recursion markers and call sites (expression-level
        calls marked ``expr``); ``--dot`` emits Graphviz instead
    parcoach batch FILE [FILE ...] [--precision P] [--no-interprocedural]
        analyze each file in turn, as ``analyze`` does; one summary line
        per file (exit 1 if any warnings)
    parcoach instrument FILE [-o OUT]
        emit the instrumented source
    parcoach run FILE [-np N] [-nt T] [--instrument] [--thread-level L]
        execute under the simulator on its default deterministic schedule
        (the one ``explore`` runs first), print outputs and the verdict; a
        deadlock is reported the moment every thread blocks, naming each
        thread's wait
    parcoach explore FILE [--strategy dfs|dpor|random] [--preemptions K]
                          [--runs N] [--jobs N] [--budget SECS]
                          [--replay TRACE] [-np LIST] [-nt LIST]
                          [--thread-level LIST] [--instrument] [--seed S]
                          [--save-trace PATH] [--no-minimize]
        deterministic schedule exploration: run the program under many
        thread interleavings per (nprocs, num_threads, thread_level)
        configuration — exhaustive DFS with a preemption bound, dynamic
        partial-order reduction (``dpor``: wakeup sequences + sleep sets,
        one schedule per trace, same verdicts in far fewer schedules; see
        ``docs/explore.md``), or seeded-random sampling — and summarize
        the verdict of every interleaving ("mismatch in 3/120
        schedules").  The first failing schedule is delta-debugged and
        saved as a compact JSON trace; ``--replay TRACE`` re-executes a
        saved trace deterministically.  ``--jobs N`` executes the dpor
        frontier on N worker processes with byte-identical output;
        ``--budget SECS`` stops cleanly with a partial summary.
        ``-np``/``-nt``/``--thread-level`` accept comma-separated lists and
        are cross-producted.  Exit 1 when any schedule fails.
    parcoach fuzz [--seeds N] [--seed S] [--budget SECS] [--jobs N]
                  [--shrink] [--corpus DIR] [--explore-runs N] [-v]
                  [--seed-timeout SECS] [--checkpoint PATH] [--resume]
                  [--coverage]
        differential fuzzing: generate N seeded random minilang programs
        and cross-check every verdict source (intra- + interprocedural
        static analysis vs. deterministic raw / instrumented / explored
        dynamic runs).  Each program is classified *agree*, *static-miss*
        (dynamic error without a static warning — a soundness bug),
        *static-overapprox* (warning, all explored schedules clean —
        allowed, tracked) or *crash* (internal error).  ``--shrink``
        ddmin-reduces each disagreement; with ``--corpus DIR`` the reduced
        ``.mini``/``.json`` pair is persisted for regression replay.
        ``--coverage`` turns the campaign feedback-driven: per-seed
        coverage signatures schedule an AFL-style mutation queue and
        findings dedupe by fingerprint (see docs/fuzzing.md).
        Every finding reproduces alone via ``fuzz --seeds 1 --seed S``.
    parcoach serve [--precision P] [--no-interprocedural]
                   [--initial-context W] [--deadline-ms MS]
        persistent incremental analysis session: a line protocol on stdin
        (``analyze PATH`` / ``stats`` / ``ping`` / ``quit``, optionally
        prefixed ``@ID`` to echo a request id), one Report IR JSON
        document per line on stdout.  Each PATH is served as a one-file
        project, by the same session and loop as ``project serve``.  Edits
        are diffed by per-function structural fingerprint; only changed
        functions (plus their call-graph dependents whose
        summaries/contexts moved) re-analyze, functions a line insertion
        only moved are patched in place, and only changed findings are
        re-emitted.  The loop is crash-isolated and self-healing
        (``docs/resilience.md``); ``--deadline-ms`` arms a per-request
        budget with graceful degradation on expiry.
    parcoach watch FILE [--interval SECS] [--max-updates N]
        analyze FILE now, then poll it and re-emit a delta report on every
        content change and on the first good update after an error
    parcoach project analyze DIR [--file PATH ...] [--json]
        one-shot whole-project analysis: the manifest (``parcoach.toml``,
        an explicit ``--file`` list, or a recursive ``*.mc``/``*.mini``
        scan) selects the sources, every file merges into one program, and
        the interprocedural analysis crosses file boundaries — findings
        are file-qualified and witness call chains may span files (a bug
        invisible to per-file ``analyze`` runs).  Nothing is written under
        the project root.
    parcoach project serve DIR [--deadline-ms MS]
        persistent multi-file incremental session: ``open PATH`` /
        ``edit PATH`` / ``close PATH`` / ``analyze`` / ``stats`` /
        ``ping`` / ``quit`` on stdin, one Report IR JSON line per
        response.  Cross-file edits re-analyze only the edited functions
        plus their cross-file dependent closure; whole-chunk line moves
        take the line-offset patch path (zero engine misses).  See
        ``docs/project-protocol.md``.
    parcoach validate-report [FILE ...]
        validate Report IR documents (``-``/stdin supported; exit 2 on any
        schema or fingerprint violation)
    parcoach cfg FILE FUNC [-o OUT.dot]
        dump one function's CFG as Graphviz DOT

Machine-readable output: ``analyze``, ``callgraph``, ``explore`` and
``fuzz`` accept ``--json`` and then emit the unified, versioned Report IR
(schema ``parcoach-report`` v1, see ``docs/report-schema.md``) instead of
their text output — byte-identical across re-parses of identical source,
with a stable fingerprint per finding.  Exit codes are unchanged.

Exit-code contract (uniform across subcommands)::

    0   clean / verified / successful emission
    1   findings: static warnings, a failing run, failing schedules,
        fuzzer disagreements (static-miss)
    2   internal or usage errors: unparseable or semantically invalid
        input, unknown function, replay divergence, fuzzer crash class

Performance knobs: ``serve``, ``watch`` and ``project serve`` keep a
per-function analysis cache across requests, so an edit re-analyzes only
the functions it changed (``benchmarks/bench_incremental.py`` and
``benchmarks/bench_project.py`` measure it); ``analyze`` and ``batch``
analyze each file cold.  ``explore --jobs N`` and ``fuzz --jobs N`` fan
schedules and seeds out to ``N`` worker processes with identical output
(``benchmarks/bench_explore.py`` tracks schedules/sec for ``explore``,
``benchmarks/bench_fuzz.py`` programs/sec for ``fuzz``).  Static analysis
runs in one process.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .cfg import to_dot
from .core import analyze_program, instrument_program, render_report
from .core.callgraph import callgraph_to_dot
from .core.driver import build_plan
from .core.sites import index_program
from .minilang.parser import ParseError, parse_program
from .minilang.pretty import pretty
from .minilang.semantics import check_program
from .minilang.tokens import LexError
from .mpi.thread_levels import ThreadLevel
from .parallelism import EMPTY, format_word, parse_word
from .runtime import run_program
from .runtime.errors import ValidationError


def _load(path: str, want_source: bool = False):
    """Read, parse and check ``path``.  Unreadable or invalid input is a
    usage error: ``PATH:LINE:COL: message`` (or ``PATH: reason``) on
    stderr, exit 2."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as err:
        print(f"{path}: {err.strerror or err}", file=sys.stderr)
        raise SystemExit(2)
    try:
        program = parse_program(source, path)
    except (LexError, ParseError) as err:
        print(f"{path}:{err}", file=sys.stderr)
        raise SystemExit(2)
    issues = check_program(program)
    errors = [i for i in issues if i.severity == "error"]
    if errors:
        for issue in errors:
            print(f"{path}:{issue}", file=sys.stderr)
        raise SystemExit(2)
    for issue in issues:
        if issue.severity == "warning":
            print(f"{path}:{issue}", file=sys.stderr)
    return (program, source) if want_source else program


def _initial_context(args, program):
    """Map --initial-context onto the two analysis modes: the entry-seed
    word interprocedurally, a per-function word intraprocedurally."""
    word = parse_word(args.initial_context) if args.initial_context else EMPTY
    if args.interprocedural:
        return {}, word
    if args.initial_context:
        return {f.name: word for f in program.funcs}, EMPTY
    return {}, EMPTY


def _cmd_analyze(args) -> int:
    program, source = _load(args.file, want_source=True)
    initial, entry_context = _initial_context(args, program)
    analysis = analyze_program(program, initial_words=initial,
                               precision=args.precision,
                               interprocedural=args.interprocedural,
                               entry_context=entry_context)
    if args.json:
        from .core.report import render_json, report_from_analysis
        print(render_json(report_from_analysis(
            analysis, source_path=args.file, source_text=source)), end="")
    else:
        print(render_report(analysis, verbose=args.verbose), end="")
    return 1 if len(analysis.diagnostics) else 0


def _cmd_callgraph(args) -> int:
    program, source = _load(args.file, want_source=True)
    entry_context = (parse_word(args.initial_context)
                     if args.initial_context else EMPTY)
    plan = build_plan(program, index_program(program),
                      entry_context=entry_context)
    graph, contexts, summaries = plan.graph, plan.contexts, plan.summaries
    if args.json:
        from .core.report import render_json, report_from_callgraph
        text = render_json(report_from_callgraph(
            graph, contexts, summaries, source_path=args.file,
            source_text=source))
    elif args.dot:
        text = callgraph_to_dot(graph, contexts, summaries)
    else:
        lines = [f"call graph of {args.file}: {len(graph.order)} functions, "
                 f"{graph.n_edges} call edges; entries: {', '.join(graph.entries)}"]
        for name in graph.order:
            marks = " [recursive]" if name in graph.recursive else ""
            if name in contexts.saturated:
                marks += " [contexts saturated]"
            ctx = " | ".join(format_word(w) for w in contexts.contexts[name])
            lines.append(f"  {name}{marks}  contexts: {ctx}")
            lines.append(f"    collectives: {summaries[name].describe()}")
            for edge in graph.edges[name]:
                kind = ", expr" if edge.expression else ""
                lines.append(f"    calls {edge.callee} (line {edge.line}{kind})")
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _cmd_batch(args) -> int:
    any_warnings = False
    for path in args.files:
        analysis = analyze_program(_load(path), precision=args.precision,
                                   interprocedural=args.interprocedural)
        n = len(analysis.diagnostics)
        any_warnings = any_warnings or n > 0
        flagged = len(analysis.flagged_functions)
        print(f"{path}: {len(analysis.functions)} functions, "
              f"{flagged} flagged, {n} warnings"
              + ("" if analysis.verified else " [NOT VERIFIED]"))
    return 1 if any_warnings else 0


def _cmd_instrument(args) -> int:
    program = _load(args.file)
    analysis = analyze_program(program, precision=args.precision,
                               instrument_all=args.all)
    instrumented, report = instrument_program(analysis)
    text = pretty(instrumented)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output} ({report.total} checks inserted)",
              file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _cmd_run(args) -> int:
    program = _load(args.file)
    group_kinds = None
    if args.instrument:
        analysis = analyze_program(program)
        program, _ = instrument_program(analysis)
        group_kinds = analysis.group_kinds
    level = ThreadLevel[args.thread_level.upper()]
    result = run_program(program, nprocs=args.np, num_threads=args.nt,
                         thread_level=level, group_kinds=group_kinds)
    for rank in sorted(result.outputs):
        for line in result.outputs[rank]:
            print(f"[rank {rank}] {line}")
    if result.error is not None:
        print(f"verdict: {result.verdict} (detected by {result.detected_by})",
              file=sys.stderr)
        print(f"  {result.error}", file=sys.stderr)
        # A bare ValidationError is the interpreter's internal-error wrapper,
        # not a program verdict: exit 2 per the contract.
        return 2 if type(result.error) is ValidationError else 1
    checks = f" ({result.cc_calls} CC checks passed)" if result.cc_calls else ""
    print(f"verdict: clean{checks}", file=sys.stderr)
    return 0


def _parse_levels(spec: str) -> List[ThreadLevel]:
    return [ThreadLevel[part.strip().upper()] for part in spec.split(",")]


def _parse_ints(spec: str) -> List[int]:
    return [int(part) for part in str(spec).split(",")]


def _cmd_explore(args) -> int:
    from .explore import (ExploreConfig, ScheduleTrace, explore_config,
                          replay, verdict_line)

    program, source = _load(args.file, want_source=True)
    trace = ScheduleTrace.load(args.replay) if args.replay else None
    # A trace records whether it was taken on the instrumented program;
    # replay honors that so the schedule actually lines up.
    instrument = args.instrument or (trace is not None
                                     and bool(trace.config.get("instrument")))
    group_kinds = None
    if instrument:
        analysis = analyze_program(program)
        program, _ = instrument_program(analysis)
        group_kinds = analysis.group_kinds

    if trace is not None:
        result, _new_trace, divergences = replay(program, trace,
                                                 group_kinds=group_kinds)
        line = verdict_line(result)
        reproduced = line == trace.verdict
        if args.json:
            from .core.report import (build_report, render_json,
                                      source_stamp, _fingerprinted)
            findings = []
            if not result.ok:
                findings.append(_fingerprinted({
                    "kind": "schedule-failure",
                    "config": dict(trace.config),
                    "strategy": "replay",
                    "schedules": 1, "failed": 1,
                    "verdict": line,
                    "verdict_class": type(result.error).__name__
                    if result.error is not None else "",
                }))
            print(render_json(build_report(
                "explore", source=source_stamp(args.file, source),
                findings=findings,
                verdict="error" if not reproduced else None,
                summary={"mode": "replay", "trace": args.replay,
                         "choices": len(trace.choices),
                         "divergences": divergences,
                         "reproduced": reproduced})), end="")
        else:
            for rank in sorted(result.outputs):
                for out_line in result.outputs[rank]:
                    print(f"[rank {rank}] {out_line}")
            match = "reproduced" if reproduced else (
                f"DIVERGED from recorded verdict: {trace.verdict}")
            print(f"verdict: {line}", file=sys.stderr)
            print(f"replay of {trace.mode} trace ({len(trace.choices)} "
                  f"choices, {divergences} divergences): {match}",
                  file=sys.stderr)
        if not reproduced:
            return 2
        return 0 if result.ok else 1

    configs = [
        ExploreConfig(nprocs=np, num_threads=nt, thread_level=level,
                      instrument=instrument)
        for np in _parse_ints(args.np)
        for nt in _parse_ints(args.nt)
        for level in _parse_levels(args.thread_level)
    ]
    total_schedules = 0
    total_failed = 0
    save_trace = None  # first minimized trace, else first failing full trace
    save_kind = ""
    config_reports = []
    for config in configs:
        report = explore_config(
            program, config, strategy=args.strategy, runs=args.runs,
            preemptions=args.preemptions, seed=args.seed,
            group_kinds=group_kinds, minimize=not args.no_minimize,
            jobs=args.jobs, budget=args.budget)
        config_reports.append(report)
        if not args.json:
            print(report.summary())
        total_schedules += report.schedules
        total_failed += report.failed
        if save_kind != "minimized":
            if report.minimized is not None:
                save_trace, save_kind = report.minimized, "minimized"
            elif save_trace is None and report.failures:
                save_trace, save_kind = report.failures[0].trace, "failing"
    if args.json:
        from .core.report import render_json, report_from_explore
        print(render_json(report_from_explore(
            config_reports, source_path=args.file, source_text=source)),
            end="")
    if total_failed:
        print(f"mismatch in {total_failed}/{total_schedules} schedules",
              file=sys.stderr)
        if save_trace is not None:
            path = args.save_trace or (args.file + ".trace.json")
            save_trace.save(path)
            print(f"{save_kind} trace saved to {path}", file=sys.stderr)
        return 1
    print(f"clean in all {total_schedules} explored schedules", file=sys.stderr)
    return 0


def _cmd_fuzz(args) -> int:
    from .fuzz import GenConfig, OracleConfig, run_fuzz

    oracle_config = OracleConfig(nprocs=args.np, num_threads=args.nt,
                                 explore_runs=args.explore_runs)
    progress = None
    if args.verbose:
        def progress(outcome):
            print(f"seed {outcome.seed}: {outcome.verdict.describe()}",
                  file=sys.stderr)
    try:
        report = run_fuzz(
            seeds=args.seeds, base_seed=args.seed, gen_config=GenConfig(),
            oracle_config=oracle_config, budget=args.budget, jobs=args.jobs,
            shrink=args.shrink, corpus_dir=args.corpus, progress=progress,
            seed_timeout=args.seed_timeout, checkpoint=args.checkpoint,
            resume=args.resume, coverage=args.coverage)
    except ValueError as exc:
        # Checkpoint problems (wrong schema version, range or coverage-flag
        # mismatch) are usage errors under the 0/1/2 contract, not findings.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        from .core.report import render_json, report_from_fuzz
        print(render_json(report_from_fuzz(report, seeds=args.seeds,
                                           base_seed=args.seed)), end="")
    else:
        print(report.summary())
    for outcome in report.disagreements:
        print(f"{outcome.classification}: seed {outcome.seed} "
              f"({outcome.verdict.crash_detail or outcome.verdict.describe()})"
              f"\n  reproduce: {outcome.repro}", file=sys.stderr)
    for name, path in report.reduced:
        print(f"reduced counterexample {name} written to {path}",
              file=sys.stderr)
    if report.overapprox_seeds and args.verbose:
        shown = ", ".join(str(s) for s in report.overapprox_seeds[:20])
        print(f"static-overapprox seeds: {shown}"
              + (" …" if len(report.overapprox_seeds) > 20 else ""),
              file=sys.stderr)
    return report.exit_code()


def _session_from_args(args):
    from .project import FileSession

    entry_context = (parse_word(args.initial_context)
                     if args.initial_context else EMPTY)
    return FileSession(precision=args.precision,
                       interprocedural=args.interprocedural,
                       entry_context=entry_context)


def _cmd_serve(args) -> int:
    from .project import run_serve

    with _session_from_args(args) as session:
        return run_serve(session, deadline_ms=args.deadline_ms)


def _cmd_watch(args) -> int:
    from .project import run_watch

    with _session_from_args(args) as session:
        return run_watch(session, args.file, interval=args.interval,
                         max_updates=args.max_updates)


def _project_session_from_args(args):
    from .project import ProjectSession

    entry_context = (parse_word(args.initial_context)
                     if args.initial_context else None)
    return ProjectSession(
        args.dir, files=args.file or None, precision=args.precision,
        interprocedural=args.interprocedural, entry_context=entry_context)


def _cmd_project_analyze(args) -> int:
    from .core.report import render_json
    from .core.session import SessionError
    from .project import ManifestError

    try:
        with _project_session_from_args(args) as session:
            session.update_all()
            report = session.report
    except (ManifestError, SessionError) as exc:
        messages = (exc.messages if isinstance(exc, SessionError)
                    else [str(exc)])
        for message in messages:
            print(message, file=sys.stderr)
        return 2
    if args.json:
        print(render_json(report), end="")
    else:
        findings = report["findings"]
        for f in findings:
            where = f"{f['file']}:{f['function']}"
            line = f"{where}: [{f['code']}] {f['message']}"
            if f["call_path"]:
                chain = " → ".join(
                    f"{fn} ({file})" for fn, file in
                    zip(f["call_path"], f["call_path_files"]))
                line += f"\n  call path: {chain}"
            print(line)
        print(f"{len(findings)} finding(s)")
    return 1 if report["findings"] else 0


def _cmd_project_serve(args) -> int:
    from .core.session import SessionError
    from .project import ManifestError, run_serve

    try:
        with _project_session_from_args(args) as session:
            return run_serve(session, deadline_ms=args.deadline_ms)
    except (ManifestError, SessionError) as exc:
        messages = (exc.messages if isinstance(exc, SessionError)
                    else [str(exc)])
        for message in messages:
            print(message, file=sys.stderr)
        return 2


def _cmd_validate_report(args) -> int:
    from .core.report import _validate_main

    return _validate_main(args.files)


def _cmd_cfg(args) -> int:
    program = _load(args.file)
    analysis = analyze_program(program)
    try:
        fa = analysis.function(args.function)
    except KeyError:
        print(f"no function {args.function!r} in {args.file}", file=sys.stderr)
        return 2
    highlight = {b.id for b in fa.cfg.collective_blocks()}
    highlight |= fa.sequence.conditionals
    dot = to_dot(fa.cfg, highlight=highlight)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(dot)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(dot, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parcoach",
        description="Static/dynamic validation of MPI collectives in "
                    "multi-threaded context (PPoPP'15 reproduction)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes (all subcommands):\n"
            "  0  clean / verified / successful emission\n"
            "  1  findings — static warnings, a failing run, failing\n"
            "     schedules, fuzzer disagreements (static-miss)\n"
            "  2  internal or usage errors — invalid input program,\n"
            "     unknown function, replay divergence, fuzzer crash class\n"
            "\n"
            "docs: docs/fuzzing.md (coverage-guided fuzzing: signatures,\n"
            "  mutation energy, campaign state v2), docs/explore.md (DPOR),\n"
            "  docs/resilience.md (fault injection, checkpoints),\n"
            "  docs/report-schema.md, docs/project-protocol.md"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="static analysis + warning report")
    p.add_argument("file")
    p.add_argument("--precision", choices=("paper", "counting"), default="paper")
    p.add_argument("--initial-context", default="",
                   help="initial parallelism word, e.g. 'P1' (paper's "
                        "option); seeds the entry functions interprocedurally")
    p.add_argument("--interprocedural", default=True,
                   action=argparse.BooleanOptionalAction,
                   help="propagate calling-context words over the call "
                        "graph (default on)")
    p.add_argument("--json", action="store_true",
                   help="emit the versioned Report IR (parcoach-report v1) "
                        "instead of the text report")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser(
        "callgraph",
        help="print the call graph with context words and collective summaries")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true",
                   help="emit Graphviz DOT instead of text")
    p.add_argument("--json", action="store_true",
                   help="emit the versioned Report IR instead of text/DOT")
    p.add_argument("-o", "--output", help="write the output here instead of stdout")
    p.add_argument("--initial-context", default="",
                   help="parallelism word seeding the entry functions")
    p.set_defaults(fn=_cmd_callgraph)

    p = sub.add_parser("batch",
                       help="analyze many files, one summary line each")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument("--precision", choices=("paper", "counting"), default="paper")
    p.add_argument("--interprocedural", default=True,
                   action=argparse.BooleanOptionalAction,
                   help="propagate calling-context words over the call "
                        "graph (default on)")
    p.set_defaults(fn=_cmd_batch)

    p = sub.add_parser("instrument", help="emit instrumented source")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--precision", choices=("paper", "counting"), default="paper")
    p.add_argument("--all", action="store_true",
                   help="blanket instrumentation (ablation baseline)")
    p.set_defaults(fn=_cmd_instrument)

    p = sub.add_parser("run", help="execute under the simulator")
    p.add_argument("file")
    p.add_argument("-np", type=int, default=2, help="MPI ranks")
    p.add_argument("-nt", type=int, default=2, help="OpenMP threads per team")
    p.add_argument("--instrument", action="store_true",
                   help="analyze + instrument before running")
    p.add_argument("--thread-level", default="multiple",
                   choices=[l.name.lower() for l in ThreadLevel])
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "explore",
        help="deterministic schedule exploration (DPOR / DFS / random)")
    p.add_argument("file")
    p.add_argument("--strategy", choices=("dfs", "dpor", "random"),
                   default="dfs",
                   help="exhaustive bounded DFS (small programs), "
                        "partial-order-reduced DFS (dpor: same verdicts, "
                        "far fewer schedules) or seeded-random sampling")
    p.add_argument("--preemptions", type=int, default=2, metavar="K",
                   help="preemption bound per schedule (default 2)")
    p.add_argument("--runs", type=int, default=100, metavar="N",
                   help="max schedules per configuration (default 100)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for the dpor schedule frontier "
                        "(output is byte-identical to --jobs 1)")
    p.add_argument("--budget", type=float, default=None, metavar="SECS",
                   help="wall-clock cap: stop cleanly with a partial "
                        "summary once exceeded")
    p.add_argument("--replay", metavar="TRACE",
                   help="re-execute a saved JSON schedule trace instead")
    p.add_argument("-np", default="2", metavar="LIST",
                   help="comma-separated rank counts (default '2')")
    p.add_argument("-nt", default="2", metavar="LIST",
                   help="comma-separated team sizes (default '2')")
    p.add_argument("--thread-level", default="multiple", metavar="LIST",
                   help="comma-separated levels (single,funneled,"
                        "serialized,multiple)")
    p.add_argument("--instrument", action="store_true",
                   help="analyze + instrument before exploring")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed for --strategy random")
    p.add_argument("--save-trace", metavar="PATH",
                   help="where to save the failing trace — minimized when "
                        "minimization ran (default FILE.trace.json)")
    p.add_argument("--no-minimize", action="store_true",
                   help="skip delta-debugging the first failing schedule")
    p.add_argument("--json", action="store_true",
                   help="emit the versioned Report IR instead of per-config "
                        "summary lines")
    p.set_defaults(fn=_cmd_explore)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing (generated programs × static-vs-dynamic "
             "oracle)")
    p.add_argument("--seeds", type=int, default=100, metavar="N",
                   help="number of seeds to run (default 100)")
    p.add_argument("--seed", type=int, default=0, metavar="S",
                   help="first seed value; seed k reproduces alone via "
                        "--seeds 1 --seed k (default 0)")
    p.add_argument("--budget", type=float, default=None, metavar="SECS",
                   help="wall-clock cap; stop starting new seeds past it")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes (seed outcomes merge in seed "
                        "order — output is identical for any N)")
    p.add_argument("--shrink", action="store_true",
                   help="ddmin-reduce each disagreeing program")
    p.add_argument("--corpus", metavar="DIR",
                   help="write reduced counterexamples (.mini + .json) "
                        "here (implies --shrink)")
    p.add_argument("--explore-runs", type=int, default=12, metavar="N",
                   help="DPOR schedules of the instrumented program per "
                        "seed (default 12; 0 runs its default schedule only)")
    p.add_argument("-np", type=int, default=2, help="MPI ranks (default 2)")
    p.add_argument("-nt", type=int, default=2,
                   help="OpenMP threads per team (default 2)")
    p.add_argument("--seed-timeout", type=float, default=None, metavar="SECS",
                   help="wall-clock cap per seed; a hung seed classifies "
                        "crash (timeout detail) and the campaign continues")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="persist the tally here after every completed seed "
                        "(atomic write; survives a kill)")
    p.add_argument("--resume", action="store_true",
                   help="restore --checkpoint and run only the remaining "
                        "seeds (final tally identical to an uninterrupted "
                        "campaign)")
    p.add_argument("--coverage", action="store_true",
                   help="coverage-guided mode: per-seed coverage "
                        "signatures feed an AFL-style mutation queue, and "
                        "findings dedupe by fingerprint (docs/fuzzing.md; "
                        "mutant seeds encode as integers >= 2**62 and "
                        "reproduce via --seeds 1 --seed S like any other)")
    p.add_argument("--json", action="store_true",
                   help="emit the versioned Report IR instead of the "
                        "summary line")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="per-seed verdict lines + overapprox seed list")
    p.set_defaults(fn=_cmd_fuzz)

    def _session_flags(p) -> None:
        p.add_argument("--precision", choices=("paper", "counting"),
                       default="paper")
        p.add_argument("--interprocedural", default=True,
                       action=argparse.BooleanOptionalAction,
                       help="propagate calling-context words over the call "
                            "graph (default on)")
        p.add_argument("--initial-context", default="",
                       help="parallelism word seeding the entry functions")

    p = sub.add_parser(
        "serve",
        help="persistent incremental analysis session (line protocol on "
             "stdin, Report IR JSON lines on stdout)",
        description="Commands on stdin: 'analyze PATH' re-reads PATH and "
                    "emits a delta report (only changed findings; the "
                    "summary lists changed/dependent/re-analyzed functions "
                    "and cache invalidations), 'stats' emits engine + "
                    "session counters, 'ping' emits a liveness report, "
                    "'quit' exits.  Any command may be prefixed '@ID' — the "
                    "id is echoed back as a request_id key on its "
                    "responses.  Each PATH is served as a one-file "
                    "project (the 'project serve' session and loop).  "
                    "Edits are diffed by per-function structural "
                    "fingerprint; unchanged functions are never "
                    "re-analyzed, and functions a line insertion only "
                    "moved are patched in place (listed as 'patched').  "
                    "The loop is crash-isolated: unexpected "
                    "errors self-heal (see docs/resilience.md) and answer "
                    "with an internal-error report instead of exiting.")
    _session_flags(p)
    p.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                   help="per-request budget: on expiry emit a timeout "
                        "report, then degrade (retry without the "
                        "interprocedural plan, then cold single-file)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "watch",
        help="watch one file and re-emit a delta report on every change "
             "(and on the first good update after an error)")
    p.add_argument("file")
    p.add_argument("--interval", type=float, default=0.5, metavar="SECS",
                   help="poll interval (default 0.5s)")
    p.add_argument("--max-updates", type=int, default=0, metavar="N",
                   help="exit after N emitted updates (0 = run until "
                        "interrupted)")
    _session_flags(p)
    p.set_defaults(fn=_cmd_watch)

    p = sub.add_parser(
        "project",
        help="project-scale analysis: merged cross-file call graph, "
             "multi-file serve daemon")
    psub = p.add_subparsers(dest="project_command", required=True)

    def _project_flags(pp) -> None:
        pp.add_argument("dir", help="project root (parcoach.toml optional)")
        pp.add_argument("--file", action="append", metavar="PATH",
                        help="analyze exactly these files (repeatable; "
                             "overrides the manifest's file set)")
        _session_flags(pp)

    pp = psub.add_parser(
        "analyze",
        help="one-shot whole-project analysis (cross-file witness chains)",
        description="Merges every project file into one program and runs "
                    "the interprocedural analysis across file boundaries; "
                    "findings are file-qualified and carry witness call "
                    "chains that may span files.")
    _project_flags(pp)
    pp.add_argument("--json", action="store_true",
                    help="emit the versioned Report IR instead of text")
    pp.set_defaults(fn=_cmd_project_analyze)

    pp = psub.add_parser(
        "serve",
        help="persistent multi-file incremental session (line protocol on "
             "stdin, Report IR JSON lines on stdout)",
        description="Commands on stdin: 'open PATH' / 'edit PATH' fold one "
                    "file into the merged project and emit a delta report, "
                    "'close PATH' drops it, 'analyze' re-reads every "
                    "project file, 'stats' emits engine + session + project "
                    "counters, 'ping' / 'quit' as in 'parcoach serve'.  Any "
                    "command may be prefixed '@ID'.  Whole-chunk moves "
                    "(a line inserted above a function) take the "
                    "line-offset patch path: cached artifacts shift in "
                    "place and the request answers with zero engine "
                    "misses.  See docs/project-protocol.md.")
    _project_flags(pp)
    pp.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                    help="per-request budget: on expiry emit a timeout "
                         "report, then degrade (retry without the "
                         "interprocedural plan, then cold recover)")
    pp.set_defaults(fn=_cmd_project_serve)

    p = sub.add_parser(
        "validate-report",
        help="validate Report IR documents (files or stdin via '-')")
    p.add_argument("files", nargs="*", metavar="FILE")
    p.set_defaults(fn=_cmd_validate_report)

    p = sub.add_parser("cfg", help="dump a function's CFG as DOT")
    p.add_argument("file")
    p.add_argument("function")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_cfg)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point.  Normalizes every exit path onto the documented
    0/1/2 contract — including argparse usage errors and ``_load``'s
    invalid-input abort, which raise ``SystemExit`` internally."""
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
