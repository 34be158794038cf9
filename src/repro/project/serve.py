"""The one serve loop of ``parcoach serve`` and ``project serve``, and
``watch``.

Every incremental daemon runs on
:class:`~repro.project.session.ProjectSession`.  ``project serve`` drives
one session over a whole project.  ``serve`` and ``watch`` drive a
:class:`FileSession`, which analyzes each requested path as a one-file
project over one shared engine and renders the serve/watch documents from
its updates.

:func:`run_serve` is the line protocol of both daemons: one request per
stdin line, one Report IR JSON document per stdout line.  Only the command
table differs::

    serve           analyze PATH
    project serve   open|edit|close REL, rename OLD NEW, analyze

Both also answer ``stats``, ``ping`` (cheap, never analyzes) and ``quit``
(EOF does the same).  Any command may be prefixed ``@ID``; the id is echoed
back as a top-level ``request_id`` key on every response to that request.

The loop is crash-isolated and carries the two ladders of
``docs/resilience.md``.  A ``SessionError`` (or ``ManifestError``) is a
normal error report.  Any other exception runs the self-heal ladder:
recover the request's file and retry (``recoveries``), rebuild the session
and retry (``rebuilds``), then answer with an ``internal-error`` report.
``deadline_ms`` arms a per-request budget: on expiry the request emits a
timeout report and degrades — a retry without the interprocedural plan,
then a cold no-deadline analysis (``timeouts`` / ``degraded``).
``KeyboardInterrupt`` exits 0.
"""

from __future__ import annotations

import sys
import time
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..core.engine import AnalysisEngine
from ..core.report import build_report, render_json, source_stamp
from ..core.session import SessionError
from ..parallelism import EMPTY, Word
from ..util.faultinject import fault_site
from ..util.resilience import (
    Deadline,
    DeadlineExceeded,
    Failure,
    ResilienceCounters,
)
from .manifest import ManifestError
from .session import ProjectSession, ProjectUpdate


# ---------------------------------------------------------------------------
# Error documents
# ---------------------------------------------------------------------------


def _error_report(tool: str, source: Optional[dict], messages: List[str],
                 **extra: object) -> dict:
    """A ``verdict: "error"`` document: ``summary.errors`` plus ``extra``."""
    return build_report(tool, source=source, findings=[], verdict="error",
                        summary={"errors": list(messages), **extra})


def _timeout_report(tool: str, source: Optional[dict],
                   exc: DeadlineExceeded, deadline_ms: float) -> dict:
    return _error_report(tool, source, [str(exc)], timeout={
        "deadline_ms": deadline_ms,
        "site": exc.site,
        "elapsed_ms": round(exc.elapsed * 1000.0, 1),
    })


def _internal_error_report(tool: str, source: Optional[dict],
                          failure: Failure, request: str) -> dict:
    """The catch-all response: *any* unexpected exception becomes a valid
    Report IR line instead of a dead server."""
    return _error_report(
        tool, source,
        [f"internal error: {failure.error_type}: {failure.message}"],
        failure=failure.as_dict(), request=request)


# ---------------------------------------------------------------------------
# The single-file front end
# ---------------------------------------------------------------------------


class FileSession(ResilienceCounters):
    """``parcoach serve`` / ``watch``: every requested path is a one-file
    project, built from the path alone (no ``parcoach.toml`` is read), and
    every project shares this session's engine.

    :meth:`update` re-reads a path and returns its
    :class:`~repro.project.session.ProjectUpdate`, whose ``report`` is the
    serve document: tool ``serve``, ``source`` with the text's ``sha256``,
    and findings without ``file``/``call_path_files``, carrying the
    fingerprints ``analyze --json`` gives."""

    def __init__(self, precision: str = "paper",
                 interprocedural: bool = True,
                 entry_context: Word = EMPTY) -> None:
        super().__init__()
        self.precision = precision
        self.interprocedural = interprocedural
        self.entry_context = entry_context
        self.engine = AnalysisEngine()
        self.updates = 0
        self.no_op_updates = 0
        #: path -> its one-file project, registered by its first good update.
        self._files: Dict[str, ProjectSession] = {}

    def close(self) -> None:
        """Nothing to release — the session holds only memory.  With the
        context-manager protocol it lets callers scope a session."""

    def __enter__(self) -> "FileSession":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def stats(self) -> Dict[str, object]:
        return {
            "engine": self.engine.cache_info(),
            "session": {
                "files": len(self._files),
                "updates": self.updates,
                "no_op_updates": self.no_op_updates,
                **self.resilience_stats(),
            },
        }

    def recover_file(self, path: str) -> None:
        """Targeted self-heal: forget ``path``'s project and evict its
        functions' artifacts.  The next update of it is cold; every other
        file stays warm."""
        project = self._files.pop(path, None)
        if project is not None:
            project.recover_file(path)

    def rebuild(self) -> None:
        """Last-resort self-heal: a fresh engine and no per-file state."""
        self.engine = AnalysisEngine()
        self._files.clear()

    def update(self, path: str, deadline: Optional[Deadline] = None,
               interprocedural: Optional[bool] = None) -> ProjectUpdate:
        """Re-read ``path`` and fold it into its one-file project.  Raises
        :class:`~repro.core.session.SessionError` naming ``path`` (state
        untouched) when the text cannot be read, parsed or checked."""
        self.updates += 1
        project = self._files.get(path)
        if project is None:
            project = ProjectSession(
                path, precision=self.precision,
                interprocedural=self.interprocedural,
                entry_context=self.entry_context, engine=self.engine,
                one_file=True)
        try:
            delta = project.update_file(path, deadline=deadline,
                                        interprocedural=interprocedural)
        except SessionError as exc:
            # Semantic errors name "<project>"; a served file answers for
            # its own errors.
            raise SessionError(path, exc.messages) from exc
        self._files[path] = project
        self.no_op_updates += delta.no_op
        delta.report = delta.document(
            "serve", source_stamp(path, project.source(path)))
        return delta


# ---------------------------------------------------------------------------
# The serve loop
# ---------------------------------------------------------------------------

#: One parsed request: ``run(deadline=..., interprocedural=...)``, the file
#: the self-heal ladder recovers, and the path that timeout and
#: internal-error documents name (None: nothing targeted / the default).
Request = Tuple[Callable[..., ProjectUpdate], Optional[str], Optional[str]]
#: Command name -> operand (None when absent) -> a request or a usage error.
Commands = Dict[str, Callable[[Optional[str]], Union[Request, str]]]


def _file_commands(session: FileSession) -> Commands:
    def analyze(path: Optional[str]) -> Union[Request, str]:
        if path is None:
            return "usage: analyze PATH"
        return partial(session.update, path), path, path

    return {"analyze": analyze}


def _project_commands(session: ProjectSession) -> Commands:
    def one_file(command: str, method) -> Callable:
        def parse(rel: Optional[str]) -> Union[Request, str]:
            if rel is None:
                return f"usage: {command} PATH"
            return partial(method, rel), rel, None
        return parse

    def rename(operand: Optional[str]) -> Union[Request, str]:
        operands = operand.split() if operand is not None else []
        if len(operands) != 2:
            return "usage: rename OLD NEW"
        return partial(session.rename_file, *operands), operands[0], None

    return {
        "open": one_file("open", session.update_file),
        "edit": one_file("edit", session.update_file),
        "close": one_file("close", session.close_file),
        "rename": rename,
        "analyze": lambda _operand: (session.update_all, None, None),
    }


def run_serve(session: Union[FileSession, ProjectSession], stdin=None,
              stdout=None, deadline_ms: Optional[float] = None,
              clock=time.monotonic) -> int:
    """Serve ``session`` over the line protocol (see the module docstring):
    ``parcoach serve`` for a :class:`FileSession`, ``parcoach project
    serve`` for a :class:`~repro.project.session.ProjectSession`."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    if isinstance(session, ProjectSession):
        tool, commands = "project", _project_commands(session)
        root = session.manifest.root

        def source(path: Optional[str]) -> Optional[dict]:
            return {"file": path or root}
    else:
        tool, commands = "serve", _file_commands(session)

        def source(path: Optional[str]) -> Optional[dict]:
            return source_stamp(path, None)
    expected = "/".join([*commands, "stats", "ping", "quit"])

    def respond(doc: dict, request_id: Optional[str]) -> None:
        if request_id is not None:
            doc = dict(doc)
            doc["request_id"] = request_id
        payload = render_json(doc)
        try:
            written = fault_site("serve.emit", payload)
            if written != payload:
                # A short write would corrupt the line protocol; treat it
                # like any other emit failure and resend the full line.
                raise OSError("short write on response stream")
            stdout.write(payload)
            stdout.flush()
            return
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            session.record_failure("serve.emit", exc)
            session.recoveries += 1
        stdout.write(payload)
        stdout.flush()

    def answer(request: Request, request_id: Optional[str]) -> None:
        """The deadline ladder: emit the delta report, or on budget expiry
        a timeout report followed by the best degraded answer we can still
        produce."""
        run, target, subject = request
        if deadline_ms is None:
            respond(run().report, request_id)
            return
        try:
            delta = run(deadline=Deadline.after_ms(deadline_ms, clock))
        except DeadlineExceeded as exc:
            session.timeouts += 1
            session.record_failure(exc.site or "deadline", exc)
            respond(_timeout_report(tool, source(subject), exc, deadline_ms),
                    request_id)
            try:
                delta = run(deadline=Deadline.after_ms(deadline_ms, clock),
                            interprocedural=False)
            except DeadlineExceeded as exc2:
                session.record_failure(exc2.site or "deadline", exc2, 2)
                # Last rung: cold, no deadline — always answers.
                if target is not None:
                    session.recover_file(target)
                delta = run(interprocedural=False)
            session.degraded += 1
        respond(delta.report, request_id)

    def handle(request: Request, request_id: Optional[str],
               line: str) -> None:
        """The self-heal ladder around one update request."""
        _run, target, subject = request
        for attempt in (1, 2, 3):
            try:
                answer(request, request_id)
                return
            except SessionError as exc:
                respond(_error_report(tool, source(exc.path), exc.messages),
                        request_id)
                return
            except ManifestError as exc:
                respond(_error_report(tool, source(target), [str(exc)]),
                        request_id)
                return
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                failure = session.record_failure("serve.analyze", exc,
                                                 attempt)
                if attempt == 1:
                    if target is not None:
                        session.recover_file(target)
                    session.recoveries += 1
                elif attempt == 2:
                    session.rebuild()
                    session.rebuilds += 1
                else:
                    respond(_internal_error_report(tool, source(subject),
                                                  failure, line), request_id)
                    return

    try:
        for raw in stdin:
            line = raw.strip()
            if not line:
                continue
            request_id: Optional[str] = None
            if line.startswith("@"):
                head, _, rest = line.partition(" ")
                request_id = head[1:]
                line = rest.strip()
                if not line:
                    respond(_error_report(
                        tool, source(None),
                        ["empty command after request id"]), request_id)
                    continue
            parts = line.split(None, 1)
            command = parts[0]
            if command == "quit":
                break
            if command == "ping":
                respond(build_report(
                    tool, source=source(None), findings=[], verdict="clean",
                    summary={"ping": {
                        "ok": True,
                        "files": len(session._files),
                        "updates": session.updates,
                        "recoveries": session.recoveries,
                        "rebuilds": session.rebuilds,
                    }}), request_id)
                continue
            if command == "stats":
                respond(build_report(tool, source=source(None), findings=[],
                                     verdict="clean",
                                     summary={"stats": session.stats()}),
                        request_id)
                continue
            parse = commands.get(command)
            if parse is None:
                respond(_error_report(
                    tool, source(None),
                    [f"unknown command {command!r} (expected {expected})"]),
                    request_id)
                continue
            request = parse(parts[1] if len(parts) == 2 else None)
            if isinstance(request, str):
                respond(_error_report(tool, source(None), [request]),
                        request_id)
                continue
            handle(request, request_id, line)
    except KeyboardInterrupt:
        return 0
    return 0


def run_watch(session: FileSession, path: str, interval: float = 0.5,
              max_updates: int = 0, stdout=None, sleep=time.sleep) -> int:
    """The ``parcoach watch`` loop: analyze ``path`` now, then poll it and
    re-emit a delta report whenever its content changes.  ``max_updates``
    bounds the number of emitted updates (0 = until interrupted).

    Crash-isolated like serve: a ``SessionError`` (or any unexpected
    exception, after a targeted ``recover_file`` self-heal) becomes an
    error report, de-duplicated so a persistently broken file reports once
    per distinct error, not once per poll.  The first good update after an
    error report is always emitted, even when it restores the last good
    text.  ``KeyboardInterrupt`` anywhere in the loop — including
    mid-analysis — exits 0 cleanly."""
    stdout = stdout if stdout is not None else sys.stdout

    def emit(doc: dict) -> None:
        stdout.write(render_json(doc))
        stdout.flush()

    emitted = 0
    last_reported_error: Optional[str] = None
    try:
        while True:
            try:
                delta = session.update(path)
            except SessionError as exc:
                message = "\n".join(exc.messages)
                if message != last_reported_error:
                    emit(_error_report("watch", source_stamp(exc.path, None),
                                      exc.messages))
                    emitted += 1
                    last_reported_error = message
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                failure = session.record_failure("watch.update", exc)
                session.recover_file(path)
                session.recoveries += 1
                message = f"{failure.error_type}: {failure.message}"
                if message != last_reported_error:
                    emit(_error_report("watch", source_stamp(path, None),
                                      [message], failure=failure.as_dict()))
                    emitted += 1
                    last_reported_error = message
            else:
                if (delta.seq == 1 or not delta.no_op
                        or last_reported_error is not None):
                    emit(dict(delta.report, tool="watch"))
                    emitted += 1
                last_reported_error = None
            if max_updates and emitted >= max_updates:
                return 0
            sleep(interval)
    except KeyboardInterrupt:
        return 0


__all__ = [
    "FileSession",
    "run_serve",
    "run_watch",
]
