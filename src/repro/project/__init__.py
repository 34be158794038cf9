"""The incremental analysis service — ``parcoach project``, ``serve`` and
``watch``.

A manifest (``parcoach.toml`` or an explicit file list) declares a
project's source files and entry points, and a :class:`ProjectSession`
folds every file into **one merged program** fed to one shared
:class:`~repro.core.engine.AnalysisEngine`, so the cross-file call graph,
calling-context propagation and collective summaries fall out of the
existing interprocedural machinery — witness call chains span file
boundaries.  Insert-a-line edits take the **line-offset patch** path
(:meth:`~repro.core.engine.AnalysisEngine.patch_function_lines`): cached
line-addressed artifacts are shifted instead of re-analyzed.  A session
keeps everything in memory and writes nothing under the project root.

The single-file daemons run on the same session: :class:`FileSession`
analyzes each path ``parcoach serve`` or ``watch`` is given as a one-file
project, and :func:`run_serve` is the one serve loop of both ``serve`` and
``project serve`` (:mod:`repro.project.serve`).  Protocol and manifest
format: ``docs/project-protocol.md``.
"""

from .manifest import MANIFEST_NAME, ManifestError, ProjectManifest, load_manifest
from .serve import FileSession, run_serve, run_watch
from .session import ProjectSession, ProjectUpdate

__all__ = [
    "FileSession",
    "MANIFEST_NAME",
    "ManifestError",
    "ProjectManifest",
    "ProjectSession",
    "ProjectUpdate",
    "load_manifest",
    "run_serve",
    "run_watch",
]
