"""Project manifests — what ``parcoach project DIR`` analyzes.

A project is a directory.  Its file set comes from, in priority order:

1. an explicit file list (the CLI's ``--file`` flags / library callers);
2. a ``parcoach.toml`` manifest in the directory (stdlib ``tomllib``)::

       [project]
       roots = ["src", "lib"]      # scanned recursively (default: ["."])
       exclude = ["*_gen.mc"]      # fnmatch patterns on relative paths
       entries = ["main"]          # entry functions for context seeding
       initial_context = ""        # parallelism word seeding the entries

   Other tables are ignored, among them the ``[store]`` table older
   manifests carry.

3. a bare recursive scan of the directory for ``*.mc`` / ``*.mini``.

File order — and therefore merged-program function order, diagnostic order
and report byte-identity — is the sorted relative path order, regardless of
scan order.
"""

from __future__ import annotations

import fnmatch
import os
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..util.faultinject import fault_site

try:  # Python 3.11+ stdlib; gated so older interpreters still import us.
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - py<3.11
    tomllib = None  # type: ignore[assignment]

MANIFEST_NAME = "parcoach.toml"
SOURCE_EXTENSIONS = (".mc", ".mini")
#: Directory names never scanned for sources.
_SKIP_DIRS = {".git", ".parcoach", "__pycache__"}


class ManifestError(Exception):
    """An unreadable or invalid project manifest / file set."""


@dataclass(frozen=True)
class ProjectManifest:
    """The resolved file set and options of one project."""

    root: str
    #: Relative paths in deterministic (sorted) order.
    files: Tuple[str, ...]
    #: Entry functions whose contexts seed propagation ((), use defaults).
    entries: Tuple[str, ...] = ()
    #: Parallelism word (unparsed text) seeding the entry functions.
    initial_context: str = ""

    def abspath(self, rel: str) -> str:
        return os.path.join(self.root, rel)


def _scan(root: str, roots: Iterable[str],
          exclude: Tuple[str, ...]) -> List[str]:
    found: List[str] = []
    for sub in roots:
        base = os.path.normpath(os.path.join(root, sub))
        if not os.path.isdir(base):
            raise ManifestError(f"source root {sub!r} is not a directory "
                                f"under {root}")
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
            for name in filenames:
                if not name.endswith(SOURCE_EXTENSIONS):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                if any(fnmatch.fnmatch(rel, pat) for pat in exclude):
                    continue
                found.append(rel)
    return sorted(set(found))


def _read_manifest(path: str) -> dict:
    if tomllib is None:
        raise ManifestError(
            f"{path}: manifest parsing needs Python 3.11+ (tomllib); "
            f"pass an explicit file list instead")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        # Fault site: an injected oserror is an unreadable manifest; an
        # injected truncate hands half a manifest to the TOML parser — both
        # must surface as a ManifestError, never a crash.
        text = fault_site("project.manifest_read", text)
    except OSError as exc:
        raise ManifestError(f"{path}: {exc}") from exc
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ManifestError(f"{path}: invalid TOML: {exc}") from exc


def _str_list(data: dict, table: str, key: str, default: List[str]) -> List[str]:
    value = data.get(key, default)
    if (not isinstance(value, list)
            or any(not isinstance(v, str) for v in value)):
        raise ManifestError(f"[{table}] {key} must be an array of strings")
    return value


def load_manifest(root: str,
                  files: Optional[Iterable[str]] = None) -> ProjectManifest:
    """Resolve the project rooted at ``root`` (see module docstring)."""
    root = os.path.abspath(root)
    if not os.path.isdir(root):
        raise ManifestError(f"project root {root!r} is not a directory")

    manifest_path = os.path.join(root, MANIFEST_NAME)
    data: dict = {}
    if os.path.isfile(manifest_path):
        data = _read_manifest(manifest_path)
        if not isinstance(data, dict):
            raise ManifestError(f"{manifest_path}: top level must be a table")

    project = data.get("project", {})
    if not isinstance(project, dict):
        raise ManifestError("[project] must be a table")
    entries = tuple(_str_list(project, "project", "entries", []))
    initial_context = project.get("initial_context", "")
    if not isinstance(initial_context, str):
        raise ManifestError("[project] initial_context must be a string")

    if files is not None:
        rels = []
        for f in files:
            rel = os.path.relpath(os.path.abspath(f), root)
            if not os.path.isfile(os.path.join(root, rel)):
                raise ManifestError(f"no such project file: {f}")
            rels.append(rel)
        resolved = sorted(set(rels))
    else:
        roots = _str_list(project, "project", "roots", ["."])
        exclude = tuple(_str_list(project, "project", "exclude", []))
        resolved = _scan(root, roots, exclude)
    if not resolved:
        raise ManifestError(f"no source files ({'/'.join(SOURCE_EXTENSIONS)})"
                            f" under {root}")

    return ProjectManifest(
        root=root, files=tuple(resolved), entries=entries,
        initial_context=initial_context)


__all__ = ["MANIFEST_NAME", "ManifestError", "ProjectManifest",
           "load_manifest"]
