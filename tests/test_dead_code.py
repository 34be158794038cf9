"""No function, class, method or import in ``src/`` that nothing uses.

The first scan reads ``src/`` with :mod:`ast` and fails on any definition
whose name appears nowhere in ``src/``, ``tests/``, ``benchmarks/``,
``examples/``, ``docs/`` or ``.github/`` except at its definitions.  A name
is a whole word of any text file there (code, comments, strings, docs).
An ``__init__.py``'s re-exports (its ``from ... import`` statements and
``__all__``) do not count as uses.  Exempt from the scan:

* dunder methods, which Python calls by protocol;
* the interpreter's compile methods, named ``_`` and an AST node class:
  ``Compiler.node`` looks them up as ``"_" + type(node).__name__``;
* ``PUBLIC_API``: names kept on purpose although nothing here uses them.

The second scan fails on any name a module of ``src/`` imports, never
loads and no other module imports from it (a ``from M import name`` in
``src/``, ``tests/``, ``benchmarks/`` or ``examples/``).  Exempt: every
``__init__.py`` (its imports are re-exports), ``from __future__`` and the
names a module lists in ``__all__``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

from repro.minilang import ast_nodes as A

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "benchmarks", "examples", "docs", ".github")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Intended public API that nothing in the repository uses yet, each with
#: why it stays.
PUBLIC_API = {}

#: The interpreter's compile methods, found by node class name.
COMPILE_METHODS = {"_" + name for name, obj in vars(A).items()
                   if isinstance(obj, type) and issubclass(obj, A.Node)}


def _text(path):
    """The text of ``path``; an ``__init__.py`` without its re-exports."""
    text = path.read_text(encoding="utf-8", errors="replace")
    if path.name != "__init__.py":
        return text
    dropped = set()
    for node in ast.parse(text).body:
        if isinstance(node, ast.ImportFrom) or (
                isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            dropped.update(range(node.lineno - 1, node.end_lineno))
    return "\n".join(line for i, line in enumerate(text.splitlines())
                     if i not in dropped)


def _word_counts():
    counts = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                counts.update(WORD.findall(_text(path)))
    return counts


def _definitions():
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield node.name, f"{path.relative_to(ROOT)}:{node.lineno}"


def test_every_definition_in_src_is_used():
    definitions = list(_definitions())
    defined = Counter(name for name, _ in definitions)
    counts = _word_counts()
    unused = [
        f"{where}: {name}" for name, where in definitions
        if counts[name] <= defined[name]
        and not (name.startswith("__") and name.endswith("__"))
        and name not in COMPILE_METHODS and name not in PUBLIC_API
    ]
    assert not unused, "defined but never used:\n" + "\n".join(unused)
    # An allowlisted name that something uses no longer needs to be there.
    assert [name for name in PUBLIC_API if counts[name] > defined[name]] == []
    # The scan sees the whole tree.
    assert len(definitions) > 900


# -- imports ---------------------------------------------------------------------


def _module_name(path):
    """``src/repro/a/b.py`` -> ``repro.a.b``; a package's ``__init__.py``
    names the package."""
    parts = list(path.relative_to(ROOT / "src").with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_from():
    """Every ``(module, name)`` some ``from module import name`` names,
    relative imports of ``src/`` resolved."""
    pairs = set()
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in (ROOT / top).rglob("*.py"):
            package = ""
            if top == "src":
                package = _module_name(path)
                if path.name != "__init__.py":
                    package = package.rpartition(".")[0]
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.ImportFrom):
                    continue
                module = node.module
                if node.level:
                    base = package.split(".")
                    base = base[:len(base) - node.level + 1]
                    module = ".".join(base + ([module] if module else []))
                pairs.update((module, alias.name) for alias in node.names)
    return pairs


def test_every_import_in_src_is_used():
    imported_from = _imported_from()
    unused = []
    modules = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        modules += 1
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = _module_name(path)
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                loaded.update(e.value for e in node.value.elts)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                       for name in bound if name not in loaded
                       and (module, name) not in imported_from]
    assert not unused, "imported but never used:\n" + "\n".join(unused)
    # The scan sees the whole tree.
    assert modules > 60
