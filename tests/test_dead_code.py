"""No function, class or method in ``src/`` that nothing uses.

The scan reads ``src/`` with :mod:`ast` and fails on any definition whose
name appears nowhere in ``src/``, ``tests/``, ``benchmarks/``,
``examples/``, ``docs/`` or ``.github/`` except at its definitions.  A name
is a whole word of any text file there (code, comments, strings, docs).
An ``__init__.py``'s re-exports (its ``from ... import`` statements and
``__all__``) do not count as uses.  Exempt from the scan:

* dunder methods, which Python calls by protocol;
* the interpreter's compile methods, named ``_`` and an AST node class:
  ``Compiler.node`` looks them up as ``"_" + type(node).__name__``;
* ``PUBLIC_API``: names kept on purpose although nothing here uses them.
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
