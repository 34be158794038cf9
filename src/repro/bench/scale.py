"""Synthetic program generator for the scale benchmarks.

Produces deterministic minilang programs parameterized by function count,
CFG nesting depth and collective density — the three axes that drive the
asymptotic cost of the static analysis (function loop, dominator/PDF+ work
per CFG, and per-collective-name Algorithm 1 passes respectively).
``benchmarks/bench_scale.py`` sweeps these to chart walltime vs. program
size for cold / warm-cache / parallel engine configurations.

Everything is seeded: the same parameters always generate byte-identical
source, so benchmark numbers are comparable across runs and the warm-cache
configurations hit the engine's structural fingerprints.
"""

from __future__ import annotations

import random
from typing import Dict, List

_COLLECTIVES = (
    'MPI_Allreduce(acc, red, "sum");',
    "MPI_Barrier();",
    "MPI_Bcast(x, 0);",
)


def _emit_level(rng: random.Random, lines: List[str], indent: int,
                depth: int, density: float, loop_counter: List[int]) -> None:
    """One nesting level: filler arithmetic, an optional collective, and a
    for/if wrapper around the next level."""
    pad = "    " * indent
    lines.append(f"{pad}acc += 1.0;")
    if rng.random() < density:
        lines.append(pad + rng.choice(_COLLECTIVES))
    if depth <= 0:
        lines.append(f"{pad}x += 1;")
        return
    n = loop_counter[0]
    loop_counter[0] += 1
    if rng.random() < 0.5:
        lines.append(f"{pad}for (int i{n} = 0; i{n} < 4; i{n} += 1) {{")
        _emit_level(rng, lines, indent + 1, depth - 1, density, loop_counter)
        lines.append(f"{pad}}}")
    else:
        lines.append(f"{pad}if (x < {8 + n}) {{")
        _emit_level(rng, lines, indent + 1, depth - 1, density, loop_counter)
        lines.append(f"{pad}}}")
        lines.append(f"{pad}else {{")
        lines.append(f"{pad}    acc += 2.0;")
        if rng.random() < density:
            lines.append(pad + "    " + rng.choice(_COLLECTIVES))
        lines.append(f"{pad}}}")


def make_scale_function(name: str, depth: int, density: float,
                        rng: random.Random, mismatch: bool) -> str:
    """One synthetic function; ``mismatch`` adds a rank-guarded collective
    (the classic PARCOACH warning pattern) so the generated programs exercise
    the diagnostic path, not only the clean fast path."""
    lines: List[str] = [f"void {name}(int n) {{"]
    lines.append("    float acc = 1.0;")
    lines.append("    float red = 0.0;")
    lines.append("    int x = 1;")
    if mismatch:
        lines.append("    int rank = MPI_Comm_rank();")
        lines.append("    if (rank == 0) {")
        lines.append("        MPI_Barrier();")
        lines.append("    }")
    _emit_level(rng, lines, 1, depth, density, [0])
    lines.append('    MPI_Allreduce(acc, red, "sum");')
    lines.append("}")
    return "\n".join(lines)


def make_scale_program(n_funcs: int = 16, depth: int = 4,
                       collective_density: float = 0.4,
                       mismatch_fraction: float = 0.25,
                       seed: int = 20150207) -> str:
    """A whole synthetic program: ``n_funcs`` generated functions plus a
    ``main`` that initializes MPI and calls each one."""
    rng = random.Random((seed, n_funcs, depth, collective_density,
                         mismatch_fraction).__repr__())
    parts: List[str] = []
    for i in range(n_funcs):
        mismatch = (i % max(1, round(1 / mismatch_fraction)) == 0
                    if mismatch_fraction > 0 else False)
        parts.append(make_scale_function(f"compute_{i}", depth,
                                         collective_density, rng, mismatch))
    main_lines = ["void main() {", "    MPI_Init_thread(0);"]
    main_lines += [f"    compute_{i}(8);" for i in range(n_funcs)]
    main_lines += ["    MPI_Finalize();", "}"]
    parts.append("\n".join(main_lines))
    return "\n\n".join(parts) + "\n"


#: The size sweep the scale benchmark charts (name -> generator kwargs).
SCALE_SIZES: Dict[str, Dict[str, float]] = {
    "S": {"n_funcs": 4, "depth": 3},
    "M": {"n_funcs": 16, "depth": 4},
    "L": {"n_funcs": 48, "depth": 5},
    "XL": {"n_funcs": 96, "depth": 6},
}


def scale_suite() -> Dict[str, str]:
    """Generated sources for the whole size sweep."""
    return {name: make_scale_program(**kwargs)  # type: ignore[arg-type]
            for name, kwargs in SCALE_SIZES.items()}


# ---------------------------------------------------------------------------
# Deep call trees (interprocedural-layer workload)
# ---------------------------------------------------------------------------


def make_calltree_program(depth: int = 16, width: int = 2,
                          parallel_every: int = 4,
                          seed: int = 20150207) -> str:
    """A deep call tree: ``depth`` levels of ``width`` functions, every
    function of level ``L`` calling every function of level ``L+1`` — half
    as statement calls, half embedded in expressions (the form only the
    interprocedural layer can see).  Every ``parallel_every``-th level wraps
    its calls in ``parallel``/``single``, so context words accumulate down
    the tree and the propagation fixpoint has real work to do; the leaves
    run collectives.  Deterministic for a given parameter tuple."""
    rng = random.Random((seed, depth, width, parallel_every).__repr__())
    parts: List[str] = []
    for level in range(depth - 1, -1, -1):
        last = level == depth - 1
        wrap = not last and parallel_every > 0 and level % parallel_every == (
            parallel_every - 1)
        for i in range(width):
            lines = [f"int tier{level}_{i}(int v) {{"]
            lines.append("    float acc = 1.0;")
            lines.append("    float red = 0.0;")
            lines.append(f"    v += {level + i};")
            if last:
                lines.append('    MPI_Allreduce(acc, red, "sum");')
                if i == 0:
                    lines.append("    MPI_Barrier();")
            else:
                calls: List[str] = []
                for j in range(width):
                    callee = f"tier{level + 1}_{j}"
                    if (i + j) % 2 == 0:
                        calls.append(f"v = {callee}(v);")  # expression call
                    else:
                        calls.append(f"{callee}(v);")
                pad = "    "
                if wrap:
                    lines.append("    #pragma omp parallel")
                    lines.append("    {")
                    lines.append("        #pragma omp single")
                    lines.append("        {")
                    pad = "            "
                for call in calls:
                    lines.append(pad + call)
                if wrap:
                    lines.append("        }")
                    lines.append("    }")
                if rng.random() < 0.25:
                    lines.append("    MPI_Barrier();")
            lines.append("    return v;")
            lines.append("}")
            parts.append("\n".join(lines))
    main_lines = ["void main() {", "    MPI_Init_thread(2);", "    int x = 1;"]
    main_lines += [f"    x = tier0_{i}(x);" for i in range(width)]
    main_lines += ["    MPI_Finalize();", "}"]
    parts.append("\n".join(main_lines))
    return "\n\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Multi-file projects (the ``parcoach project`` workload)
# ---------------------------------------------------------------------------


def make_project(n_files: int = 100, funcs_per_file: int = 2,
                 seed: int = 20150207) -> Dict[str, str]:
    """A deterministic multi-file project with one seeded **cross-file** bug.

    Layout: ``m000.mc`` … defines ``m0_f0`` …, each function calling its
    same-index peer in the *next* file (half as expression calls), so call
    chains cross every file boundary; leaf functions run an unconditional
    ``MPI_Allreduce`` (clean under any context).  ``helpers.mc`` defines
    ``bug_helper`` — an unconditional ``MPI_Barrier``, clean in isolation —
    and ``main.mc`` calls it from inside an ``omp parallel`` region.  Only
    a whole-project analysis sees the bug: per-file, ``main.mc`` cannot
    resolve ``bug_helper`` (UNKNOWN_FUNC) and ``helpers.mc`` alone is clean
    under the empty context.  The expected finding is exactly one
    ``collective-multithreaded`` in ``bug_helper`` with the witness chain
    ``main → bug_helper`` spanning ``main.mc`` → ``helpers.mc``.
    """
    rng = random.Random((seed, n_files, funcs_per_file).__repr__())
    files: Dict[str, str] = {}
    for i in range(n_files):
        parts: List[str] = []
        last = i == n_files - 1
        for j in range(funcs_per_file):
            lines = [f"int m{i}_f{j}(int v) {{"]
            lines.append("    float acc = 1.0;")
            lines.append("    float red = 0.0;")
            lines.append(f"    v += {i + j};")
            if last:
                lines.append('    MPI_Allreduce(acc, red, "sum");')
            else:
                callee = f"m{i + 1}_f{j}"
                if (i + j) % 2 == 0:
                    lines.append(f"    v = {callee}(v);")
                else:
                    lines.append(f"    {callee}(v);")
            if rng.random() < 0.25:
                lines.append("    acc += 2.0;")
            lines.append("    return v;")
            lines.append("}")
            parts.append("\n".join(lines))
        files[f"m{i:03d}.mc"] = "\n\n".join(parts) + "\n"
    files["helpers.mc"] = (
        "int bug_helper(int v) {\n"
        "    MPI_Barrier();\n"
        "    return v + 1;\n"
        "}\n"
    )
    files["main.mc"] = (
        "void main() {\n"
        "    MPI_Init_thread(3);\n"
        "    int x = 0;\n"
        "    x = m0_f0(x);\n"
        "    #pragma omp parallel num_threads(2)\n"
        "    {\n"
        "        x = bug_helper(x);\n"
        "    }\n"
        "    MPI_Finalize();\n"
        "}\n"
    )
    return files


#: The project-size sweep the project benchmarks chart.  ``P100`` is the
#: acceptance shape (one seeded cross-file bug, call chains crossing every
#: file boundary); ``P1000`` (XXL) is the assembly-scaling shape — same
#: topology at 10x the files, used to gate that a one-file edit stays
#: O(edit + dependents): the per-edit cost at P1000 must be within 2x of
#: P100 even though the project is 10x larger.
PROJECT_SIZES: Dict[str, Dict[str, int]] = {
    "P100": {"n_files": 100},
    "P1000": {"n_files": 1000},
}


def write_project(files: Dict[str, str], root: str) -> None:
    """Materialize a generated project under ``root``."""
    import os

    os.makedirs(root, exist_ok=True)
    for rel, text in files.items():
        with open(os.path.join(root, rel), "w", encoding="utf-8") as handle:
            handle.write(text)


#: The call-tree sweep the interprocedural benchmark charts.
CALLTREE_SIZES: Dict[str, Dict[str, int]] = {
    "D8": {"depth": 8, "width": 2},
    "D16": {"depth": 16, "width": 2},
    "D32": {"depth": 32, "width": 2},
}


def calltree_suite() -> Dict[str, str]:
    """Generated sources for the call-tree sweep."""
    return {name: make_calltree_program(**kwargs)
            for name, kwargs in CALLTREE_SIZES.items()}
