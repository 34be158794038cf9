"""Benchmark workloads (NAS-MZ / EPCC / HERA analogues), the error gallery,
and the compile pipeline used by the Figure 1 reproduction."""

from functools import lru_cache
from typing import Dict

from .epcc import make_epcc_suite
from .errors_gallery import (CASES, ErrorCase, correct_cases,
                             erroneous_cases, interprocedural_cases,
                             schedule_sensitive_cases)
from .hera import make_hera
from .nas_mz import make_bt_mz, make_lu_mz, make_sp_mz
from .pipeline import (
    MODES,
    CompileResult,
    compile_source,
    measure_overheads,
    overhead_percent,
)
from .scale import (PROJECT_SIZES, SCALE_SIZES, make_project,
                    make_scale_program, scale_suite, write_project)

#: The five benchmarks of Figure 1, in the paper's order.
FIGURE1_BENCHMARKS = ("BT-MZ", "SP-MZ", "LU-MZ", "EPCC suite", "HERA")


@lru_cache(maxsize=1)
def benchmark_sources() -> Dict[str, str]:
    """Generated sources for the five Figure 1 benchmarks (cached —
    generation itself is not part of the measured compile time)."""
    return {
        "BT-MZ": make_bt_mz(),
        "SP-MZ": make_sp_mz(),
        "LU-MZ": make_lu_mz(),
        "EPCC suite": make_epcc_suite(),
        "HERA": make_hera(),
    }


__all__ = [
    "make_epcc_suite",
    "CASES",
    "ErrorCase",
    "correct_cases",
    "erroneous_cases",
    "schedule_sensitive_cases",
    "interprocedural_cases",
    "make_hera",
    "make_bt_mz",
    "make_lu_mz",
    "make_sp_mz",
    "MODES",
    "CompileResult",
    "compile_source",
    "measure_overheads",
    "overhead_percent",
    "FIGURE1_BENCHMARKS",
    "benchmark_sources",
    "PROJECT_SIZES",
    "SCALE_SIZES",
    "make_project",
    "make_scale_program",
    "scale_suite",
    "write_project",
]
