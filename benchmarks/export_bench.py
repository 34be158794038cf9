#!/usr/bin/env python
"""Export the scale/exploration/fuzzing benchmark results to ``BENCH_scale.json``.

Runs ``benchmarks/bench_scale.py``, ``benchmarks/bench_explore.py`` and
``benchmarks/bench_fuzz.py`` under pytest-benchmark, then compacts the raw
report into a small, diff-friendly JSON checked into the repository so the
performance trajectory is tracked PR over PR.  Every series records its
median and interquartile range (robust to the GC pauses and scheduler
hiccups that made means and standard deviations unreadable), and every
derived ratio and rate is computed from medians::

    PYTHONPATH=src python benchmarks/export_bench.py [-o BENCH_scale.json]

The compact schema::

    {
      "suite": "bench_scale",
      "python": "3.11.7",
      "benchmarks": [
        {"test": "test_scale_cold[XL]", "size": "XL", "config": "cold",
         "median_s": 0.08, "iqr_s": 0.002, "rounds": 10},
        ...
      ],
      "derived": {
        "dominates_depth_ratio": 1.1,          # deepest / shallowest query
        "schedules_per_sec": {"explore_dfs": 410.2, ...},  # exploration rate
        "decisions_per_sec": {"explore_decisions": 9000.1},  # sched overhead
        "dpor_reduction": 90.5,                # DFS tree size / dpor runs
        "effective_schedules_per_sec": 8000.2, # DFS tree size / dpor time
        "fuzz_programs_per_sec": {"fuzz_oracle": 40.1, ...},  # oracle rate
        "interproc_overhead": {"D32": 1.6, ...},  # interproc / intraproc median
        "project_edit_speedup": {"P100": 8.0},  # cold project / one-file edit
        "project_assembly_speedup": 1.7         # edit @P1000 / edit @P100
      }
    }
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def run_benchmarks(raw_json: str) -> None:
    env = dict(os.environ)
    src = os.path.join(REPO, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable, "-m", "pytest",
        os.path.join(HERE, "bench_scale.py"),
        os.path.join(HERE, "bench_explore.py"),
        os.path.join(HERE, "bench_fuzz.py"),
        os.path.join(HERE, "bench_incremental.py"),
        os.path.join(HERE, "bench_project.py"),
        "-q", "--benchmark-only", f"--benchmark-json={raw_json}",
    ]
    subprocess.run(cmd, check=True, cwd=REPO, env=env)


def compact(raw: dict) -> dict:
    benchmarks = []
    by_config: dict = {}
    schedule_rates: dict = {}
    fuzz_rates: dict = {}
    decision_rates: dict = {}
    derived_dpor: dict = {}
    findings_per_kseed: dict = {}
    for bench in raw.get("benchmarks", []):
        extra = bench.get("extra_info", {})
        stats = bench.get("stats", {})
        entry = {
            "test": bench.get("name"),
            "size": extra.get("size", extra.get("depth")),
            "config": extra.get("config"),
            "median_s": round(stats.get("median", 0.0), 9),
            "iqr_s": round(stats.get("iqr", 0.0), 9),
            "rounds": stats.get("rounds"),
        }
        benchmarks.append(entry)
        by_config.setdefault(entry["config"], {})[entry["size"]] = entry["median_s"]
        schedules = extra.get("schedules")
        if schedules and entry["median_s"] > 0:
            schedule_rates[entry["config"]] = round(
                schedules / entry["median_s"], 1)
        dfs_equivalent = extra.get("dfs_equivalent_schedules")
        if dfs_equivalent and schedules:
            derived_dpor["dpor_reduction"] = round(
                dfs_equivalent / schedules, 1)
            if entry["median_s"] > 0:
                derived_dpor["effective_schedules_per_sec"] = round(
                    dfs_equivalent / entry["median_s"], 1)
        decisions = extra.get("decisions")
        if decisions and entry["median_s"] > 0:
            decision_rates[entry["config"]] = round(
                decisions / entry["median_s"], 1)
        programs = extra.get("programs")
        if programs and entry["median_s"] > 0:
            fuzz_rates[entry["config"]] = round(
                programs / entry["median_s"], 1)
        if (extra.get("distinct_findings") is not None and programs
                and entry["config"] == "fuzz_campaign_coverage"):
            findings_per_kseed[entry["config"]] = round(
                extra["distinct_findings"] * 1000.0 / programs, 2)

    derived: dict = {}
    dom = by_config.get("dominates", {})
    if len(dom) >= 2:
        depths = sorted(dom)
        if dom[depths[0]] > 0:
            derived["dominates_depth_ratio"] = round(
                dom[depths[-1]] / dom[depths[0]], 2)
    inter = by_config.get("interproc", {})
    intra = by_config.get("intraproc", {})
    overhead = {
        size: round(inter[size] / intra[size], 2)
        for size in inter if size in intra and intra[size] > 0
    }
    if overhead:
        derived["interproc_overhead"] = overhead
    session_cold = by_config.get("session_cold", {})
    session_edit = by_config.get("session_edit", {})
    incremental = {
        size: round(session_cold[size] / session_edit[size], 2)
        for size in session_cold
        if size in session_edit and session_edit[size] > 0
    }
    if incremental:
        derived["incremental_speedup"] = incremental
    project_cold = by_config.get("project_cold", {})
    project_edit = by_config.get("project_edit", {})
    project_patch = by_config.get("project_patch", {})
    edit_speedup = {
        size: round(project_cold[size] / project_edit[size], 2)
        for size in project_cold
        if size in project_edit and project_edit[size] > 0
    }
    if edit_speedup:
        derived["project_edit_speedup"] = edit_speedup
    patch_speedup = {
        size: round(project_cold[size] / project_patch[size], 2)
        for size in project_cold
        if size in project_patch and project_patch[size] > 0
    }
    if patch_speedup:
        derived["project_patch_speedup"] = patch_speedup
    if ("P1000" in project_edit and project_edit.get("P100", 0) > 0):
        # Per-edit scaling ratio across a 10x project-size jump; gated
        # <= 2.0 by bench_project.test_project_assembly_scaling_threshold
        # (O(edit + dependents) assembly, not O(project)).
        derived["project_assembly_speedup"] = round(
            project_edit["P1000"] / project_edit["P100"], 2)
    if schedule_rates:
        derived["schedules_per_sec"] = schedule_rates
    if decision_rates:
        derived["decisions_per_sec"] = decision_rates
    derived.update(derived_dpor)
    if fuzz_rates:
        derived["fuzz_programs_per_sec"] = fuzz_rates
    campaign_open = by_config.get("fuzz_campaign_open", {})
    campaign_cov = by_config.get("fuzz_campaign_coverage", {})
    overhead_cov = {
        size: round(campaign_cov[size] / campaign_open[size], 2)
        for size in campaign_cov
        if size in campaign_open and campaign_open[size] > 0
    }
    if overhead_cov:
        # Gated ≤ 1.5× by tests/test_fuzz_coverage.py: coverage feedback
        # must stay a scheduling tax, not a second oracle.
        derived["fuzz_coverage_overhead"] = overhead_cov
    if findings_per_kseed:
        derived["distinct_findings_per_kseed"] = findings_per_kseed
    return {
        "suite": "bench_scale",
        "python": platform.python_version(),
        "machine": raw.get("machine_info", {}).get("machine"),
        "benchmarks": benchmarks,
        "derived": derived,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output",
                        default=os.path.join(REPO, "BENCH_scale.json"))
    parser.add_argument("--raw", help="also keep the full pytest-benchmark "
                                      "report at this path")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        raw_json = args.raw or os.path.join(tmp, "raw.json")
        run_benchmarks(raw_json)
        with open(raw_json, "r", encoding="utf-8") as handle:
            raw = json.load(handle)

    report = compact(raw)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"wrote {args.output} ({len(report['benchmarks'])} benchmarks, "
          f"derived={report['derived']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
