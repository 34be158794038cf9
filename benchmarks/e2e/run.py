"""End-to-end benchmark of record: one workload, one run, one result line.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload analyze-cold --seed 1 \\
        --seconds 30 --trace 0

Workloads: analyze-cold, project-edit, explore-dpor, fuzz-campaign (see
README.md next to this file).  The process pins itself to one CPU, sets up
the workload, sends requests from one closed-loop client for ``--seconds``
(at least one whole pass; edits in whole blocks), checks every answer, and
prints each metric as ``name value unit``, an ``env`` line, and last one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the same loop with
per-layer spans and reports the per-layer metrics instead (``--spans FILE``
also writes every span as JSON lines).

``setup_s`` is the median of three set-ups, each timed from before
``import repro`` to the first request being ready: this process's own and
two fresh child processes started with ``--setup-probe``.  ``src`` is
byte-compiled before that clock starts, so the first run in a fresh
checkout does not charge compilation to set-up.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space for generated project trees: inside the checkout, as the
#: benchmark writes nowhere else.
WORKDIR = ROOT / ".bench_work"
SETUP_PROBES = 2


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one workload of the end-to-end benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20150207)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", metavar="FILE",
                        help="with --trace 1, write every span here")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _probe_setup(args) -> float:
    """Set-up time of one fresh process, measured by that process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no source tree at {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    # A fault-injection plan in the environment would turn requests into
    # injected failures; the benchmark measures the fault-free system.
    os.environ.pop("PARCOACH_FAULTS", None)
    sys.path.insert(0, str(HERE))
    from e2e_core import SpeedProbe, environment, metric_units, pin_to_one_cpu

    pinned = pin_to_one_cpu()
    speed = SpeedProbe()
    speed.start()
    t0_ns = time.perf_counter_ns()
    sys.path.insert(0, str(SRC))
    from e2e_workloads import (WORKLOADS, WorkloadChanged, run_workload,
                               setup_workload)

    if args.workload not in WORKLOADS:
        speed.stop()
        print(f"error: unknown workload {args.workload!r} "
              f"(expected one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    try:
        if args.setup_probe:
            workload, setup_s = setup_workload(args.workload, args.seed,
                                               WORKDIR, speed, t0_ns)
            workload.close()
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), WORKDIR, speed=speed,
                              t0_ns=t0_ns, spans_path=args.spans)
    except WorkloadChanged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    metrics = result["metrics"]
    if not args.trace:
        samples = [result["setup_s"]] + [_probe_setup(args)
                                         for _ in range(SETUP_PROBES)]
        metrics["setup_s"] = statistics.median(samples)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    share = result["failed"] / result["attempted"]
    print(f"failed_share {share!r} ratio")
    print(f"latency_samples {result['attempted']} count")
    print(f"latency_samples_beyond_p90 {result['beyond_p90']} count")
    print(f"reference_probe_us {result['probe_us']!r} us")
    print(f"latency_p50_raw_ms {result['raw_p50_ms']!r} ms")
    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "inputs_sha256": result["inputs_sha256"],
           **environment(ROOT, pinned)}
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
