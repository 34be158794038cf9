"""Compare benchmark runs of a parent commit and a change.

    python3 benchmarks/e2e/compare.py PARENT_OUT... -- CHANGE_OUT...

Each file holds the standard output of one or more ``run.py`` runs
(``--trace 0``).  Runs are grouped by workload (from their ``env`` line)
and paired in the order given, so list them in the order they ran and
alternate which side runs first.  For every workload and every end-to-end
metric of ``BENCHMARK.json`` the verdict is:

* ``improved`` -- at least 10 pairs, the change wins at least 9/10 of them
  (ties count for neither), and the medians differ, in the better
  direction, by more than the parent's interquartile range;
* ``unresolved`` -- the run-to-run spread (interquartile range over median,
  either side) is wider than the metric's bound, unless every change run
  reads better than every parent run;
* ``regressed`` -- the change's median is worse than the parent's by more
  than the bound;
* ``no-worse`` -- otherwise.

Failures come first: when the change failed more requests than the parent,
in number or as a share of those attempted, the workload's ``failed``
verdict is ``regressed`` and no metric of it reads ``improved``.  Exit
status 1 when anything regressed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from e2e_core import BENCHMARK, quartile_spread  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(paths: Sequence[str]) -> Dict[str, List[dict]]:
    """workload -> result objects, in file and line order."""
    runs: Dict[str, List[dict]] = defaultdict(list)
    for path in paths:
        workload = None
        for line in Path(path).read_text().splitlines():
            if line.startswith("env "):
                workload = json.loads(line[4:])["workload"]
            elif line.startswith("{") and workload is not None:
                runs[workload].append(json.loads(line))
                workload = None
    return runs


def _relative(spread: float, median: float) -> float:
    if median:
        return spread / abs(median)
    return 0.0 if spread == 0 else float("inf")


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0

    def beats(a: float, b: float) -> bool:
        return sign * (a - b) > 0

    p_med, c_med = statistics.median(parent), statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(beats(c, p) for p, c in pairs)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and beats(c_med, p_med)
            and abs(c_med - p_med) > quartile_spread(parent)):
        return "improved"
    spread = max(_relative(quartile_spread(parent), p_med),
                 _relative(quartile_spread(change), c_med))
    all_better = all(beats(c, p) for p in parent for c in change)
    if spread > bound and not all_better:
        return "unresolved"
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "regressed"
    return "no-worse"


def failures(runs: Sequence[dict]) -> Tuple[int, int]:
    """(failed, attempted) summed over ``runs``."""
    return (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))


def failed_more(parent: Sequence[dict], change: Sequence[dict]) -> bool:
    """Whether the change failed more requests than the parent, in number
    or as a share of those attempted."""
    (p_failed, p_attempted), (c_failed, c_attempted) = (failures(parent),
                                                        failures(change))
    return (c_failed > p_failed
            or c_failed * p_attempted > p_failed * c_attempted)


def main(argv: Sequence[str]) -> int:
    if "--" not in argv:
        print("usage: compare.py PARENT_OUT... -- CHANGE_OUT...",
              file=sys.stderr)
        return 2
    split = list(argv).index("--")
    parent, change = load_runs(argv[:split]), load_runs(argv[split + 1:])
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    regressed = False
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        worse = failed_more(p_runs, c_runs)
        regressed |= worse
        (p_failed, p_attempted), (c_failed, c_attempted) = (
            failures(p_runs), failures(c_runs))
        print(f"{workload}: {len(p_runs)} parent / {len(c_runs)} change runs")
        print(f"  {'failed':16s} parent {p_failed}/{p_attempted}  change "
              f"{c_failed}/{c_attempted}  "
              f"{'regressed' if worse else 'no-worse'}")
        for metric in metrics:
            name = metric["name"]
            p_vals = [r["metrics"][name]["value"] for r in p_runs]
            c_vals = [r["metrics"][name]["value"] for r in c_runs]
            outcome = verdict(p_vals, c_vals, metric["better"],
                              metric["bound"])
            if outcome == "improved" and worse:
                outcome = "unresolved"
            regressed |= outcome == "regressed"
            print(f"  {name:16s} parent {statistics.median(p_vals):.6g} "
                  f"(iqr {quartile_spread(p_vals):.3g})  change "
                  f"{statistics.median(c_vals):.6g} "
                  f"(iqr {quartile_spread(c_vals):.3g})  {outcome}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
