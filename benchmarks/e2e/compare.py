"""Compare benchmark runs of a parent commit and a change, per workload.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``result-*.json`` files ``run.py`` wrote to
its ``--out``.  Runs pair by workload and seed; within a seed, in the
order they started.  Run the two sides alternately (parent, change,
change, parent, ...), one seed per pair.  For every workload with at
least ten pairs, each end-to-end metric gets one verdict:

* ``GAIN`` — the change wins at least nine tenths of the pairs (ties
  count for neither side) and the medians differ, in the better
  direction, by more than the parent's interquartile range;
* ``REGRESSION`` — the change's median is worse than the parent's by
  more than the metric's bound (exact metrics: by more than 1e-6
  relative or 1e-9 absolute);
* ``unresolved`` — the parent's own spread (IQR over median) is wider
  than the bound, so the bound cannot be judged, unless every change
  run is better than every parent run (``better``);
* ``same`` otherwise.

A metric the result marks ``"gated": false`` is printed, not judged.

A change in any pair's outcome digest or failure share (100 -
``served_pct``) is flagged as well.  The exit code is 0 when nothing
regressed and nothing was flagged, 1 otherwise, and 2 when a workload
has fewer than ten pairs or the pairs do not alternate.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

MIN_PAIRS = 10
GAIN_WIN_SHARE = 0.9
EXACT_REL = 1e-6
EXACT_ABS = 1e-9


def load(directory: str) -> Dict[str, Dict[int, List[dict]]]:
    """``{workload: {seed: [results in start order]}}``."""
    runs: Dict[str, Dict[int, List[dict]]] = defaultdict(
        lambda: defaultdict(list))
    for path in sorted(pathlib.Path(directory).glob("result-*.json")):
        result = json.loads(path.read_text())
        runs[result["workload"]][result["seed"]].append(result)
    for seeds in runs.values():
        for results in seeds.values():
            results.sort(key=lambda r: r["started"])
    return runs


def pair(parent: Dict[int, List[dict]],
         change: Dict[int, List[dict]]) -> List[Tuple[dict, dict]]:
    pairs = []
    for seed in sorted(set(parent) & set(change)):
        pairs.extend(zip(parent[seed], change[seed]))
    return pairs


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(better: str, bound, parent: List[float],
            change: List[float]) -> Tuple[str, int]:
    """``(verdict, wins)`` for one metric over paired values."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    gap = sign * (cm - pm)          # > 0: the change is better
    if bound is None:
        tolerance = max(EXACT_REL * abs(pm), EXACT_ABS)
        if -gap > tolerance:
            return "REGRESSION", wins
        return ("better" if gap > tolerance else "same"), wins
    if pm == 0 or (q3 - q1) / abs(pm) > bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return "better", wins
        return "unresolved", wins
    if -gap > bound * abs(pm):
        return "REGRESSION", wins
    if wins >= GAIN_WIN_SHARE * len(parent) and gap > q3 - q1:
        return "GAIN", wins
    return "same", wins


def compare_workload(name: str, pairs: List[Tuple[dict, dict]],
                     out) -> int:
    """Print one workload's rows; returns its exit status."""
    parent_first = sum(1 for p, c in pairs if p["started"] < c["started"])
    print(f"== {name}: {len(pairs)} pairs, parent ran first in "
          f"{parent_first}", file=out)
    if len(pairs) < MIN_PAIRS:
        print(f"   too few pairs (need {MIN_PAIRS})", file=out)
        return 2
    if abs(2 * parent_first - len(pairs)) > 1:
        print("   pairs do not alternate which side runs first",
              file=out)
        return 2
    status = 0
    print(f"   {'metric':<20} {'parent median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'wins':>6}  verdict",
          file=out)
    for metric, spec in pairs[0][0]["metrics"].items():
        if any(metric not in c["metrics"] for _, c in pairs):
            status = 1
            print(f"   FLAG: {metric} is missing from change runs",
                  file=out)
            continue
        parent = [p["metrics"][metric]["value"] for p, _ in pairs]
        change = [c["metrics"][metric]["value"] for _, c in pairs]
        result, wins = verdict(spec["better"], spec["bound"], parent,
                               change)
        if not spec["gated"]:
            result = "not gated"
        if result == "REGRESSION":
            status = 1
        cells = []
        for values in (parent, change):
            q1, q3 = quartiles(values)
            cells.append(f"{statistics.median(values):.6g} "
                         f"[{q1:.6g}, {q3:.6g}] {spec['unit']}")
        print(f"   {metric:<20} {cells[0]:<36} {cells[1]:<36} "
              f"{wins:>3}/{len(pairs):<2}  {result}", file=out)
    digests = sum(1 for p, c in pairs if p["digest"] != c["digest"])
    shares = sum(1 for p, c in pairs
                 if p["metrics"]["served_pct"]["value"]
                 != c["metrics"]["served_pct"]["value"])
    for count, what in ((digests, "outcome digest"),
                        (shares, "failure share")):
        if count:
            status = 1
            print(f"   FLAG: the {what} changed in {count} of "
                  f"{len(pairs)} pairs", file=out)
        else:
            print(f"   {what} identical in every pair", file=out)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="result directory of the parent")
    parser.add_argument("change", help="result directory of the change")
    args = parser.parse_args(argv)
    parent, change = load(args.parent), load(args.change)
    if not set(parent) & set(change):
        print("no workload has runs on both sides", file=sys.stderr)
        return 2
    worst = 0
    for name in sorted(set(parent) | set(change)):
        status = compare_workload(name, pair(parent.get(name, {}),
                                             change.get(name, {})),
                                  sys.stdout)
        # A missing comparison (2) outranks a regression (1).
        worst = max(worst, status)
    return worst


if __name__ == "__main__":
    sys.exit(main())
