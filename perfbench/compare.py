"""Compare two sets of benchmark runs, metric by metric.

Each input is a file of result lines (the JSON object ``run.py`` prints
last), one run per line, from the same workload; line *i* of the parent
file and line *i* of the change file form a pair (run them alternately,
on the same seeds).  For every end-to-end metric of BENCHMARK.json it
prints both medians, the parent's quartiles, the median change within
a pair, how many pairs the change lost, and a verdict:

* ``worse`` / ``better`` -- the change loses (wins) at least nine tenths
  of the pairs and its median differs from the parent's by more than
  the parent's own spread (distance between its quartiles);
* ``unresolved`` -- one side wins nine tenths of the pairs, but the
  medians differ by less than the parent's own spread;
* ``over bound`` -- the change's median is worse than the parent's by
  more than the metric's bound (the gate a later change must pass);
* ``same`` otherwise.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Exit code 1 when any metric is ``worse`` or ``over bound``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p1, pmed, p3 = _quartiles(parent)
    cmed = statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    shift = sign * (cmed - pmed)
    if shift < 0 and -shift > bound * abs(pmed):
        return "over bound"
    for count, direction in ((losses, "worse"), (wins, "better")):
        if count >= 0.9 * len(pairs):
            return direction if abs(shift) > p3 - p1 else "unresolved"
    return "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = _load(args.parent), _load(args.change)
    flagged = False
    print(f"{'metric':24s} {'parent median [q1, q3]':>34s} "
          f"{'change median':>14s} {'in pair':>8s} {'lost':>6s}  verdict")
    for metric in metrics:
        name = metric["name"]
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        p1, pmed, p3 = _quartiles(p)
        sign = 1.0 if metric["better"] == "higher" else -1.0
        lost = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
        paired = statistics.median(b / a - 1 for a, b in zip(p, c) if a)
        result = verdict(p, c, metric["better"], metric["bound"])
        flagged |= result in ("worse", "over bound")
        print(f"{name:24s} {pmed:12.5g} [{p1:9.5g}, {p3:9.5g}] "
              f"{statistics.median(c):14.5g} {paired:+8.1%} "
              f"{lost:>3d}/{min(len(p), len(c)):<2d}  {result}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
