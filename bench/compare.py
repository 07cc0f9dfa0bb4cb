"""Compare two sets of benchmark results, one row per workload and end-to-end metric.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by `bench/run.py --trace 0`
(copied from .bench_work/results/), one per run; other files are skipped.
Each row gives both sides' median and quartiles over their runs and applies
the metric's bound from BENCHMARK.json:

  better      every NEW run is better than every BASE run
  unresolved  the run-to-run spread (quartile distance / median) of either
              side is wider than the bound, or a side has fewer than 2 runs
  worse       NEW's median is worse than BASE's by more than the bound
  within      otherwise

Exits 1 when any row reads "worse".
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def load(directory) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per full-size untraced run."""
    values = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") != 0 or record.get("smoke"):
            continue
        for name, metric in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(metric["value"])
    return values


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median, third quartile."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base, new, bound: float, better: str) -> str:
    lower = better == "lower"
    if len(base) < 2 or len(new) < 2:
        return "unresolved"
    if (max(new) < min(base)) if lower else (min(new) > max(base)):
        return "better"
    spread = max((q3 - q1) / med for q1, med, q3 in (quartiles(base), quartiles(new)))
    if spread > bound:
        return "unresolved"
    worsening = (statistics.median(new) - statistics.median(base)) / statistics.median(base)
    return "worse" if (worsening if lower else -worsening) > bound else "within"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    workloads = sorted({w for w, _ in base} | {w for w, _ in new})
    print(f"{'workload':<11} {'metric':<12} {'base median [q1, q3] n':<34} "
          f"{'new median [q1, q3] n':<34} {'change':>8} {'bound':>6}  verdict")
    any_worse = False
    for workload in workloads:
        for metric in SPEC["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in new:
                continue
            result = verdict(base[key], new[key], metric["bound"], metric["better"])
            change = statistics.median(new[key]) / statistics.median(base[key]) - 1.0
            any_worse |= result == "worse"
            print(f"{workload:<11} {metric['name']:<12} {_fmt(base[key]):<34} {_fmt(new[key]):<34} "
                  f"{change:>+8.1%} {metric['bound']:>6.0%}  {result}")
    return 1 if any_worse else 0


def _fmt(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.5g} n=1"
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


if __name__ == "__main__":
    sys.exit(main())
