"""Compare two run sets of ``run.py --repeat N --trace 0 --out FILE``.

    python3 benchmarks/e2e/compare.py A.json B.json

For every workload and end-to-end metric: the median of each set, B's relative
difference to A and the metric's bound from ``BENCHMARK.json``.  Exits non-zero
when B is worse than A by more than the bound on any pair (worse is higher for
``better: lower`` metrics and lower for ``better: higher`` ones), or when any
operation of B failed: a failure is a regression whatever share it is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from spans import median

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def medians(document):
    """``{workload: {metric: median over the set's runs}}``."""
    out = {}
    for run in document["runs"]:
        for workload, sections in run.items():
            for metric, value in sections["end_to_end"]["metrics"].items():
                out.setdefault(workload, {}).setdefault(metric, []).append(value)
    return {
        workload: {metric: median(values) for metric, values in by_metric.items()}
        for workload, by_metric in out.items()
    }


def worsening(metric, a, b):
    """How much worse *b* is than *a*, as a share of *a* (negative: better)."""
    change = (b - a) / a
    return change if metric["better"] == "lower" else -change


def compare(a, b, out=sys.stdout):
    """Print the table; return the ``(workload, metric)`` pairs outside their bound."""
    first, second = medians(a), medians(b)
    outside = []
    print(f"{'workload':<12s} {'metric':<18s} {'A':>14s} {'B':>14s} "
          f"{'B vs A':>9s} {'bound':>7s}", file=out)
    for workload in first:
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            x, y = first[workload][name], second[workload][name]
            worse = worsening(metric, x, y)
            flag = ""
            if worse > metric["bound"]:
                outside.append((workload, name))
                flag = "  REGRESSION"
            print(f"{workload:<12s} {name:<18s} {x:>14.4f} {y:>14.4f} "
                  f"{(y - x) / x:>+9.2%} {metric['bound']:>7.2%}{flag}", file=out)
        failed = sum(run[workload]["end_to_end"]["failed"] for run in b["runs"])
        if failed:
            outside.append((workload, "failed"))
            print(f"{workload:<12s} {'failed':<18s} {'':>14s} {failed:>14d}  REGRESSION",
                  file=out)
    return outside


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    outside = compare(a, b)
    for workload, name in outside:
        print(f"outside its bound: {workload}/{name}")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
