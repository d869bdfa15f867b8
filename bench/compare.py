"""Repeatability: do two full sets of the same code agree within the bounds?

``python -m bench.compare A.json B.json`` loads two reports written by
``python -m bench.run`` (``bench/out/report_*.json``), prints per
(metric, workload) the two medians, their relative difference and the
bound, and exits non-zero if any end-to-end pair disagrees by more than
its bound.  ``python -m bench.run --sets 2`` runs both sets and calls this.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from bench.metrics import END_TO_END, REPORT_ONLY

__all__ = ["compare", "main"]


def compare(first: dict, second: dict) -> bool:
    """Print the table; True when every end-to-end pair is within its bound."""
    agree = True
    print(f"{'workload':14s} {'metric':20s} {'A':>12s} {'B':>12s} {'diff':>8s} {'bound':>6s}")
    for name, workload in first["workloads"].items():
        other = second["workloads"][name]
        for metric in END_TO_END + REPORT_ONLY:
            if metric.name not in workload["end_to_end"]:
                continue  # recovery_ms and max_rate_ok_per_s: one workload each
            a = workload["end_to_end"][metric.name]["value"]
            b = other["end_to_end"][metric.name]["value"]
            diff = abs(a - b) / min(abs(a), abs(b)) if a != b else 0.0
            within = diff <= metric.bound
            agree &= within
            print(
                f"{name:14s} {metric.name:20s} {a:12.4f} {b:12.4f} {diff:8.1%} "
                f"{metric.bound:6.0%}{'' if within else '  DISAGREE'}"
            )
    print("sets agree within bounds" if agree else "sets DISAGREE")
    return agree


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    first, second = (json.loads(Path(path).read_text()) for path in paths)
    return 0 if compare(first, second) else 1


if __name__ == "__main__":
    sys.exit(main())
