"""Shared infrastructure for the per-figure benchmark harness.

Each benchmark prints the paper-style rows/series it regenerates through the
``report`` fixture; the collected reports are emitted in the terminal summary
(which pytest does not capture), so ``pytest benchmarks/ --benchmark-only``
leaves the full reproduction tables in the log.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

#: The one size switch of the harness: unset (tier-1 as written) runs every
#: extension bench at its reduced size; ``BENCH_FULL=1`` (nightly) selects
#: the paper-size workloads.
BENCH_FULL = bool(os.environ.get("BENCH_FULL"))

_REPORTS: list[str] = []


def record_artifact(name: str, update: dict) -> None:
    """Merge ``update`` into ``BENCH_<name>.json`` in the working directory
    (the nightly artifact glob and ``benchdiff`` pick it up from there)."""
    artifact = Path(f"BENCH_{name}.json")
    merged = json.loads(artifact.read_text()) if artifact.exists() else {}
    merged.update(update)
    merged["smoke"] = not BENCH_FULL
    artifact.write_text(json.dumps(merged, indent=1))


@pytest.fixture
def report():
    """Collect human-readable result lines for the terminal summary."""

    def _add(*lines: str) -> None:
        _REPORTS.extend(lines)

    return _add


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.write_sep("=", "paper reproduction report")
    for line in _REPORTS:
        terminalreporter.write_line(line)


def fmt_series(values, precision=3) -> str:
    """Compact rendering of a numeric series."""
    return "[" + ", ".join(f"{v:.{precision}f}" for v in values) + "]"


def fmt_row(label: str, values, precision=3, width=34) -> str:
    return f"{label:<{width}} {fmt_series(values, precision)}"
