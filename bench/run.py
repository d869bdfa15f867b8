"""The one command: run workloads over loopback TCP, check outputs, print metrics.

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in this process and ends with one JSON line (the
``BENCHMARK.json`` contract: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  Without ``--workload`` every
workload runs, each in its own subprocess (untraced, then traced), and a
report of every metric lands in ``bench/out/``; ``--sets 2`` does that
twice and compares the two sets with :mod:`bench.compare`.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import resource
import subprocess
import sys
import time
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    # Run as a script: sys.path[0] is bench/, whose module names (trace,
    # run) would shadow the standard library's.
    sys.path[0] = str(ROOT)
if str(ROOT / "src") not in sys.path:
    sys.path.insert(1, str(ROOT / "src"))

import numpy as np  # noqa: E402

from bench import checks, compare, loadgen, metrics, trial  # noqa: E402
from bench.trace import SPAN_FIELDS, Tracer, ledger  # noqa: E402
from bench.workloads import (  # noqa: E402
    BATCH_SIZE,
    CONNECTIONS,
    LADDER,
    WORKLOADS,
    Workload,
    quick,
)

OUT_DIR = ROOT / "bench" / "out"
QUICK_DIR = OUT_DIR / "quick"  # smoke runs do not overwrite real outputs
MIN_TRIALS, MAX_TRIALS = 3, 9
#: Open loop: the rate whose latency is the end-to-end row of paced_d16k.
BASE_RATE = LADDER[0]
#: ``setup_s`` is the median wall time of this many fresh interpreters
#: that import the tier, set it up, tear it down and exit.
SETUP_CHILDREN = 5
#: In-process set-ups of the traced run, torn down unused (``setup.tier_ms``).
SETUP_REPEATS = 10
UNITS = {m.name: m.unit for m in metrics.END_TO_END + metrics.REPORT_ONLY + metrics.PER_LAYER}


def _filesystem_of(path: Path) -> str:
    """Filesystem type holding ``path`` (longest mount-point prefix)."""
    best, fstype = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fstype
    for line in mounts:
        _device, mount, kind = line.split()[:3]
        if str(path).startswith(mount) and len(mount) > len(best):
            best, fstype = mount, kind
    return fstype


def _environment(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "zlib": zlib.ZLIB_RUNTIME_VERSION,
        # The contract keeps every write inside the checkout, so the WAL
        # root is bench/out/ and not /dev/shm; which filesystem that is
        # decides how much disk noise durable_d16k sees.
        "wal_root": "bench/out/wal",
        "wal_filesystem": _filesystem_of(OUT_DIR),
    }


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def _workload_command(args, name: str, *extra: str) -> list[str]:
    quick_flag = ["--quick"] if args.quick else []
    return [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name, *extra, *quick_flag]


def _setup_child_s(args) -> float:
    """Wall seconds of one ``--setup-only`` child, start to exit."""
    started = time.perf_counter()
    subprocess.run(_workload_command(args, args.workload, "--setup-only"), cwd=ROOT, check=True)
    return time.perf_counter() - started


async def _measure(workload: Workload, args) -> dict:
    seconds, traced = args.seconds, bool(args.trace)
    wal_root = _wal_root(workload)
    # Before the frames are packed: the children run on an otherwise idle
    # machine, beside a small parent.
    setups = []
    if not traced:
        setups = [_setup_child_s(args) for _ in range(1 if args.quick else SETUP_CHILDREN)]
    if workload.paced:
        per_conn = max(1, int(BASE_RATE * seconds / CONNECTIONS) // BATCH_SIZE) * BATCH_SIZE
    else:
        per_conn = workload.uploads_per_conn
    started = time.perf_counter()
    frames = [loadgen.prepack(workload, args.seed, conn, per_conn) for conn in range(CONNECTIONS)]
    prepack_s = time.perf_counter() - started

    async def run_trial(rate: int = BASE_RATE) -> trial.TrialResult:
        if workload.paced:
            return await trial.paced_rung(workload, frames, rate)
        return await trial.closed_trial(workload, frames, wal_root)

    # Discarded warm-up: a cold first trial reads ~20 % low.
    warmup = [own[: workload.warmup_per_conn] for own in frames]
    await trial.closed_trial(workload, warmup, wal_root)

    trials, rungs, spans = [], {}, []
    if not traced:
        # A paced run is one rung of --seconds; a closed-loop run repeats
        # its fixed-size trial until the timed windows add up to --seconds.
        single = args.quick or workload.paced
        while len(trials) < (1 if single else MIN_TRIALS) or (
            not single and len(trials) < MAX_TRIALS and sum(t.wall_s for t in trials) < seconds
        ):
            trials.append(await run_trial())
        measured = trials
    else:
        # Per-layer run: one untraced trial for the overhead, the paced
        # ladder (untraced, lowest rung first, stopping at the first that
        # fails), then the traced trial.
        trials.append(await run_trial())
        measured = trials[:1]
        if workload.paced:
            rungs[BASE_RATE] = trials[0].rung
            for rate in () if args.quick else LADDER[1:]:
                if not rungs[max(rungs)]["ok"]:
                    break
                trials.append(await run_trial(rate))
                rungs[rate] = trials[-1].rung
        with Tracer() as tracer:
            trials.append(await run_trial())
        spans = tracer.spans

    reference = checks.oracle(workload, args.seed, per_conn)
    problems = [
        f"trial {index}: {problem}"
        for index, t in enumerate(trials)
        for problem in checks.check_trial(t, per_conn * CONNECTIONS, reference)
    ]

    attempted = sum(t.sent for t in trials)
    failed = sum(t.sent - t.ok for t in trials)
    end_to_end = {
        "uploads_per_s": metrics.summarize([t.uploads_per_s for t in measured]),
        "ack_p50_ms": metrics.summarize([t.percentile_ms(50) for t in measured]),
        "ack_p99_ms": metrics.summarize([t.percentile_ms(99) for t in measured]),
        "cpu_ms_per_upload": metrics.summarize([t.cpu_ms_per_upload for t in measured]),
        "peak_rss_mb": metrics.summarize(
            [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
        ),
        "failed_share": metrics.summarize([failed / attempted]),
    }
    if setups:
        end_to_end["setup_s"] = metrics.summarize(setups)
    if workload.durable:
        end_to_end["recovery_ms"] = metrics.summarize(
            [t.recovery["recovery_ms"] for t in measured]
        )

    per_layer = {}
    if traced:
        per_layer = ledger(trials[-1], spans, trials[0].uploads_per_s)
        per_layer["loadgen.prepack_s"] = prepack_s
        tier_setups = [await trial.setup_only(workload, wal_root) for _ in range(SETUP_REPEATS)]
        per_layer["setup.tier_ms"] = 1e3 * float(
            np.median(tier_setups + [t.setup_s for t in trials])
        )
        if workload.durable:
            per_layer["durability.recovery_ms"] = trials[0].recovery["recovery_ms"]
        if workload.paced:
            best = float(max((rate for rate, rung in rungs.items() if rung["ok"]), default=0))
            end_to_end["max_rate_ok_per_s"] = metrics.summarize([best])
            per_layer["loadgen.max_rate_ok_per_s"] = best
            per_layer["loadgen.late_p99_ms"] = rungs[BASE_RATE]["late_p99_ms"]
            for rate, rung in rungs.items():
                per_layer[f"loadgen.r{rate}.ack_p99_ms"] = rung["ack_p99_ms"]
                per_layer[f"loadgen.r{rate}.ok"] = int(rung["ok"])
        trace_file = _out_dir(args) / f"trace_{workload.name}.json"
        trace_file.write_text(
            json.dumps(
                {
                    "fields": SPAN_FIELDS,
                    "windows": trials[-1].windows,
                    "uploads": trials[-1].ok,
                    "spans": spans,
                }
            )
        )
    return {
        "workload": workload.name,
        "environment": _environment(args.seed),
        "seconds": seconds,
        "trials": len(measured),
        "latency_samples_per_trial": int(measured[0].latency_ms.size),
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "problems": problems,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "rungs": {str(rate): rung for rate, rung in rungs.items()},
    }


def _wal_root(workload: Workload) -> Path:
    return OUT_DIR / "wal" / f"{workload.name}-{os.getpid()}"


def _out_dir(args) -> Path:
    out_dir = QUICK_DIR if args.quick else OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    if args.quick:
        workload = quick(workload)
    if args.setup_only:
        asyncio.run(trial.setup_only(workload, _wal_root(workload)))
        return 0
    report = asyncio.run(_measure(workload, args))
    detail = _out_dir(args) / f"detail_{workload.name}_trace{args.trace}.json"
    detail.write_text(json.dumps(report, indent=1))

    print(f"# {workload.name} seed={args.seed} trace={args.trace} trials={report['trials']}")
    for name, summary in report["end_to_end"].items():
        print(
            f"{name:28s} {summary['value']:14.4f} {UNITS[name]:10s} "
            f"min {summary['min']:.4f} max {summary['max']:.4f} iqr {summary['iqr']:.4f}"
        )
    print(
        f"ack percentiles over {report['latency_samples_per_trial']} samples per trial; "
        f"attempted {report['attempted']} failed {report['failed']}"
    )
    for name, value in report["per_layer"].items():
        print(f"{name:28s} {value:14.4f} {UNITS[name]}")
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        # Every declared per-layer metric, 0 where the workload has no such
        # layer (the detail file and the report leave those out instead).
        values = {m.name: float(report["per_layer"].get(m.name, 0.0)) for m in metrics.PER_LAYER}
    else:
        values = {m.name: report["end_to_end"][m.name]["value"] for m in metrics.END_TO_END}
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]} for name, value in values.items()
                },
            }
        )
    )
    return 0 if report["correct"] else 1


# ----------------------------------------------------------------------
# Every workload, each in its own subprocess
# ----------------------------------------------------------------------
def _run_child(args, name: str, trace: int) -> dict:
    """One workload in a subprocess of its own; returns its detail report."""
    command = _workload_command(
        args, name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)
    )
    detail = _out_dir(args) / f"detail_{name}_trace{trace}.json"
    detail.unlink(missing_ok=True)
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")  # all but the JSON line
    sys.stderr.write(done.stderr)
    if not detail.exists():
        raise SystemExit(f"{name} --trace {trace} exited with {done.returncode}, no result")
    return json.loads(detail.read_text())


def run_set(args, label: str) -> dict:
    """Every workload, untraced then traced, merged into one report."""
    report = {"environment": _environment(args.seed), "quick": args.quick, "workloads": {}}
    for name in WORKLOADS:
        untraced, traced = (_run_child(args, name, trace) for trace in (0, 1))
        report["workloads"][name] = {
            "trials": untraced["trials"],
            "latency_samples_per_trial": untraced["latency_samples_per_trial"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "correct": untraced["correct"] and traced["correct"],
            "problems": untraced["problems"] + traced["problems"],
            # The traced run adds only what the untraced run does not
            # measure: the ladder's max_rate_ok_per_s.
            "end_to_end": {**traced["end_to_end"], **untraced["end_to_end"]},
            "per_layer": traced["per_layer"],
            "rungs": traced["rungs"],
        }
    path = _out_dir(args) / f"report_{label}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"# report written to {path.relative_to(ROOT)}")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), help="run this one in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="smoke-test sizes")
    parser.add_argument("--sets", type=int, default=1, help="full sets to run and compare")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = min(args.seconds, 0.5)
    if args.workload:
        return run_workload(args)

    reports = [run_set(args, f"seed{args.seed}_set{index}") for index in range(args.sets)]
    correct = all(w["correct"] for report in reports for w in report["workloads"].values())
    agree = all([compare.compare(reports[0], other) for other in reports[1:]])
    return 0 if correct and agree else 1


if __name__ == "__main__":
    sys.exit(main())
