"""Output checks: counts, the in-process oracle, bit-exact recovery.

The oracle replays the identical ``TaskResult``s (regenerated from the
seed, not decoded from the frames — it does not trust the program's own
frame parser) in-process through a fresh gateway of the same
configuration via ``Gateway.handle_result`` + ``finalize``.  It runs
without durability: the WAL must not change what is learned, and crash +
failover must be bit-identical, so the durable workload has to land on
the same model.
"""

from __future__ import annotations

import numpy as np

from bench import loadgen
from bench.trial import TrialResult, build_gateway, shard_workers
from bench.workloads import Workload

__all__ = ["check_trial", "oracle"]


def oracle(workload: Workload, seed: int, per_conn: int) -> tuple[np.ndarray, dict]:
    """Consensus parameters and per-shard clocks the served path must reach
    after ``per_conn`` uploads on each connection."""
    gateway = build_gateway(workload)
    now = 0.0
    # Shards are independent until the blend in finalize, so only the
    # per-shard order matters: it is each connection's send order.
    for conn, worker_id in enumerate(shard_workers(gateway).values()):
        for result in loadgen.results(workload, seed, conn, worker_id, per_conn):
            now += 1e-4
            gateway.handle_result(result, now=now)
    gateway.finalize(now=now)
    clocks = {shard_id: shard.clock for shard_id, shard in gateway.shards.items()}
    return gateway.current_parameters(), clocks


def check_trial(
    trial: TrialResult, expected_sent: int, reference: tuple[np.ndarray, dict]
) -> list[str]:
    """Every way one trial's outputs are wrong (empty when they are right)."""
    problems = []
    counts = {
        "sent": trial.sent,
        "acked": trial.acked,
        "results_received": trial.received,
        "results_applied": trial.applied,
    }
    if set(counts.values()) != {expected_sent}:
        problems.append(f"counts differ from the {expected_sent} uploads offered: {counts}")
    if trial.refused:
        problems.append(f"{trial.refused} OVERLOADED/REJECTION/ERROR frames")
    parameters, clocks = reference
    if trial.clocks != clocks:
        problems.append(f"shard clocks {trial.clocks} differ from the oracle's {clocks}")
    if not np.allclose(trial.parameters, parameters, rtol=1e-6, atol=1e-9):
        worst = float(np.abs(trial.parameters - parameters).max())
        problems.append(f"parameters differ from the oracle's (max abs diff {worst:.3e})")
    recovery = trial.recovery
    if recovery is not None:
        if not recovery["bit_identical"]:
            problems.append("failover did not restore the victim bit-identically")
        if recovery["replayed_records"] != recovery["expected_replayed_records"]:
            problems.append(
                f"replayed {recovery['replayed_records']} WAL records, expected "
                f"{recovery['expected_replayed_records']}"
            )
    return problems
