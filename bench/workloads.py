"""The four workloads and the tier configuration they share.

Names are normative (later issues cite them).  Every workload runs two
connections, one per shard, against the loopback bench's gateway
configuration; they differ only in payload size, aggregation algorithm,
durability and traffic shape.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "BATCH_SIZE",
    "CONNECTIONS",
    "LADDER",
    "NUM_LABELS",
    "STALENESS_MU",
    "STALENESS_SIGMA",
    "WINDOW",
    "WORKLOADS",
    "Workload",
    "quick",
]

#: One connection per shard (and ``nproc`` is 2 on the sizing machine):
#: per-shard arrival order is then the connection's order, which makes a
#: run deterministic up to float rounding.
CONNECTIONS = 2
#: Gateway micro-batch size; upload ``i`` of a connection lands in that
#: shard's batch ``i // BATCH_SIZE``.
BATCH_SIZE = 8
#: Closed loop: uploads each connection keeps in flight (saturation).
WINDOW = 16
NUM_LABELS = 10
#: The paper's controlled staleness D1 = N(6, 2), clamped at 0.
STALENESS_MU, STALENESS_SIGMA = 6.0, 2.0
#: Open-loop rungs, uploads/s over both connections.  2x apart so that
#: capacity sits between two rungs, not on one.
LADDER = (100, 200, 400, 800)


@dataclass(frozen=True)
class Workload:
    """One traffic mix: what is sent, and through which tier."""

    name: str
    why: str
    dimension: int
    algorithm: str  # "fedavg" | "adasgd"
    #: Closed loop: uploads per connection per trial.
    uploads_per_conn: int
    durable: bool = False
    paced: bool = False
    #: Closed-loop warm-up trial size (discarded).
    warmup_per_conn: int = 160


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="served_d16k",
            why="D=16384 fedavg, closed loop at saturation: the codec does almost all the "
            "work, so single-decode ingest must show here and per-upload bookkeeping must not",
            dimension=16384,
            algorithm="fedavg",
            uploads_per_conn=600,
        ),
        Workload(
            name="served_d1k",
            why="D=1024 adasgd, closed loop at saturation: per-upload overheads (frame parse, "
            "I-Prof report, bookkeeping, asyncio, the fold) carry the run and the codec is a "
            "minority",
            dimension=1024,
            algorithm="adasgd",
            uploads_per_conn=4000,
            warmup_per_conn=800,
        ),
        Workload(
            name="durable_d16k",
            why="served_d16k plus WAL appends and a cadence checkpoint on the upload path, then "
            "crash and failover: the write side and the read side of durability in one row",
            dimension=16384,
            algorithm="fedavg",
            # 125 updates per shard: one cadence checkpoint at 100 and a
            # 25-record WAL tail to replay.
            uploads_per_conn=1000,
            durable=True,
        ),
        Workload(
            name="paced_d16k",
            why="served_d16k configuration, open loop at a fixed rate, timed from the instant "
            "each upload was due: latency under partial load and queueing, not saturation",
            dimension=16384,
            algorithm="fedavg",
            uploads_per_conn=0,  # follows from --seconds at the base rate
            paced=True,
        ),
    )
}


def quick(workload: Workload) -> Workload:
    """The smoke-test size: D=256, 64 uploads per connection."""
    return replace(workload, dimension=256, uploads_per_conn=64, warmup_per_conn=16)
