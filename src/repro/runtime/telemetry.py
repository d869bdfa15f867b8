"""The assumed service-time model of a shard lane.

:class:`AggregationCostModel` is the affine cost
``per_flush_s + per_result_s * B`` that the runtime charges to a lane's
virtual clock for every admitted micro-batch.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AggregationCostModel"]


@dataclass(frozen=True)
class AggregationCostModel:
    """Virtual service time of one batched shard update.

    Models the fixed cost of an aggregation pass (lock, weight computation,
    optimizer step, bookkeeping) plus a small per-gradient cost.  The fixed
    part is what micro-batching amortizes; the per-shard serial lanes are
    what sharding parallelizes.
    """

    per_flush_s: float = 0.05
    per_result_s: float = 0.002

    def service_time(self, batch_size: int) -> float:
        return self.per_flush_s + self.per_result_s * batch_size
