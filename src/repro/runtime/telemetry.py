"""Service-time models of a shard lane: the assumed cost and its fit.

:class:`AggregationCostModel` is the *assumed* affine cost
``per_flush_s + per_result_s * B`` that the runtime charges to a lane's
virtual clock for every admitted micro-batch.  The threads executor
observes the real thing — one ``(batch_size, service_seconds)`` sample
per executed micro-batch — and :class:`ServiceTimeEstimator` closes the
loop: a least-squares fit of the same affine form, exportable as a fresh
cost model so capacity planning (and the virtual-time benchmarks) can use
measured coefficients instead of guessed ones.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AggregationCostModel", "ServiceTimeEstimator"]


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


class ServiceTimeEstimator:
    """Online least-squares fit of ``service ≈ per_flush + per_result·B``.

    Keeps only running sums (O(1) memory for week-long runs).  The fit is
    the ordinary least squares solution over every observation; with fewer
    than two distinct batch sizes the slope is unidentifiable and only the
    mean service time is reported (as ``per_flush_s`` with zero slope).
    """

    def __init__(self) -> None:
        self.count = 0
        self._sum_b = 0.0
        self._sum_bb = 0.0
        self._sum_s = 0.0
        self._sum_bs = 0.0
        self._min_b: float | None = None
        self._max_b: float | None = None

    def observe(self, batch_size: int, service_s: float) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if service_s < 0:
            raise ValueError("service_s must be non-negative")
        b = float(batch_size)
        self.count += 1
        self._sum_b += b
        self._sum_bb += b * b
        self._sum_s += service_s
        self._sum_bs += b * service_s
        self._min_b = b if self._min_b is None else min(self._min_b, b)
        self._max_b = b if self._max_b is None else max(self._max_b, b)

    def mean_service_s(self) -> float:
        """Mean observed per-batch service time (0.0 with no data)."""
        if self.count == 0:
            return 0.0
        return self._sum_s / self.count

    def coefficients(self) -> tuple[float, float] | None:
        """``(per_flush_s, per_result_s)`` of the fit; None with no data.

        Coefficients are clamped to be non-negative: a negative intercept
        or slope (possible under noise) would make a nonsensical cost
        model, and the clamped fit stays the best non-negative affine
        approximation for the observed range.
        """
        if self.count == 0:
            return None
        mean_b = self._sum_b / self.count
        mean_s = self._sum_s / self.count
        variance = self._sum_bb / self.count - mean_b * mean_b
        if self._min_b == self._max_b or variance <= 0:
            return max(0.0, mean_s), 0.0
        covariance = self._sum_bs / self.count - mean_b * mean_s
        slope = covariance / variance
        intercept = mean_s - slope * mean_b
        return max(0.0, intercept), max(0.0, slope)

    def fitted_cost_model(self) -> AggregationCostModel | None:
        """The fit as an :class:`AggregationCostModel`; None with no data."""
        fit = self.coefficients()
        if fit is None:
            return None
        per_flush_s, per_result_s = fit
        return AggregationCostModel(
            per_flush_s=per_flush_s, per_result_s=per_result_s
        )
