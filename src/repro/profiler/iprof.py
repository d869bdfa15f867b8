"""I-Prof: the paper's lightweight workload profiler (§2.2).

Given a device's feature vector x and an SLO, I-Prof predicts the slope
α̂ = xᵀθ of the linear cost law (computation time or energy vs mini-batch
size) and returns the largest admissible workload

    n̂ = max(1, SLO / α̂).

Two predictor stacks exist — one for computation time, one for energy — each
consisting of a shared cold-start OLS model (used for the first request of a
new device model, periodically re-fit) and a per-device-model online
Passive-Aggressive regressor bootstrapped from the cold-start weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.profiler.coldstart import ColdStartModel
from repro.profiler.passive_aggressive import PassiveAggressiveRegressor

__all__ = ["SLO", "ProfilerDecision", "SlopePredictor", "IProf"]

# Fallback slope when a model predicts a non-positive α (cannot invert the
# cost law); corresponds to a conservatively slow 50 ms/sample device.
_MIN_SLOPE = 1e-6


@dataclass(frozen=True)
class SLO:
    """Service-level objective for one learning task.

    Either bound may be None, meaning "unconstrained".  The paper's defaults:
    3 seconds of computation time, 0.075 % battery drop.
    """

    time_seconds: float | None = 3.0
    energy_percent: float | None = None

    def __post_init__(self) -> None:
        if self.time_seconds is not None and self.time_seconds <= 0:
            raise ValueError("time SLO must be positive")
        if self.energy_percent is not None and self.energy_percent <= 0:
            raise ValueError("energy SLO must be positive")
        if self.time_seconds is None and self.energy_percent is None:
            raise ValueError("an SLO must bound at least one dimension")


@dataclass(frozen=True)
class ProfilerDecision:
    """The profiler's answer to a learning-task request."""

    batch_size: int
    predicted_time_s: float | None
    predicted_energy_percent: float | None
    used_personalized: bool


class SlopePredictor:
    """One predictor stack: cold-start OLS + per-device-model PA models."""

    def __init__(
        self,
        feature_dim: int,
        epsilon: float = 0.1,
        refit_every: int = 50,
    ) -> None:
        self.cold_start = ColdStartModel(feature_dim, refit_every=refit_every)
        self.epsilon = epsilon
        self._personal: dict[str, PassiveAggressiveRegressor] = {}

    def pretrain(self, xs: np.ndarray, ys: np.ndarray) -> None:
        """Fit the cold-start model on the offline dataset."""
        self.cold_start.fit(xs, ys)

    def has_personal_model(self, model_name: str) -> bool:
        return model_name in self._personal

    def _floor(self) -> float:
        """Smallest plausible slope: a fraction of the fastest training
        device, so a wild regression output cannot explode the workload."""
        seen = self.cold_start.min_slope_seen
        if seen is None:
            return _MIN_SLOPE
        return max(_MIN_SLOPE, 0.2 * seen)

    def predict(self, model_name: str, x: np.ndarray) -> tuple[float, bool]:
        """Predicted slope and whether a personalized model answered."""
        personal = self._personal.get(model_name)
        if personal is not None:
            return max(self._floor(), personal.predict(x)), True
        return max(self._floor(), self.cold_start.predict(x)), False

    # hot-path
    def observe(self, model_name: str, x: np.ndarray, slope: float) -> None:
        """Fold one observed (features, slope) pair into both models.

        The first observation for a device model bootstraps its PA model
        from the current cold-start weights (§2.2).
        """
        if model_name not in self._personal:
            self._personal[model_name] = PassiveAggressiveRegressor(
                self.cold_start.theta, epsilon=self.epsilon
            )
        self._personal[model_name].update(x, slope)
        self.cold_start.append(x, slope)


class IProf:
    """The complete profiler: a time stack and an energy stack.

    Parameters
    ----------
    feature_dim:
        Length of the device feature vector (6 with bias in this repo).
    epsilon_time / epsilon_energy:
        PA sensitivity for each stack.  The paper quotes 0.1 (time) and
        6e-5 (energy) in its own slope units; our slopes are seconds (or
        battery %) per sample, so the equivalent insensitivity bands are
        ~2e-4 s/sample and ~5e-6 %/sample — roughly the measurement-noise
        floor of the simulated devices.
    personalize:
        Disable to ablate the per-device-model PA layer (cold-start only).
    """

    def __init__(
        self,
        feature_dim: int = 6,
        epsilon_time: float = 2e-4,
        epsilon_energy: float = 5e-6,
        refit_every: int = 50,
        personalize: bool = True,
    ) -> None:
        self.time_predictor = SlopePredictor(
            feature_dim, epsilon=epsilon_time, refit_every=refit_every
        )
        self.energy_predictor = SlopePredictor(
            feature_dim, epsilon=epsilon_energy, refit_every=refit_every
        )
        self.personalize = personalize
        self.requests_served = 0
        # Measurement stacks skipped by ``report`` for a non-finite slope or
        # feature vector.
        self.rejected_reports = 0

    # ------------------------------------------------------------------
    # Offline pre-training (cold-start bootstrap, §3.3)
    # ------------------------------------------------------------------
    def pretrain_time(self, xs: np.ndarray, ys: np.ndarray) -> None:
        self.time_predictor.pretrain(xs, ys)

    def pretrain_energy(self, xs: np.ndarray, ys: np.ndarray) -> None:
        self.energy_predictor.pretrain(xs, ys)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def recommend(
        self, model_name: str, features: np.ndarray, slo: SLO
    ) -> ProfilerDecision:
        """Largest mini-batch size meeting every bound of the SLO."""
        features = np.asarray(features, dtype=np.float64)
        candidates: list[float] = []
        personalized = False
        time_slope = energy_slope = None

        if slo.time_seconds is not None:
            time_slope, used = self._predict(self.time_predictor, model_name, features)
            personalized = personalized or used
            candidates.append(slo.time_seconds / time_slope)
        if slo.energy_percent is not None:
            energy_slope, used = self._predict(
                self.energy_predictor, model_name, features
            )
            personalized = personalized or used
            candidates.append(slo.energy_percent / energy_slope)

        batch = max(1, int(min(candidates)))
        self.requests_served += 1
        return ProfilerDecision(
            batch_size=batch,
            predicted_time_s=(time_slope * batch) if time_slope is not None else None,
            predicted_energy_percent=(
                energy_slope * batch if energy_slope is not None else None
            ),
            used_personalized=personalized,
        )

    def _predict(
        self, stack: SlopePredictor, model_name: str, x: np.ndarray
    ) -> tuple[float, bool]:
        if not self.personalize:
            return max(stack._floor(), stack.cold_start.predict(x)), False
        return stack.predict(model_name, x)

    # ------------------------------------------------------------------
    # Feedback path
    # ------------------------------------------------------------------
    # hot-path
    def report(
        self,
        model_name: str,
        features: np.ndarray,
        batch_size: int,
        computation_time_s: float | None = None,
        energy_percent: float | None = None,
    ) -> None:
        """Update the predictors with a completed task's measurements.

        A stack whose slope or feature vector is non-finite skips the
        update and counts it in ``rejected_reports``: the cold-start model
        keeps sums, not samples, so one NaN folded in would poison its θ
        (and every unseen device model's recommendation) for good.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        features = np.asarray(features, dtype=np.float64)
        finite_features = bool(np.isfinite(features).all())
        for stack, measured in (
            (self.time_predictor, computation_time_s),
            (self.energy_predictor, energy_percent),
        ):
            if measured is None:
                continue
            slope = measured / batch_size
            if not (finite_features and math.isfinite(slope)):
                self.rejected_reports += 1
            elif self.personalize:
                stack.observe(model_name, features, slope)
            else:
                stack.cold_start.append(features, slope)
