"""Tests for I-Prof, the cold-start model, PA regression and MAUI."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.devices import SimulatedDevice, get_spec
from repro.devices.catalog import CATALOG
from repro.profiler import (
    SLO,
    ColdStartModel,
    IProf,
    MauiProfiler,
    PassiveAggressiveRegressor,
    collect_offline_dataset,
    epsilon_insensitive_loss,
)


class TestPassiveAggressive:
    def test_no_update_within_epsilon(self):
        pa = PassiveAggressiveRegressor(np.array([1.0, 0.0]), epsilon=0.5)
        theta_before = pa.theta.copy()
        loss = pa.update(np.array([1.0, 1.0]), alpha=1.3)   # residual 0.3 < eps
        assert loss == 0.0
        assert np.array_equal(pa.theta, theta_before)

    def test_update_lands_within_epsilon(self):
        """One PA step corrects the prediction to exactly the ε boundary."""
        pa = PassiveAggressiveRegressor(np.zeros(3), epsilon=0.1)
        x = np.array([1.0, 2.0, -1.0])
        pa.update(x, alpha=3.0)
        assert abs(pa.predict(x) - 3.0) <= 0.1 + 1e-9

    def test_loss_definition(self):
        theta = np.array([2.0])
        assert epsilon_insensitive_loss(theta, np.array([1.0]), 2.05, 0.1) == 0.0
        assert epsilon_insensitive_loss(theta, np.array([1.0]), 3.0, 0.1) == pytest.approx(0.9)

    def test_shape_mismatch(self):
        pa = PassiveAggressiveRegressor(np.zeros(2))
        with pytest.raises(ValueError):
            pa.predict(np.zeros(3))

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            PassiveAggressiveRegressor(np.zeros(2), epsilon=-1.0)

    def test_zero_feature_vector_no_crash(self):
        pa = PassiveAggressiveRegressor(np.zeros(2), epsilon=0.0)
        loss = pa.update(np.zeros(2), alpha=1.0)
        assert loss == 1.0   # cannot correct, but must not divide by zero

    @given(
        arrays(np.float64, 4, elements=st.floats(-5, 5)),
        st.floats(-10, 10),
    )
    @settings(max_examples=80)
    def test_post_update_residual_property(self, x, alpha):
        pa = PassiveAggressiveRegressor(np.zeros(4), epsilon=0.05)
        pa.update(x, alpha)
        if np.linalg.norm(x) > 1e-6:
            assert abs(pa.predict(x) - alpha) <= 0.05 + 1e-6

    def test_converges_on_stationary_target(self):
        rng = np.random.default_rng(0)
        true_theta = np.array([0.5, -1.0, 2.0])
        pa = PassiveAggressiveRegressor(np.zeros(3), epsilon=0.01)
        for _ in range(200):
            x = rng.normal(size=3)
            pa.update(x, float(x @ true_theta))
        x_test = rng.normal(size=3)
        assert abs(pa.predict(x_test) - float(x_test @ true_theta)) < 0.2


class TestColdStart:
    def test_fit_recovers_linear_model(self):
        rng = np.random.default_rng(1)
        theta = np.array([1.0, -2.0, 0.5])
        xs = rng.normal(size=(50, 3))
        ys = xs @ theta
        model = ColdStartModel(3)
        model.fit(xs, ys)
        # Ridge regularization biases theta slightly; predictions must still
        # track the generating model closely.
        assert np.allclose(model.theta, theta, atol=0.05)
        assert model.predict(np.array([1.0, 1.0, 1.0])) == pytest.approx(-0.5, abs=0.05)

    def test_min_slope_seen_tracked(self):
        model = ColdStartModel(2)
        model.fit(np.array([[1.0, 1.0], [2.0, 1.0]]), np.array([3.0, 5.0]))
        assert model.min_slope_seen == 3.0
        model.append(np.array([1.0, 0.0]), 0.5)
        assert model.min_slope_seen == 0.5

    def test_periodic_refit(self):
        rng = np.random.default_rng(2)
        model = ColdStartModel(2, refit_every=10)
        xs = rng.normal(size=(20, 2))
        model.fit(xs, xs @ np.array([1.0, 1.0]))
        # Append data from a different generating model.
        for _ in range(10):
            x = rng.normal(size=2)
            model.append(x, float(x @ np.array([3.0, 3.0])))
        # After refit the model has moved toward the new slope.
        assert model.theta.sum() > 2.0

    def test_validation(self):
        model = ColdStartModel(3)
        with pytest.raises(ValueError):
            model.fit(np.zeros((5, 2)), np.zeros(5))
        with pytest.raises(ValueError):
            model.predict(np.zeros(2))
        with pytest.raises(ValueError):
            model.append(np.zeros(2), 1.0)

    def test_collect_offline_dataset(self):
        devices = [
            SimulatedDevice(get_spec("Galaxy S6"), np.random.default_rng(3)),
            SimulatedDevice(get_spec("Nexus 5"), np.random.default_rng(4)),
        ]
        xs, ys = collect_offline_dataset(devices, slo_seconds=2.0, kind="time")
        assert xs.shape[1] == 6
        assert xs.shape[0] == ys.shape[0] > 4
        assert (ys > 0).all()

    def test_collect_energy_dataset(self):
        devices = [SimulatedDevice(get_spec("Pixel"), np.random.default_rng(5))]
        xs, ys = collect_offline_dataset(devices, slo_seconds=2.0, kind="energy")
        assert (ys > 0).all()
        with pytest.raises(ValueError):
            collect_offline_dataset(devices, 2.0, kind="watts")


def _catalog_sequence(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` (feature-vector, time-slope) pairs from random catalog devices:
    per-model memory, frequency and energy columns, jittered memory load and
    temperature, and a throttled, noisy ground-truth slope."""
    rng = np.random.default_rng(seed)
    specs = list(CATALOG.values())
    picks = rng.integers(0, len(specs), size=n)
    total = np.array([spec.total_memory_mb for spec in specs])[picks]
    freq = np.array([spec.sum_max_freq_ghz for spec in specs])[picks]
    energy = np.array([spec.energy_per_cpu_second for spec in specs])[picks]
    alpha = np.array([spec.alpha_time for spec in specs])[picks]
    load = rng.uniform(0.2, 0.85, size=n)
    temperature = rng.uniform(25.0, 45.0, size=n)
    xs = np.column_stack(
        [
            total * (1.0 - load) / 1024.0,
            total / 1024.0,
            temperature / 10.0,
            freq,
            energy * 1e3,
            np.ones(n),
        ]
    )
    throttle = 1.0 + 0.035 * np.maximum(temperature - 42.0, 0.0)
    ys = alpha * throttle * np.exp(rng.normal(0.0, 0.05, size=n))
    return xs, ys


def _ridge_solve(gram: np.ndarray, xty: np.ndarray, ridge: float = 1e-3) -> np.ndarray:
    """The ridge solve of the stacked-history cold-start model."""
    scale = np.trace(gram) / max(1, gram.shape[0])
    reg = ridge * max(scale, 1e-12) * np.eye(gram.shape[0])
    return np.linalg.solve(gram + reg, xty)


class _StackedOracle:
    """Reference cold-start model: keeps every sample and re-solves over the
    stacked history on the same refit schedule as :class:`ColdStartModel`."""

    def __init__(self, feature_dim: int, refit_every: int) -> None:
        self.feature_dim, self.refit_every = feature_dim, refit_every
        self.xs: list[np.ndarray] = []
        self.ys: list[float] = []
        self.since_fit = 0
        self.theta = np.zeros(feature_dim)

    def _solve(self) -> np.ndarray:
        xs, ys = np.stack(self.xs), np.array(self.ys)
        return _ridge_solve(xs.T @ xs, xs.T @ ys)

    def fit(self, xs: np.ndarray, ys: np.ndarray) -> None:
        self.xs, self.ys = list(xs), list(ys)
        self.theta, self.since_fit = self._solve(), 0

    def append(self, x: np.ndarray, y: float) -> None:
        self.xs.append(x)
        self.ys.append(y)
        self.since_fit += 1
        if self.since_fit >= self.refit_every and len(self.xs) > self.feature_dim:
            self.theta, self.since_fit = self._solve(), 0


class TestColdStartSufficientStatistics:
    """The cold-start model keeps XᵀX/Xᵀy sums instead of the history."""

    def test_theta_accuracy_over_a_long_history(self):
        n = 100_000
        xs, ys = _catalog_sequence(n, seed=7)
        model = ColdStartModel(6)
        for x, y in zip(xs, ys):
            model.append(x, y)
        assert model.num_samples == n
        exact = _ridge_solve(
            np.array([[math.fsum(xs[:, i] * xs[:, j]) for j in range(6)] for i in range(6)]),
            np.array([math.fsum(xs[:, i] * ys) for i in range(6)]),
        )

        def error(theta):
            return float(np.max(np.abs(theta - exact) / np.abs(exact)))

        # On this sequence the stacked solve reaches 1.6e-12 and the same
        # block fold without its compensation terms 1.6e-12; compensated,
        # θ is two digits better (2.1e-14).
        assert error(model.theta) <= 1e-13
        oracle = _StackedOracle(6, refit_every=50)
        oracle.fit(xs, ys)
        np.testing.assert_allclose(model.theta, oracle.theta, rtol=1e-9, atol=0)
        # A plain running sum (one outer product added per observation, in
        # order) drifts much further.
        gram, xty = np.zeros((6, 6)), np.zeros(6)
        for start in range(0, n, 10_000):
            chunk, targets = xs[start : start + 10_000], ys[start : start + 10_000]
            gram = np.add.accumulate(
                np.concatenate([gram[None], chunk[:, :, None] * chunk[:, None, :]])
            )[-1]
            xty = np.add.accumulate(
                np.concatenate([xty[None], chunk * targets[:, None]])
            )[-1]
        assert error(_ridge_solve(gram, xty)) > 1e-11

    @pytest.mark.parametrize("pretrained", [True, False])
    @pytest.mark.parametrize("refit_every", [1, 3, 50])
    def test_refits_fire_on_the_stacked_schedule(self, pretrained, refit_every):
        xs, ys = _catalog_sequence(430, seed=refit_every)
        model = ColdStartModel(6, refit_every=refit_every)
        oracle = _StackedOracle(6, refit_every=refit_every)
        if pretrained:
            model.fit(xs[:30], ys[:30])
            oracle.fit(xs[:30], ys[:30])
            # Seeded with the same products: θ after pre-training is exact.
            assert np.array_equal(model.theta, oracle.theta)
            xs, ys = xs[30:], ys[30:]
        changed, expected = [], []
        for index, (x, y) in enumerate(zip(xs, ys)):
            before, reference = model.theta, oracle.theta
            model.append(x, y)
            oracle.append(x, y)
            if not np.array_equal(model.theta, before):
                changed.append(index)
            if not np.array_equal(oracle.theta, reference):
                expected.append(index)
            np.testing.assert_allclose(model.theta, oracle.theta, rtol=1e-9, atol=0)
        assert changed == expected
        assert len(expected) >= (len(xs) - 6) // refit_every - 1

    def test_memory_stays_flat_as_history_grows(self, traced_peak):
        xs, ys = _catalog_sequence(100_000, seed=11)
        model = ColdStartModel(6)
        rows = list(zip(xs, ys.tolist()))
        with traced_peak() as trace:
            for x, y in rows[:10_000]:
                model.append(x, y)
            warm = trace.current()
            for x, y in rows[10_000:]:
                model.append(x, y)
            grown = trace.current()
        assert model.num_samples == 100_000
        assert grown - warm < 1024

    def test_fit_rejects_non_finite_and_malformed_targets(self):
        model = ColdStartModel(2)
        xs, ys = np.ones((4, 2)), np.ones(4)
        with pytest.raises(ValueError):
            model.fit(xs, np.ones((4, 1)))
        with pytest.raises(ValueError):
            model.fit(xs, np.array([1.0, np.nan, 1.0, 1.0]))
        bad = xs.copy()
        bad[2, 1] = np.inf
        with pytest.raises(ValueError):
            model.fit(bad, ys)
        assert not model.fitted and model.num_samples == 0


def _pretrained_iprof(seed=0, **kwargs):
    train = [
        SimulatedDevice(get_spec(name), np.random.default_rng(seed + i))
        for i, name in enumerate(
            ["Galaxy S6", "Nexus 5", "MotoG3", "Pixel", "HTC U11"]
        )
    ]
    xs, ys = collect_offline_dataset(train, slo_seconds=3.0, kind="time")
    iprof = IProf(**kwargs)
    iprof.pretrain_time(xs, ys)
    for d in train:
        d.reset()
    xs_e, ys_e = collect_offline_dataset(train, slo_seconds=3.0, kind="energy")
    iprof.pretrain_energy(xs_e, ys_e)
    return iprof


class TestIProf:
    def test_slo_validation(self):
        with pytest.raises(ValueError):
            SLO(time_seconds=-1.0)
        with pytest.raises(ValueError):
            SLO(time_seconds=None, energy_percent=None)

    def test_recommend_positive_batch(self):
        iprof = _pretrained_iprof()
        device = SimulatedDevice(get_spec("Galaxy S7"), np.random.default_rng(9))
        decision = iprof.recommend(
            "Galaxy S7", device.features().as_vector(), SLO(time_seconds=3.0)
        )
        assert decision.batch_size >= 1
        assert not decision.used_personalized

    def test_personalization_improves_with_feedback(self):
        """After a few request/report rounds the SLO error must shrink —
        the Fig. 12(c) adaptation effect."""
        iprof = _pretrained_iprof()
        device = SimulatedDevice(get_spec("Xperia E3"), np.random.default_rng(10))
        slo = SLO(time_seconds=3.0)
        errors = []
        for _ in range(8):
            features = device.features().as_vector()
            decision = iprof.recommend("Xperia E3", features, slo)
            m = device.execute(decision.batch_size)
            iprof.report(
                "Xperia E3", features, decision.batch_size,
                computation_time_s=m.computation_time_s,
            )
            errors.append(abs(m.computation_time_s - 3.0))
            device.idle(60.0)
        assert np.mean(errors[4:]) < max(errors[0], 0.5)
        assert iprof.recommend("Xperia E3", features, slo).used_personalized

    def test_dual_slo_takes_minimum(self):
        iprof = _pretrained_iprof()
        device = SimulatedDevice(get_spec("Galaxy S7"), np.random.default_rng(11))
        features = device.features().as_vector()
        both = iprof.recommend(
            "Galaxy S7", features, SLO(time_seconds=3.0, energy_percent=0.075)
        )
        time_only = iprof.recommend("Galaxy S7", features, SLO(time_seconds=3.0))
        energy_only = iprof.recommend(
            "Galaxy S7", features, SLO(time_seconds=None, energy_percent=0.075)
        )
        assert both.batch_size == min(time_only.batch_size, energy_only.batch_size)

    def test_personalize_false_uses_cold_start_only(self):
        iprof = _pretrained_iprof(personalize=False)
        device = SimulatedDevice(get_spec("Galaxy S7"), np.random.default_rng(12))
        features = device.features().as_vector()
        iprof.report("Galaxy S7", features, 100, computation_time_s=1.0)
        decision = iprof.recommend("Galaxy S7", features, SLO(time_seconds=3.0))
        assert not decision.used_personalized

    def test_report_validation(self):
        iprof = _pretrained_iprof()
        with pytest.raises(ValueError):
            iprof.report("X", np.zeros(6), 0, computation_time_s=1.0)

    def test_non_finite_measurement_does_not_poison_the_cold_start(self):
        """One NaN report used to turn θ into NaN at the next refit and push
        every unseen device model to the 0.2×min-slope floor."""

        def unseen_batch(bad_report: bool) -> tuple[IProf, int]:
            iprof = _pretrained_iprof(refit_every=5)
            if bad_report:
                iprof.report(
                    "Bad", np.array([1.5, 2.0, 3.0, 2.0, 1.0, 1.0]), 10,
                    computation_time_s=float("nan"),
                )
            device = SimulatedDevice(get_spec("Xperia E3"), np.random.default_rng(10))
            for _ in range(5):
                features = device.features().as_vector()
                m = device.execute(100)
                iprof.report(
                    "Xperia E3", features, 100, computation_time_s=m.computation_time_s
                )
            unseen = SimulatedDevice(get_spec("Galaxy S7"), np.random.default_rng(9))
            decision = iprof.recommend(
                "Galaxy S7", unseen.features().as_vector(), SLO(time_seconds=3.0)
            )
            return iprof, decision.batch_size

        clean, expected = unseen_batch(bad_report=False)
        poisoned, batch = unseen_batch(bad_report=True)
        cold_start = poisoned.time_predictor.cold_start
        assert np.isfinite(cold_start.theta).all()
        assert cold_start.num_samples == clean.time_predictor.cold_start.num_samples
        assert poisoned.rejected_reports == 1 and clean.rejected_reports == 0
        assert not poisoned.time_predictor.has_personal_model("Bad")
        assert batch == expected

    def test_non_finite_features_reject_every_measured_stack(self):
        iprof = _pretrained_iprof(personalize=False)
        features = np.array([1.0, 2.0, np.inf, 2.0, 1.0, 1.0])
        iprof.report("X", features, 10, computation_time_s=1.0, energy_percent=0.01)
        assert iprof.rejected_reports == 2
        assert np.isfinite(iprof.energy_predictor.cold_start.theta).all()


class TestMaui:
    def test_global_slope_fit(self):
        maui = MauiProfiler()
        maui.pretrain_time(np.array([10, 20, 30]), np.array([1.0, 2.0, 3.0]))
        decision = maui.recommend("any", np.zeros(6), SLO(time_seconds=3.0))
        assert decision.batch_size == pytest.approx(30, abs=1)

    def test_ignores_device_features(self):
        maui = MauiProfiler()
        maui.pretrain_time(np.array([10]), np.array([1.0]))
        a = maui.recommend("fast", np.ones(6) * 100.0, SLO(time_seconds=3.0))
        b = maui.recommend("slow", np.zeros(6), SLO(time_seconds=3.0))
        assert a.batch_size == b.batch_size

    def test_online_updates_shift_slope(self):
        maui = MauiProfiler()
        maui.pretrain_time(np.array([10]), np.array([1.0]))
        before = maui.recommend("d", np.zeros(6), SLO(time_seconds=3.0)).batch_size
        for _ in range(50):
            maui.report("d", np.zeros(6), 10, computation_time_s=4.0)
        after = maui.recommend("d", np.zeros(6), SLO(time_seconds=3.0)).batch_size
        assert after < before

    def test_energy_path(self):
        maui = MauiProfiler()
        maui.pretrain_energy(np.array([100]), np.array([0.05]))
        decision = maui.recommend(
            "d", np.zeros(6), SLO(time_seconds=None, energy_percent=0.075)
        )
        assert decision.batch_size == pytest.approx(150, abs=2)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            MauiProfiler().report("d", np.zeros(6), 0, computation_time_s=1.0)
