"""Tests for the end-to-end middleware simulation (simulation.fleet_sim)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adasgd import make_adasgd
from repro.data.federated_split import iid_split
from repro.nn.models import build_logistic
from repro.profiler.coldstart import collect_offline_dataset
from repro.profiler.iprof import IProf, SLO
from repro.server.server import FleetServer
from repro.server.stages import SparseUploadDecodeStage
from repro.simulation.fleet_sim import FleetSimConfig, FleetSimulation


def _build_simulation(
    tiny_dataset,
    rng,
    num_users: int = 8,
    config: FleetSimConfig | None = None,
    sparse_fraction: float | None = None,
) -> FleetSimulation:
    from repro.devices.catalog import fleet_specs
    from repro.devices.device import SimulatedDevice

    model = build_logistic(
        rng,
        in_features=int(np.prod(tiny_dataset.train_x.shape[1:])),
        num_classes=tiny_dataset.num_classes,
    )
    iprof = IProf()
    training = [
        SimulatedDevice(spec, np.random.default_rng(100 + i))
        for i, spec in enumerate(fleet_specs(4, np.random.default_rng(5)))
    ]
    xs, ys = collect_offline_dataset(training, slo_seconds=3.0, kind="time")
    iprof.pretrain_time(xs, ys)
    server = FleetServer(
        optimizer=make_adasgd(
            model.get_parameters(),
            num_labels=tiny_dataset.num_classes,
            learning_rate=0.05,
            initial_tau_thres=12.0,
        ),
        profiler=iprof,
        slo=SLO(time_seconds=3.0),
        result_stages=(
            (SparseUploadDecodeStage(fraction=sparse_fraction),)
            if sparse_fraction is not None
            else ()
        ),
    )
    partition = iid_split(tiny_dataset.train_y, num_users, rng)
    return FleetSimulation(
        server=server,
        model=model,
        dataset=tiny_dataset,
        partition=partition,
        rng=rng,
        config=config
        or FleetSimConfig(horizon_s=1800.0, mean_think_time_s=30.0),
    )


class TestFleetSimConfig:
    def test_defaults_valid(self):
        FleetSimConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"horizon_s": 0.0},
            {"mean_think_time_s": 0.0},
            {"abort_probability": 1.0},
            {"abort_probability": -0.1},
            {"battery_floor_percent": 100.0},
            {"eval_every_updates": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FleetSimConfig(**kwargs)


class TestFleetSimulation:
    def test_run_produces_updates_and_accuracy(self, tiny_dataset, rng):
        sim = _build_simulation(tiny_dataset, rng)
        result = sim.run()
        assert sim.server.clock > 0
        assert result.completed > 0
        assert result.eval_accuracy, "at least one evaluation must happen"
        assert 0.0 <= result.final_accuracy() <= 1.0

    def test_request_accounting_balances(self, tiny_dataset, rng):
        sim = _build_simulation(tiny_dataset, rng)
        result = sim.run()
        assert result.requests == result.rejections + result.completed + result.aborted
        per_user = [
            (state.requests, state.rejections, state.completed, state.aborted)
            for state in sim.participants
        ]
        assert sum(r for r, _, _, _ in per_user) == result.requests
        assert sum(c for _, _, c, _ in per_user) == result.completed

    def test_staleness_is_endogenous_and_nonnegative(self, tiny_dataset, rng):
        sim = _build_simulation(tiny_dataset, rng)
        result = sim.run()
        staleness = result.applied_staleness(sim.server)
        assert staleness.size == sim.server.clock  # K = 1: one per update
        assert (staleness >= 0).all()
        # With 8 racing users some overlap must occur.
        assert staleness.max() >= 1

    def test_energy_split_between_compute_and_radio(self, tiny_dataset, rng):
        sim = _build_simulation(tiny_dataset, rng)
        result = sim.run()
        assert sum(result.compute_energy_mwh) > 0
        assert sum(result.radio_energy_mwh) > 0
        assert result.total_energy_mwh() == pytest.approx(
            sum(result.compute_energy_mwh) + sum(result.radio_energy_mwh)
        )

    def test_churn_drops_results_but_charges_energy(self, tiny_dataset, rng):
        config = FleetSimConfig(
            horizon_s=1800.0, mean_think_time_s=20.0, abort_probability=0.6
        )
        sim = _build_simulation(tiny_dataset, rng, config=config)
        result = sim.run()
        assert result.aborted > 0
        assert result.completion_rate() < 1.0
        # Aborted tasks still spent energy: energy records cover all tasks.
        assert len(result.compute_energy_mwh) == result.completed + result.aborted

    def test_no_churn_means_full_completion(self, tiny_dataset, rng):
        config = FleetSimConfig(
            horizon_s=900.0, mean_think_time_s=30.0, abort_probability=0.0
        )
        sim = _build_simulation(tiny_dataset, rng, config=config)
        result = sim.run()
        assert result.aborted == 0
        assert result.completion_rate() == 1.0

    def test_battery_floor_suspends_devices(self, tiny_dataset, rng):
        config = FleetSimConfig(
            horizon_s=3600.0,
            mean_think_time_s=5.0,
            battery_floor_percent=99.95,  # almost immediately below floor
        )
        sim = _build_simulation(tiny_dataset, rng, config=config)
        result = sim.run()
        assert result.suspended_devices > 0
        suspended = [s for s in sim.participants if s.suspended]
        assert len(suspended) == result.suspended_devices

    def test_round_trip_decomposition(self, tiny_dataset, rng):
        sim = _build_simulation(tiny_dataset, rng)
        result = sim.run()
        for total, compute, network in zip(
            result.round_trip_seconds,
            result.compute_seconds,
            result.network_seconds,
        ):
            assert total == pytest.approx(compute + network)
            assert compute > 0 and network > 0

    def test_deterministic_given_seed(self, tiny_dataset):
        result_a = _build_simulation(tiny_dataset, np.random.default_rng(77)).run()
        result_b = _build_simulation(tiny_dataset, np.random.default_rng(77)).run()
        assert result_a.completed == result_b.completed
        assert result_a.eval_accuracy == result_b.eval_accuracy
        assert result_a.round_trip_seconds == result_b.round_trip_seconds

    def test_model_learns_over_the_horizon(self, tiny_dataset):
        rng = np.random.default_rng(3)
        config = FleetSimConfig(
            horizon_s=7200.0, mean_think_time_s=10.0, eval_every_updates=25
        )
        sim = _build_simulation(tiny_dataset, rng, num_users=6, config=config)
        result = sim.run()
        chance = 1.0 / tiny_dataset.num_classes
        assert result.final_accuracy() > chance + 0.15

    def test_virtual_time_monotone_in_evals(self, tiny_dataset, rng):
        sim = _build_simulation(tiny_dataset, rng)
        result = sim.run()
        assert result.eval_times_s == sorted(result.eval_times_s)
        assert result.eval_steps == sorted(result.eval_steps)


class TestActivityGating:
    def test_gated_requests_skip_out_of_session(self, tiny_dataset, rng):
        config = FleetSimConfig(
            horizon_s=3600.0, mean_think_time_s=30.0, gate_on_app_session=True,
        )
        sim = _build_simulation(tiny_dataset, rng, config=config)
        result = sim.run()
        # Users are out of session most of the day, so skips must dominate.
        assert result.skipped_inactive > 0
        per_user_skips = sum(s.skipped_inactive for s in sim.participants)
        assert per_user_skips == result.skipped_inactive
        # Skipped attempts are not requests: accounting still balances.
        assert result.requests == (
            result.rejections + result.completed + result.aborted
        )

    def test_gating_reduces_task_volume(self, tiny_dataset):
        base = _build_simulation(
            tiny_dataset, np.random.default_rng(5),
            config=FleetSimConfig(horizon_s=1800.0, mean_think_time_s=30.0),
        ).run()
        gated = _build_simulation(
            tiny_dataset, np.random.default_rng(5),
            config=FleetSimConfig(
                horizon_s=1800.0, mean_think_time_s=30.0,
                gate_on_app_session=True,
            ),
        ).run()
        assert gated.requests < base.requests

    def test_ungated_simulation_has_no_activity_models(self, tiny_dataset, rng):
        sim = _build_simulation(tiny_dataset, rng)
        assert all(state.activity is None for state in sim.participants)
        assert sim.run().skipped_inactive == 0


class TestUploadSparsification:
    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            SparseUploadDecodeStage(fraction=0.0)
        with pytest.raises(ValueError):
            SparseUploadDecodeStage(fraction=1.5)

    def test_sparsified_uploads_cut_network_time(self, tiny_dataset):
        dense = _build_simulation(
            tiny_dataset, np.random.default_rng(21),
            config=FleetSimConfig(horizon_s=900.0, mean_think_time_s=30.0),
        ).run()
        sparse = _build_simulation(
            tiny_dataset, np.random.default_rng(21),
            config=FleetSimConfig(horizon_s=900.0, mean_think_time_s=30.0),
            sparse_fraction=0.05,
        ).run()
        assert np.median(sparse.network_seconds) < np.median(dense.network_seconds)

    def test_error_feedback_preserves_learning(self, tiny_dataset):
        config = FleetSimConfig(
            horizon_s=5400.0, mean_think_time_s=10.0, eval_every_updates=50,
        )
        sim = _build_simulation(
            tiny_dataset, np.random.default_rng(4), num_users=6, config=config,
            sparse_fraction=0.1,
        )
        result = sim.run()
        chance = 1.0 / tiny_dataset.num_classes
        assert result.final_accuracy() > chance + 0.15

    def test_compressor_state_is_per_worker(self, tiny_dataset, rng):
        config = FleetSimConfig(horizon_s=600.0, mean_think_time_s=30.0)
        sim = _build_simulation(
            tiny_dataset, rng, config=config, sparse_fraction=0.1
        )
        assert sim._compressors is not None
        assert len(sim._compressors) == len(sim.participants)
        sim.run()
        # Error feedback accumulated residual mass somewhere.
        assert any(np.abs(c.residual).sum() > 0 for c in sim._compressors)

    def test_aborted_upload_restores_residual(self, tiny_dataset):
        """An aborted task's shipped component returns to the residual.

        The compressor absorbs the dropped coordinates at compress time on
        the assumption the payload lands.  When the task aborts, the sim
        must call ``restore`` so the next upload compensates for the FULL
        gradient — observable as the residual holding the whole corrected
        gradient (not just the dropped coordinates) right after an abort.
        """
        from repro.server.sparsification import ErrorFeedbackCompressor

        config = FleetSimConfig(
            horizon_s=1200.0, mean_think_time_s=20.0, abort_probability=0.7,
        )
        sim = _build_simulation(
            tiny_dataset, np.random.default_rng(13), config=config,
            sparse_fraction=0.1,
        )

        restored: list[int] = []
        original_restore = ErrorFeedbackCompressor.restore

        def spying_restore(self, sparse):
            restored.append(sparse.values.size)
            return original_restore(self, sparse)

        ErrorFeedbackCompressor.restore = spying_restore
        try:
            result = sim.run()
        finally:
            ErrorFeedbackCompressor.restore = original_restore
        assert result.aborted > 0
        # Every abort put its undelivered payload back.
        assert len(restored) == result.aborted
