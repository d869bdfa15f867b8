"""Extension bench — ablation: is AdaSGD's gain just "decay faster"?

DESIGN.md §6 calls out exponential-vs-inverse dampening as AdaSGD's key
design choice (Figs. 5/8).  A natural misreading of the paper is that the
exponential wins simply because it decays *faster* than DynSGD's inverse.
The polynomial family Λ(τ) = (τ+1)^(−p) tests that reading: p = 1 is DynSGD
and larger p decays uniformly faster.

The sweep refutes the misreading.  Uniformly faster decay is monotonically
*worse* — at D2's mean staleness (τ = 12), p = 2 already scales gradients by
13^−2 ≈ 0.006 and the effective learning rate collapses.  AdaSGD's
exponential instead *matches* the inverse curve at τ_thres/2 (that is how β
is calibrated, Fig. 5) while giving fresh gradients more weight and the
stale tail less: the shape, not the average decay speed, drives the gain.
"""

from __future__ import annotations

import numpy as np

from conftest import fmt_row
from _workloads import (
    convergence_curve,
    fresh_mnist_model,
    mnist_workload,
    parallel_runs,
)
from repro.analysis import accuracy_auc
from repro.core import PolynomialDampening, StalenessAwareServer
from repro.simulation import GaussianStaleness, run_staleness_experiment

POWERS = (1.0, 2.0, 4.0)
STEPS = 1200
D2 = (12.0, 4.0)


def _run_power(power: float, seed: int = 0):
    dataset, partition = mnist_workload()
    model = fresh_mnist_model()
    server = StalenessAwareServer(
        model.get_parameters(),
        dampening=PolynomialDampening(power=power),
        learning_rate=0.1,
    )
    staleness = GaussianStaleness(*D2, np.random.default_rng(1000 + seed))
    return run_staleness_experiment(
        server, model, dataset, partition, staleness, num_steps=STEPS,
        rng=np.random.default_rng(2000 + seed), batch_size=64,
        eval_every=100, eval_size=250,
    )


def _run_arm(power: float | None):
    """One arm of the sweep; ``None`` is AdaSGD (adaptive exponential),
    the reference arm on the same noise."""
    if power is None:
        return convergence_curve("mnist", "adasgd", D2, STEPS, seed=0)
    return _run_power(power)


def _sweep():
    mnist_workload()  # build once, before the fork shares it
    arms = {power: dict(power=power) for power in POWERS}
    arms["adasgd"] = dict(power=None)
    return parallel_runs(_run_arm, arms)


def test_ext_dampening_family(benchmark, report):
    curves = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    aucs = {
        key: accuracy_auc(np.asarray(c.steps, dtype=float), np.asarray(c.accuracy))
        for key, c in curves.items()
    }

    lines = ["", "Extension — polynomial dampening sweep (tau+1)^-p under D2"]
    for key, curve in curves.items():
        label = f"p={key}" if isinstance(key, float) else key
        lines.append(fmt_row(f"  {label:<10} (AUC {aucs[key]:.3f})",
                             curve.accuracy, precision=2))
    lines.append(
        "  => uniformly faster decay only shrinks the effective lr; "
        "AdaSGD wins on curve *shape*, not decay speed"
    )
    report(*lines)

    # Decaying uniformly faster than the inverse is monotonically worse:
    # the effective learning rate at the staleness mean collapses as p grows.
    assert aucs[1.0] > aucs[2.0] >= aucs[4.0] - 0.02
    # Yet AdaSGD (whose exponential is calibrated to MATCH the inverse at
    # tau_thres/2 and only re-shapes the fresh/tail ends) beats them all —
    # including DynSGD itself.
    assert aucs["adasgd"] > aucs[1.0]
