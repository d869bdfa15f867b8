"""Figure 11 — staleness awareness with differential privacy.

Workers perturb gradients with the Gaussian mechanism (clip + noise, Abadi
et al.); the privacy loss ε is computed with the moments accountant for
δ = 1/N², q = batch/N.  The paper shows AdaSGD keeps its advantage over
DynSGD under DP, and that stronger privacy (smaller ε) slows both down.
"""

from __future__ import annotations

import numpy as np

from conftest import fmt_row
from _workloads import mnist_workload, parallel_curves
from repro.core import moments_epsilon

D2 = (12, 4)
STEPS = 700
# A tight clip bound keeps the DP accounting meaningful: the noise scale is
# sigma * CLIP_NORM, so tight clipping buys much smaller epsilon at the same
# absolute noise (standard DP-SGD practice).
CLIP_NORM = 0.5
# Noise multipliers: 0 (no DP), moderate and strong noise.
NOISE_LEVELS = {"no-DP": 0.0, "weak-DP": 0.4, "strong-DP": 1.2}


def _epsilons():
    dataset, _ = mnist_workload()
    n = dataset.train_x.shape[0]
    q = 64.0 / n
    delta = 1.0 / n**2
    out = {}
    for name, sigma in NOISE_LEVELS.items():
        if sigma == 0.0:
            out[name] = float("inf")
        else:
            out[name] = moments_epsilon(q=q, sigma=sigma, steps=STEPS, delta=delta)
    return out


def _experiment():
    return parallel_curves({
        f"{kind}/{level}": dict(
            workload="mnist", kind=kind, mu_sigma=D2, num_steps=STEPS, seed=0,
            eval_every=175, noise_multiplier=sigma, clip_norm=CLIP_NORM,
        )
        for level, sigma in NOISE_LEVELS.items()
        for kind in ("adasgd", "dynsgd")
    })


def test_fig11_differential_privacy(benchmark, report):
    curves = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    epsilons = _epsilons()
    lines = ["", "Figure 11 — staleness awareness under differential privacy (D2)"]
    for name, eps in epsilons.items():
        sigma = NOISE_LEVELS[name]
        lines.append(f"  {name}: sigma={sigma}  epsilon={eps:.2f}")
    for name, curve in curves.items():
        lines.append(fmt_row(f"  {name}", curve.accuracy, precision=2))
    report(*lines)

    # Privacy ordering: smaller epsilon (more noise) slows convergence.
    for kind in ("adasgd", "dynsgd"):
        no_dp = curves[f"{kind}/no-DP"].accuracy[-1]
        weak = curves[f"{kind}/weak-DP"].accuracy[-1]
        strong = curves[f"{kind}/strong-DP"].accuracy[-1]
        assert no_dp >= weak - 0.05
        assert weak > strong - 0.05

    # AdaSGD's advantage survives DP (final accuracy at least DynSGD's).
    for level in NOISE_LEVELS:
        ada = np.asarray(curves[f"adasgd/{level}"].accuracy)
        dyn = np.asarray(curves[f"dynsgd/{level}"].accuracy)
        assert ada.mean() >= dyn.mean() - 0.05, level

    # Accountant sanity: stronger noise gives smaller epsilon.
    assert epsilons["strong-DP"] < epsilons["weak-DP"]
