"""Figure 9 — impact of long-tail staleness on learning.

Non-IID MNIST-like data with D1 staleness, except that every gradient
carrying class 0 is forced to staleness 4·τ_thres = 48 (the "label lives on
stragglers" scenario).  The paper shows (a) AdaSGD's similarity boosting
recovers class-0 accuracy much faster than DynSGD, and (b) the CDF of the
applied scaling factors spreads differently for the two algorithms.

Following the paper's guidance for long-tail staleness, s% is set so that
τ_thres sits at the beginning of the tail (80th percentile here; class-0
tasks are ~20 % of the traffic), and the learning rate is gentler than the
Fig. 8 bench so boosted τ=48 gradients are absorbable.
"""

from __future__ import annotations

import numpy as np

from conftest import fmt_row
from _workloads import fresh_mnist_model, mnist_workload, parallel_runs
from repro.core import make_adasgd, make_dynsgd
from repro.simulation import GaussianStaleness, LongTail
from repro.simulation.runner import run_staleness_experiment

STEPS = 2000
STRAGGLER_TAU = 48
LEARNING_RATE = 0.03


def _make(kind: str, params: np.ndarray):
    if kind == "adasgd":
        return make_adasgd(
            params.copy(), 10, learning_rate=LEARNING_RATE,
            initial_tau_thres=12.0, staleness_percentile=80.0,
            similarity_bootstrap_samples=256,
        )
    if kind == "adasgd-nosim":
        return make_adasgd(
            params.copy(), 10, learning_rate=LEARNING_RATE,
            initial_tau_thres=12.0, staleness_percentile=80.0,
            boost_similarity=False,
        )
    if kind == "dynsgd":
        return make_dynsgd(params.copy(), learning_rate=LEARNING_RATE)
    raise ValueError(kind)


def _run(kind: str, seed: int = 0):
    dataset, partition = mnist_workload()
    model = fresh_mnist_model()
    server = _make(kind, model.get_parameters())
    base = GaussianStaleness(6.0, 2.0, np.random.default_rng(500 + seed))
    staleness = LongTail(
        base,
        predicate=lambda ctx: 0 in set(int(label) for label in ctx.labels),
        straggler_tau=STRAGGLER_TAU,
    )
    curve = run_staleness_experiment(
        server, model, dataset, partition, staleness, num_steps=STEPS,
        rng=np.random.default_rng(600 + seed), batch_size=64,
        eval_every=STEPS // 6, eval_size=300, track_class=0, history_limit=64,
    )
    # The curve and the weights: a server does not pickle.
    return curve, server.applied_weights()


def _experiment():
    mnist_workload()  # build once, before the fork shares it
    kinds = ("adasgd", "adasgd-nosim", "dynsgd")
    return parallel_runs(_run, {kind: dict(kind=kind) for kind in kinds})


def test_fig09_similarity_boosting(benchmark, report):
    results = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    lines = ["", "Figure 9 — long-tail staleness (class 0 only on stragglers, tau=48)"]
    for kind, (curve, _) in results.items():
        class0 = [float(v[0]) for v in curve.per_class]
        lines.append(fmt_row(f"  {kind} class-0 acc", class0, precision=2))
        lines.append(fmt_row(f"  {kind} overall acc", curve.accuracy, precision=2))
    for kind, (_, weights) in results.items():
        lines.append(
            f"  {kind}: applied-weight CDF  p10={np.percentile(weights,10):.3f} "
            f"p50={np.percentile(weights,50):.3f} p90={np.percentile(weights,90):.3f}"
        )
    report(*lines)

    ada_class0 = float(results["adasgd"][0].per_class[-1][0])
    nosim_class0 = float(results["adasgd-nosim"][0].per_class[-1][0])
    dyn_class0 = float(results["dynsgd"][0].per_class[-1][0])
    # Similarity boosting incorporates the straggler class; without it the
    # exponential dampening nullifies tau=48 gradients entirely.
    assert ada_class0 > 0.3
    assert ada_class0 > nosim_class0 + 0.25
    # AdaSGD learns class 0 much faster than DynSGD (paper's Fig. 9a).
    assert ada_class0 > dyn_class0 + 0.25
    # Overall accuracy must not be sacrificed for the straggler class.
    assert results["adasgd"][0].accuracy[-1] >= results["dynsgd"][0].accuracy[-1] - 0.03

    # Weight CDF shape (Fig. 9b): DynSGD's weights concentrate near
    # 1/(mu+1); AdaSGD's spread out, including fully-boosted stragglers.
    ada_weights = results["adasgd"][1]
    dyn_weights = results["dynsgd"][1]
    ada_spread = np.percentile(ada_weights, 90) - np.percentile(ada_weights, 10)
    dyn_spread = np.percentile(dyn_weights, 90) - np.percentile(dyn_weights, 10)
    assert ada_spread > dyn_spread
