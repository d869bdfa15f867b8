"""Shared, cached workloads for the convergence benchmarks (Figs. 3, 8-11, 15).

The paper's image-classification setup is scaled down (~10× fewer examples,
~2× smaller CNN, shorter horizon) so that every figure regenerates in
seconds on a laptop while preserving the phenomena under study: relative
convergence speed under staleness, divergence of staleness-unaware
averaging, similarity boosting, and controller pruning trade-offs.

A figure's independent training runs go through :func:`parallel_runs`
(two forked processes); each run owns its seeds, so the curves match a
serial loop's exactly.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

import numpy as np

from repro.core import make_adasgd, make_dynsgd, make_fedavg, make_ssgd
from repro.data import (
    iid_split,
    make_image_dataset,
    make_mnist_like,
    shard_non_iid_split,
)
from repro.nn import build_cifar100_cnn, build_emnist_cnn, build_mnist_cnn
from repro.analysis import interpolated_steps_to_target
from repro.simulation import GaussianStaleness, run_staleness_experiment

# Paper setup: batch 100, lr 5e-4, 60k examples, 4k steps.  Scaled setup:
BATCH_SIZE = 64
LEARNING_RATE = 0.1
NUM_USERS = 30


@lru_cache(maxsize=None)
def mnist_workload():
    dataset = make_mnist_like(train_per_class=100, test_per_class=30)
    partition = shard_non_iid_split(
        dataset.train_y, NUM_USERS, np.random.default_rng(0)
    )
    return dataset, partition


@lru_cache(maxsize=None)
def mnist_iid_workload():
    dataset = make_mnist_like(train_per_class=100, test_per_class=30)
    partition = iid_split(dataset.train_y, NUM_USERS, np.random.default_rng(0))
    return dataset, partition


@lru_cache(maxsize=None)
def emnist_workload():
    # E-MNIST geometry (28x28x1, 62 classes); gentler pixel noise than the
    # MNIST-like workload so the D2-dampened effective learning rate can
    # converge within a bench-sized horizon.
    dataset = make_image_dataset(
        num_classes=62, channels=1, side=28, train_per_class=30,
        test_per_class=8, seed=0, noise=0.12, max_shift=1, name="emnist-like",
    )
    partition = iid_split(dataset.train_y, NUM_USERS, np.random.default_rng(0))
    return dataset, partition


@lru_cache(maxsize=None)
def cifar_workload():
    # CIFAR-100 geometry (32x32x3, 100 classes), same easing rationale.
    dataset = make_image_dataset(
        num_classes=100, channels=3, side=32, train_per_class=12,
        test_per_class=4, seed=0, noise=0.15, max_shift=1, name="cifar100-like",
    )
    partition = iid_split(dataset.train_y, NUM_USERS, np.random.default_rng(0))
    return dataset, partition


def fresh_mnist_model():
    return build_mnist_cnn(np.random.default_rng(1), scale=0.5)


def fresh_emnist_model():
    return build_emnist_cnn(np.random.default_rng(1), scale=1.0)


def fresh_cifar_model():
    return build_cifar100_cnn(np.random.default_rng(1), scale=0.25)


def make_server(kind: str, params: np.ndarray, tau_thres: float | None,
                num_labels: int = 10, learning_rate: float = LEARNING_RATE):
    """Factory shared by the convergence benches."""
    if kind == "adasgd":
        return make_adasgd(
            params.copy(), num_labels=num_labels, learning_rate=learning_rate,
            initial_tau_thres=tau_thres,
        )
    if kind == "adasgd-nosim":
        return make_adasgd(
            params.copy(), num_labels=num_labels, learning_rate=learning_rate,
            initial_tau_thres=tau_thres, boost_similarity=False,
        )
    if kind == "dynsgd":
        return make_dynsgd(params.copy(), learning_rate=learning_rate)
    if kind == "fedavg":
        return make_fedavg(params.copy(), learning_rate=learning_rate)
    if kind == "ssgd":
        return make_ssgd(params.copy(), learning_rate=learning_rate)
    raise ValueError(f"unknown server kind {kind!r}")


def run_convergence(
    kind: str,
    dataset,
    partition,
    model,
    mu_sigma: tuple[float, float] | None,
    num_steps: int,
    seed: int,
    eval_every: int = 100,
    learning_rate: float = LEARNING_RATE,
    **runner_kwargs,
):
    """One training run; returns (steps, accuracy_curve, server)."""
    tau_thres = None
    staleness = None
    if mu_sigma is not None:
        mu, sigma = mu_sigma
        tau_thres = mu + 3.0 * sigma   # s = 99.7 %
        staleness = GaussianStaleness(mu, sigma, np.random.default_rng(1000 + seed))
    num_labels = dataset.num_classes
    server = make_server(
        kind, model.get_parameters(), tau_thres, num_labels,
        learning_rate=learning_rate,
    )
    curve = run_staleness_experiment(
        server, model, dataset, partition, staleness, num_steps=num_steps,
        rng=np.random.default_rng(2000 + seed), batch_size=BATCH_SIZE,
        eval_every=eval_every, eval_size=250, **runner_kwargs,
    )
    return curve, server


def convergence_curve(workload: str, kind: str, mu_sigma, num_steps: int,
                      seed: int, **kwargs):
    """:func:`run_convergence` on a named workload with a fresh model;
    returns the curve only (a server does not pickle), for
    :func:`parallel_runs`."""
    dataset, partition = _WORKLOADS[workload][0]()
    model = _WORKLOADS[workload][1]()
    return run_convergence(
        kind, dataset, partition, model, mu_sigma, num_steps, seed, **kwargs
    )[0]


_WORKLOADS = {
    "mnist": (mnist_workload, fresh_mnist_model),
    "emnist": (emnist_workload, fresh_emnist_model),
    "cifar": (cifar_workload, fresh_cifar_model),
}


def _call(fn_and_kwargs):
    fn, kwargs = fn_and_kwargs
    return fn(**kwargs)


def parallel_runs(fn, arms: dict, cost=None) -> dict:
    """``{name: fn(**job) for name, job in arms.items()}``, spread over two
    forked processes, the jobs of highest ``cost(job)`` submitted first.

    Every job is one training run with its own seeds, so the results
    are the ones a serial loop gives. ``fn`` must be a module-level
    function and its results must pickle. Falls back to the serial loop
    on one CPU, or when this process runs other threads: a fork copies
    only the calling thread, and a lock another thread held would stay
    locked in the child.
    """
    names = sorted(arms, key=lambda name: -cost(arms[name])) if cost else list(arms)
    jobs = [arms[name] for name in names]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if min(cpus, len(jobs)) < 2 or threading.active_count() > 1:
        results = [fn(**job) for job in jobs]
    else:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(2, mp_context=context) as pool:
            results = list(pool.map(_call, [(fn, job) for job in jobs]))
    by_name = dict(zip(names, results))
    return {name: by_name[name] for name in arms}


def parallel_curves(arms: dict) -> dict:
    """:func:`parallel_runs` of :func:`convergence_curve`, longest runs first."""
    for job in arms.values():  # build once, before the fork shares it
        _WORKLOADS[job["workload"]][0]()
    return parallel_runs(convergence_curve, arms, cost=lambda job: job["num_steps"])


def mean_steps_to(curves, target: float) -> float | None:
    """Average (interpolated) first step reaching a target accuracy.

    Interpolating between evaluation points avoids quantizing the answer to
    the eval grid, which matters when two algorithms cross the target within
    the same 100-step window.
    """
    hits = []
    for curve in curves:
        crossing = interpolated_steps_to_target(
            np.asarray(curve.steps), np.asarray(curve.accuracy), target
        )
        if crossing is None:
            return None
        hits.append(crossing)
    return float(np.mean(hits))
