"""Extension bench — the vectorized aggregation hot path vs the scalar loops.

``StalenessAwareServer._apply_buffer`` runs once per applied gradient
across every shard, gateway micro-batch and figure benchmark, so it is the
hottest path in the system.  This bench measures sustained ``submit_many``
throughput (applied updates per wall second) at batch sizes 1–64 on a
10k-dimensional model for three implementations:

* **legacy loop** — a faithful reproduction of the pre-fix per-update
  Python loop the vectorized path replaced: deque-backed staleness window,
  the adaptive dampening strategy re-derived (an ``np.percentile`` over
  the window) *twice per update*, ``observe()`` mutating the tracker
  mid-batch (the order-dependence bug), and two full
  ``weight * gradient`` multiplies per update.  The printed "speedup vs
  legacy" row is measured against it.
* **scalar oracle** — the fixed per-update reference path
  (``vectorized=False``): strategy snapshotted once per window, observes
  after weighting.  Kept in-tree as the correctness oracle.
* **vectorized** — the default batched path: one ``(B, D)`` stack,
  staleness/similarity/weights as numpy arrays, one ``weights @ stacked``
  fold.

Asserted bar: on the measured runs themselves, the vectorized and oracle
backends fold numerically equivalent models.  (The legacy loop is
excluded from the equivalence check: its mid-batch drift is precisely the
bug.)  The rates and speedups are printed, not asserted: a wall-clock
ratio on a shared runner fails for reasons outside the code.

Set ``BENCH_FULL=1`` for the paper-size configuration.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from repro.core.adasgd import AppliedUpdate, GradientUpdate, make_adasgd
from repro.core.dampening import ExponentialDampening, InverseDampening

from conftest import BENCH_FULL, fmt_row

DIM = 10_000 if BENCH_FULL else 2_500
NUM_LABELS = 10
BATCH_SIZES = (1, 2, 4, 8, 16, 32, 64) if BENCH_FULL else (1, 8, 32)
# Per configuration: enough batches to stabilize timing.
TARGET_UPDATES = 2048 if BENCH_FULL else 512


# ----------------------------------------------------------------------
# Legacy baseline: the pre-fix hot path, reproduced verbatim
# ----------------------------------------------------------------------
class _LegacyTracker:
    """The deque-backed ``StalenessTracker`` as it stood before this PR.

    ``tau_thres()`` round-trips the whole window through ``np.fromiter``
    on every call — and the legacy loop calls it twice per update.
    """

    def __init__(
        self,
        percentile: float = 99.7,
        window: int = 10_000,
        min_samples: int = 30,
        initial_tau_thres: float | None = None,
    ) -> None:
        self.percentile = percentile
        self.min_samples = min_samples
        self._values: deque[float] = deque(maxlen=window)
        self._initial_tau_thres = initial_tau_thres

    def observe(self, staleness: float) -> None:
        self._values.append(float(staleness))

    @property
    def bootstrapped(self) -> bool:
        if self._initial_tau_thres is not None:
            return True
        return len(self._values) >= self.min_samples

    def tau_thres(self) -> float:
        if self._initial_tau_thres is not None and len(self._values) < self.min_samples:
            return self._initial_tau_thres
        if not self._values:
            return 0.0
        window = np.fromiter(self._values, dtype=float)
        return float(np.percentile(window, self.percentile))


def _legacy_strategy(tracker: _LegacyTracker):
    """Pre-fix ``dampening_strategy()`` for the adaptive (AdaSGD) preset."""
    if not tracker.bootstrapped:
        return InverseDampening()
    return ExponentialDampening(tracker.tau_thres())


def _legacy_submit_many(server, tracker, updates) -> bool:
    """Pre-fix ``submit_many`` + ``_apply_buffer``: the per-update loop.

    The strategy is re-derived twice per update, the tracker is observed
    mid-loop (so later updates in the batch see a different Λ — the drift
    bug), and ``weight * update.gradient`` is materialized twice.
    """
    for update in updates:
        if update.gradient.shape != server._params.shape:
            raise ValueError("gradient shape does not match model parameters")
    accepted = [u for u in updates if np.isfinite(u.gradient).all()]
    if not accepted:
        return False
    aggregate = np.zeros_like(server._params)
    weighted_gradients = []
    records = []
    for update in accepted:
        staleness = float(server._clock - update.pull_step)
        similarity = server.similarity_of(update)
        weight = min(1.0, _legacy_strategy(tracker)(staleness * similarity))
        dampening = _legacy_strategy(tracker)(staleness)
        tracker.observe(staleness)
        if weight == 0.0 and server.drop_zero_weight:
            server.rejected_count += 1
            continue
        aggregate += weight * update.gradient
        weighted_gradients.append(weight * update.gradient)
        records.append(
            AppliedUpdate(
                step=server._clock,
                staleness=staleness,
                similarity=similarity,
                dampening=dampening,
                weight=weight,
                worker_id=update.worker_id,
            )
        )
        if server.similarity_tracker is not None and update.label_counts is not None:
            server.similarity_tracker.update(update.label_counts, weight=weight)
    if not records:
        return False
    server._params = server._optimizer.step(server._params, aggregate)
    server._clock += 1
    for record in records:
        server.applied.append(record)
    return True


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _build(vectorized: bool):
    server = make_adasgd(
        np.zeros(DIM),
        num_labels=NUM_LABELS,
        learning_rate=0.05,
        initial_tau_thres=8.0,
    )
    server.vectorized = vectorized
    return server


def _batches(batch_size: int, num_batches: int):
    """A fixed update stream shared by every backend (same seed, same data).

    Each batch arrives as the serving tier delivers it: the gradients are
    rows of ONE contiguous ``(B, D)`` matrix (``MicroBatcher.flush``
    decodes a lane straight into this form).  All backends receive the
    identical updates; the vectorized one recognizes the shared base via
    ``stack_gradients`` and skips the re-copy, which is the point.
    """
    rng = np.random.default_rng(42)
    stream = []
    clock = 0
    for _ in range(num_batches):
        matrix = rng.normal(size=(batch_size, DIM))
        stream.append(
            [
                GradientUpdate(
                    gradient=matrix[row],
                    pull_step=max(0, clock - int(rng.integers(0, 4))),
                    label_counts=rng.integers(0, 16, size=NUM_LABELS).astype(float),
                    worker_id=int(rng.integers(0, 256)),
                )
                for row in range(batch_size)
            ]
        )
        clock += 1  # each batch is one aggregation window / model update
    return stream


def _drive(backend: str, batch_size: int) -> tuple[float, np.ndarray]:
    """(applied updates per wall second, final parameters)."""
    num_batches = max(8, TARGET_UPDATES // batch_size)
    stream = _batches(batch_size, num_batches)
    server = _build(vectorized=backend == "vectorized")
    if backend == "legacy":
        tracker = _LegacyTracker(initial_tau_thres=8.0)
        start = time.perf_counter()
        for batch in stream:
            _legacy_submit_many(server, tracker, batch)
        elapsed = time.perf_counter() - start
    else:
        start = time.perf_counter()
        for batch in stream:
            server.submit_many(batch)
        elapsed = time.perf_counter() - start
    return len(server.applied) / elapsed, server.current_parameters()


def test_vectorized_hotpath_speedup(report):
    legacy_rates, scalar_rates, vector_rates, speedups = [], [], [], []
    for batch_size in BATCH_SIZES:
        vector_rate, vector_params = _drive("vectorized", batch_size)
        scalar_rate, scalar_params = _drive("scalar", batch_size)
        legacy_rate, _ = _drive("legacy", batch_size)
        # The measured runs themselves must agree: same stream, same model.
        # (The legacy loop is deliberately absent — its mid-batch strategy
        # drift makes its weights order-dependent, which is the bug.)
        np.testing.assert_allclose(vector_params, scalar_params, rtol=1e-8, atol=1e-10)
        legacy_rates.append(legacy_rate)
        scalar_rates.append(scalar_rate)
        vector_rates.append(vector_rate)
        speedups.append(vector_rate / legacy_rate)

    report(
        f"hot path throughput, {DIM}-dim model (updates/s vs batch size "
        f"{list(BATCH_SIZES)})",
        fmt_row("  legacy per-update loop", legacy_rates, precision=0),
        fmt_row("  scalar oracle (fixed)", scalar_rates, precision=0),
        fmt_row("  vectorized", vector_rates, precision=0),
        fmt_row("  speedup vs legacy", speedups, precision=2),
        fmt_row(
            "  speedup vs oracle",
            [v / s for v, s in zip(vector_rates, scalar_rates)],
            precision=2,
        ),
    )
