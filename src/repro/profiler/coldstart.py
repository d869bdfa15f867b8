"""Cold-start slope model: ridge least squares over device features.

I-Prof's cold-start model is pre-trained offline on (feature-vector, slope)
pairs collected from a set of *training* devices that ramp the mini-batch
size until the computation time reaches twice the SLO (§2.2 and §3.3).  It
serves the first request of every previously unseen device model and is
periodically re-fit as fresh device data is appended.

The model keeps no observation history.  A ridge solve needs only the
sufficient statistics XᵀX (d×d) and Xᵀy (d), so the model keeps those two
sums plus a fixed ``(refit_every, d)`` block of observations not yet
folded in: storage is O(refit_every·d + d²) and a refit costs
O(refit_every·d² + d³), whatever the uptime.  Each fold adds one
``blockᵀ·block`` product into the running sums with Neumaier compensation,
so after 10⁵ observations θ is at least as accurate as a solve over the
stacked history; an uncompensated per-observation running sum is about a
thousand times less accurate at that length.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ColdStartModel", "collect_offline_dataset"]


def _compensated_add(
    total: np.ndarray, comp: np.ndarray, term: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One elementwise Neumaier step: ``total + term`` and the updated
    compensation, which collects the low-order bits that sum dropped."""
    summed = total + term
    lost = np.where(
        np.abs(total) >= np.abs(term), (total - summed) + term, (term - summed) + total
    )
    return summed, comp + lost


class ColdStartModel:
    """Ridge-regularized least squares α ≈ xᵀθ with periodic re-fits.

    A light L2 penalty keeps θ stable when device features are collinear
    (total memory and max frequency correlate strongly across phone
    generations); plain OLS would produce large cancelling coefficients
    whose predictions flip sign under small feature jitter.

    State is a set of sufficient statistics, never the observations:

    - ``_gram`` = XᵀX and ``_xty`` = Xᵀy over every folded observation,
      each with a same-shaped Neumaier compensation term (``_gram_comp``,
      ``_xty_comp``) holding the rounding error the running sum lost;
    - a preallocated ``(refit_every, d)`` row block and ``(refit_every,)``
      target block that :meth:`append` writes into;
    - the sample count and ``min_slope_seen``.

    A refit folds the filled part of the block into the sums and solves
    ``(XᵀX + λ·s·I) θ = Xᵀy`` with ``s = trace(XᵀX)/d``.  :meth:`fit` seeds
    the sums with the same ``xsᵀxs``/``xsᵀys`` products a solve over the
    offline dataset uses, so θ after pre-training is exact to the bit.
    """

    def __init__(
        self, feature_dim: int, refit_every: int = 50, ridge: float = 1e-3
    ) -> None:
        if feature_dim <= 0:
            raise ValueError("feature_dim must be positive")
        if refit_every <= 0:
            raise ValueError("refit_every must be positive")
        if ridge < 0:
            raise ValueError("ridge must be non-negative")
        self.feature_dim = feature_dim
        self.refit_every = refit_every
        self.ridge = ridge
        self.theta = np.zeros(feature_dim, dtype=np.float64)
        self._gram = np.zeros((feature_dim, feature_dim), dtype=np.float64)
        self._gram_comp = np.zeros_like(self._gram)
        self._xty = np.zeros(feature_dim, dtype=np.float64)
        self._xty_comp = np.zeros_like(self._xty)
        self._block = np.empty((refit_every, feature_dim), dtype=np.float64)
        self._yblock = np.empty(refit_every, dtype=np.float64)
        self._filled = 0
        self._n = 0
        self._since_fit = 0
        self.fitted = False
        # Smallest slope seen in training data; used by callers as a sanity
        # floor when inverting the cost law (a negative or near-zero
        # predicted slope would otherwise explode the workload bound).
        self.min_slope_seen: float | None = None

    def _fold(self) -> None:
        """Add the filled part of the block into the compensated sums."""
        rows = self._block[: self._filled]
        self._gram, self._gram_comp = _compensated_add(
            self._gram, self._gram_comp, rows.T @ rows
        )
        self._xty, self._xty_comp = _compensated_add(
            self._xty, self._xty_comp, rows.T @ self._yblock[: self._filled]
        )
        self._filled = 0

    def _solve(self) -> np.ndarray:
        gram = self._gram + self._gram_comp
        scale = np.trace(gram) / max(1, gram.shape[0])
        reg = self.ridge * max(scale, 1e-12) * np.eye(self.feature_dim)
        return np.linalg.solve(gram + reg, self._xty + self._xty_comp)

    def fit(self, xs: np.ndarray, ys: np.ndarray) -> None:
        """Fit θ on a full offline dataset, replacing every earlier sample."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[1] != self.feature_dim:
            raise ValueError(f"xs must be (n, {self.feature_dim})")
        if ys.ndim != 1:
            raise ValueError("ys must be one-dimensional")
        if xs.shape[0] != ys.shape[0]:
            raise ValueError("xs and ys disagree on sample count")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError("xs and ys must be finite")
        self._gram = xs.T @ xs
        self._xty = xs.T @ ys
        self._gram_comp = np.zeros_like(self._gram)
        self._xty_comp = np.zeros_like(self._xty)
        self._filled = 0
        self._n = xs.shape[0]
        self.theta = self._solve()
        positive = ys[ys > 0]
        if positive.size:
            self.min_slope_seen = float(positive.min())
        self._since_fit = 0
        self.fitted = True

    # hot-path
    def append(self, x: np.ndarray, y: float) -> None:
        """Add one observation; re-fit every ``refit_every`` appends."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.feature_dim,):
            raise ValueError(f"x must have shape ({self.feature_dim},)")
        self._block[self._filled] = x
        self._yblock[self._filled] = y
        self._filled += 1
        self._n += 1
        if y > 0 and (self.min_slope_seen is None or y < self.min_slope_seen):
            self.min_slope_seen = float(y)
        self._since_fit += 1
        if self._since_fit >= self.refit_every and self._n > self.feature_dim:
            self._fold()
            self.theta = self._solve()
            self._since_fit = 0
            self.fitted = True
        elif self._filled == self.refit_every:
            # Full before a refit is allowed (too few samples to solve):
            # fold now so the block can take the next row.
            self._fold()

    def predict(self, x: np.ndarray) -> float:
        """Predicted slope for a feature vector."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.feature_dim,):
            raise ValueError(f"x must have shape ({self.feature_dim},)")
        return float(x @ self.theta)

    @property
    def num_samples(self) -> int:
        return self._n


def collect_offline_dataset(
    devices,
    slo_seconds: float,
    kind: str = "time",
    start_batch: int = 1,
    growth: float = 1.6,
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-training data collection, mirroring §3.3.

    Each training device executes learning tasks of geometrically increasing
    mini-batch size until the computation time reaches twice the SLO; every
    task contributes one (feature-vector, observed-slope) pair.  ``kind``
    selects the slope target: seconds per sample ("time") or battery % per
    sample ("energy").
    """
    if kind not in ("time", "energy"):
        raise ValueError("kind must be 'time' or 'energy'")
    xs: list[np.ndarray] = []
    ys: list[float] = []
    for device in devices:
        batch = start_batch
        while True:
            measurement = device.execute(int(batch))
            x = measurement.features.as_vector()
            if kind == "time":
                slope = measurement.computation_time_s / measurement.batch_size
            else:
                slope = measurement.energy_percent / measurement.batch_size
            xs.append(x)
            ys.append(slope)
            if measurement.computation_time_s >= 2.0 * slo_seconds:
                break
            batch = max(int(batch * growth), batch + 1)
        device.idle(120.0)
    return np.stack(xs), np.array(ys)
