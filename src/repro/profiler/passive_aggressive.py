"""Online Passive-Aggressive regression (Crammer et al., JMLR 2006).

I-Prof personalizes its slope predictor per device model with the PA update
the paper quotes in §2.2:

    θ^{k+1} = θ^k + (f^{(k)} / ‖x^{(k)}‖²) · v^{(k)},
    v^{(k)} = sign(α^{(k)} − x^{(k)ᵀ}θ^{(k)}) · x^{(k)},

with the ε-insensitive hinge loss

    f(θ, x, α) = 0                 if |xᵀθ − α| ≤ ε
                 |xᵀθ − α| − ε     otherwise.

ε controls the aggressiveness: smaller ε → larger corrections per sample.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PassiveAggressiveRegressor", "epsilon_insensitive_loss"]


def epsilon_insensitive_loss(
    theta: np.ndarray, x: np.ndarray, alpha: float, epsilon: float
) -> float:
    """The ε-insensitive loss f(θ, x, α) of Equation 2."""
    residual = abs(float(x @ theta) - alpha)
    if residual <= epsilon:
        return 0.0
    return residual - epsilon


class PassiveAggressiveRegressor:
    """PA-I style online regressor on a fixed-length feature vector."""

    def __init__(self, theta: np.ndarray, epsilon: float = 0.1) -> None:
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        self.theta = np.asarray(theta, dtype=np.float64).copy()
        self.epsilon = float(epsilon)
        self.updates = 0

    def predict(self, x: np.ndarray) -> float:
        """Predicted slope α̂ = xᵀθ."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.theta.shape:
            raise ValueError(
                f"feature vector of shape {x.shape} does not match θ {self.theta.shape}"
            )
        return float(x @ self.theta)

    # hot-path
    def update(self, x: np.ndarray, alpha: float) -> float:
        """One PA step on an observed (features, slope) pair.

        Returns the loss *before* the update (0 means no correction needed).
        """
        x = np.asarray(x, dtype=np.float64)
        loss = epsilon_insensitive_loss(self.theta, x, alpha, self.epsilon)
        if loss == 0.0:
            self.updates += 1
            return 0.0
        norm_sq = float(x @ x)
        if norm_sq == 0.0:
            self.updates += 1
            return loss
        direction = np.sign(alpha - float(x @ self.theta)) * x
        self.theta = self.theta + (loss / norm_sq) * direction
        self.updates += 1
        return loss
