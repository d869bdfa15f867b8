"""Model containers and the paper's model zoo.

``Sequential`` is the workhorse: it chains layers, exposes a *flat parameter
vector* interface (``get_parameters`` / ``set_parameters`` /
``gradient_vector``) which is exactly what the federated-learning protocol
moves between the server and the workers, and computes mini-batch gradients.

The constructors at the bottom build the three CNNs of Table 1 (MNIST,
E-MNIST, CIFAR-100) plus the RNN hashtag recommender of §3.1.  Input shapes,
kernel sizes, strides and layer widths follow the table exactly; a
``scale`` knob shrinks channel counts proportionally for fast simulation
while preserving the architecture.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.nn.layers import (
    AvgPool2D,
    Conv2D,
    Dense,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
)
from repro.nn.losses import (
    binary_cross_entropy_with_logits,
    softmax,
    softmax_cross_entropy,
)
from repro.nn.recurrent import GRU, SimpleRNN
from repro.nn.layers import Embedding

__all__ = [
    "Sequential",
    "build_mnist_cnn",
    "build_emnist_cnn",
    "build_cifar100_cnn",
    "build_hashtag_rnn",
    "build_hashtag_gru",
    "build_logistic",
]

LossFn = Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]]


class Sequential:
    """A chain of layers with a flat-vector parameter interface.

    The flat-vector interface mirrors what FLeet's middleware serializes
    (the paper moves Kryo/Gzip-encoded parameter blobs between server and
    Android workers): the server owns the canonical vector, workers load it,
    compute one mini-batch gradient and push the gradient vector back.
    """

    def __init__(self, layers: Sequence[Layer], loss: LossFn = softmax_cross_entropy):
        self.layers = list(layers)
        self.loss = loss

    # ------------------------------------------------------------------
    # Flat parameter-vector interface (the FL wire format)
    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(layer.num_parameters for layer in self.layers)

    def get_parameters(self) -> np.ndarray:
        """Concatenate every parameter tensor into one float64 vector."""
        chunks = [
            layer.params[key].reshape(-1)
            for layer in self.layers
            for key in sorted(layer.params)
        ]
        if not chunks:
            return np.zeros(0, dtype=np.float64)
        return np.concatenate(chunks).astype(np.float64, copy=True)

    def set_parameters(self, vector: np.ndarray) -> None:
        """Load a flat vector produced by :meth:`get_parameters`."""
        if vector.size != self.num_parameters:
            raise ValueError(
                f"parameter vector has {vector.size} entries, "
                f"model needs {self.num_parameters}"
            )
        offset = 0
        for layer in self.layers:
            for key in sorted(layer.params):
                param = layer.params[key]
                chunk = vector[offset : offset + param.size]
                layer.params[key] = chunk.reshape(param.shape).astype(np.float64, copy=True)
                offset += param.size
        # Re-point gradient buffers at the new parameter shapes.
        for layer in self.layers:
            layer.grads = {key: np.zeros_like(val) for key, val in layer.params.items()}

    def gradient_vector(self) -> np.ndarray:
        """Concatenate accumulated gradients, matching get_parameters order."""
        chunks = [
            layer.grads[key].reshape(-1)
            for layer in self.layers
            for key in sorted(layer.grads)
        ]
        if not chunks:
            return np.zeros(0, dtype=np.float64)
        return np.concatenate(chunks)

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, train=train)
        return out

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def compute_gradient(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """One mini-batch loss + flat gradient (the worker's learning task)."""
        self.zero_grad()
        logits = self.forward(x, train=True)
        loss, grad = self.loss(logits, y)
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        if self.layers:
            self.layers[0].backward_params(grad)
        return loss, self.gradient_vector()

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities (softmax of the logits)."""
        return softmax(self.forward(x, train=False))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard class predictions."""
        return self.forward(x, train=False).argmax(axis=-1)

    def evaluate_accuracy(
        self, x: np.ndarray, y: np.ndarray, batch_size: int = 256
    ) -> float:
        """Top-1 accuracy over a dataset, evaluated in mini-batches."""
        correct = 0
        for start in range(0, x.shape[0], batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            correct += int((self.predict(xb) == yb).sum())
        return correct / max(1, x.shape[0])


def _scaled(value: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(round(value * scale)))


def build_mnist_cnn(
    rng: np.random.Generator, num_classes: int = 10, scale: float = 1.0
) -> Sequential:
    """Table 1, MNIST row: 28×28×1 → Conv5×5×8 → Pool3×3 → Conv5×5×48 → Pool2×2 → FC10."""
    c1 = _scaled(8, scale)
    c2 = _scaled(48, scale)
    layers: list[Layer] = [
        Conv2D(1, c1, kernel_size=5, rng=rng),      # 28 -> 24
        ReLU(),
        MaxPool2D(pool_size=3, stride=3),           # 24 -> 8
        Conv2D(c1, c2, kernel_size=5, rng=rng),     # 8 -> 4
        ReLU(),
        MaxPool2D(pool_size=2, stride=2),           # 4 -> 2
        Flatten(),
        Dense(c2 * 2 * 2, num_classes, rng=rng),
    ]
    return Sequential(layers)


def build_emnist_cnn(
    rng: np.random.Generator, num_classes: int = 62, scale: float = 1.0
) -> Sequential:
    """Table 1, E-MNIST row: two 5×5×10 conv blocks with 2×2 pools, FC15 → FC62."""
    c1 = _scaled(10, scale)
    c2 = _scaled(10, scale)
    fc1 = _scaled(15, scale)
    layers: list[Layer] = [
        Conv2D(1, c1, kernel_size=5, rng=rng),      # 28 -> 24
        ReLU(),
        MaxPool2D(pool_size=2, stride=2),           # 24 -> 12
        Conv2D(c1, c2, kernel_size=5, rng=rng),     # 12 -> 8
        ReLU(),
        MaxPool2D(pool_size=2, stride=2),           # 8 -> 4
        Flatten(),
        Dense(c2 * 4 * 4, fc1, rng=rng),
        ReLU(),
        Dense(fc1, num_classes, rng=rng),
    ]
    return Sequential(layers)


def build_cifar100_cnn(
    rng: np.random.Generator, num_classes: int = 100, scale: float = 1.0
) -> Sequential:
    """Table 1, CIFAR-100 row: 32×32×3 → Conv3×3×16 → Pool3×3/2 → Conv3×3×64 →
    Pool4×4/4 → FC384 → FC192 → FC100."""
    c1 = _scaled(16, scale)
    c2 = _scaled(64, scale)
    fc1 = _scaled(384, scale)
    fc2 = _scaled(192, scale)
    layers: list[Layer] = [
        Conv2D(3, c1, kernel_size=3, rng=rng),      # 32 -> 30
        ReLU(),
        MaxPool2D(pool_size=3, stride=2),           # 30 -> 14
        Conv2D(c1, c2, kernel_size=3, rng=rng),     # 14 -> 12
        ReLU(),
        AvgPool2D(pool_size=4, stride=4),           # 12 -> 3
        Flatten(),
        Dense(c2 * 3 * 3, fc1, rng=rng),
        ReLU(),
        Dense(fc1, fc2, rng=rng),
        ReLU(),
        Dense(fc2, num_classes, rng=rng),
    ]
    return Sequential(layers)


def build_hashtag_rnn(
    rng: np.random.Generator,
    vocab_size: int = 2500,
    embed_dim: int = 32,
    hidden_dim: int = 64,
    num_hashtags: int = 576,
) -> Sequential:
    """The §3.1 hashtag recommender: Embedding → RNN → Dense over hashtags.

    Defaults give 123,648 parameters, matching the paper's 123,330-parameter
    TensorFlow RNN; trained with multi-label BCE and ranked by logit for
    top-5 recommendation.  Examples and tests pass smaller dimensions.
    """
    layers: list[Layer] = [
        Embedding(vocab_size, embed_dim, rng=rng),
        SimpleRNN(embed_dim, hidden_dim, rng=rng),
        Dense(hidden_dim, num_hashtags, rng=rng),
    ]
    return Sequential(layers, loss=binary_cross_entropy_with_logits)


def build_hashtag_gru(
    rng: np.random.Generator,
    vocab_size: int = 2500,
    embed_dim: int = 32,
    hidden_dim: int = 40,
    num_hashtags: int = 576,
) -> Sequential:
    """Gated variant of the hashtag recommender: Embedding → GRU → Dense.

    An upgrade path the paper's future work implies (longer tweet threads
    saturate a vanilla RNN): the GRU's gates carry early tokens to the
    final state.  The default hidden size is trimmed so the parameter
    count stays near the vanilla model's (three gate matrices cost 3×).
    """
    layers: list[Layer] = [
        Embedding(vocab_size, embed_dim, rng=rng),
        GRU(embed_dim, hidden_dim, rng=rng),
        Dense(hidden_dim, num_hashtags, rng=rng),
    ]
    return Sequential(layers, loss=binary_cross_entropy_with_logits)


def build_logistic(
    rng: np.random.Generator, in_features: int, num_classes: int
) -> Sequential:
    """Multinomial logistic regression — the smallest useful FL model,
    used by fast tests and the quickstart example."""
    return Sequential([Flatten(), Dense(in_features, num_classes, rng=rng)])
