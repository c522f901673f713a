"""Two-layer graph convolutional network trained full-batch with Adam.

Forward, analytic gradients, and the optimizer are implemented directly on
numpy arrays so training is deterministic given the seed and the gradients
can be checked against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import AttributedGraph, NormalizedAdjacency

_PROB_FLOOR = 1e-12
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-2
    weight_decay: float = 5e-4
    epochs: int = 200
    hidden_units: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


@dataclass(eq=False)
class GcnModel:
    W0: np.ndarray  # input -> hidden
    W1: np.ndarray  # hidden -> classes
    m0: np.ndarray
    v0: np.ndarray
    m1: np.ndarray
    v1: np.ndarray
    step: int = 0


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_model(num_features: int, num_classes: int, cfg: TrainConfig) -> GcnModel:
    """Glorot-uniform weights seeded from the config; zeroed Adam moments."""
    rng = np.random.default_rng(cfg.seed)
    W0 = _glorot(rng, num_features, cfg.hidden_units)
    W1 = _glorot(rng, cfg.hidden_units, num_classes)
    return GcnModel(
        W0=W0, W1=W1,
        m0=np.zeros_like(W0), v0=np.zeros_like(W0),
        m1=np.zeros_like(W1), v1=np.zeros_like(W1),
    )


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _forward(model: GcnModel, op: NormalizedAdjacency, AX: np.ndarray):
    """Layer activations from ``AX`` = Â·X, which callers compute once per
    graph because X is fixed."""
    Z1 = AX @ model.W0
    P2 = op.apply(np.maximum(Z1, 0.0))
    return Z1, P2, _softmax(P2 @ model.W1)


def gcn_forward(model: GcnModel, g: AttributedGraph) -> np.ndarray:
    """Class-probability matrix (num_nodes x C); every row sums to 1."""
    if model.W0.shape[0] != g.features.shape[1]:
        raise ValueError(
            f"model expects {model.W0.shape[0]} features, graph has {g.features.shape[1]}"
        )
    op = NormalizedAdjacency(g)
    return _forward(model, op, op.apply(g.features))[-1]


def cross_entropy_loss(
    probabilities: np.ndarray, labels: np.ndarray, labeled: np.ndarray | set[int]
) -> float:
    """Summed negative log-likelihood of the true class over labeled nodes."""
    idx = np.asarray(sorted(labeled), dtype=np.int64)
    if idx.size == 0:
        raise ValueError("labeled set must be non-empty")
    p_true = probabilities[idx, np.asarray(labels)[idx]]
    return float(-np.log(np.maximum(p_true, _PROB_FLOOR)).sum())


def _objective_and_grads(
    model: GcnModel,
    op: NormalizedAdjacency,
    AX: np.ndarray,
    labels: np.ndarray,
    labeled_idx: np.ndarray,
    weight_decay: float,
):
    """Loss (cross-entropy + 0.5 * wd * ||W||^2) and its exact gradients."""
    Z1, P2, probs = _forward(model, op, AX)
    loss = cross_entropy_loss(probs, labels, labeled_idx)
    loss += 0.5 * weight_decay * (np.sum(model.W0**2) + np.sum(model.W1**2))

    dZ2 = np.zeros_like(probs)
    dZ2[labeled_idx] = probs[labeled_idx]
    dZ2[labeled_idx, labels[labeled_idx]] -= 1.0

    gW1 = P2.T @ dZ2 + weight_decay * model.W1
    dH1 = op.apply(dZ2 @ model.W1.T)  # A_norm is symmetric
    dZ1 = dH1 * (Z1 > 0.0)
    gW0 = AX.T @ dZ1 + weight_decay * model.W0
    return loss, gW0, gW1


def training_objective(
    model: GcnModel, g: AttributedGraph, labeled: np.ndarray | set[int],
    weight_decay: float = 0.0,
) -> float:
    """The scalar the trainer descends; exposed for finite-difference checks."""
    op = NormalizedAdjacency(g)
    idx = np.asarray(sorted(labeled), dtype=np.int64)
    return _objective_and_grads(model, op, op.apply(g.features), g.labels, idx, weight_decay)[0]


def gradients(
    model: GcnModel, g: AttributedGraph, labeled: np.ndarray | set[int],
    weight_decay: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (dW0, dW1) of the training objective."""
    op = NormalizedAdjacency(g)
    idx = np.asarray(sorted(labeled), dtype=np.int64)
    _, gW0, gW1 = _objective_and_grads(
        model, op, op.apply(g.features), g.labels, idx, weight_decay
    )
    return gW0, gW1


def _adam_step(w, g, m, v, t, lr):
    m *= _ADAM_BETA1
    m += (1 - _ADAM_BETA1) * g
    v *= _ADAM_BETA2
    v += (1 - _ADAM_BETA2) * g * g
    m_hat = m / (1 - _ADAM_BETA1**t)
    v_hat = v / (1 - _ADAM_BETA2**t)
    w -= lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


def train(
    g: AttributedGraph, labeled: np.ndarray | set[int], cfg: TrainConfig | None = None
) -> GcnModel:
    """Full-batch Adam on the labeled cross-entropy for cfg.epochs epochs."""
    cfg = cfg or TrainConfig()
    idx = np.asarray(sorted(labeled), dtype=np.int64)
    if idx.size == 0:
        raise ValueError("labeled set must be non-empty")
    if idx[0] < 0 or idx[-1] >= g.num_nodes:
        raise ValueError("labeled set contains out-of-range node ids")

    model = init_model(g.features.shape[1], g.num_classes, cfg)
    op = NormalizedAdjacency(g)
    AX = op.apply(g.features)
    for epoch in range(1, cfg.epochs + 1):
        loss, gW0, gW1 = _objective_and_grads(model, op, AX, g.labels, idx, cfg.weight_decay)
        if not np.isfinite(loss):
            raise TrainingDivergedError(
                f"non-finite loss {loss} at epoch {epoch} "
                f"(lr={cfg.learning_rate}, labeled={idx.size})"
            )
        model.step += 1
        _adam_step(model.W0, gW0, model.m0, model.v0, model.step, cfg.learning_rate)
        _adam_step(model.W1, gW1, model.m1, model.v1, model.step, cfg.learning_rate)
    return model


def predict(model: GcnModel, g: AttributedGraph) -> np.ndarray:
    """Argmax class per node."""
    return gcn_forward(model, g).argmax(axis=1)
