"""Two-layer graph convolutional network trained with Adam on the labeled loss.

The loss reads the output only at the labeled nodes, and a 2-layer GCN's
output there depends only on their 2-hop receptive field: the hidden layer
at R, the labeled nodes' closed neighbourhood, and Â·X at R. So each epoch
touches only that field. Nothing is sampled: the loss and gradients are the
full-graph ones, with every row summed in the same order, so the weights
match full-batch training to the bit wherever BLAS rounds a row of a dense
product the same way whatever the product's row count (README, ``evaluate``,
says where that holds). Prediction is one full forward pass.

Forward, analytic gradients, and the optimizer are implemented directly on
numpy arrays so training is deterministic given the seed and the gradients
can be checked against finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .graph import AttributedGraph, NormalizedAdjacency, check_int, node_index

_PROB_FLOOR = 1e-12
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
HIDDEN_UNITS = 16  # the hidden width of Kipf & Welling's GCN (ICLR 2017)


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-2
    weight_decay: float = 5e-4
    epochs: int = 200

    def __post_init__(self) -> None:
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(
                f"weight_decay must be non-negative and finite, got {self.weight_decay}"
            )
        check_int(self.epochs, "epochs", 1)


@dataclass(eq=False)
class GcnModel:
    """A trained or freshly initialized GCN: its two weight matrices. The
    optimizer's state lives only in ``train``."""

    W0: np.ndarray  # input -> hidden
    W1: np.ndarray  # hidden -> classes


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_model(num_features: int, num_classes: int, seed: int = 0) -> GcnModel:
    """Glorot-uniform weights of width ``HIDDEN_UNITS``, drawn from ``seed``."""
    check_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    W0 = _glorot(rng, num_features, HIDDEN_UNITS)
    return GcnModel(W0, _glorot(rng, HIDDEN_UNITS, num_classes))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def gcn_forward(model: GcnModel, g: AttributedGraph) -> np.ndarray:
    """Class-probability matrix (num_nodes x C); every row sums to 1. A row
    that is not finite, as from overflowing logits, raises a ValueError."""
    if model.W0.shape[0] != g.features.shape[1]:
        raise ValueError(
            f"model expects {model.W0.shape[0]} features, graph has {g.features.shape[1]}"
        )
    op = NormalizedAdjacency(g)
    with np.errstate(over="ignore", invalid="ignore"):  # the row check below reports it
        H1 = np.maximum(op.apply(g.features) @ model.W0, 0.0)
        probs = _softmax(op.apply(H1) @ model.W1)
    bad = np.flatnonzero(~np.isfinite(probs).all(axis=1))
    if bad.size:
        raise ValueError(f"forward pass output row {bad[0]} is not finite")
    return probs


def _rows_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A @ B`` with a one-row ``A`` sent through the matrix-matrix kernel, as
    the same row of a many-row product is: numpy gives a single row to a
    matrix-vector kernel, which rounds differently."""
    if A.shape[0] != 1:
        return A @ B
    return (np.repeat(A, 2, axis=0) @ B)[:1]


class _Field(NamedTuple):
    """The labeled nodes' 2-hop receptive field: all that an epoch reads."""

    AX: np.ndarray  # (Â·X)[R], R the labeled nodes' closed neighbourhood
    A_idx_R: sp.csr_matrix  # Â[idx, R]
    A_R_idx: sp.csr_matrix  # Â[R, idx], its transpose since Â is symmetric
    y: np.ndarray  # labels[idx]


def _receptive_field(g: AttributedGraph, idx: np.ndarray) -> _Field:
    op = NormalizedAdjacency(g)
    R, A_idx_R = op.receptive_block(idx)
    return _Field(op.apply(g.features)[R], A_idx_R, A_idx_R.T.tocsr(), g.labels[idx])


def _objective_and_grads(model: GcnModel, field: _Field, weight_decay: float):
    """Loss (cross-entropy + 0.5 * wd * ||W||^2) and its exact gradients.

    Rows outside the field contribute exact zeros to every full-graph sum,
    so these are the full-graph values, summed in the same order.
    """
    Z1 = _rows_matmul(field.AX, model.W0)
    P2 = field.A_idx_R @ np.maximum(Z1, 0.0)
    probs = _softmax(_rows_matmul(P2, model.W1))
    rows = np.arange(probs.shape[0])
    loss = float(-np.log(np.maximum(probs[rows, field.y], _PROB_FLOOR)).sum())
    loss += 0.5 * weight_decay * (np.sum(model.W0**2) + np.sum(model.W1**2))

    dZ2 = probs  # softmax minus the one-hot labels, in place
    dZ2[rows, field.y] -= 1.0
    gW1 = P2.T @ dZ2 + weight_decay * model.W1
    dZ1 = (field.A_R_idx @ _rows_matmul(dZ2, model.W1.T)) * (Z1 > 0.0)
    gW0 = field.AX.T @ dZ1 + weight_decay * model.W0
    return loss, gW0, gW1


def objective(
    model: GcnModel, g: AttributedGraph, labeled: np.ndarray | set[int],
    weight_decay: float = 0.0,
) -> tuple[float, np.ndarray, np.ndarray]:
    """(loss, dW0, dW1): the scalar the trainer descends and its analytic
    gradients, computed as one epoch of ``train`` computes them; exposed for
    finite-difference checks."""
    field = _receptive_field(g, node_index(labeled, g.num_nodes, "labeled"))
    return _objective_and_grads(model, field, weight_decay)


def _adam_step(w, g, m, v, t, lr):
    m *= _ADAM_BETA1
    m += (1 - _ADAM_BETA1) * g
    v *= _ADAM_BETA2
    v += (1 - _ADAM_BETA2) * g * g
    m_hat = m / (1 - _ADAM_BETA1**t)
    v_hat = v / (1 - _ADAM_BETA2**t)
    w -= lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


def train(
    g: AttributedGraph, labeled: np.ndarray | set[int], cfg: TrainConfig | None = None,
    seed: int = 0,
) -> GcnModel:
    """Adam on the labeled cross-entropy for cfg.epochs epochs from the
    ``seed`` init, each computed on the labeled nodes' 2-hop receptive field.
    Adam is elementwise, so each epoch makes one step on a flat vector that
    W0 and W1 are views of."""
    cfg = cfg or TrainConfig()
    idx = node_index(labeled, g.num_nodes, "labeled")
    init = init_model(g.features.shape[1], g.num_classes, seed)
    split = init.W0.size
    w = np.concatenate([init.W0.ravel(), init.W1.ravel()])
    model = GcnModel(w[:split].reshape(init.W0.shape), w[split:].reshape(init.W1.shape))
    grad, m, v = np.empty_like(w), np.zeros_like(w), np.zeros_like(w)
    field = _receptive_field(g, idx)
    for epoch in range(1, cfg.epochs + 1):
        loss, gW0, gW1 = _objective_and_grads(model, field, cfg.weight_decay)
        if not np.isfinite(loss):
            raise TrainingDivergedError(
                f"non-finite loss {loss} at epoch {epoch} "
                f"(lr={cfg.learning_rate}, labeled={idx.size})"
            )
        np.concatenate([gW0.ravel(), gW1.ravel()], out=grad)
        _adam_step(w, grad, m, v, epoch, cfg.learning_rate)
    return model


def predict(model: GcnModel, g: AttributedGraph) -> np.ndarray:
    """Argmax class per node."""
    return gcn_forward(model, g).argmax(axis=1)
