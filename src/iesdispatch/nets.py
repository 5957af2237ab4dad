"""Dense networks with hand-written backprop and a moment-adaptive optimizer.

numpy only; float64 throughout so analytic gradients can be checked
against central finite differences tightly.
"""

from __future__ import annotations

import math

import numpy as np

from .system import left_sum

HIDDEN_UNITS = 128


def orthogonal_init(rows: int, cols: int, gain: float, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal-style scaled init; deterministic for a fixed generator."""
    a = rng.standard_normal((rows, cols)) if rows >= cols else rng.standard_normal((cols, rows))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return np.ascontiguousarray(gain * q[:rows, :cols])


class Mlp:
    """input -> tanh(hidden) -> tanh(hidden) -> linear output."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        hidden: int = HIDDEN_UNITS,
        rng: np.random.Generator | None = None,
        out_gain: float = 0.01,
    ) -> None:
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.hidden = hidden
        if rng is None:
            self.w1 = np.zeros((in_dim, hidden))
            self.w2 = np.zeros((hidden, hidden))
            self.w3 = np.zeros((hidden, out_dim))
        else:
            self.w1 = orthogonal_init(in_dim, hidden, math.sqrt(2.0), rng)
            self.w2 = orthogonal_init(hidden, hidden, math.sqrt(2.0), rng)
            self.w3 = orthogonal_init(hidden, out_dim, out_gain, rng)
        self.b1 = np.zeros(hidden)
        self.b2 = np.zeros(hidden)
        self.b3 = np.zeros(out_dim)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.in_dim:
            raise ValueError(f"input dimension {x.shape[1]} does not match {self.in_dim}")
        h1 = np.tanh(x @ self.w1 + self.b1)
        h2 = np.tanh(h1 @ self.w2 + self.b2)
        y = h2 @ self.w3 + self.b3
        return y, (x, h1, h2)

    def forward_rows(self, x: np.ndarray) -> np.ndarray:
        """Outputs (rows, out) for inputs (rows, in), each row on its own.

        ``x[:, None, :] @ w`` multiplies every row as its own (1, in)
        product, the same BLAS call ``forward`` makes for one input, so each
        output row equals a batch-1 ``forward`` of that row bit for bit.  A
        plain (rows, in) @ w goes through another kernel and rounds
        differently in the last bits.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"input shape {x.shape} does not match (rows, {self.in_dim})")
        h1 = np.tanh(x[:, None, :] @ self.w1 + self.b1)
        h2 = np.tanh(h1 @ self.w2 + self.b2)
        return (h2 @ self.w3 + self.b3)[:, 0, :]

    def backward(self, cache: tuple, dy: np.ndarray) -> dict[str, np.ndarray]:
        """Parameter gradients given the loss gradient at the output."""
        x, h1, h2 = cache
        grads = {"w3": h2.T @ dy, "b3": dy.sum(axis=0)}
        dh2 = (dy @ self.w3.T) * (1.0 - h2 * h2)
        grads["w2"] = h1.T @ dh2
        grads["b2"] = dh2.sum(axis=0)
        dh1 = (dh2 @ self.w2.T) * (1.0 - h1 * h1)
        grads["w1"] = x.T @ dh1
        grads["b1"] = dh1.sum(axis=0)
        return grads

    def params(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2, "w3": self.w3, "b3": self.b3}

    def set_params(self, values: dict[str, np.ndarray]) -> None:
        for name, arr in self.params().items():
            if name not in values:
                raise ValueError(f"missing parameter {name}")
            src = np.asarray(values[name], dtype=float)
            if src.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name}: {src.shape} vs {arr.shape}")
            arr[...] = src


class Adam:
    """First-order moment-adaptive optimizer, updates parameters in place."""

    def __init__(
        self,
        params: dict[str, np.ndarray],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        lr_overrides: dict[str, float] | None = None,
    ) -> None:
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.lr_overrides = dict(lr_overrides) if lr_overrides else {}
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            lr = self.lr_overrides.get(name, self.lr)
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    return math.sqrt(left_sum(float(np.sum(g * g)) for g in grads.values()))


def clip_grads_(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place if their global norm exceeds the cap."""
    norm = global_grad_norm(grads)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm
