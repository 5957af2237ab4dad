"""Dense networks with hand-written backprop and a moment-adaptive optimizer.

numpy only.  A network holds its parameters in one flat vector of the
dtype it is built with, and its matmuls, gradients and optimizer state
follow that dtype.  The trainer builds float32 networks; built directly,
a network defaults to float64, so analytic gradients can be checked
against central finite differences tightly.
"""

from __future__ import annotations

import math

import numpy as np

HIDDEN_UNITS = 128


def orthogonal_init(rows: int, cols: int, gain: float, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal-style scaled init; deterministic for a fixed generator."""
    a = rng.standard_normal((rows, cols)) if rows >= cols else rng.standard_normal((cols, rows))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return np.ascontiguousarray(gain * q[:rows, :cols])


class Params(dict):
    """Arrays by name, each a view into one flat ``vector``, in order."""

    def __init__(self, vector: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> None:
        super().__init__()
        self.vector = vector
        start = 0
        for name, shape in shapes.items():
            self[name] = vector[start : start + math.prod(shape)].reshape(shape)
            start += math.prod(shape)


class Mlp:
    """input -> tanh(hidden) -> tanh(hidden) -> linear output.

    ``w1 ... b3`` are views into one flat ``vector``; ``tail`` names more
    arrays stored after them (the actor's log-std).
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        hidden: int = HIDDEN_UNITS,
        rng: np.random.Generator | None = None,
        out_gain: float = 0.01,
        tail: dict[str, tuple[int, ...]] | None = None,
        dtype: type = np.float64,
    ) -> None:
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.hidden = hidden
        layers = {"w1": (in_dim, hidden), "b1": (hidden,), "w2": (hidden, hidden), "b2": (hidden,)}
        self.shapes = {**layers, "w3": (hidden, out_dim), "b3": (out_dim,), **(tail or {})}
        self.vector = np.zeros(sum(math.prod(shape) for shape in self.shapes.values()), dtype=dtype)
        self.w1, self.b1, self.w2, self.b2, self.w3, self.b3 = list(self.params().values())[:6]
        if rng is not None:
            self.w1[...] = orthogonal_init(in_dim, hidden, math.sqrt(2.0), rng)
            self.w2[...] = orthogonal_init(hidden, hidden, math.sqrt(2.0), rng)
            self.w3[...] = orthogonal_init(hidden, out_dim, out_gain, rng)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        x = np.atleast_2d(np.asarray(x, dtype=self.vector.dtype))
        if x.shape[1] != self.in_dim:
            raise ValueError(f"input dimension {x.shape[1]} does not match {self.in_dim}")
        h1 = np.tanh(x @ self.w1 + self.b1)
        h2 = np.tanh(h1 @ self.w2 + self.b2)
        y = h2 @ self.w3 + self.b3
        return y, (x, h1, h2)

    def backward(self, cache: tuple, dy: np.ndarray) -> Params:
        """Parameter gradients given the loss gradient at the output, as
        views into one fresh vector of the parameters' dtype; the ``tail``
        entries are left unset."""
        x, h1, h2 = cache
        dy = np.asarray(dy, dtype=self.vector.dtype)
        grads = Params(np.empty_like(self.vector), self.shapes)
        np.matmul(h2.T, dy, out=grads["w3"])
        dy.sum(axis=0, out=grads["b3"])
        dh2 = (dy @ self.w3.T) * (1.0 - h2 * h2)
        np.matmul(h1.T, dh2, out=grads["w2"])
        dh2.sum(axis=0, out=grads["b2"])
        dh1 = (dh2 @ self.w2.T) * (1.0 - h1 * h1)
        np.matmul(x.T, dh1, out=grads["w1"])
        dh1.sum(axis=0, out=grads["b1"])
        return grads

    def params(self) -> Params:
        return Params(self.vector, self.shapes)


class Adam:
    """First-order moment-adaptive optimizer over one flat parameter
    vector, updated in place; ``lr`` is one rate or one rate per entry.

    A step allocates nothing: it works in two scratch vectors, in the
    operation order of ``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``.
    """

    def __init__(
        self,
        params: np.ndarray,
        lr: float | np.ndarray,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._scratch = (np.empty_like(params), np.empty_like(params))
        self.t = 0

    def step(self, grad: np.ndarray) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        a, b = self._scratch
        self.m *= self.beta1
        self.m += np.multiply(grad, 1.0 - self.beta1, out=a)
        self.v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=a)
        self.v += np.multiply(a, grad, out=a)
        np.sqrt(np.divide(self.v, bc2, out=a), out=a)
        a += self.eps
        np.multiply(self.lr, np.divide(self.m, bc1, out=b), out=b)
        self.params -= np.divide(b, a, out=b)


def clip_grads_(grad: np.ndarray, max_norm: float) -> float:
    """Scale the gradient vector in place if its norm exceeds the cap.  The
    norm sums in numpy's own loop, in the vector's dtype: a BLAS dot
    product splits long vectors across threads, so its rounding would
    follow the thread count."""
    norm = math.sqrt(np.einsum("i,i->", grad, grad))
    if norm > max_norm and norm > 0.0:
        grad *= max_norm / norm
    return norm
