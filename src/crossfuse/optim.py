"""Trainable-parameter containers, the Adam optimizer both training stages
use, and the row scatter every loss uses to return its gradient."""

from __future__ import annotations

import numpy as np

# the loop scipy's own CSC product runs; not public scipy API
from scipy.sparse._sparsetools import csc_matvecs as _csc_matvecs


def scatter_rows(index: np.ndarray, size: int, values: np.ndarray) -> np.ndarray:
    """A (size, d) float64 array whose row r sums the rows b of the
    (len(index), d) ``values`` with ``index[b] == r``, adding them in
    ascending b onto +0.0 as numpy's unbuffered ``add.at`` does; rows no
    index names come out zero.

    The implicit matrix is CSC with one 1.0 per column b, at row
    ``index[b]``, and runs through the loop scipy's CSC product uses.  That
    loop checks no index, so an index outside [0, size) raises
    ``ValueError`` here first."""
    index = np.asarray(index, dtype=np.intp)
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 2 or len(values) != len(index):
        raise ValueError(f"values must be ({len(index)}, d), got shape {values.shape}")
    if len(index) and (index.min() < 0 or index.max() >= size):
        raise ValueError(f"row index outside [0, {size})")
    out = np.zeros((size, values.shape[1]))
    _csc_matvecs(size, len(index), values.shape[1], np.arange(len(index) + 1),
                 index, np.ones(len(index)), values, out)
    return out


class Param:
    """A trainable float64 array paired with an accumulated-gradient buffer."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, value: np.ndarray, name: str = ""):
        self.name = name
        self.value = np.array(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"Param({self.name or 'unnamed'}, shape={self.value.shape})"


class Adam:
    """Adaptive-moment estimation with bias correction (decay 0.9/0.999, eps 1e-8)."""

    def __init__(self, params, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]
        self._work = [(np.empty_like(p.value), np.empty_like(p.value)) for p in self.params]

    def step(self) -> None:
        """m <- b1 m + (1 - b1) g;  v <- b2 v + (1 - b2) g^2;
        value -= lr (m / c1) / (sqrt(v / c2) + eps), evaluated in that order
        in two preallocated buffers per parameter."""
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, m, v, (a, b) in zip(self.params, self.m, self.v, self._work):
            np.multiply(p.grad, 1.0 - self.beta1, out=a)
            m *= self.beta1
            m += a
            np.square(p.grad, out=a)
            a *= 1.0 - self.beta2
            v *= self.beta2
            v += a
            np.divide(v, c2, out=a)
            np.sqrt(a, out=a)
            a += self.eps
            np.divide(m, c1, out=b)
            b *= self.lr
            b /= a
            p.value -= b

    def state(self) -> dict:
        return {"kind": "adam", "t": self.t}

    def state_tensors(self) -> dict:
        out = {}
        for i, (m, v) in enumerate(zip(self.m, self.v)):
            out[f"m{i}"] = m
            out[f"v{i}"] = v
        return out

    def load_state(self, meta: dict, tensors: dict) -> None:
        self.t = int(meta["t"])
        for i in range(len(self.params)):
            self.m[i][...] = tensors[f"m{i}"]
            self.v[i][...] = tensors[f"v{i}"]

