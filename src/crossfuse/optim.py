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

    def __repr__(self) -> str:  # pragma: no cover
        return f"Param({self.name or 'unnamed'}, shape={self.value.shape})"


class Adam:
    """Adaptive-moment estimation with bias correction (decay 0.9/0.999, eps 1e-8).

    The optimizer adopts the storage of its parameters: their values and
    gradients are copied into one flat value buffer and one flat gradient
    buffer, and each ``Param.value``/``grad`` is rebound to a view of its
    slice.  Every operation of the update is elementwise, so one pass over
    the flat buffers gives the bits one pass per parameter would.  Code that
    trains a parameter must write into ``value`` and ``grad``, never rebind
    them, and a parameter belongs to one optimizer at a time."""

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self.t = 0
        total = sum(p.value.size for p in self.params)
        self._value = np.empty(total)
        self._grad = np.empty(total)
        slices = []
        lo = 0
        for p in self.params:
            shape, hi = p.value.shape, lo + p.value.size
            self._value[lo:hi] = p.value.ravel()
            self._grad[lo:hi] = p.grad.ravel()
            p.value = self._value[lo:hi].reshape(shape)
            p.grad = self._grad[lo:hi].reshape(shape)
            slices.append((lo, hi, shape))
            lo = hi
        # allocated after the adopted arrays are released, so adoption adds
        # no second copy of a large table to the peak
        self._m = np.zeros(total)
        self._v = np.zeros(total)
        self._work = (np.empty(total), np.empty(total))
        self.m = [self._m[lo:hi].reshape(shape) for lo, hi, shape in slices]
        self.v = [self._v[lo:hi].reshape(shape) for lo, hi, shape in slices]

    def zero_grad(self) -> None:
        self._grad.fill(0.0)

    def step(self) -> None:
        """m <- b1 m + (1 - b1) g;  v <- b2 v + (1 - b2) g^2;
        value -= lr (m / c1) / (sqrt(v / c2) + eps), evaluated in that order
        over the flat buffers in two preallocated work buffers."""
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        g, m, v = self._grad, self._m, self._v
        a, b = self._work
        np.multiply(g, 1.0 - self.beta1, out=a)
        m *= self.beta1
        m += a
        np.square(g, out=a)
        a *= 1.0 - self.beta2
        v *= self.beta2
        v += a
        np.divide(v, c2, out=a)
        np.sqrt(a, out=a)
        a += self.eps
        np.divide(m, c1, out=b)
        b *= self.lr
        b /= a
        self._value -= b

    def state(self) -> dict:
        return {"kind": "adam", "t": self.t}

    def state_tensors(self) -> dict:
        """Each parameter's moments, ``m{i}`` and ``v{i}``, as views of the
        flat moment buffers."""
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
