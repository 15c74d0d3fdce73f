"""Trainable-parameter containers and the optimizers used by both training stages."""

from __future__ import annotations

import numpy as np


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


class Sgd:
    """Plain gradient descent at a constant rate."""

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = float(lr)

    def step(self) -> None:
        for p in self.params:
            p.value -= self.lr * p.grad

    def state(self) -> dict:
        return {"kind": "sgd"}

    def load_state(self, meta: dict, tensors: dict) -> None:
        pass

    def state_tensors(self) -> dict:
        return {}


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

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(p.grad)
            p.value -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

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


OPTIMIZERS = {"sgd": Sgd, "adam": Adam}


def check_optimizer(name: str) -> None:
    if name not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {name!r} "
                         f"(expected {' or '.join(map(repr, OPTIMIZERS))})")


def make_optimizer(name: str, params, lr: float):
    check_optimizer(name)
    return OPTIMIZERS[name](params, lr)
