"""First-order optimizer with bias-corrected moment estimates, plus
learning-rate schedules (constant, stepped decay, linear decay)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np


@dataclass(frozen=True)
class ConstantLR:
    kind = "constant"

    def lr_at(self, base_lr: float, epoch: int, total_epochs: int) -> float:
        return base_lr

    def to_json_dict(self) -> dict:
        return {"kind": self.kind}


@dataclass(frozen=True)
class StepDecayLR:
    """Multiply the rate by ``factor`` every ``every_n`` epochs."""

    factor: float = 0.9
    every_n: int = 10
    kind = "step"

    def lr_at(self, base_lr: float, epoch: int, total_epochs: int) -> float:
        return base_lr * self.factor ** (epoch // self.every_n)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "factor": self.factor, "every_n": self.every_n}


@dataclass(frozen=True)
class LinearDecayLR:
    """Interpolate from the base rate to ``to`` across the run."""

    to: float = 1e-5
    kind = "linear"

    def lr_at(self, base_lr: float, epoch: int, total_epochs: int) -> float:
        if total_epochs <= 1:
            return base_lr
        frac = epoch / (total_epochs - 1)
        return base_lr + (self.to - base_lr) * frac

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "to": self.to}


# Each schedule kind's default instance, in the order ``--lr-schedule`` lists them.
SCHEDULES = {s.kind: s for s in (ConstantLR(), StepDecayLR(), LinearDecayLR())}


class Adam:
    """Adaptive moments: m, v with beta1=0.9, beta2=0.999, eps=1e-8,
    bias correction, and L2 weight decay folded into the gradient for
    matrix/kernel parameters (biases and norm scales are not decayed)."""

    def __init__(
        self,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0

    def step(
        self,
        params: Mapping[str, np.ndarray],
        grads: Mapping[str, np.ndarray],
        lr: float,
    ) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        for name in params:
            p, g = params[name], grads[name]
            if self.weight_decay and p.ndim > 1:
                g = g + self.weight_decay * p
            if name not in self._m:
                self._m[name] = np.zeros_like(p)
                self._v[name] = np.zeros_like(p)
            m, v = self._m[name], self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
