"""Optimizers with checkpointable state.

A checkpoint in the paper always includes model **and optimizer** state
(Table 3's sizes are dominated by Adam moments for the LLMs).  Each
optimizer here exposes ``state_dict()`` / ``load_state_dict()`` covering
its internal buffers, so a restored run continues bit-exactly.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.errors import TrainingError
from repro.training.module import Module, Parameter


class Optimizer:
    """Base optimizer over a module's named parameters."""

    def __init__(self, module: Module, lr: float) -> None:
        if lr <= 0:
            raise TrainingError(f"learning rate must be positive, got {lr}")
        self._named = list(module.named_parameters())
        if not self._named:
            raise TrainingError("module has no parameters to optimize")
        self.lr = lr
        self.steps = 0

    @property
    def parameters(self) -> List[Parameter]:
        """Parameters in traversal order."""
        return [param for _, param in self._named]

    def zero_grad(self) -> None:
        """Clear every parameter's gradient."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        raise NotImplementedError

    def state_tensors(self) -> Dict[str, np.ndarray]:
        """The *live* optimizer buffers, keyed by ``<buffer>/<param-name>``
        — no copies (scalars such as the step count are boxed afresh).

        The one enumeration of an optimizer's checkpointable state:
        :meth:`state_dict` copies from it, :meth:`state_nbytes` sums over
        it, and a zero-copy snapshot source reads through it.  The arrays
        change at the next :meth:`step`.
        """
        raise NotImplementedError

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copies of all optimizer buffers (see :meth:`state_tensors`)."""
        return {name: value.copy() for name, value in self.state_tensors().items()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore buffers from :meth:`state_dict` output."""
        raise NotImplementedError

    def state_nbytes(self) -> int:
        """Bytes of optimizer state (counted into checkpoint size)."""
        return sum(value.nbytes for value in self.state_tensors().values())

    def _check_keys(self, state: Dict[str, np.ndarray], expected) -> None:
        if set(state) != set(expected):
            raise TrainingError(
                f"optimizer state mismatch: missing="
                f"{sorted(set(expected) - set(state))}, unexpected="
                f"{sorted(set(state) - set(expected))}"
            )


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, module: Module, lr: float = 0.01, momentum: float = 0.0) -> None:
        super().__init__(module, lr)
        if not 0.0 <= momentum < 1.0:
            raise TrainingError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity = {
            name: np.zeros_like(param.data) for name, param in self._named
        }

    def step(self) -> None:
        for name, param in self._named:
            if self.momentum:
                velocity = self._velocity[name]
                velocity *= self.momentum
                velocity += param.grad
                param.data -= self.lr * velocity
            else:
                param.data -= self.lr * param.grad
        self.steps += 1

    def state_tensors(self) -> Dict[str, np.ndarray]:
        state = {f"velocity/{name}": v for name, v in self._velocity.items()}
        state["steps"] = np.array([self.steps], dtype=np.int64)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        expected = [f"velocity/{name}" for name in self._velocity] + ["steps"]
        self._check_keys(state, expected)
        for name in self._velocity:
            self._velocity[name][...] = state[f"velocity/{name}"]
        self.steps = int(state["steps"][0])


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        module: Module,
        lr: float = 1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(module, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise TrainingError(f"betas must be in [0, 1), got {betas}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = {name: np.zeros_like(p.data) for name, p in self._named}
        self._v = {name: np.zeros_like(p.data) for name, p in self._named}

    def step(self) -> None:
        self.steps += 1
        bias1 = 1.0 - self.beta1**self.steps
        bias2 = 1.0 - self.beta2**self.steps
        for name, param in self._named:
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_tensors(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for name in self._m:
            state[f"exp_avg/{name}"] = self._m[name]
            state[f"exp_avg_sq/{name}"] = self._v[name]
        state["steps"] = np.array([self.steps], dtype=np.int64)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        expected = (
            [f"exp_avg/{name}" for name in self._m]
            + [f"exp_avg_sq/{name}" for name in self._v]
            + ["steps"]
        )
        self._check_keys(state, expected)
        for name in self._m:
            self._m[name][...] = state[f"exp_avg/{name}"]
            self._v[name][...] = state[f"exp_avg_sq/{name}"]
        self.steps = int(state["steps"][0])


class AdamW(Adam):
    """Adam with decoupled weight decay (the LLM-training default)."""

    def __init__(
        self,
        module: Module,
        lr: float = 1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ) -> None:
        super().__init__(module, lr, betas, eps, weight_decay=0.0)
        self.decoupled_decay = weight_decay

    def step(self) -> None:
        if self.decoupled_decay:
            for _, param in self._named:
                param.data *= 1.0 - self.lr * self.decoupled_decay
        super().step()
