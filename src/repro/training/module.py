"""Module/parameter base classes for the miniature training stack.

The paper checkpoints PyTorch model + optimizer state; this package is a
small, dependency-free stand-in with the same shape: modules own named
:class:`Parameter` tensors, produce ``state_dict()`` mappings, and support
explicit forward/backward passes so the training loop has a real update
step (the ``U`` phase whose consistency the checkpointing protocol must
respect).

The autograd is deliberately simple: every layer caches what it needs in
``forward`` and implements ``backward(grad_output) -> grad_input``,
accumulating parameter gradients.  That is all a training-loop substrate
needs, and it keeps each layer auditable.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.errors import TrainingError


class Parameter:
    """A trainable tensor with an accumulated gradient."""

    def __init__(self, data: np.ndarray) -> None:
        self.data = np.ascontiguousarray(data, dtype=np.float32)
        self.grad = np.zeros_like(self.data)

    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the underlying tensor."""
        return self.data.shape

    @property
    def size(self) -> int:
        """Number of elements."""
        return self.data.size

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad.fill(0.0)


class Module:
    """Base class: named parameters, submodules, state dicts.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; discovery walks ``__dict__`` like PyTorch's ``nn.Module``.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    # forward/backward contract

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer output (must be overridden)."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate; returns the gradient w.r.t. the layer input."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # ------------------------------------------------------------------
    # parameter traversal

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth first."""
        for name, value in vars(self).items():
            if isinstance(value, Parameter):
                yield f"{prefix}{name}", value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{prefix}{name}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(
                            prefix=f"{prefix}{name}.{index}."
                        )

    def parameters(self) -> List[Parameter]:
        """All parameters in traversal order."""
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of trainable scalars."""
        return sum(param.size for param in self.parameters())

    def state_nbytes(self) -> int:
        """Bytes of parameter state (the model part of a checkpoint)."""
        return sum(param.data.nbytes for param in self.parameters())

    def zero_grad(self) -> None:
        """Reset every parameter gradient."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # state dicts

    def state_tensors(self) -> Dict[str, np.ndarray]:
        """The *live* parameter tensors, keyed by dotted name — no copies.

        The one enumeration of this module's checkpointable state:
        :meth:`state_dict` copies from it, and a zero-copy snapshot
        source reads through it.  The arrays change at the next
        optimizer update.
        """
        return {name: param.data for name, param in self.named_parameters()}

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copies of all parameter tensors, keyed by dotted name."""
        return {name: value.copy() for name, value in self.state_tensors().items()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore parameters from :meth:`state_dict` output.

        Keys and shapes must match exactly — a partial restore would
        silently train from a chimera state.
        """
        params = dict(self.named_parameters())
        missing = params.keys() - state.keys()
        unexpected = state.keys() - params.keys()
        if missing or unexpected:
            raise TrainingError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, value in state.items():
            param = params[name]
            if param.data.shape != value.shape:
                raise TrainingError(
                    f"shape mismatch for {name}: "
                    f"{param.data.shape} vs {value.shape}"
                )
            param.data[...] = value

    # ------------------------------------------------------------------
    # train/eval mode

    def train(self) -> "Module":
        """Enable training-mode behaviour (e.g. dropout active)."""
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        """Enable inference-mode behaviour."""
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for value in vars(self).values():
            if isinstance(value, Module):
                value._set_mode(training)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item._set_mode(training)
