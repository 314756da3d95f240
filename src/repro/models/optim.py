"""First-order optimiser for the numpy neural network.

The paper's MLP (Section IV-C.4) is trained with Adam (Kingma & Ba, 2015)
at learning rate 0.01.  Because :mod:`repro.models.nn` implements backprop
by hand, the optimiser here operates on plain lists of numpy parameter
arrays and their gradients -- no autograd framework is involved.

The optimiser mutates the parameter arrays in place, which lets the
network keep stable references to its weight matrices across steps.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["Adam"]


class Adam:
    """Adam optimiser with bias-corrected first/second moment estimates.

    Parameters
    ----------
    learning_rate:
        Step size :math:`\\alpha` (paper uses 0.01).
    beta1, beta2:
        Exponential decay rates for the first and second moment estimates.
    epsilon:
        Numerical stabiliser added to the denominator.
    """

    def __init__(
        self,
        learning_rate: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must lie in [0, 1), got {beta1}, {beta2}")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._first_moments: List[np.ndarray] = []
        self._second_moments: List[np.ndarray] = []
        self._step_count = 0

    def _ensure_state(self, parameters: Sequence[np.ndarray]) -> None:
        if not self._first_moments:
            self._first_moments = [np.zeros_like(p) for p in parameters]
            self._second_moments = [np.zeros_like(p) for p in parameters]
        elif len(self._first_moments) != len(parameters):
            raise ValueError(
                "parameter list length changed between steps: "
                f"{len(self._first_moments)} vs {len(parameters)}"
            )

    def step(
        self, parameters: Sequence[np.ndarray], gradients: Sequence[np.ndarray]
    ) -> None:
        """Apply one Adam update to ``parameters`` in place."""
        if len(parameters) != len(gradients):
            raise ValueError(
                f"got {len(parameters)} parameters but {len(gradients)} gradients"
            )
        self._ensure_state(parameters)
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, grad, m, v in zip(
            parameters, gradients, self._first_moments, self._second_moments
        ):
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def reset(self) -> None:
        """Forget all moment estimates (e.g. before refitting a model)."""
        self._first_moments = []
        self._second_moments = []
        self._step_count = 0
