"""Covariance kernels for Gaussian process regression.

The paper's GP baseline (Section IV-C.1) uses a radial basis function
kernel whose hyper-parameters are fitted by maximising the marginal
likelihood.  This module provides the small kernel algebra required:

* :class:`RBFKernel` -- squared-exponential with a shared or per-dimension
  (ARD) length scale,
* :class:`ConstantKernel` / :class:`WhiteKernel` -- signal variance and
  observation noise,
* :class:`SumKernel` / :class:`ProductKernel` -- composition via ``+``/``*``.

Every kernel stores its tunable hyper-parameters in log space (``theta``)
so the GP's L-BFGS optimisation is unconstrained, mirroring scikit-learn's
design.  ``__call__(X, Z)`` returns the cross-covariance matrix; ``diag(X)``
returns the prior variances without building the full matrix.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np
from scipy.spatial.distance import cdist

__all__ = [
    "ConstantKernel",
    "Kernel",
    "ProductKernel",
    "RBFKernel",
    "SumKernel",
    "WhiteKernel",
]


class Kernel:
    """Abstract base: a positive-semidefinite covariance function."""

    # -- hyper-parameter vector (log space) --------------------------------
    @property
    def theta(self) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    @theta.setter
    def theta(self, value: np.ndarray) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def bounds(self) -> np.ndarray:
        """Log-space (low, high) bounds per hyper-parameter, shape (k, 2)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def __call__(
        self, X: np.ndarray, Z: Optional[np.ndarray] = None
    ) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def diag(self, X: np.ndarray) -> np.ndarray:
        return np.diag(self(X))

    def clone_with_theta(self, theta: np.ndarray) -> "Kernel":
        import copy

        clone = copy.deepcopy(self)
        clone.theta = np.asarray(theta, dtype=np.float64)
        return clone

    # -- composition --------------------------------------------------------
    def __add__(self, other: "Kernel") -> "SumKernel":
        return SumKernel(self, _as_kernel(other))

    def __radd__(self, other: "Kernel") -> "SumKernel":
        return SumKernel(_as_kernel(other), self)

    def __mul__(self, other: "Kernel") -> "ProductKernel":
        return ProductKernel(self, _as_kernel(other))

    def __rmul__(self, other: "Kernel") -> "ProductKernel":
        return ProductKernel(_as_kernel(other), self)


def _as_kernel(value) -> "Kernel":
    if isinstance(value, Kernel):
        return value
    if isinstance(value, (int, float)):
        return ConstantKernel(float(value))
    raise TypeError(f"cannot interpret {value!r} as a kernel")


_LOG_BOUND = (math.log(1e-5), math.log(1e5))


class RBFKernel(Kernel):
    """Squared exponential kernel ``k(x, z) = exp(−‖x − z‖² / (2ℓ²))``.

    ``length_scale`` may be a scalar (isotropic) or a vector with one entry
    per input dimension (automatic relevance determination).  The paper's
    companion work uses ARD length scales as feature-significance
    indicators, so both modes are supported.
    """

    def __init__(self, length_scale=1.0) -> None:
        self.length_scale = np.atleast_1d(np.asarray(length_scale, dtype=np.float64))
        if np.any(self.length_scale <= 0):
            raise ValueError("length_scale entries must be positive")

    @property
    def anisotropic(self) -> bool:
        return self.length_scale.size > 1

    @property
    def theta(self) -> np.ndarray:
        return np.log(self.length_scale)

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        value = np.atleast_1d(np.asarray(value, dtype=np.float64))
        if value.size != self.length_scale.size:
            raise ValueError(
                f"theta has {value.size} entries, expected {self.length_scale.size}"
            )
        self.length_scale = np.exp(value)

    @property
    def bounds(self) -> np.ndarray:
        return np.tile(_LOG_BOUND, (self.length_scale.size, 1))

    def __call__(self, X: np.ndarray, Z: Optional[np.ndarray] = None) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        Z = X if Z is None else np.asarray(Z, dtype=np.float64)
        scaled_X = X / self.length_scale
        scaled_Z = Z / self.length_scale
        squared = cdist(scaled_X, scaled_Z, metric="sqeuclidean")
        return np.exp(-0.5 * squared)

    def diag(self, X: np.ndarray) -> np.ndarray:
        return np.ones(np.asarray(X).shape[0])


class ConstantKernel(Kernel):
    """Constant covariance ``k(x, z) = value`` (signal variance when used
    multiplicatively)."""

    def __init__(self, value: float = 1.0) -> None:
        if value <= 0:
            raise ValueError(f"value must be positive, got {value}")
        self.value = float(value)

    @property
    def theta(self) -> np.ndarray:
        return np.array([math.log(self.value)])

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        value = np.atleast_1d(np.asarray(value, dtype=np.float64))
        if value.size != 1:
            raise ValueError(f"theta must have 1 entry, got {value.size}")
        self.value = float(np.exp(value[0]))

    @property
    def bounds(self) -> np.ndarray:
        return np.array([_LOG_BOUND])

    def __call__(self, X: np.ndarray, Z: Optional[np.ndarray] = None) -> np.ndarray:
        X = np.asarray(X)
        Z = X if Z is None else np.asarray(Z)
        return np.full((X.shape[0], Z.shape[0]), self.value)

    def diag(self, X: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(X).shape[0], self.value)


class WhiteKernel(Kernel):
    """Observation-noise kernel: ``noise_level`` on the diagonal, 0 off it.

    Cross-covariance between distinct sets is identically zero -- noise is
    independent per observation, so it never transfers to test points.
    """

    def __init__(self, noise_level: float = 1.0) -> None:
        if noise_level <= 0:
            raise ValueError(f"noise_level must be positive, got {noise_level}")
        self.noise_level = float(noise_level)

    @property
    def theta(self) -> np.ndarray:
        return np.array([math.log(self.noise_level)])

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        value = np.atleast_1d(np.asarray(value, dtype=np.float64))
        if value.size != 1:
            raise ValueError(f"theta must have 1 entry, got {value.size}")
        self.noise_level = float(np.exp(value[0]))

    @property
    def bounds(self) -> np.ndarray:
        return np.array([(math.log(1e-10), math.log(1e2))])

    def __call__(self, X: np.ndarray, Z: Optional[np.ndarray] = None) -> np.ndarray:
        X = np.asarray(X)
        if Z is None:
            return self.noise_level * np.eye(X.shape[0])
        Z = np.asarray(Z)
        return np.zeros((X.shape[0], Z.shape[0]))

    def diag(self, X: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(X).shape[0], self.noise_level)


class _CompositeKernel(Kernel):
    """Shared theta-splitting machinery for sum/product kernels."""

    def __init__(self, left: Kernel, right: Kernel) -> None:
        self.left = left
        self.right = right

    def _split(self, theta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        n_left = self.left.theta.size
        return theta[:n_left], theta[n_left:]

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([self.left.theta, self.right.theta])

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=np.float64)
        expected = self.left.theta.size + self.right.theta.size
        if value.size != expected:
            raise ValueError(f"theta must have {expected} entries, got {value.size}")
        left_theta, right_theta = self._split(value)
        self.left.theta = left_theta
        self.right.theta = right_theta

    @property
    def bounds(self) -> np.ndarray:
        parts: List[np.ndarray] = []
        if self.left.theta.size:
            parts.append(np.atleast_2d(self.left.bounds))
        if self.right.theta.size:
            parts.append(np.atleast_2d(self.right.bounds))
        if not parts:
            return np.empty((0, 2))
        return np.vstack(parts)


class SumKernel(_CompositeKernel):
    """Pointwise sum of two kernels (e.g. signal + noise)."""

    def __call__(self, X: np.ndarray, Z: Optional[np.ndarray] = None) -> np.ndarray:
        return self.left(X, Z) + self.right(X, Z)

    def diag(self, X: np.ndarray) -> np.ndarray:
        return self.left.diag(X) + self.right.diag(X)


class ProductKernel(_CompositeKernel):
    """Pointwise product of two kernels (e.g. variance-scaled RBF)."""

    def __call__(self, X: np.ndarray, Z: Optional[np.ndarray] = None) -> np.ndarray:
        return self.left(X, Z) * self.right(X, Z)

    def diag(self, X: np.ndarray) -> np.ndarray:
        return self.left.diag(X) * self.right.diag(X)
