"""Exact Gaussian process regression (paper Sections II-B.1 and IV-C.1).

The GP baseline in the paper uses an RBF kernel whose hyper-parameters are
optimised to maximise the marginal likelihood of the training data, and
builds prediction intervals from the posterior Gaussian at each test point
(Eq. 4):

.. math::

    C(x) = [\\mu(x) + K_{lo}\\,\\sigma(x),\\ \\mu(x) + K_{hi}\\,\\sigma(x)],
    \\quad K_{lo} = \\Phi^{-1}(\\alpha/2),\\ K_{hi} = \\Phi^{-1}(1-\\alpha/2).

Implementation follows Rasmussen & Williams (2006) Algorithm 2.1: Cholesky
factorisation of the kernel matrix, log-marginal-likelihood optimisation
with L-BFGS-B over log hyper-parameters (finite-difference gradients keep
the kernel algebra simple), and multiple random restarts.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np
from scipy import optimize
from scipy.linalg import cho_factor, cho_solve
from scipy.stats import norm

from repro.models.base import (
    BaseRegressor,
    check_fitted,
    check_random_state,
    check_X,
    check_X_y,
)
from repro.models.kernels import ConstantKernel, Kernel, RBFKernel, WhiteKernel

__all__ = ["GaussianProcessRegressor"]


def _jittered_cholesky(K: np.ndarray, alpha: float) -> Tuple[tuple, float]:
    """Cholesky factor of ``K + jitter * I`` and the jitter it took.

    The jitter is ``alpha`` whenever that factors, so such fits keep their
    floats.  Hyper-parameters at the corner of the kernel bounds (a huge
    signal variance and length scale over a tiny noise) make ``K`` every
    entry alike and numerically singular; the jitter then grows tenfold
    per try, from at least ``eps * max|K|``, until ``K`` factors -- as it
    must once the jitter outweighs ``K``'s rounding.  So the marginal
    likelihood is finite at every hyper-parameter, and the optimiser's
    finite differences never subtract infinities.
    """
    diagonal = np.diag_indices_from(K)
    jitter = alpha
    while True:
        jittered = K.copy()
        jittered[diagonal] += jitter
        try:
            return cho_factor(jittered, lower=True), jitter
        except np.linalg.LinAlgError:
            floor = np.finfo(np.float64).eps * max(float(np.max(np.abs(K))), 1.0)
            jitter = max(10.0 * jitter, floor)


class GaussianProcessRegressor(BaseRegressor):
    """Exact GP regression with ML-II hyper-parameter fitting.

    Parameters
    ----------
    kernel:
        Prior covariance function.  ``None`` uses the paper's setup:
        ``ConstantKernel() * RBFKernel() + WhiteKernel()`` so signal
        variance, length scale, and noise are all learnt from data.
    alpha:
        Jitter added to the kernel diagonal for numerical stability (on top
        of any learnt WhiteKernel noise); grown where the kernel matrix
        would not factor with it (``jitter_``).
    n_restarts:
        Number of additional random restarts for the marginal-likelihood
        optimisation (0 = optimise from the initial theta only).
    normalize_y:
        Standardise the targets before fitting and undo the transform at
        prediction time; recommended because the zero-mean GP prior is a
        poor fit for raw Vmin values around, say, 550 mV.
    optimizer:
        ``"lbfgs"`` (default) or ``None`` to keep the initial
        hyper-parameters untouched.
    random_state:
        Seed for restart sampling.
    """

    def __init__(
        self,
        kernel: Optional[Kernel] = None,
        alpha: float = 1e-10,
        n_restarts: int = 2,
        normalize_y: bool = True,
        optimizer: Optional[str] = "lbfgs",
        random_state: Optional[int] = None,
    ) -> None:
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        if n_restarts < 0:
            raise ValueError(f"n_restarts must be non-negative, got {n_restarts}")
        if optimizer not in (None, "lbfgs"):
            raise ValueError(f"optimizer must be None or 'lbfgs', got {optimizer!r}")
        self.kernel = kernel
        self.alpha = alpha
        self.n_restarts = n_restarts
        self.normalize_y = normalize_y
        self.optimizer = optimizer
        self.random_state = random_state
        self.kernel_: Optional[Kernel] = None

    # -- marginal likelihood ------------------------------------------------
    def _log_marginal_likelihood(
        self, kernel: Kernel, X: np.ndarray, y: np.ndarray
    ) -> float:
        factor, _ = _jittered_cholesky(kernel(X), self.alpha)
        alpha_vec = cho_solve(factor, y)
        log_det = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
        n = y.shape[0]
        return float(
            -0.5 * y @ alpha_vec - 0.5 * log_det - 0.5 * n * math.log(2.0 * math.pi)
        )

    def _optimize_kernel(
        self, kernel: Kernel, X: np.ndarray, y: np.ndarray
    ) -> Tuple[Kernel, float]:
        bounds = kernel.bounds

        def negative_lml(theta: np.ndarray) -> float:
            return -self._log_marginal_likelihood(kernel.clone_with_theta(theta), X, y)

        rng = check_random_state(self.random_state)
        starts = [kernel.theta]
        for _ in range(self.n_restarts):
            starts.append(rng.uniform(bounds[:, 0], bounds[:, 1]))

        best_theta = kernel.theta
        best_value = negative_lml(best_theta)
        for start in starts:
            result = optimize.minimize(
                negative_lml,
                start,
                method="L-BFGS-B",
                bounds=bounds,
            )
            if result.fun < best_value and np.all(np.isfinite(result.x)):
                best_value = float(result.fun)
                best_theta = result.x
        return kernel.clone_with_theta(best_theta), -best_value

    # -- fitting --------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcessRegressor":
        X, y = check_X_y(X, y)
        self.n_features_in_ = X.shape[1]
        self.X_train_ = X

        if self.normalize_y:
            self._y_mean = float(y.mean())
            self._y_std = float(y.std())
            if self._y_std == 0.0:
                self._y_std = 1.0
        else:
            self._y_mean = 0.0
            self._y_std = 1.0
        y_work = (y - self._y_mean) / self._y_std

        kernel = self.kernel
        if kernel is None:
            kernel = ConstantKernel(1.0) * RBFKernel(1.0) + WhiteKernel(0.1)
        else:
            import copy

            kernel = copy.deepcopy(kernel)

        if self.optimizer is not None and kernel.theta.size:
            kernel, lml = self._optimize_kernel(kernel, X, y_work)
        else:
            lml = self._log_marginal_likelihood(kernel, X, y_work)
        self.kernel_ = kernel
        self.log_marginal_likelihood_ = lml

        self._cho, self.jitter_ = _jittered_cholesky(kernel(X), self.alpha)
        self._alpha_vec = cho_solve(self._cho, y_work)
        self._y_train = y_work
        return self

    # -- prediction -------------------------------------------------------------
    def predict(
        self, X: np.ndarray, return_std: bool = False
    ):
        """Posterior mean (and optionally standard deviation) at ``X``.

        The returned standard deviation is the *predictive* one: it includes
        learnt observation noise (any WhiteKernel term), which is what the
        interval construction of Eq. (4) needs to cover noisy Vmin labels.
        """
        check_fitted(self, "kernel_")
        X = check_X(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fitted with "
                f"{self.n_features_in_}"
            )
        K_cross = self.kernel_(X, self.X_train_)
        mean = K_cross @ self._alpha_vec
        mean = mean * self._y_std + self._y_mean
        if not return_std:
            return mean
        solved = cho_solve(self._cho, K_cross.T)
        prior_var = self.kernel_.diag(X) + self.jitter_
        variance = prior_var - np.einsum("ij,ji->i", K_cross, solved)
        variance = np.maximum(variance, 0.0)
        std = np.sqrt(variance) * self._y_std
        return mean, std

    def predict_interval(
        self, X: np.ndarray, alpha: float = 0.1
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Central ``1 − alpha`` Gaussian prediction interval, paper Eq. (4)."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        mean, std = self.predict(X, return_std=True)
        k_hi = norm.ppf(1.0 - alpha / 2.0)
        return mean - k_hi * std, mean + k_hi * std
