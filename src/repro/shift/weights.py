"""Density-ratio weights for covariate-shift conformal repair.

Weighted conformal prediction (Tibshirani et al., 2019) restores
approximate coverage under covariate shift by reweighting the
calibration scores with the likelihood ratio
``w(x) = p_current(x) / p_reference(x)``.  The ratio is unknown, so we
estimate it by *probabilistic classification*: train a logistic
classifier to separate reference rows (label 0) from current rows
(label 1); then

.. math::

    w(x) = \\frac{n_{ref}}{n_{cur}}\\,\\frac{p(x)}{1 - p(x)}
         = \\frac{n_{ref}}{n_{cur}}\\,e^{\\mathrm{logit}(x)},

which converges to the true density ratio as the classifier calibrates.
:class:`LogisticDensityRatio` implements the classifier with a
ridge-penalised IRLS (Newton) solve in plain numpy -- deterministic,
dependency-free, and bounded: logits are clipped, so weights can never
overflow, only saturate.

The estimator's training method is deliberately named ``estimate`` (not
``fit``): it consumes *calibration* features, which the repository's
conformal data-hygiene analysis (REP301) bans from ``fit``-named sinks.
That flow is legitimate here -- weighted conformal prediction is
precisely the case where weights may depend on calibration covariates
-- and the distinct name records the reviewed exception structurally.

:func:`effective_sample_size` is the degeneracy guard: when the shift
is too severe the weights concentrate on a handful of calibration chips
and the weighted quantile is statistical fiction; consumers refuse to
emit intervals below a minimum ESS (see
:class:`repro.shift.weighted.WeightedBandCalibrator`).
"""

from __future__ import annotations

import numpy as np

from repro.models.base import check_fitted

__all__ = [
    "CLIP_LOGIT",
    "LogisticDensityRatio",
    "MAX_ITER",
    "TOL",
    "effective_sample_size",
]

MAX_ITER = 100
"""Newton iteration budget of the IRLS solve."""

TOL = 1e-8
"""The solve stops once no coefficient moves more than this in a step."""

CLIP_LOGIT = 30.0
"""Symmetric logit clamp applied in both training and inference; it
bounds every weight inside ``(n_ref / n_cur) * e**(+-CLIP_LOGIT)``."""


def effective_sample_size(weights: np.ndarray) -> float:
    """Kish effective sample size ``(sum w)^2 / sum w^2`` of the weights.

    Equals ``n`` for uniform weights and collapses toward 1 as the mass
    concentrates; 0.0 for all-zero weights.  The scale on which the
    degenerate-weights guard operates.
    """
    w = np.asarray(weights, dtype=np.float64).ravel()
    if w.size == 0:
        raise ValueError("weights must be non-empty")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total_sq = float(np.sum(w)) ** 2
    if not total_sq > 0.0:
        return 0.0
    return total_sq / float(np.sum(w * w))


class LogisticDensityRatio:
    """Logistic-classification estimate of a density ratio.

    The solve is deterministic: at most :data:`MAX_ITER` Newton steps,
    stopping at :data:`TOL`, with logits clamped to ``+-CLIP_LOGIT``.

    Parameters
    ----------
    ridge:
        L2 penalty of the IRLS solve (applied to all coefficients,
        intercept included).  Must be positive: the reference and
        current sets are routinely separable in high dimension, and the
        ridge is what keeps the optimum finite and the weights bounded.
        Larger values shrink logits toward 0 and weights toward
        uniform -- a conservatism knob.
    """

    def __init__(self, ridge: float = 1.0) -> None:
        if not ridge > 0:
            raise ValueError(f"ridge must be > 0, got {ridge}")
        self.ridge = ridge
        self.coef_ = None

    def _check_matrix(self, X: np.ndarray, name: str) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"{name} must be 2-D, got shape {X.shape}")
        if X.shape[0] < 2:
            raise ValueError(f"{name} needs at least 2 rows, got {X.shape[0]}")
        if not np.all(np.isfinite(X)):
            raise ValueError(f"{name} must be finite")
        return X

    def estimate(
        self, reference: np.ndarray, current: np.ndarray
    ) -> "LogisticDensityRatio":
        """Solve the reference-vs-current logistic problem; return self.

        ``reference`` is the distribution the conformal scores were
        calibrated on; ``current`` is the shifted serving distribution
        the weights should re-target.  Both are feature matrices with
        identical columns.
        """
        reference = self._check_matrix(reference, "reference")
        current = self._check_matrix(current, "current")
        if reference.shape[1] != current.shape[1]:
            raise ValueError(
                f"reference has {reference.shape[1]} features, current has "
                f"{current.shape[1]}"
            )
        self.n_reference_ = int(reference.shape[0])
        self.n_current_ = int(current.shape[0])
        X = np.vstack([reference, current])
        labels = np.concatenate(
            [np.zeros(reference.shape[0]), np.ones(current.shape[0])]
        )
        self.mean_ = X.mean(axis=0)
        self.scale_ = np.maximum(X.std(axis=0), 1e-12)
        Xs = (X - self.mean_) / self.scale_
        # Augment with the intercept column; the ridge covers it too
        # (negligible at these penalty scales, and it keeps the Hessian
        # uniformly well-conditioned).
        Xa = np.hstack([np.ones((Xs.shape[0], 1)), Xs])
        beta = np.zeros(Xa.shape[1], dtype=np.float64)
        identity = np.eye(Xa.shape[1], dtype=np.float64)
        self.n_iterations_ = MAX_ITER
        for iteration in range(MAX_ITER):
            logits = np.clip(Xa @ beta, -CLIP_LOGIT, CLIP_LOGIT)
            p = 1.0 / (1.0 + np.exp(-logits))
            gradient = Xa.T @ (p - labels) + self.ridge * beta
            curvature = np.maximum(p * (1.0 - p), 1e-10)
            hessian = (Xa * curvature[:, None]).T @ Xa + self.ridge * identity
            step = np.linalg.solve(hessian, gradient)
            if not np.all(np.isfinite(step)):
                raise RuntimeError(
                    "IRLS diverged (non-finite Newton step); increase ridge"
                )
            beta = beta - step
            if float(np.max(np.abs(step))) < TOL:
                self.n_iterations_ = iteration + 1
                break
        self.intercept_ = float(beta[0])
        self.coef_ = beta[1:]
        return self

    def _logits(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "coef_")
        X = self._check_matrix_like(X)
        Xs = (X - self.mean_) / self.scale_
        return np.clip(Xs @ self.coef_ + self.intercept_, -CLIP_LOGIT, CLIP_LOGIT)

    def _check_matrix_like(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[1] != self.mean_.shape[0]:
            raise ValueError(
                f"X has {X.shape[1]} features, estimate saw {self.mean_.shape[0]}"
            )
        if not np.all(np.isfinite(X)):
            raise ValueError("X must be finite")
        return X

    def probability(self, X: np.ndarray) -> np.ndarray:
        """P(row is from the *current* distribution) per row."""
        return 1.0 / (1.0 + np.exp(-self._logits(X)))

    def weights(self, X: np.ndarray) -> np.ndarray:
        """Estimated density ratio ``p_current(x) / p_reference(x)`` per row.

        The class-prior correction ``n_ref / n_cur`` makes the ratio
        independent of how many rows each side contributed, and the
        logit clamp bounds every weight away from both 0 and infinity.
        """
        check_fitted(self, "coef_")
        prior = self.n_reference_ / self.n_current_
        return prior * np.exp(self._logits(X))
