"""Correlation Feature Selection (Hall 1999), paper Section IV-C.

CFS scores a feature subset ``S`` by the merit

.. math::

    \\mathrm{merit}(S) = \\frac{k\\,\\overline{r_{fy}}}
        {\\sqrt{k + k(k-1)\\,\\overline{r_{ff}}}},

where ``k = |S|``, :math:`\\overline{r_{fy}}` is the mean absolute
feature--target correlation and :math:`\\overline{r_{ff}}` the mean
absolute pairwise feature--feature correlation.  Good subsets contain
features highly correlated with the target yet uncorrelated with each
other -- exactly what is needed to pick a handful of informative channels
out of 1800 redundant parametric tests.

:class:`CFSSelector` runs a greedy forward search: starting from the
single best feature, it repeatedly adds the feature maximising the merit
of the enlarged subset, recording the best subset of every size up to
``k_max`` so the 1..10 sweep of the paper comes out of one search.  Every
correlation it needs -- each column against the target, and each column
against the newest member -- comes from :func:`feature_target_correlation`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.models.base import check_fitted

__all__ = ["CFSSelector", "feature_target_correlation"]


def feature_target_correlation(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pearson correlation of every column of ``X`` with ``y``, vectorised.

    Returns an array of shape ``(n_features,)``.  A constant column, or a
    constant ``y``, has undefined correlation, defined here as 0: it
    carries no linear information, so CFS never prefers a dead channel.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError(
            f"X must be 2-D and y 1-D with matching length, got {X.shape}, {y.shape}"
        )
    X_centered = X - X.mean(axis=0)
    y_centered = y - y.mean()
    x_std = X_centered.std(axis=0)
    y_std = y_centered.std()
    if y_std == 0.0:
        return np.zeros(X.shape[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = (X_centered * y_centered[:, None]).mean(axis=0) / (x_std * y_std)
    return np.where(x_std == 0.0, 0.0, corr)


class CFSSelector:
    """Greedy forward CFS over a feature matrix, on Pearson correlation.

    Parameters
    ----------
    k_max:
        Largest subset size to record (paper sweeps 1..10).

    Attributes
    ----------
    selected_:
        Indices of the ``k_max`` features in greedy order; the best subset
        of size ``k`` is ``selected_[:k]``.
    merits_:
        Merit of each prefix subset, aligned with ``selected_``.
    """

    def __init__(self, k_max: int = 10) -> None:
        if k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {k_max}")
        self.k_max = k_max
        self.selected_: Optional[List[int]] = None
        self.merits_: Optional[List[float]] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "CFSSelector":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError(
                f"X must be 2-D and y 1-D with matching length, got {X.shape}, {y.shape}"
            )
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            # A single NaN silently zeroes whole correlation columns and
            # corrupts the greedy search; fail loudly instead.
            raise ValueError("CFS inputs must be finite (no NaN/inf)")
        n_features = X.shape[1]
        k_max = min(self.k_max, n_features)

        target_corr = np.abs(feature_target_correlation(X, y))

        selected: List[int] = []
        merits: List[float] = []
        # Running sums for incremental merit evaluation: for each candidate
        # feature we track the sum of its |corr| with the selected set.
        candidate_ff_sums = np.zeros(n_features)
        selected_mask = np.zeros(n_features, dtype=bool)
        rfy_sum = 0.0
        ff_pair_sum = 0.0

        for step in range(k_max):
            k = step + 1
            pairs = k * (k - 1) / 2.0
            with np.errstate(divide="ignore", invalid="ignore"):
                mean_rfy = (rfy_sum + target_corr) / k
                mean_rff = (
                    (ff_pair_sum + candidate_ff_sums) / pairs if pairs > 0 else 0.0
                )
                denominator = np.sqrt(k + k * (k - 1) * mean_rff)
                merit = np.where(denominator > 0, k * mean_rfy / denominator, 0.0)
            merit = np.where(selected_mask, -np.inf, merit)
            best = int(np.argmax(merit))
            if not np.isfinite(merit[best]):
                break
            selected.append(best)
            merits.append(float(merit[best]))
            selected_mask[best] = True
            rfy_sum += target_corr[best]
            ff_pair_sum += candidate_ff_sums[best]
            # Update each candidate's correlation-sum with the new member.
            candidate_ff_sums += np.abs(feature_target_correlation(X, X[:, best]))

        self.selected_ = selected
        self.merits_ = merits
        return self

    def subset(self, k: int) -> List[int]:
        """The selected indices of the best greedy subset of size ``k``."""
        check_fitted(self, "selected_")
        if not 1 <= k <= len(self.selected_):
            raise ValueError(
                f"k must be in [1, {len(self.selected_)}], got {k}"
            )
        return self.selected_[:k]

    def transform(self, X: np.ndarray, k: Optional[int] = None) -> np.ndarray:
        """Project ``X`` onto the best subset of size ``k`` (all by default)."""
        check_fitted(self, "selected_")
        k = len(self.selected_) if k is None else k
        return np.asarray(X, dtype=np.float64)[:, self.subset(k)]
