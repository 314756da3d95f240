"""Reference bodies of the CFS feature pipeline.

* :func:`pearson_correlation` -- the scalar Pearson correlation the
  vectorised :func:`repro.features.cfs.feature_target_correlation` must
  agree with, column by column;
* :func:`batch_abs_pearson` and :func:`cfs_scan` -- the greedy CFS
  search with its own column-vs-vector kernel, as
  :class:`~repro.features.cfs.CFSSelector` ran it before it read every
  correlation from ``feature_target_correlation``;
* :class:`SelectedFeatureModel` -- the select -> scale -> fit composition
  the Fig.-2 point cells and the Table-III GP cell were fitted through
  before they moved to
  :class:`~repro.features.selection.CFSSelectedRegressor`.

The parity tests hold the production code to these bit for bit.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.features.cfs import CFSSelector
from repro.features.preprocessing import StandardScaler


def pearson_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of two 1-D arrays; 0 when either is constant."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"inputs must be 1-D with equal length, got {a.shape}, {b.shape}")
    if a.size < 2:
        raise ValueError("correlation needs at least 2 samples")
    std_a = a.std()
    std_b = b.std()
    if std_a == 0.0 or std_b == 0.0:
        return 0.0
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (std_a * std_b))


def batch_abs_pearson(X: np.ndarray, column: np.ndarray) -> np.ndarray:
    """|Pearson correlation| of every column of ``X`` with ``column``."""
    X_centered = X - X.mean(axis=0)
    c_centered = column - column.mean()
    x_std = X_centered.std(axis=0)
    c_std = c_centered.std()
    if c_std == 0.0:
        return np.zeros(X.shape[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = (X_centered * c_centered[:, None]).mean(axis=0) / (x_std * c_std)
    return np.abs(np.where(x_std == 0.0, 0.0, corr))


def cfs_scan(X: np.ndarray, y: np.ndarray, k_max: int) -> Tuple[List[int], List[float]]:
    """Greedy forward CFS on Pearson correlation: ``(selected, merits)``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n_features = X.shape[1]
    target_corr = batch_abs_pearson(X, y)
    selected: List[int] = []
    merits: List[float] = []
    candidate_ff_sums = np.zeros(n_features)
    selected_mask = np.zeros(n_features, dtype=bool)
    rfy_sum = 0.0
    ff_pair_sum = 0.0
    for step in range(min(k_max, n_features)):
        k = step + 1
        pairs = k * (k - 1) / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            mean_rfy = (rfy_sum + target_corr) / k
            mean_rff = (ff_pair_sum + candidate_ff_sums) / pairs if pairs > 0 else 0.0
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
        candidate_ff_sums += batch_abs_pearson(X, X[:, best])
    return selected, merits


class SelectedFeatureModel:
    """CFS selection + optional standardisation + ``model``, fitted in place.

    Callers pass a fresh (cloned) model, as the experiment runners did.
    """

    def __init__(self, model, k: int, scale: bool) -> None:
        self._model = model
        self._k = k
        self._scale = scale

    def fit(self, X: np.ndarray, y: np.ndarray) -> "SelectedFeatureModel":
        self._selector = CFSSelector(k_max=self._k).fit(X, y)
        X = self._selector.transform(X)
        if self._scale:
            self._scaler = StandardScaler().fit(X)
            X = self._scaler.transform(X)
        else:
            self._scaler = None
        self._model.fit(X, y)
        return self

    def _transform(self, X: np.ndarray) -> np.ndarray:
        X = self._selector.transform(X)
        if self._scaler is not None:
            X = self._scaler.transform(X)
        return X

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._model.predict(self._transform(X))

    def predict_interval(self, X: np.ndarray, **kwargs):
        return self._model.predict_interval(self._transform(X), **kwargs)
