"""Reference bodies of the depth-wise split search and of boosted scoring.

* :func:`best_split_for_feature` is the seed's one-column exact finder:
  sort, prefix sums, gain at every boundary between distinct values.
  :func:`best_split_loop` runs it over every column in a Python loop
  and has the signature of the batched production finder
  (:func:`repro.models.tree._best_split_all_features`), so a parity test
  can monkeypatch it in and grow a whole tree the legacy way.
* :func:`predict_loop` / :func:`staged_predict_loop` accumulate a fitted
  booster tree by tree, ``p += lr * tree(X)`` in fitting order: the
  per-tree loop the compiled decision-table kernels
  (:mod:`repro.models.tables`) must reproduce bit for bit.  Both take the
  booster as their first argument, so either can stand in for a
  booster's ``predict``/``staged_predict`` method.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.models.tree import TreeGrowthParams


def best_split_for_feature(
    values: np.ndarray,
    gradients: np.ndarray,
    hessians: np.ndarray,
    params: TreeGrowthParams,
) -> Tuple[float, float]:
    """``(gain, threshold)`` of the best split of one column, or ``(-inf, nan)``."""
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    grad_prefix = np.cumsum(gradients[order])
    hess_prefix = np.cumsum(hessians[order])
    total_grad = grad_prefix[-1]
    total_hess = hess_prefix[-1]
    n = values.shape[0]

    # Candidate split after position i keeps samples [0..i] on the left.
    positions = np.arange(n - 1)
    distinct = sorted_values[positions] < sorted_values[positions + 1]
    left_count = positions + 1
    right_count = n - left_count
    admissible = (
        distinct
        & (left_count >= params.min_samples_leaf)
        & (right_count >= params.min_samples_leaf)
    )
    if not np.any(admissible):
        return -np.inf, float("nan")

    g_left = grad_prefix[positions]
    h_left = hess_prefix[positions]
    g_right = total_grad - g_left
    h_right = total_hess - h_left
    admissible &= (h_left >= params.min_child_weight) & (
        h_right >= params.min_child_weight
    )
    if not np.any(admissible):
        return -np.inf, float("nan")

    lam = params.reg_lambda
    gain = 0.5 * (
        g_left**2 / (h_left + lam)
        + g_right**2 / (h_right + lam)
        - total_grad**2 / (total_hess + lam)
    )
    gain = np.where(admissible, gain, -np.inf)
    best = int(np.argmax(gain))
    threshold = 0.5 * (sorted_values[best] + sorted_values[best + 1])
    return float(gain[best]), threshold


def best_split_loop(
    node_columns: np.ndarray,
    gradients: np.ndarray,
    hessians: np.ndarray,
    params: TreeGrowthParams,
) -> Tuple[float, int, float]:
    """``(gain, feature position, threshold)``: the first column with the
    strictly greatest gain wins; ``(-inf, -1, nan)`` when none splits."""
    best_gain, best_feature, best_threshold = -np.inf, -1, float("nan")
    for feature in range(node_columns.shape[1]):
        gain, threshold = best_split_for_feature(
            node_columns[:, feature], gradients, hessians, params
        )
        if gain > best_gain:
            best_gain, best_feature, best_threshold = gain, feature, threshold
    return best_gain, best_feature, best_threshold


def predict_loop(model, X: np.ndarray) -> np.ndarray:
    """Boosted prediction of a fitted booster, one tree at a time."""
    prediction = np.full(X.shape[0], model.base_score_)
    for tree in model.trees_:
        prediction += model.learning_rate * tree.predict(X)
    return prediction


def staged_predict_loop(model, X: np.ndarray) -> np.ndarray:
    """Prediction after every round, shape ``(n_trees, n_rows)``."""
    prediction = np.full(X.shape[0], model.base_score_)
    stages = np.empty((len(model.trees_), X.shape[0]))
    for i, tree in enumerate(model.trees_):
        prediction = prediction + model.learning_rate * tree.predict(X)
        stages[i] = prediction
    return stages
