"""Regression trees fitted to per-sample gradients and Hessians.

This is the tree machinery underneath the XGBoost-style booster
(:mod:`repro.models.gbm`):

* :class:`GradientTree` grows a depth-wise binary tree by greedy search
  maximising the XGBoost split gain

  .. math::

      \\mathrm{gain} = \\tfrac12\\Big[\\frac{G_L^2}{H_L+\\lambda}
          + \\frac{G_R^2}{H_R+\\lambda}
          - \\frac{(G_L+G_R)^2}{H_L+H_R+\\lambda}\\Big] - \\gamma,

  with Newton-optimal leaf values :math:`w = -G/(H+\\lambda)`.
  :meth:`GradientTree.fit_gradients` is the exact grower: every node
  scans every candidate boundary of every feature in one batched
  prefix-sum pass, and gain ties break deterministically (lowest feature
  position, then lowest boundary), so a fit is bit-identical across runs
  and across the grid's serial loop and worker processes.  The histogram
  grower over pre-binned features is
  :func:`repro.models.histtree.grow_histogram_tree`.

* :class:`DecisionTreeRegressor` is the stand-alone estimator: fitting a
  single gradient tree to the squared loss from a zero base score makes
  every leaf value the mean of its targets, i.e. an ordinary CART
  regression tree.

Trees are stored as flat parallel arrays (feature, threshold, children,
value) so prediction is an iterative descent without Python recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.models.base import BaseRegressor, check_fitted, check_X, check_X_y

__all__ = ["DecisionTreeRegressor", "GradientTree", "TreeGrowthParams"]

_LEAF = -1


@dataclass
class TreeGrowthParams:
    """Growth limits and regularisation for :class:`GradientTree`.

    Attributes
    ----------
    max_depth:
        Maximum tree depth (root = depth 0).
    min_samples_leaf:
        Minimum number of samples on each side of a split.
    min_child_weight:
        Minimum Hessian sum on each side of a split (XGBoost semantics;
        with unit Hessians this equals a sample count).
    reg_lambda:
        L2 regularisation on leaf values (XGBoost ``lambda``).
    gamma:
        Minimum gain required to keep a split (XGBoost ``gamma``).
    """

    max_depth: int = 6
    min_samples_leaf: int = 1
    min_child_weight: float = 1.0
    reg_lambda: float = 1.0
    gamma: float = 0.0

    def __post_init__(self) -> None:
        # Every check is written to fail on NaN; +inf stays a valid limit.
        if not self.max_depth >= 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if not self.min_samples_leaf >= 1:
            raise ValueError(
                f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}"
            )
        if not self.min_child_weight >= 0:
            raise ValueError(
                f"min_child_weight must be >= 0, got {self.min_child_weight}"
            )
        if not self.reg_lambda >= 0:
            raise ValueError(f"reg_lambda must be >= 0, got {self.reg_lambda}")
        if not self.gamma >= 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


@dataclass
class _NodeBuffers:
    """Flat array representation filled while growing (internal)."""

    feature: List[int] = field(default_factory=list)
    threshold: List[float] = field(default_factory=list)
    left: List[int] = field(default_factory=list)
    right: List[int] = field(default_factory=list)
    value: List[float] = field(default_factory=list)

    def new_node(self) -> int:
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(0.0)
        return len(self.feature) - 1


def _node_view(
    columns: np.ndarray,
    gradients: np.ndarray,
    hessians: np.ndarray,
    rows: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialise one node's data slice exactly once.

    Every split finder works on the arrays returned here; routing all
    node-level slicing through a single helper is what guarantees the
    ``X[rows]``/``gradients[rows]``/``hessians[rows]`` copies are made
    once per node rather than once per candidate feature (the historical
    hot-loop bug), and gives the regression test a seam to count them.
    """
    return columns[rows], gradients[rows], hessians[rows]


def _best_split_all_features(
    node_columns: np.ndarray,
    gradients: np.ndarray,
    hessians: np.ndarray,
    params: TreeGrowthParams,
) -> Tuple[float, int, float]:
    """Best (gain, feature position, threshold) over all columns at once.

    Batched exact greedy: one ``argsort`` + ``take_along_axis`` +
    ``cumsum`` pass over the whole ``(n_node, n_features)`` block replaces
    the seed's per-feature Python loop.  Column-wise the arithmetic is
    that loop's exact sequence, so gains are bit-identical to it; the
    flat feature-major ``argmax`` reproduces its deterministic
    tie-breaking (lowest feature position wins, then the lowest
    boundary).  Returns ``(-inf, -1, nan)`` when no admissible split
    exists.
    """
    n, n_features = node_columns.shape
    if n < 2:
        return -np.inf, -1, float("nan")
    order = np.argsort(node_columns, axis=0, kind="stable")
    sorted_values = np.take_along_axis(node_columns, order, axis=0)
    grad_prefix = np.cumsum(gradients[order], axis=0)
    hess_prefix = np.cumsum(hessians[order], axis=0)
    total_grad = grad_prefix[-1]
    total_hess = hess_prefix[-1]

    # Candidate split after row i keeps sorted rows [0..i] on the left.
    distinct = sorted_values[:-1] < sorted_values[1:]
    left_count = np.arange(1, n)[:, None]
    right_count = n - left_count
    admissible = (
        distinct
        & (left_count >= params.min_samples_leaf)
        & (right_count >= params.min_samples_leaf)
    )
    g_left = grad_prefix[:-1]
    h_left = hess_prefix[:-1]
    g_right = total_grad[None, :] - g_left
    h_right = total_hess[None, :] - h_left
    admissible &= (h_left >= params.min_child_weight) & (
        h_right >= params.min_child_weight
    )
    if not np.any(admissible):
        return -np.inf, -1, float("nan")

    lam = params.reg_lambda
    gain = 0.5 * (
        g_left**2 / (h_left + lam)
        + g_right**2 / (h_right + lam)
        - total_grad[None, :] ** 2 / (total_hess[None, :] + lam)
    )
    gain = np.where(admissible, gain, -np.inf)
    # Feature-major flat argmax == "first feature with strictly greater
    # gain" of the legacy loop, so ties break identically.
    flat = int(np.argmax(gain.T))
    feature_pos, boundary = divmod(flat, n - 1)
    threshold = 0.5 * (
        sorted_values[boundary, feature_pos]
        + sorted_values[boundary + 1, feature_pos]
    )
    return float(gain[boundary, feature_pos]), int(feature_pos), float(threshold)


class GradientTree:
    """A single Newton-boosting tree over (gradient, Hessian) statistics."""

    def __init__(self, params: Optional[TreeGrowthParams] = None) -> None:
        self.params = params or TreeGrowthParams()
        self.feature_: Optional[np.ndarray] = None
        self.threshold_: Optional[np.ndarray] = None
        self.left_: Optional[np.ndarray] = None
        self.right_: Optional[np.ndarray] = None
        self.value_: Optional[np.ndarray] = None
        self.n_features_in_: Optional[int] = None

    # -- growing ----------------------------------------------------------
    def fit_gradients(
        self,
        X: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
    ) -> "GradientTree":
        """Grow the tree on ``X`` against per-sample gradients/Hessians.

        Exact greedy search, depth first: every node scans all candidate
        boundaries of every column in one batched prefix-sum pass
        (:func:`_best_split_all_features`) over its rows, sliced once
        through :func:`_node_view`.  A node stays a leaf at ``max_depth``,
        below ``2 * min_samples_leaf`` rows, or when no split gains more
        than ``gamma``; leaf values are always Newton steps
        :math:`-G/(H+\\lambda)`.
        """
        X = np.asarray(X, dtype=np.float64)
        gradients = np.asarray(gradients, dtype=np.float64)
        hessians = np.asarray(hessians, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if gradients.shape != (X.shape[0],) or hessians.shape != (X.shape[0],):
            raise ValueError("gradients/hessians must be 1-D with len(X) entries")
        params = self.params

        buffers = _NodeBuffers()
        # Work stack of (node_id, row_indices, depth); iterative to avoid
        # recursion limits on deep trees.
        stack = [(buffers.new_node(), np.arange(X.shape[0]), 0)]
        while stack:
            node_id, rows, depth = stack.pop()
            node_columns, node_grad, node_hess = _node_view(
                X, gradients, hessians, rows
            )
            grad_sum = float(node_grad.sum())
            hess_sum = float(node_hess.sum())
            buffers.value[node_id] = -grad_sum / (hess_sum + params.reg_lambda)

            if depth >= params.max_depth or rows.size < 2 * params.min_samples_leaf:
                continue
            gain, feature_pos, threshold = _best_split_all_features(
                node_columns, node_grad, node_hess, params
            )
            if feature_pos < 0 or gain <= params.gamma:
                continue

            goes_left = node_columns[:, feature_pos] <= threshold
            left_id = buffers.new_node()
            right_id = buffers.new_node()
            buffers.feature[node_id] = feature_pos
            buffers.threshold[node_id] = threshold
            buffers.left[node_id] = left_id
            buffers.right[node_id] = right_id
            stack.append((left_id, rows[goes_left], depth + 1))
            stack.append((right_id, rows[~goes_left], depth + 1))
        return self._set_nodes(buffers, X.shape[1])

    def _set_nodes(self, buffers: _NodeBuffers, n_features: int) -> "GradientTree":
        """Freeze grown node lists into the flat arrays ``predict`` walks."""
        self.feature_ = np.asarray(buffers.feature, dtype=np.int64)
        self.threshold_ = np.asarray(buffers.threshold, dtype=np.float64)
        self.left_ = np.asarray(buffers.left, dtype=np.int64)
        self.right_ = np.asarray(buffers.right, dtype=np.int64)
        self.value_ = np.asarray(buffers.value, dtype=np.float64)
        self.n_features_in_ = int(n_features)
        return self

    # -- prediction --------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf value for every row of ``X``.

        ``X`` is compared in float64 against the stored float64
        thresholds regardless of its input dtype, and its width is
        validated against the fitted feature count: extra columns used
        to score silently while missing ones raised a bare
        ``IndexError`` mid-walk.
        """
        check_fitted(self, "feature_")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, tree was fitted with "
                f"{self.n_features_in_}"
            )
        node_ids = np.zeros(X.shape[0], dtype=np.int64)
        active = self.feature_[node_ids] != _LEAF
        while np.any(active):
            current = node_ids[active]
            feature = self.feature_[current]
            threshold = self.threshold_[current]
            rows = np.flatnonzero(active)
            goes_left = X[rows, feature] <= threshold
            node_ids[rows[goes_left]] = self.left_[current[goes_left]]
            node_ids[rows[~goes_left]] = self.right_[current[~goes_left]]
            active = self.feature_[node_ids] != _LEAF
        return self.value_[node_ids]

    @property
    def n_nodes(self) -> int:
        return 0 if self.feature_ is None else int(self.feature_.size)

    @property
    def n_leaves(self) -> int:
        if self.feature_ is None:
            return 0
        return int(np.sum(self.feature_ == _LEAF))


class DecisionTreeRegressor(BaseRegressor):
    """CART-style regression tree minimising squared error.

    Implemented as a single :class:`GradientTree` on squared-loss statistics
    (gradient ``−y``, Hessian ``1`` from a zero base score) with
    ``reg_lambda = 0``, which makes each leaf predict the mean target of its
    samples -- exactly CART with variance-reduction splits.  Splits are
    searched exactly (:meth:`GradientTree.fit_gradients`).
    """

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_leaf: int = 1,
        min_gain: float = 0.0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain
        self.tree_: Optional[GradientTree] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X, y = check_X_y(X, y)
        self.n_features_in_ = X.shape[1]
        params = TreeGrowthParams(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            min_child_weight=0.0,
            reg_lambda=0.0,
            gamma=self.min_gain,
        )
        self.tree_ = GradientTree(params).fit_gradients(X, -y, np.ones_like(y))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "tree_")
        X = check_X(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fitted with "
                f"{self.n_features_in_}"
            )
        return self.tree_.predict(X)
