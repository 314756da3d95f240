"""CatBoost-style oblivious-tree gradient boosting (paper Section IV-C.3).

CatBoost's distinguishing inductive bias is the *oblivious* (symmetric)
tree: every node at a given depth tests the same (feature, threshold)
pair, so a depth-``d`` tree is a decision table with :math:`2^d` leaves.
On small datasets -- like the paper's 156 chips -- this acts as strong
regularisation, which is why CatBoost is the paper's best point predictor
and CQR base model.  The paper keeps CatBoost defaults but reduces the
tree count from 1000 to 100 to avoid over-fitting; we mirror that.

Implementation notes:

* features are pre-binned into at most ``max_bins`` quantile bins once per
  fit; level-wise split search then reduces to one ``np.bincount`` over
  ``(feature, leaf, bin)`` cells per level -- over the leaves that hold
  a row, empty ones dropped -- scanned bin-major
  (:func:`level_split_scores`) in work arrays each fit allocates once,
* leaf values are Newton steps ``−G/(H+λ)`` with CatBoost's
  ``l2_leaf_reg`` as λ,
* the objective is squared error or pinball (``quantile=q``), matching the
  QR/CQR usage in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.models.base import (
    BaseRegressor,
    check_fitted,
    check_random_state,
    check_X,
    check_X_y,
)
from repro.models.binning import (
    BinnedDataset,
    bin_major_prefix_sums,
    histogram_cells,
    histogram_sums,
    resolve_binned_dataset,
)
from repro.models.losses import (
    mse_gradient_hessian,
    pinball_gradient_hessian,
    validate_quantile,
)
from repro.models.tables import compile_oblivious

__all__ = ["ObliviousBoostingRegressor", "ObliviousTree", "level_split_scores"]

_WORK_ARRAYS = 4  # bin-major (B-1, L, F) arrays one level scan writes


def _guarded_divide(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """``numerator / denominator`` where the denominator is positive, else 0.

    A leaf no row reaches has ``H = 0``; at ``l2_leaf_reg = 0`` its
    Newton terms would be 0/0.  With λ > 0 every denominator is positive
    and this is the plain quotient, bit for bit (``-0.0`` included).
    """
    return np.divide(
        numerator, denominator, out=np.zeros_like(denominator),
        where=denominator > 0,
    )


def _on_all_leaves(values: np.ndarray, occupied: np.ndarray) -> np.ndarray:
    """``values`` over the occupied leaves (axis 1) put back on all
    ``occupied.size`` leaves, the empty ones as ``+0.0``."""
    full = np.zeros(values.shape[:1] + occupied.shape + values.shape[2:])
    full[:, occupied] = values
    return full


def level_split_scores(
    grad_cells: np.ndarray,
    hess_cells: np.ndarray,
    splittable: np.ndarray,
    lam: float,
    work: Optional[np.ndarray] = None,
    occupied: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, float]:
    """Summed leaf gain of every (feature, bin) split of one tree level.

    ``grad_cells``/``hess_cells`` are the level's ``(F, L, B)``
    histograms.  Returns the ``(F, B - 1)`` C-ordered scores
    ``Σ_leaves GL²/(HL+λ) + GR²/(HR+λ)`` -- ``-inf`` where
    ``splittable`` is False -- and the no-split baseline
    ``Σ_leaves G²/(H+λ)``.  ``work`` is a ``(4, n)`` float array with
    ``n >= (B - 1)·L·F``, reused across levels; one is allocated when
    omitted.

    ``occupied``, when given, is the level's boolean leaf mask and the
    histograms hold only its True leaves, in order.  The results equal
    the scan of the full ``(F, occupied.size, B)`` histograms bit for
    bit: an empty leaf's score and baseline terms are ``+0.0``, which
    the sequential leaf sum skips exactly, and the pairwise sums (the
    baseline, and the shapes below that reduce leaves pairwise) get the
    zeros put back first.

    The scan runs bin-major over ``(B - 1, L, F)`` planes
    (:func:`~repro.models.binning.bin_major_prefix_sums`) with the float
    operations, and the reductions, of a scan over the ``(F, L, B)``
    histograms themselves:

    * leaf totals are ``cells.sum(axis=2)`` on the ``(F, L, B)`` arrays
      -- numpy sums a contiguous axis pairwise, which no other layout
      reproduces;
    * the sum over leaves is a middle-axis reduction, which numpy does
      sequentially in both layouts unless one of the other two axes has
      length 1; those shapes reduce the ``(F, L, B - 1)`` copy itself;
    * the scores come back feature-major, the order the score noise and
      the first-max ``argmax`` depend on.
    """
    n_candidates, n_leaves, n_bins = grad_cells.shape
    grad_total = grad_cells.sum(axis=2)
    hess_total = hess_cells.sum(axis=2)
    # grad_total is the same for every candidate feature; read the
    # baseline off the first one.
    leaf_terms = _guarded_divide(grad_total[:1] ** 2, hess_total[:1] + lam)
    if occupied is not None:
        leaf_terms = _on_all_leaves(leaf_terms, occupied)
    baseline = float(np.sum(leaf_terms[0]))
    shape = (n_bins - 1, n_leaves, n_candidates)
    size = shape[0] * n_leaves * n_candidates
    if work is None:
        work = np.empty((_WORK_ARRAYS, size))
    grad_left, hess_left, score, scratch = (
        flat[:size].reshape(shape) for flat in work
    )
    bin_major_prefix_sums(grad_cells, out=grad_left)
    bin_major_prefix_sums(hess_cells, out=hess_left)
    # The parent term is the same for every candidate, so it is dropped
    # from the argmax.  reg > 0 keeps every denominator positive.
    reg = max(lam, 1e-12)
    np.square(grad_left, out=score)
    np.add(hess_left, reg, out=scratch)
    score /= scratch
    np.subtract(np.ascontiguousarray(grad_total.T), grad_left, out=grad_left)
    np.square(grad_left, out=grad_left)
    np.subtract(np.ascontiguousarray(hess_total.T), hess_left, out=scratch)
    scratch += reg
    grad_left /= scratch
    score += grad_left
    n_splits = shape[0]
    if n_splits > 1 and n_candidates > 1:
        # Sum over leaves, then turn feature-major, in the spent
        # hess_left and scratch storage.
        by_bin = work[1][: n_splits * n_candidates].reshape(n_splits, n_candidates)
        summed = work[3][: n_splits * n_candidates].reshape(n_candidates, n_splits)
        np.copyto(summed, np.sum(score, axis=1, out=by_bin).T)
    else:
        # A length-1 inner axis makes numpy reduce the leaves pairwise;
        # reducing the (F, L, B - 1) copy does so exactly as that layout.
        by_leaf = score.transpose(2, 1, 0)
        if occupied is not None:
            by_leaf = _on_all_leaves(by_leaf, occupied)
        summed = np.ascontiguousarray(by_leaf).sum(axis=1)
    # A split must route at least one row each way; otherwise it is a
    # no-op, and its bin may not even map to a real threshold.
    np.copyto(summed, -np.inf, where=~splittable)
    return summed, baseline


@dataclass
class ObliviousTree:
    """A fitted decision table: one (feature, threshold) per level.

    ``leaf_values`` has :math:`2^{\\text{depth}}` entries indexed by the
    binary code built from the level tests (most significant bit = first
    level).

    A depth-0 table (``features`` empty, a single leaf value) is a valid
    tree -- a fit round where no split improved on not splitting
    produces one -- and is handled here, not by callers: every row's
    leaf code is 0 and every prediction is ``leaf_values[0]``.
    """

    features: np.ndarray  # (depth,) int
    thresholds: np.ndarray  # (depth,) float
    leaf_values: np.ndarray  # (2**depth,) float

    def leaf_indices(self, X: np.ndarray) -> np.ndarray:
        """Leaf code for every row of ``X``.

        Comparisons happen in float64 whatever the dtype of ``X``: the
        thresholds are float64, and letting a float32 column be compared
        in its own precision could route boundary-straddling rows to the
        other side of a split than the fitted model intended.  For a
        depth-0 table this is all zeros (the single leaf).
        """
        X = np.asarray(X, dtype=np.float64)
        indices = np.zeros(X.shape[0], dtype=np.int64)
        for feature, threshold in zip(self.features, self.thresholds):
            indices = (indices << 1) | (X[:, feature] > threshold)
        return indices

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf value for every row of ``X`` (depth-0 tables included)."""
        return self.leaf_values[self.leaf_indices(X)]


class ObliviousBoostingRegressor(BaseRegressor):
    """Gradient boosting over oblivious trees with CatBoost-like defaults.

    Parameters
    ----------
    n_estimators:
        Boosting rounds; the paper uses 100 (reduced from CatBoost's 1000).
    learning_rate:
        Shrinkage per tree (~CatBoost's auto rate for 100 iterations).
    depth:
        Oblivious-tree depth (CatBoost default 6).
    l2_leaf_reg:
        L2 regularisation λ on leaf values (CatBoost default 3).
    max_bins:
        Maximum quantile bins per feature for threshold candidates
        (CatBoost ``border_count``; 32 is ample for 156-chip data).
    feature_shortlist:
        Wide-data speedup: the root level of each tree scores every
        feature exactly, then deeper levels only consider the top-K
        features by root gain.  ``None`` scores all features at every
        level (exact, O(features x leaves x bins) per level).  With the
        paper's ~2000 columns and 156 chips, K=256 is indistinguishable
        in accuracy and an order of magnitude faster.
    random_strength:
        Amplitude of the Gaussian noise added to split scores, relative to
        the score spread (CatBoost ``random_strength``, default 1).  The
        noise diversifies the trees across rounds -- without it every
        round regrows the same partition and the ensemble cannot refine
        beyond :math:`2^{depth}` cells, which changes small-data
        behaviour qualitatively (notably the quantile-overfitting the
        paper observes for QR CatBoost).
    quantile:
        ``None`` for squared error, a value in (0, 1) for pinball loss.
    random_state:
        Seed for the score noise.

    Every round fits on all rows with unit weights and scores every
    column at the root (CatBoost's ``rsm = 1``, no bootstrap).
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.16,
        depth: int = 6,
        l2_leaf_reg: float = 3.0,
        max_bins: int = 32,
        feature_shortlist: Optional[int] = 256,
        random_strength: float = 1.0,
        quantile: Optional[float] = None,
        random_state: Optional[int] = None,
    ) -> None:
        # Every range check is written to fail on NaN.
        if not n_estimators >= 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        if not 0 < learning_rate < np.inf:
            raise ValueError(
                f"learning_rate must be positive and finite, got {learning_rate}"
            )
        if not depth >= 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if not l2_leaf_reg >= 0:
            raise ValueError(f"l2_leaf_reg must be >= 0, got {l2_leaf_reg}")
        if not max_bins >= 2:
            raise ValueError(f"max_bins must be >= 2, got {max_bins}")
        if feature_shortlist is not None and not feature_shortlist >= 1:
            raise ValueError(
                f"feature_shortlist must be >= 1 or None, got {feature_shortlist}"
            )
        if not 0 <= random_strength < np.inf:
            raise ValueError(
                f"random_strength must be >= 0 and finite, got {random_strength}"
            )
        if quantile is not None:
            quantile = validate_quantile(quantile)
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.depth = depth
        self.l2_leaf_reg = l2_leaf_reg
        self.max_bins = max_bins
        self.feature_shortlist = feature_shortlist
        self.random_strength = random_strength
        self.quantile = quantile
        self.random_state = random_state
        self.trees_: Optional[List[ObliviousTree]] = None

    def _gradients(self, y: np.ndarray, prediction: np.ndarray):
        if self.quantile is None:
            return mse_gradient_hessian(y, prediction)
        return pinball_gradient_hessian(y, prediction, self.quantile)

    def _leaf_values(
        self,
        y: np.ndarray,
        prediction: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        leaf_idx: np.ndarray,
        n_leaves: int,
    ) -> np.ndarray:
        """Per-leaf step values for the current round.

        Squared error uses the regularised Newton step ``-G/(H+λ)``.  For
        the pinball objective CatBoost's ``leaf_estimation_method`` is
        ``Exact``: each leaf jumps to the ``q``-th quantile of its current
        residuals, which converges orders of magnitude faster than unit-
        Hessian Newton steps on a loss whose true Hessian is zero.
        """
        if self.quantile is None:
            grad_leaf = np.bincount(leaf_idx, weights=gradients, minlength=n_leaves)
            hess_leaf = np.bincount(leaf_idx, weights=hessians, minlength=n_leaves)
            return _guarded_divide(-grad_leaf, hess_leaf + self.l2_leaf_reg)
        # One np.quantile call per distinct leaf size: the residuals of
        # equally large leaves are stacked row-wise, each row in its rows'
        # original order, and quantiled along axis 1 -- the same values
        # as one call per leaf.
        residuals = (y - prediction)[np.argsort(leaf_idx, kind="stable")]
        counts = np.bincount(leaf_idx, minlength=n_leaves)
        starts = np.cumsum(counts) - counts
        values = np.zeros(n_leaves)
        for size in np.unique(counts[counts > 0]):
            leaves = np.flatnonzero(counts == size)
            block = residuals[starts[leaves, None] + np.arange(size)]
            steps = np.quantile(block, self.quantile, axis=1)
            # Shrink toward zero with the same λ convention as Newton
            # leaves so l2_leaf_reg keeps meaning "resist tiny leaves".
            values[leaves] = steps * size / (size + self.l2_leaf_reg)
        return values

    # -- level-wise split search --------------------------------------------
    def _best_level_split(
        self,
        dataset: BinnedDataset,
        leaf_idx: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        n_leaves: int,
        candidate_features: np.ndarray,
        rng,
        splittable: np.ndarray,
        work: np.ndarray,
    ) -> Tuple[int, int, float, np.ndarray]:
        """Pick the (feature, bin-threshold) with maximal summed leaf gain.

        Returns ``(feature, bin_index, score, per_feature_scores)`` where
        the split sends ``bin > bin_index`` to the right child, or
        ``(-1, -1, -inf, scores)`` when no candidate improves on not
        splitting.  ``per_feature_scores`` (aligned with
        ``candidate_features``) feeds the root-gain shortlist.

        ``splittable`` is the fit's ``(n_features, n_bins - 1)`` mask of
        splits that send at least one row each way, and ``work`` the
        fit's scan arrays (see :func:`level_split_scores`).  At the root
        (a single leaf, every column a candidate) the cell index (and,
        for unit Hessians, the Hessian histogram) comes from
        :meth:`BinnedDataset.root_level` -- bit-identical by
        construction.  Deeper levels histogram only the leaves some row
        reaches, and the scan puts the empty ones back where its sums
        need them.
        """
        binned = dataset.codes
        n_bins = splittable.shape[1] + 1
        n_candidates = candidate_features.size
        root_unit = None
        occupied = None
        if n_leaves == 1:
            cell, root_unit = dataset.root_level(n_bins)
        else:
            # Deep levels of small fits leave many leaves without a row:
            # build and scan histograms over the occupied leaves only.
            counts = np.bincount(leaf_idx, minlength=n_leaves)
            if not counts.all():
                occupied = counts > 0
                leaf_idx = (np.cumsum(occupied) - 1)[leaf_idx]
                n_leaves = int(np.count_nonzero(occupied))
            cell = histogram_cells(
                binned, leaf_idx, n_leaves, n_bins, candidate_features
            )
        grad_cells = histogram_sums(cell, gradients, n_leaves, n_bins, n_candidates)
        if root_unit is not None and bool(np.all(hessians == 1.0)):
            hess_cells = root_unit
        else:
            hess_cells = histogram_sums(
                cell, hessians, n_leaves, n_bins, n_candidates
            )
        score, baseline = level_split_scores(
            grad_cells, hess_cells, splittable[candidate_features],
            self.l2_leaf_reg, work, occupied=occupied,
        )
        if score.size == 0:
            return -1, -1, -np.inf, np.full(n_candidates, -np.inf)
        if self.random_strength > 0:
            # CatBoost-style score perturbation: noise proportional to the
            # spread of candidate scores breaks argmax ties differently in
            # every round, keeping the tree ensemble diverse.
            finite = score[np.isfinite(score)]
            if finite.size > 1:
                spread = float(finite.std())
                if spread > 0:
                    score = score + rng.normal(
                        0.0, self.random_strength * spread * 0.1, size=score.shape
                    )
        flat_best = int(np.argmax(score))
        feature_pos, bin_pos = np.unravel_index(flat_best, score.shape)
        best = float(score[feature_pos, bin_pos])
        per_feature = score.max(axis=1)
        if best <= baseline + 1e-12:
            return -1, -1, -np.inf, per_feature
        return int(candidate_features[feature_pos]), int(bin_pos), best, per_feature

    # -- fitting ---------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        binned: Optional[BinnedDataset] = None,
    ) -> "ObliviousBoostingRegressor":
        """Fit the ensemble; ``binned`` optionally supplies a pre-binned
        :class:`~repro.models.binning.BinnedDataset` whose codes come
        from this very ``X`` at this ``max_bins`` (bit-identical to
        binning from scratch)."""
        X, y = check_X_y(X, y)
        self.n_features_in_ = X.shape[1]
        rng = check_random_state(self.random_state)
        dataset = resolve_binned_dataset(X, self.max_bins, binned)
        binned = dataset.codes
        edges = dataset.binner.edges_
        n_bins = dataset.codes_max + 1
        n_samples, n_features = X.shape

        if self.quantile is None:
            self.base_score_ = float(np.mean(y))
        else:
            self.base_score_ = float(np.quantile(y, self.quantile))

        # Splits that send at least one row each way, counted on the codes
        # (some row at or below the bin, some above): a bin past a
        # feature's last edge has no threshold behind it.
        bins = np.arange(n_bins - 1)
        splittable = (binned.min(axis=0)[:, None] <= bins) & (
            binned.max(axis=0)[:, None] > bins
        )
        # Scan arrays for the largest level, reused by every level of every
        # round; local to this fit, so concurrent fits never share them.
        n_deep = (
            n_features if self.feature_shortlist is None
            else min(n_features, self.feature_shortlist)
        )
        work = np.empty(
            (_WORK_ARRAYS, bins.size * max(n_features, 2 ** (self.depth - 1) * n_deep))
        )

        # The root level scans every column; the shortlist, when it
        # binds, narrows the deeper levels of the same tree.
        columns = np.arange(n_features)
        prediction = np.full(n_samples, self.base_score_)
        trees: List[ObliviousTree] = []
        for _ in range(self.n_estimators):
            gradients, hessians = self._gradients(y, prediction)
            leaf_idx = np.zeros(n_samples, dtype=np.int64)
            features: List[int] = []
            thresholds: List[float] = []
            n_leaves = 1
            candidates = columns
            for level in range(self.depth):
                feature, bin_index, _score, feature_scores = self._best_level_split(
                    dataset, leaf_idx, gradients, hessians, n_leaves,
                    candidates, rng, splittable, work,
                )
                if (
                    level == 0
                    and self.feature_shortlist is not None
                    and n_features > self.feature_shortlist
                ):
                    top = np.argsort(feature_scores)[-self.feature_shortlist :]
                    candidates = np.sort(columns[top])
                if feature < 0:
                    break
                feature_edges = edges[feature]
                threshold = float(feature_edges[bin_index])
                features.append(feature)
                thresholds.append(threshold)
                leaf_idx = (leaf_idx << 1) | (binned[:, feature] > bin_index)
                n_leaves *= 2

            leaf_values = self._leaf_values(
                y, prediction, gradients, hessians, leaf_idx, n_leaves
            )
            if not features:
                tree = ObliviousTree(
                    features=np.empty(0, dtype=np.int64),
                    thresholds=np.empty(0),
                    leaf_values=leaf_values[:1],
                )
                trees.append(tree)
                prediction += self.learning_rate * leaf_values[0]
                continue
            tree = ObliviousTree(
                features=np.asarray(features, dtype=np.int64),
                thresholds=np.asarray(thresholds),
                leaf_values=leaf_values,
            )
            trees.append(tree)
            prediction += self.learning_rate * leaf_values[leaf_idx]

        self.trees_ = trees
        self.compiled_ = compile_oblivious(trees)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Boosted prediction for every row of ``X``.

        Scores through the compiled decision-table kernel (``compiled_``,
        :class:`~repro.models.tables.CompiledObliviousTables`),
        bit-identical to accumulating the trees one by one; comparisons
        always happen in float64 regardless of the dtype of ``X``.
        """
        check_fitted(self, "trees_")
        X = self._check_predict_X(X)
        return self.compiled_.predict(X, self.base_score_, self.learning_rate)

    def staged_predict(self, X: np.ndarray) -> np.ndarray:
        """Predictions after each boosting round, shape (n_trees, n).

        Mirrors :meth:`GradientBoostingRegressor.staged_predict`; used by
        convergence diagnostics.  The last stage always equals
        ``predict(X)`` exactly.
        """
        check_fitted(self, "trees_")
        X = self._check_predict_X(X)
        return self.compiled_.staged_predict(
            X, self.base_score_, self.learning_rate
        )

    def __setstate__(self, state: dict) -> None:
        """Unpickle by setattr, which interns the names, so a re-pickled
        booster is byte for byte the bundle it was loaded from."""
        for name, value in state.items():
            setattr(self, name, value)

    def _check_predict_X(self, X: np.ndarray) -> np.ndarray:
        X = check_X(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fitted with "
                f"{self.n_features_in_}"
            )
        return X
