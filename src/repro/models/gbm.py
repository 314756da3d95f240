"""XGBoost-style second-order gradient boosting (paper Section IV-C.2).

Reproduces the algorithmic core of XGBoost (Chen & Guestrin, 2016) used by
the paper with its default hyper-parameters: 100 boosting rounds of
depth-6 trees, learning rate 0.3, L2 leaf regularisation λ=1.  Each round
fits a :class:`~repro.models.tree.GradientTree` to the per-sample gradient
and Hessian of the objective at the current prediction and takes a
shrunken Newton step.  A round that samples no rows or columns and
repeats an earlier round's gradient and Hessian bytes reuses that
round's tree, which is the tree it would grow.

Two objectives are supported, selected by the ``quantile`` parameter:

* ``quantile=None`` -- squared error, for :math:`V_{min}` point prediction,
* ``quantile=q`` -- pinball loss of paper Eq. (5), for the QR/CQR region
  predictors (Section IV-E).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

import numpy as np

from repro.models.base import (
    BaseRegressor,
    check_fitted,
    check_random_state,
    check_X,
    check_X_y,
)
from repro.models.binning import BinnedDataset, resolve_binned_dataset
from repro.models.histtree import grow_histogram_tree
from repro.models.losses import (
    mse_gradient_hessian,
    pinball_gradient_hessian,
    validate_quantile,
)
from repro.models.tables import compile_depthwise
from repro.models.tree import GradientTree, TreeGrowthParams

__all__ = ["GradientBoostingRegressor"]


def _round_digest(gradients: np.ndarray, hessians: np.ndarray) -> bytes:
    """SHA-256 of one boosting round's gradient and Hessian bytes.

    Bytes, not values: ``-0.0 == 0.0``, yet the two can grow leaf values
    of opposite sign bit.
    """
    digest = hashlib.sha256(np.ascontiguousarray(gradients, dtype=np.float64).data)
    digest.update(np.ascontiguousarray(hessians, dtype=np.float64).data)
    return digest.digest()


class GradientBoostingRegressor(BaseRegressor):
    """Newton-boosted regression trees with XGBoost defaults.

    Parameters
    ----------
    n_estimators:
        Number of boosting rounds (XGBoost default 100).
    learning_rate:
        Shrinkage η applied to every tree's contribution (default 0.3).
    max_depth:
        Depth limit per tree (default 6).
    reg_lambda, gamma, min_child_weight:
        XGBoost regularisation knobs, passed to the tree grower.
    subsample:
        Row subsampling fraction per round (without replacement).
    colsample_bytree:
        Column subsampling fraction per round.
    quantile:
        ``None`` for squared error; a value in (0, 1) switches the
        objective to the pinball loss for that quantile.
    tree_method:
        ``"hist"`` (default) grows trees on quantile-binned features with
        level-batched histogram split search
        (:func:`~repro.models.histtree.grow_histogram_tree`); ``"exact"``
        grows them node by node with exact greedy search
        (:meth:`~repro.models.tree.GradientTree.fit_gradients`, slow on
        wide data).
    max_bins:
        Histogram resolution for ``tree_method="hist"``.
    feature_shortlist:
        Wide-data speedup for ``tree_method="hist"``: each tree's root
        level scores every candidate column exactly, deeper levels only
        the top-K by root gain.  ``None`` disables (exact at all levels);
        ignored by ``tree_method="exact"``.
    random_state:
        Seed for the sub-sampling draws.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.3,
        max_depth: int = 6,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        min_child_weight: float = 1.0,
        subsample: float = 1.0,
        colsample_bytree: float = 1.0,
        quantile: Optional[float] = None,
        tree_method: str = "hist",
        max_bins: int = 32,
        feature_shortlist: Optional[int] = 256,
        random_state: Optional[int] = None,
    ) -> None:
        # Every range check is written to fail on NaN.
        if not n_estimators >= 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        if not 0 < learning_rate < np.inf:
            raise ValueError(
                f"learning_rate must be positive and finite, got {learning_rate}"
            )
        if not 0.0 < subsample <= 1.0:
            raise ValueError(f"subsample must be in (0, 1], got {subsample}")
        if not 0.0 < colsample_bytree <= 1.0:
            raise ValueError(
                f"colsample_bytree must be in (0, 1], got {colsample_bytree}"
            )
        if quantile is not None:
            quantile = validate_quantile(quantile)
        if tree_method not in ("hist", "exact"):
            raise ValueError(
                f"tree_method must be 'hist' or 'exact', got {tree_method!r}"
            )
        if feature_shortlist is not None and not feature_shortlist >= 1:
            raise ValueError(
                f"feature_shortlist must be >= 1 or None, got {feature_shortlist}"
            )
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.min_child_weight = min_child_weight
        self.subsample = subsample
        self.colsample_bytree = colsample_bytree
        self.quantile = quantile
        self.tree_method = tree_method
        self.max_bins = max_bins
        self.feature_shortlist = feature_shortlist
        self.random_state = random_state
        self.trees_: Optional[List[GradientTree]] = None

    def _gradients(self, y: np.ndarray, prediction: np.ndarray):
        if self.quantile is None:
            return mse_gradient_hessian(y, prediction)
        return pinball_gradient_hessian(y, prediction, self.quantile)

    def _grow(
        self,
        X: np.ndarray,
        dataset: Optional[BinnedDataset],
        gradients: np.ndarray,
        hessians: np.ndarray,
        params: TreeGrowthParams,
        rng: np.random.Generator,
    ) -> GradientTree:
        """One round's tree, on this round's row and column draws."""
        n_samples, n_features = X.shape
        if self.subsample < 1.0:
            n_rows = max(1, int(round(self.subsample * n_samples)))
            rows = rng.choice(n_samples, size=n_rows, replace=False)
        else:
            # Full-matrix round: no row copy, no RNG draw (the draw
            # never happened on this branch, so seeds are unchanged).
            rows = None
        if self.colsample_bytree < 1.0:
            n_cols = max(1, int(round(self.colsample_bytree * n_features)))
            cols = rng.choice(n_features, size=n_cols, replace=False)
        else:
            cols = np.arange(n_features)

        if dataset is not None:
            if rows is None:
                return grow_histogram_tree(
                    dataset.codes, dataset.binner, gradients, hessians,
                    params, cols, self.feature_shortlist, dataset=dataset,
                )
            return grow_histogram_tree(
                dataset.codes[rows], dataset.binner, gradients[rows],
                hessians[rows], params, cols, self.feature_shortlist,
            )
        tree = GradientTree(params)
        if rows is None:
            return tree.fit_gradients(X, gradients, hessians, cols)
        return tree.fit_gradients(X[rows], gradients[rows], hessians[rows], cols)

    def _loss(self, y: np.ndarray, prediction: np.ndarray) -> float:
        from repro.models.losses import mse_loss, pinball_loss

        if self.quantile is None:
            return mse_loss(y, prediction)
        return pinball_loss(y, prediction, self.quantile)

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        eval_set=None,
        early_stopping_rounds: Optional[int] = None,
        binned: Optional[BinnedDataset] = None,
    ) -> "GradientBoostingRegressor":
        """Fit the boosting ensemble.

        Parameters
        ----------
        X, y:
            Training data.
        eval_set:
            Optional ``(X_val, y_val)`` pair monitored after every round
            (objective loss, recorded in ``eval_history_``).
        early_stopping_rounds:
            Stop when the validation loss has not improved for this many
            consecutive rounds, keeping the ensemble truncated at the best
            round (XGBoost semantics).  Requires ``eval_set``.
        binned:
            Optional pre-binned :class:`~repro.models.binning.BinnedDataset`
            for ``tree_method="hist"``: its codes must come from this very
            ``X`` at this ``max_bins``.  When omitted the fit goes through
            :func:`~repro.models.binning.shared_binned_dataset`, so repeat
            fits on the same matrix (the CQR lo/hi pair, CV folds, grid
            cells) reuse one binning pass automatically.  Bit-identical to
            binning from scratch either way.

        Notes
        -----
        When early stopping truncates the ensemble, the bookkeeping is
        truncated with it: ``eval_history_`` keeps exactly one entry per
        kept tree and ``best_round_ == len(trees_) - 1`` -- the losses of
        the discarded probe rounds are gone along with their trees, so
        ``eval_history_[best_round_]`` is always the loss of the last
        kept round.  A fit that runs to completion keeps the full
        history (one entry per tree) with ``best_round_`` marking its
        argmin.  Fitting also compiles the ensemble into flat decision
        tables (``compiled_``,
        :class:`~repro.models.tables.CompiledDepthwiseTables`) that
        ``predict``/``staged_predict`` evaluate batch-at-once.
        """
        X, y = check_X_y(X, y)
        self.n_features_in_ = X.shape[1]
        rng = check_random_state(self.random_state)
        if early_stopping_rounds is not None:
            if early_stopping_rounds < 1:
                raise ValueError(
                    f"early_stopping_rounds must be >= 1, got {early_stopping_rounds}"
                )
            if eval_set is None:
                raise ValueError("early_stopping_rounds requires an eval_set")
        if eval_set is not None:
            X_val, y_val = check_X_y(*eval_set)
            if X_val.shape[1] != X.shape[1]:
                raise ValueError(
                    f"eval_set has {X_val.shape[1]} features, train has {X.shape[1]}"
                )
        else:
            X_val = y_val = None

        if self.quantile is None:
            self.base_score_ = float(np.mean(y))
        else:
            # Starting from the empirical quantile keeps early rounds from
            # wasting capacity on a global shift.
            self.base_score_ = float(np.quantile(y, self.quantile))

        params = TreeGrowthParams(
            max_depth=self.max_depth,
            min_samples_leaf=1,
            min_child_weight=self.min_child_weight,
            reg_lambda=self.reg_lambda,
            gamma=self.gamma,
        )

        n_samples = X.shape[0]
        dataset = (
            resolve_binned_dataset(X, self.max_bins, binned)
            if self.tree_method == "hist" else None
        )

        prediction = np.full(n_samples, self.base_score_)
        trees: List[GradientTree] = []
        eval_history: List[float] = []
        val_prediction = (
            np.full(X_val.shape[0], self.base_score_) if X_val is not None else None
        )
        best_round = 0
        best_loss = np.inf
        # A round that draws no rows and no columns grows a tree that
        # depends on its gradient and Hessian vectors alone: the codes,
        # params and candidates are fixed for the fit, and neither grower
        # draws random numbers.  Pinball gradients take two values, so
        # such rounds often repeat an earlier round's vectors byte for
        # byte; those append the tree already grown for them.
        reusable = self.subsample == 1.0 and self.colsample_bytree == 1.0
        grown: Dict[bytes, GradientTree] = {}
        for round_index in range(self.n_estimators):
            gradients, hessians = self._gradients(y, prediction)
            key = _round_digest(gradients, hessians) if reusable else None
            tree = grown.get(key)
            if tree is None:
                tree = self._grow(X, dataset, gradients, hessians, params, rng)
                if reusable:
                    grown[key] = tree
            trees.append(tree)
            prediction += self.learning_rate * tree.predict(X)

            if X_val is not None:
                val_prediction += self.learning_rate * tree.predict(X_val)
                loss = self._loss(y_val, val_prediction)
                eval_history.append(loss)
                if loss < best_loss - 1e-12:
                    best_loss = loss
                    best_round = round_index
                elif (
                    early_stopping_rounds is not None
                    and round_index - best_round >= early_stopping_rounds
                ):
                    # Discarded probe rounds take their losses with them:
                    # after truncation, eval_history_ has one entry per
                    # kept tree and best_round_ is the last kept index.
                    trees = trees[: best_round + 1]
                    eval_history = eval_history[: best_round + 1]
                    break

        self.trees_ = trees
        self.eval_history_ = eval_history
        self.best_round_ = best_round if X_val is not None else None
        self.compiled_ = compile_depthwise(trees)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Boosted prediction for every row of ``X``.

        Scores through the compiled decision-table kernel (``compiled_``),
        bit-identical to accumulating the trees one by one; comparisons
        always happen in float64 regardless of the dtype of ``X``.
        """
        check_fitted(self, "trees_")
        X = self._check_predict_X(X)
        return self.compiled_.predict(X, self.base_score_, self.learning_rate)

    def staged_predict(self, X: np.ndarray) -> np.ndarray:
        """Predictions after each boosting round, shape (n_estimators, n).

        Useful for picking an early-stopping round and for the learning-
        curve diagnostics in the benchmarks.  Uses the compiled kernel
        like :meth:`predict`; the last stage always equals ``predict(X)``
        exactly.
        """
        check_fitted(self, "trees_")
        X = self._check_predict_X(X)
        return self.compiled_.staged_predict(
            X, self.base_score_, self.learning_rate
        )

    def __setstate__(self, state: dict) -> None:
        """Unpickle, compiling the kernel a pre-kernel bundle lacks
        (setattr interns the names, so a re-pickled booster is byte for
        byte the bundle it was loaded from)."""
        for name, value in state.items():
            setattr(self, name, value)
        if self.trees_ is not None and getattr(self, "compiled_", None) is None:
            self.compiled_ = compile_depthwise(self.trees_)

    def _check_predict_X(self, X: np.ndarray) -> np.ndarray:
        X = check_X(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fitted with "
                f"{self.n_features_in_}"
            )
        return X

    @property
    def feature_importances_(self) -> np.ndarray:
        """Normalised split counts across all trees (XGBoost 'weight')."""
        check_fitted(self, "trees_")
        counts = np.zeros(self.n_features_in_)
        for tree in self.trees_:
            counts += tree.feature_importances(self.n_features_in_)
        total = counts.sum()
        return counts / total if total > 0 else counts
