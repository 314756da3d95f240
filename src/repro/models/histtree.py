"""Histogram-based, level-batched growth of gradient trees.

Grows the same depth-wise Newton trees as
:class:`repro.models.tree.GradientTree`, but on pre-binned features with
all leaves of a level processed in one ``np.bincount`` pass (the LightGBM
``depth-wise`` strategy).  On the paper's 1800-feature parametric block
this is what makes fitting a 100-tree boosting model interactive instead
of minutes-long; with ``max_bins`` at least the number of distinct feature
values its training predictions equal those of the exact grower
(:meth:`~repro.models.tree.GradientTree.fit_gradients`), which the test
suite verifies.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.models.binning import (
    BinnedDataset,
    FeatureBinner,
    bin_major_prefix_sums,
    histogram_cells,
    histogram_sums,
)
from repro.models.tree import GradientTree, TreeGrowthParams, _NodeBuffers

__all__ = ["best_leaf_splits", "grow_histogram_tree"]


def best_leaf_splits(
    grad_cells: np.ndarray,
    hess_cells: np.ndarray,
    count_cells: np.ndarray,
    grad_leaf: np.ndarray,
    hess_leaf: np.ndarray,
    count_leaf: np.ndarray,
    params: TreeGrowthParams,
    shortlist: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Best split of every active leaf of one level.

    ``*_cells`` are the level's ``(F, L, B)`` histograms (``count_cells``
    may be ``hess_cells`` itself for unit Hessians) and ``*_leaf`` the
    ``(L,)`` leaf totals.  Returns per leaf the best gain, the candidate
    position of its feature and its bin, plus -- when ``shortlist`` is
    set and below ``F`` -- the sorted positions of the top-``shortlist``
    candidates by root gain, to which the feature positions refer.

    Running sums are bin-major (:func:`~repro.models.binning.
    bin_major_prefix_sums`) and the gain is computed in place over the
    ``(B - 1, L, F)`` planes with the float operations of the textbook
    expression, in its order.  The per-leaf ``argmax`` runs over a
    feature-major copy, so exact ties keep going to the first feature,
    then the first bin.
    """
    n_candidates, n_leaves, n_bins = grad_cells.shape
    lam = params.reg_lambda
    grad_left = bin_major_prefix_sums(grad_cells)
    hess_left = bin_major_prefix_sums(hess_cells)
    count_left = (
        hess_left if count_cells is hess_cells
        else bin_major_prefix_sums(count_cells)
    )
    hess_right = hess_leaf[:, None] - hess_left
    admissible = count_left >= params.min_samples_leaf
    admissible &= count_leaf[:, None] - count_left >= params.min_samples_leaf
    if params.min_child_weight > 0:
        admissible &= hess_left >= params.min_child_weight
        admissible &= hess_right >= params.min_child_weight
    # gain = 0.5 * (GL²/(HL+λ) + GR²/(HR+λ) - G²/(H+λ)), built in place.
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = np.square(grad_left)
        hess_left += lam
        gain /= hess_left
        np.subtract(grad_leaf[:, None], grad_left, out=grad_left)
        np.square(grad_left, out=grad_left)
        hess_right += lam
        grad_left /= hess_right
        gain += grad_left
        gain -= (grad_leaf**2 / (hess_leaf + lam))[:, None]
        gain *= 0.5
    np.copyto(gain, -np.inf, where=~admissible)

    kept = None
    if shortlist is not None and n_candidates > shortlist:
        # Root-gain shortlist: deeper levels only consider the top-K
        # features, in candidate order.
        root_scores = gain.max(axis=(0, 1))
        kept = np.sort(np.argsort(root_scores)[-shortlist:])
        gain = gain[:, :, kept]
    by_leaf = np.ascontiguousarray(gain.transpose(1, 2, 0)).reshape(n_leaves, -1)
    best_flat = np.argmax(by_leaf, axis=1)
    best_gain = by_leaf[np.arange(n_leaves), best_flat]
    width = n_bins - 1
    return best_gain, best_flat // width, best_flat % width, kept


def grow_histogram_tree(
    binned: np.ndarray,
    binner: FeatureBinner,
    gradients: np.ndarray,
    hessians: np.ndarray,
    params: TreeGrowthParams,
    feature_shortlist: Optional[int] = None,
    dataset: Optional[BinnedDataset] = None,
) -> GradientTree:
    """Grow one depth-wise Newton tree on pre-binned features.

    Parameters
    ----------
    binned:
        Integer bin codes from ``binner.transform`` (n_samples, n_features).
    binner:
        The fitted :class:`FeatureBinner`; needed to translate chosen bin
        indices back into raw-unit thresholds so the returned tree predicts
        directly on raw feature matrices.
    gradients, hessians:
        Per-sample first/second derivatives of the loss at the current
        boosting prediction.
    params:
        Growth limits and regularisation (same semantics as the exact
        grower).
    feature_shortlist:
        Wide-data speedup: after the root level scores every column
        exactly, deeper levels only consider the top-K features by root
        gain.  ``None`` keeps the exact search at every level.
    dataset:
        Optional :class:`~repro.models.binning.BinnedDataset` whose
        ``codes`` are this very ``binned`` matrix.  When given, the
        level-0 cell index and unit-weight histogram come from the
        dataset's cache instead of being recomputed -- they are
        round-invariant, and recomputing them dominated the per-round
        cost before this seam existed.  Strictly result-preserving:
        callers for which the contract does not hold simply omit it.

    Returns
    -------
    GradientTree
        A fitted tree whose ``predict`` operates on raw (un-binned) X.
    """
    n_samples, n_features = binned.shape
    gradients = np.asarray(gradients, dtype=np.float64)
    hessians = np.asarray(hessians, dtype=np.float64)
    if gradients.shape != (n_samples,) or hessians.shape != (n_samples,):
        raise ValueError("gradients/hessians must be 1-D with len(binned) entries")
    # Every column is a candidate at the root; the shortlist, when it
    # binds, narrows the deeper levels.
    candidate_features = np.arange(n_features)
    n_bins = binner.n_bins
    lam = params.reg_lambda

    buffers = _NodeBuffers()
    root = buffers.new_node()
    # slot: position of each sample's current *active* leaf at this level;
    # -1 means the sample's path has terminated in a finished leaf.
    slot = np.zeros(n_samples, dtype=np.int64)
    active_nodes: List[int] = [root]

    for depth in range(params.max_depth + 1):
        if not active_nodes:
            break
        n_active = len(active_nodes)
        live = slot >= 0
        grad_leaf = np.bincount(
            slot[live], weights=gradients[live], minlength=n_active
        )
        hess_leaf = np.bincount(
            slot[live], weights=hessians[live], minlength=n_active
        )
        count_leaf = np.bincount(slot[live], minlength=n_active)
        for position, node_id in enumerate(active_nodes):
            buffers.value[node_id] = -grad_leaf[position] / (hess_leaf[position] + lam)

        # One bin (every column constant, or none at all) leaves no
        # boundary to split on: the root stays the only leaf.
        if depth == params.max_depth or n_bins < 2:
            break

        # Avoid materialising full-matrix copies while every sample is
        # still live (always true at the root; true at every level until
        # the first leaf terminates) -- binned[live] with an all-True
        # mask is the costliest no-op in the grower.
        all_live = bool(live.all())
        binned_live = binned if all_live else binned[live]
        slot_live = slot if all_live else slot[live]
        gradients_live = gradients if all_live else gradients[live]
        n_live = binned_live.shape[0]
        unit_hessian = bool(np.all(hessians == 1.0))
        n_candidates = candidate_features.size
        root_unit = None
        if dataset is not None and depth == 0:
            # Round-invariant level-0 state shared across the whole
            # boosting run (and across the lo/hi quantile pair).
            cell, root_unit = dataset.root_level(n_bins)
        else:
            cell = histogram_cells(
                binned_live, slot_live, n_active, n_bins, candidate_features
            )
        grad_cells = histogram_sums(
            cell, gradients_live, n_active, n_bins, n_candidates
        )
        if unit_hessian:
            # Both supported objectives (squared error, pinball) have unit
            # Hessians, so the Hessian histogram doubles as a sample count.
            hess_cells = (
                root_unit
                if root_unit is not None
                else histogram_sums(
                    cell, np.ones(n_live), n_active, n_bins, n_candidates
                )
            )
            count_cells = hess_cells
        else:
            hess_cells = histogram_sums(
                cell,
                hessians if all_live else hessians[live],
                n_active,
                n_bins,
                n_candidates,
            )
            count_cells = (
                root_unit
                if root_unit is not None
                else histogram_sums(
                    cell, np.ones(n_live), n_active, n_bins, n_candidates
                )
            )

        best_gain, best_feature_pos, best_bin, kept = best_leaf_splits(
            grad_cells, hess_cells, count_cells, grad_leaf, hess_leaf,
            count_leaf, params, feature_shortlist if depth == 0 else None,
        )
        if kept is not None:
            candidate_features = candidate_features[kept]

        next_active: List[int] = []
        split_feature = np.full(n_active, -1, dtype=np.int64)
        split_bin = np.zeros(n_active, dtype=np.int64)
        new_slot_left = np.zeros(n_active, dtype=np.int64)
        any_split = False
        for position, node_id in enumerate(active_nodes):
            if not np.isfinite(best_gain[position]) or best_gain[position] <= params.gamma:
                continue
            feature = int(candidate_features[best_feature_pos[position]])
            bin_index = int(best_bin[position])
            left_id = buffers.new_node()
            right_id = buffers.new_node()
            buffers.feature[node_id] = feature
            buffers.threshold[node_id] = binner.threshold(feature, bin_index)
            buffers.left[node_id] = left_id
            buffers.right[node_id] = right_id
            split_feature[position] = feature
            split_bin[position] = bin_index
            new_slot_left[position] = len(next_active)
            next_active.append(left_id)
            next_active.append(right_id)
            any_split = True

        if not any_split:
            break

        # Re-slot samples: children occupy consecutive positions; samples in
        # unsplit leaves terminate.
        rows = np.flatnonzero(slot >= 0)
        position = slot[rows]
        feature = split_feature[position]
        goes_right = binned[rows, np.maximum(feature, 0)] > split_bin[position]
        slot[rows] = np.where(
            feature >= 0, new_slot_left[position] + goes_right, -1
        )
        active_nodes = next_active

    return GradientTree(params)._set_nodes(buffers, n_features)
