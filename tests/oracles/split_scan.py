"""Feature-major reference bodies of the two growers' level split scans.

These are the scans as first written: ``np.cumsum`` along the bin axis
of the ``(F, L, B)`` histograms, the scores computed over strided
``(F, L, B - 1)`` views, and every reduction in that layout.  The
production scans (:func:`repro.models.oblivious.level_split_scores`,
:func:`repro.models.histtree.best_leaf_splits`) run bin-major in reused
buffers; the parity tests assert that their outputs equal these, bit
for bit, and monkeypatch these in to check whole fits.

Each takes the production signature.  The oblivious scan's split mask
is the caller's ``splittable`` (built from row counts) rather than the
original Hessian-mass test -- the two agree whenever the Hessians are
unit, the only case the mass test got right -- and its no-split baseline
counts a leaf with ``H + λ = 0`` as 0, like production.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.models.tree import TreeGrowthParams


def oblivious_level_scores(
    grad_cells: np.ndarray,
    hess_cells: np.ndarray,
    splittable: np.ndarray,
    lam: float,
    work: Optional[np.ndarray] = None,
    occupied: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, float]:
    """``(F, B - 1)`` summed leaf gains and the no-split baseline.

    Histograms over the ``occupied`` leaves only get the empty leaves
    back as zero rows, and the scan runs over the full leaf axis.
    """
    if occupied is not None:
        grad_cells, hess_cells = (
            _with_empty_leaves(cells, occupied) for cells in (grad_cells, hess_cells)
        )
    grad_left = np.cumsum(grad_cells, axis=2)[:, :, :-1]
    hess_left = np.cumsum(hess_cells, axis=2)[:, :, :-1]
    grad_total = grad_cells.sum(axis=2, keepdims=True)
    hess_total = hess_cells.sum(axis=2, keepdims=True)

    reg = max(lam, 1e-12)
    score = np.square(grad_left)
    score /= hess_left + reg
    grad_right = grad_total - grad_left
    right_term = np.square(grad_right)
    right_term /= hess_total - hess_left + reg
    score += right_term
    score = score.sum(axis=1)
    score = np.where(splittable, score, -np.inf)
    denominator = hess_total[0, :, 0] + lam
    leaf_terms = np.divide(
        grad_total[0, :, 0] ** 2, denominator,
        out=np.zeros_like(denominator), where=denominator > 0,
    )
    return score, float(np.sum(leaf_terms))


def _with_empty_leaves(cells: np.ndarray, occupied: np.ndarray) -> np.ndarray:
    full = np.zeros((cells.shape[0], occupied.size, cells.shape[2]))
    full[:, occupied] = cells
    return full


def histtree_leaf_splits(
    grad_cells: np.ndarray,
    hess_cells: np.ndarray,
    count_cells: np.ndarray,
    grad_leaf: np.ndarray,
    hess_leaf: np.ndarray,
    count_leaf: np.ndarray,
    params: TreeGrowthParams,
    shortlist: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Per-leaf best gain, feature position and bin (plus shortlist)."""
    lam = params.reg_lambda
    unit_hessian = count_cells is hess_cells
    grad_left = np.cumsum(grad_cells, axis=2)[:, :, :-1]
    hess_left = np.cumsum(hess_cells, axis=2)[:, :, :-1]
    count_left = (
        hess_left if unit_hessian else np.cumsum(count_cells, axis=2)[:, :, :-1]
    )
    grad_total = grad_leaf[None, :, None]
    hess_total = hess_leaf[None, :, None]
    count_total = count_leaf[None, :, None]
    grad_right = grad_total - grad_left
    hess_right = hess_total - hess_left
    count_right = count_total - count_left

    admissible = (
        (count_left >= params.min_samples_leaf)
        & (count_right >= params.min_samples_leaf)
    )
    if params.min_child_weight > 0:
        admissible &= (hess_left >= params.min_child_weight) & (
            hess_right >= params.min_child_weight
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = 0.5 * (
            grad_left**2 / (hess_left + lam)
            + grad_right**2 / (hess_right + lam)
            - grad_total**2 / (hess_total + lam)
        )
    gain = np.where(admissible, gain, -np.inf)

    kept = None
    if shortlist is not None and gain.shape[0] > shortlist:
        root_scores = gain.max(axis=(1, 2))
        kept = np.sort(np.argsort(root_scores)[-shortlist:])
        gain = gain[kept]
    n_active = gain.shape[1]
    flat = gain.transpose(1, 0, 2).reshape(n_active, -1)  # (L, F*(nb-1))
    best_flat = np.argmax(flat, axis=1)
    best_gain = flat[np.arange(n_active), best_flat]
    width = gain.shape[2]
    return best_gain, best_flat // width, best_flat % width, kept
