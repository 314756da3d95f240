"""Per-column reference body of the quantile bin edges.

:meth:`repro.models.binning.FeatureBinner.fit` computes every column's
edges at once (one column-wise sort, one batched ``np.quantile``); the
parity tests assert that its edges equal :func:`quantile_bin_edges`
column by column, bit for bit.
"""

from __future__ import annotations

import numpy as np


def quantile_bin_edges(column: np.ndarray, max_bins: int) -> np.ndarray:
    """Candidate split thresholds for one feature column.

    Returns a strictly increasing array of at most ``max_bins - 1``
    thresholds.  When the column has few distinct values, thresholds are
    the midpoints between consecutive distinct values (exact search);
    otherwise they are interior quantiles.  Constant columns yield an
    empty array -- they can never split.
    """
    if max_bins < 2:
        raise ValueError(f"max_bins must be >= 2, got {max_bins}")
    unique = np.unique(column)
    if unique.size <= 1:
        return np.empty(0)
    midpoints = (unique[:-1] + unique[1:]) / 2.0
    if midpoints.size <= max_bins - 1:
        return midpoints
    quantiles = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    return np.unique(np.quantile(column, quantiles))
