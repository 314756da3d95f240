"""Per-group coverage diagnostics for interval predictors.

Beyond the two headline metrics (length, coverage), a silicon quality
team auditing an interval predictor needs to know *where* coverage is
spent: is the 90 % marginal rate hiding 70 % on defective parts, or on
one wafer zone?  :func:`coverage_by_group` answers that with a
:class:`CoverageReport` (the Mondrian ablation and
``examples/wafer_zone_guarantees.py`` read it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Sequence, Tuple

import numpy as np

from repro.core.intervals import PredictionIntervals

__all__ = ["CoverageReport", "coverage_by_group"]


@dataclass(frozen=True)
class CoverageReport:
    """Per-group chip count, empirical coverage and mean width."""

    groups: Tuple[Hashable, ...]
    counts: Tuple[int, ...]
    coverages: Tuple[float, ...]
    mean_widths: Tuple[float, ...]


def coverage_by_group(
    intervals: PredictionIntervals,
    y: np.ndarray,
    groups: Sequence[Hashable],
) -> CoverageReport:
    """Empirical coverage and width per group label.

    ``groups`` carries one hashable label per sample (booleans, strings,
    bin indices...).  Groups are reported in sorted order.
    """
    y = np.asarray(y, dtype=np.float64)
    groups = np.asarray(groups)
    if groups.shape[0] != len(intervals):
        raise ValueError(
            f"{groups.shape[0]} group labels for {len(intervals)} intervals"
        )
    covered = intervals.contains(y)
    width = intervals.width
    labels: List[Hashable] = sorted(set(groups.tolist()), key=str)
    counts, coverages, widths = [], [], []
    for label in labels:
        members = groups == label
        counts.append(int(members.sum()))
        coverages.append(float(covered[members].mean()))
        widths.append(float(width[members].mean()))
    return CoverageReport(
        groups=tuple(labels),
        counts=tuple(counts),
        coverages=tuple(coverages),
        mean_widths=tuple(widths),
    )
