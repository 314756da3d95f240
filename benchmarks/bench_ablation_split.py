"""Ablation -- calibration fraction (paper holds out 25 %).

Sweeps the CQR train/calibration split over {0.1, 0.25, 0.4, 0.5} for
CQR-LR at 25 degC / 0 h.  The trade-off being quantified: a small
calibration set makes the conformal quantile coarse and high-variance
(with M < ceil(1/alpha) − 1 it is outright infinite, and the row reads
100 % coverage at infinite length), while a large one starves the
quantile band of training chips and widens the raw band.  The paper's
25 % (≈29 chips per fold) sits near the sweet spot.
"""

from __future__ import annotations

from conftest import publish

from repro.core.calibration import (
    effective_coverage_level,
    required_calibration_size,
)
from repro.eval.experiments import run_region_experiment
from repro.eval.reporting import format_table

FRACTIONS = (0.1, 0.25, 0.4, 0.5)
ALPHA = 0.1


def _render(dataset, profile) -> str:
    rows = []
    for fraction in FRACTIONS:
        # Calibration size within one CV training fold (~3/4 of the lot).
        n_cal = int(round(fraction * dataset.n_chips * (profile.n_folds - 1) / profile.n_folds))
        if n_cal < required_calibration_size(ALPHA):
            # Too few chips for a finite conformal quantile: CQR refuses to
            # serve the whole real line, the only interval it could promise.
            coverage, width = 1.0, float("inf")
        else:
            result = run_region_experiment(
                dataset,
                "CQR LR",
                25.0,
                0,
                alpha=ALPHA,
                calibration_fraction=fraction,
                profile=profile,
            )
            coverage, width = result.coverage, result.width
        rows.append(
            [
                fraction,
                n_cal,
                effective_coverage_level(max(n_cal, 1), ALPHA) * 100.0,
                coverage * 100.0,
                width,
            ]
        )
    return format_table(
        ["Cal fraction", "Cal chips", "Guarantee (%)", "Coverage (%)", "Len (mV)"],
        rows,
        title="Ablation | CQR calibration fraction (CQR LR, 25C, 0h, alpha=0.1)",
    )


def test_ablation_split(benchmark, dataset, profile):
    text = benchmark.pedantic(_render, args=(dataset, profile), rounds=1, iterations=1)
    publish("ablation_split", text)
