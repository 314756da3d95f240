"""Declarative experiment runners reproducing the paper's evaluation.

Two entry points mirror the paper's two result families:

* :func:`run_point_experiment` -- one cell of Fig. 2: a point model's
  4-fold-CV :math:`R^2`/RMSE at one (temperature, read point),
* :func:`run_region_experiment` -- one row-cell of Table III: a region
  method's average interval length and coverage at one
  (temperature, read point).

Model configurations follow Section IV-C exactly in the ``full`` profile:

* LR -- plain linear regression on CFS-selected features (best of 1..10),
* GP -- RBF kernel, marginal-likelihood fit, CFS features,
* XGBoost -- our :class:`~repro.models.gbm.GradientBoostingRegressor`
  with package defaults, all raw features,
* CatBoost -- our oblivious boosting with 100 trees, all raw features,
* NN -- 16-unit ReLU MLP, Adam(0.01), 3000 epochs, L2 0.1, CFS features.

The ``fast`` profile keeps every algorithm identical but shrinks budgets
(NN epochs, boosting rounds, histogram bins, CFS sweep) so a laptop run
of the complete benchmark suite stays in minutes; the benchmark harness
selects the profile via the ``REPRO_BENCH`` environment variable.
"""

from __future__ import annotations

import enum
import os
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.cqr import ConformalizedQuantileRegressor
from repro.core.split_cp import split_train_calibration
from repro.eval.crossval import (
    IntervalCVResult,
    KFold,
    PointCVResult,
    cross_validate_intervals,
    cross_validate_point,
    fold_row_subsets,
)
from repro.features.selection import CFSSelectedRegressor
from repro.models.base import BaseRegressor, check_random_state, clone
from repro.models.binning import (
    BinnedDataset,
    FeatureBinner,
    dataset_digest,
    seed_bin_cache,
    shared_binned_dataset,
)
from repro.models.gbm import GradientBoostingRegressor
from repro.models.gp import GaussianProcessRegressor
from repro.models.linear import LinearRegression, QuantileLinearRegression
from repro.models.nn import MLPRegressor
from repro.models.oblivious import ObliviousBoostingRegressor
from repro.models.quantile import PackageDefaultQuantileBand, QuantileBandRegressor
from repro.perf.parallel import parallel_map_outcomes
from repro.perf.shm import ArraySpec, SharedArrayBundle, attach_array
from repro.runtime.checkpoint import RunJournal, cell_fingerprint
from repro.runtime.retry import RetryPolicy
from repro.silicon.dataset import SiliconDataset

__all__ = [
    "FailureRecord",
    "FeatureSet",
    "GridResult",
    "POINT_MODEL_NAMES",
    "REGION_METHOD_NAMES",
    "ExperimentProfile",
    "run_point_experiment",
    "run_point_grid",
    "run_region_experiment",
    "run_region_grid",
]

POINT_MODEL_NAMES = ("LR", "GP", "XGBoost", "CatBoost", "NN")
REGION_METHOD_NAMES = (
    "GP",
    "QR LR",
    "QR NN",
    "QR XGBoost",
    "QR CatBoost",
    "CQR LR",
    "CQR NN",
    "CQR XGBoost",
    "CQR CatBoost",
)

_RAW_MODELS = {"XGBoost", "CatBoost"}  # models fed all raw columns; the
# rest (LR/GP/NN) receive CFS-selected features per Section IV-C


class FeatureSet(enum.Enum):
    """The three feature configurations of Fig. 3 / Table IV."""

    PARAMETRIC = "parametric"
    ONCHIP = "onchip"
    BOTH = "onchip_and_parametric"

    @property
    def include_parametric(self) -> bool:
        return self in (FeatureSet.PARAMETRIC, FeatureSet.BOTH)

    @property
    def include_onchip(self) -> bool:
        return self in (FeatureSet.ONCHIP, FeatureSet.BOTH)


@dataclass(frozen=True)
class ExperimentProfile:
    """Computation budget for one experiment run."""

    nn_epochs: int = 3000
    gp_restarts: int = 2
    xgb_estimators: int = 100
    xgb_max_bins: int = 32
    xgb_tree_method: str = "hist"
    """Split finder for the XGBoost-style model: ``"hist"`` (quantile-
    binned histogram scan, the default) or ``"exact"`` (every boundary).
    The perf benchmark pins ``"exact"`` to time the pre-histogram
    baseline; results on the 156-chip data are indistinguishable."""
    catboost_estimators: int = 100
    catboost_max_bins: int = 32
    cfs_k_values: Tuple[int, ...] = tuple(range(1, 11))
    n_folds: int = 4
    catboost_quantile_trap: bool = True
    """Reproduce the CatBoost package-default quantile behaviour
    (``loss_function='Quantile'`` means alpha=0.5): both band models are
    trained on the median, matching the paper's pathological "QR CatBoost"
    row and its degenerate-but-short "CQR CatBoost".  Set ``False`` for
    properly configured alpha/2 and 1-alpha/2 quantiles (the ablation)."""

    @classmethod
    def full(cls) -> "ExperimentProfile":
        """Paper-exact configuration (Section IV-C)."""
        return cls()

    @classmethod
    def fast(cls) -> "ExperimentProfile":
        """Same algorithms, smaller budgets; for interactive runs."""
        return cls(
            nn_epochs=800,
            gp_restarts=1,
            xgb_estimators=50,
            xgb_max_bins=16,
            catboost_estimators=100,
            catboost_max_bins=16,
            cfs_k_values=(4, 8, 10),
            n_folds=4,
        )

    @classmethod
    def from_name(cls, name: str) -> "ExperimentProfile":
        """Resolve a profile by name ('full', 'fast', or 'smoke')."""
        factories = {"full": cls.full, "fast": cls.fast, "smoke": cls.smoke}
        if name not in factories:
            raise ValueError(
                f"unknown profile {name!r}; expected one of {sorted(factories)}"
            )
        return factories[name]()

    @classmethod
    def smoke(cls) -> "ExperimentProfile":
        """Minimal budgets for CI smoke tests."""
        return cls(
            nn_epochs=150,
            gp_restarts=0,
            xgb_estimators=15,
            xgb_max_bins=8,
            catboost_estimators=20,
            catboost_max_bins=8,
            cfs_k_values=(5,),
            n_folds=2,
        )


# ---------------------------------------------------------------------------
# model templates
# ---------------------------------------------------------------------------

def _point_template(
    name: str, profile: ExperimentProfile, seed: int
) -> BaseRegressor:
    """Unfitted point model per the paper's Section IV-C configuration."""
    if name == "LR":
        return LinearRegression()
    if name == "GP":
        return GaussianProcessRegressor(
            n_restarts=profile.gp_restarts, random_state=seed
        )
    if name == "XGBoost":
        return GradientBoostingRegressor(
            n_estimators=profile.xgb_estimators,
            max_bins=profile.xgb_max_bins,
            tree_method=profile.xgb_tree_method,
        )
    if name == "CatBoost":
        return ObliviousBoostingRegressor(
            n_estimators=profile.catboost_estimators,
            max_bins=profile.catboost_max_bins,
            random_state=seed,
        )
    if name == "NN":
        return MLPRegressor(epochs=profile.nn_epochs, random_state=seed)
    raise ValueError(f"unknown point model {name!r}; expected {POINT_MODEL_NAMES}")


def _quantile_template(
    name: str, profile: ExperimentProfile, seed: int
) -> BaseRegressor:
    """Unfitted quantile-capable template for the QR/CQR methods."""
    if name == "LR":
        return QuantileLinearRegression()
    if name == "NN":
        return MLPRegressor(epochs=profile.nn_epochs, quantile=0.5, random_state=seed)
    if name == "XGBoost":
        return GradientBoostingRegressor(
            n_estimators=profile.xgb_estimators,
            max_bins=profile.xgb_max_bins,
            tree_method=profile.xgb_tree_method,
            quantile=0.5,
        )
    if name == "CatBoost":
        return ObliviousBoostingRegressor(
            n_estimators=profile.catboost_estimators,
            max_bins=profile.catboost_max_bins,
            quantile=0.5,
            random_state=seed,
        )
    raise ValueError(
        f"unknown quantile base model {name!r}; expected LR/NN/XGBoost/CatBoost"
    )


# ---------------------------------------------------------------------------
# GP interval adapter
# ---------------------------------------------------------------------------

class _GPIntervalAdapter(BaseRegressor):
    """A GP template whose ``predict_interval`` uses one fixed ``alpha``.

    Clonable, so the Table-III GP cell fits it through
    :class:`CFSSelectedRegressor` like every other CFS model.
    """

    def __init__(self, gp: GaussianProcessRegressor, alpha: float) -> None:
        self.gp = gp
        self.alpha = alpha

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_GPIntervalAdapter":
        self.gp_ = clone(self.gp).fit(X, y)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.gp_.predict(X)

    def predict_interval(self, X: np.ndarray):
        return self.gp_.predict_interval(X, alpha=self.alpha)


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

VMIN_SCALE_MV = 1000.0
"""Targets are modelled in millivolts, the unit every silicon team uses
for Vmin (and the unit of all paper tables).  This matters beyond
cosmetics: pinball-gradient boosting takes O(learning_rate) steps in
*target units* per round, so the XGBoost QR behaviour of Table III only
reproduces at mV scale -- in volts the quantile models oscillate wildly.
Scale-equivariant models (LR, GP, NN, CatBoost exact-leaf) are unaffected.
"""


def _experiment_data(
    dataset: SiliconDataset,
    temperature_c: float,
    hours: int,
    feature_set: FeatureSet,
) -> Tuple[np.ndarray, np.ndarray]:
    X, _ = dataset.features(
        hours,
        include_parametric=feature_set.include_parametric,
        include_onchip=feature_set.include_onchip,
    )
    y = dataset.target(temperature_c, hours) * VMIN_SCALE_MV
    return X, y


def run_point_experiment(
    dataset: SiliconDataset,
    model_name: str,
    temperature_c: float,
    hours: int,
    feature_set: FeatureSet = FeatureSet.BOTH,
    profile: Optional[ExperimentProfile] = None,
    seed: int = 0,
    n_jobs: Optional[int] = None,
) -> PointCVResult:
    """One Fig.-2 cell: CV point-prediction quality of one model.

    For CFS-based models (LR/GP/NN) the CFS size is swept over
    ``profile.cfs_k_values`` and the best mean test :math:`R^2` is
    reported -- the paper's "pick 1 to 10 features and report the best
    testing scores" protocol.  ``n_jobs`` parallelises the CV folds;
    every metric is identical to the serial run.
    """
    profile = profile or ExperimentProfile.full()
    if model_name not in POINT_MODEL_NAMES:
        raise ValueError(
            f"unknown point model {model_name!r}; expected {POINT_MODEL_NAMES}"
        )
    X, y = _experiment_data(dataset, temperature_c, hours, feature_set)
    kfold = KFold(n_splits=profile.n_folds, shuffle=True, random_state=seed)

    template = _point_template(model_name, profile, seed)
    if model_name in _RAW_MODELS:
        candidates = [template]
    else:
        candidates = [
            CFSSelectedRegressor(template, k=k, scale=model_name in ("GP", "NN"))
            for k in profile.cfs_k_values
        ]
    best: Optional[PointCVResult] = None
    for candidate in candidates:

        def builder(X_train, y_train, candidate=candidate):
            return clone(candidate).fit(X_train, y_train)

        result = cross_validate_point(builder, X, y, kfold, n_jobs=n_jobs)
        if best is None or result.r2 > best.r2:
            best = result
    return best


def run_region_experiment(
    dataset: SiliconDataset,
    method_name: str,
    temperature_c: float,
    hours: int,
    feature_set: FeatureSet = FeatureSet.BOTH,
    alpha: float = 0.1,
    calibration_fraction: float = 0.25,
    cfs_k: int = 10,
    profile: Optional[ExperimentProfile] = None,
    seed: int = 0,
    n_jobs: Optional[int] = None,
) -> IntervalCVResult:
    """One Table-III cell: CV interval length/coverage of one method.

    ``method_name`` is one of :data:`REGION_METHOD_NAMES`.  QR methods are
    raw quantile bands (no calibration); CQR methods hold out
    ``calibration_fraction`` of the training fold (paper: 25 %).  LR/NN
    bases use ``cfs_k`` CFS features (with scaling for NN); boosting bases
    see all raw columns -- the Section IV-C/IV-E configuration.
    ``n_jobs`` parallelises the CV folds; every metric is identical to
    the serial run.
    """
    profile = profile or ExperimentProfile.full()
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if method_name not in REGION_METHOD_NAMES:
        raise ValueError(
            f"unknown region method {method_name!r}; expected {REGION_METHOD_NAMES}"
        )
    X, y = _experiment_data(dataset, temperature_c, hours, feature_set)
    kfold = KFold(n_splits=profile.n_folds, shuffle=True, random_state=seed)

    if method_name == "GP":
        gp = GaussianProcessRegressor(n_restarts=profile.gp_restarts, random_state=seed)
        template = CFSSelectedRegressor(
            _GPIntervalAdapter(gp, alpha), k=cfs_k, scale=True
        )

        def builder(X_train, y_train):
            return clone(template).fit(X_train, y_train)

        return cross_validate_intervals(builder, X, y, kfold, n_jobs=n_jobs)

    family, base_name = method_name.split(" ", 1)
    template = _quantile_template(base_name, profile, seed)
    if base_name in ("LR", "NN"):
        # Selection lives INSIDE the template so conformal wrappers refit
        # it on the proper-training split only -- selecting features on
        # data that later calibrates the intervals silently voids the
        # coverage guarantee (see CFSSelectedRegressor).
        template = CFSSelectedRegressor(
            template, k=cfs_k, scale=(base_name == "NN"), quantile=0.5
        )
    # The paper configures CatBoost with package defaults; the package's
    # 'Quantile' loss defaults to alpha=0.5, so both band models fit the
    # median (see PackageDefaultQuantileBand).
    trap = base_name == "CatBoost" and profile.catboost_quantile_trap

    def _make_band():
        if trap:
            return PackageDefaultQuantileBand(
                clone(template), alpha=alpha, random_state=seed
            )
        return QuantileBandRegressor(clone(template), alpha=alpha)

    if family == "QR":

        def builder(X_train, y_train):
            return _make_band().fit(X_train, y_train)

    elif family == "CQR":

        def builder(X_train, y_train):
            cqr = ConformalizedQuantileRegressor(
                None if trap else clone(template),
                alpha=alpha,
                calibration_fraction=calibration_fraction,
                band_template=_make_band() if trap else None,
                random_state=seed,
            )
            return cqr.fit(X_train, y_train)

    else:  # pragma: no cover - guarded by REGION_METHOD_NAMES check
        raise ValueError(f"unknown method family {family!r}")

    return cross_validate_intervals(builder, X, y, kfold, n_jobs=n_jobs)


# ---------------------------------------------------------------------------
# resilient grid execution
# ---------------------------------------------------------------------------

GridCell = Tuple[str, float, int]
GridCVResult = Union[PointCVResult, IntervalCVResult]


@dataclass(frozen=True)
class FailureRecord:
    """One grid cell that failed after every allowed attempt.

    Attributes
    ----------
    key:
        The ``(name, temperature_c, hours)`` cell identity.
    fingerprint:
        The journal fingerprint of the cell (resume skips it only once
        it eventually succeeds and is recorded).
    error_type, message:
        Final exception class name and message.
    attempts:
        Executions made, retries included.
    timed_out:
        Whether the final failure was a watchdog deadline overrun.
    """

    key: GridCell
    fingerprint: str
    error_type: str
    message: str
    attempts: int
    timed_out: bool


class GridResult(Dict[GridCell, GridCVResult]):
    """Grid results (an ordered cell -> result dict) plus execution metadata.

    A drop-in replacement for the plain dict the grid runners used to
    return: iteration order is cell order, lookups are unchanged.  On
    top of that it carries the structured failure list (cells that
    exhausted their retries -- only ever non-empty with
    ``on_error="capture"``) and the per-cell attempt counts the stress
    harness asserts recovery with.
    """

    def __init__(
        self,
        results: Mapping[GridCell, GridCVResult],
        failures: Sequence[FailureRecord] = (),
        attempts: Optional[Mapping[GridCell, int]] = None,
    ) -> None:
        super().__init__(results)
        self.failures: Tuple[FailureRecord, ...] = tuple(failures)
        self.attempts: Dict[GridCell, int] = dict(attempts or {})

    @property
    def ok(self) -> bool:
        """Whether every cell of the grid completed."""
        return not self.failures

    @property
    def n_retried(self) -> int:
        """Number of cells that needed more than one attempt."""
        return sum(1 for count in self.attempts.values() if count > 1)


def _point_payload(result: PointCVResult) -> Dict[str, Any]:
    return {
        "type": "point",
        "r2_per_fold": list(result.r2_per_fold),
        "rmse_per_fold": list(result.rmse_per_fold),
    }


def _interval_payload(result: IntervalCVResult) -> Dict[str, Any]:
    return {
        "type": "interval",
        "coverage_per_fold": list(result.coverage_per_fold),
        "width_per_fold": list(result.width_per_fold),
    }


def _result_from_payload(payload: Mapping[str, Any]) -> GridCVResult:
    kind = payload.get("type")
    if kind == "point":
        return PointCVResult(
            r2_per_fold=tuple(float(v) for v in payload["r2_per_fold"]),
            rmse_per_fold=tuple(float(v) for v in payload["rmse_per_fold"]),
        )
    if kind == "interval":
        return IntervalCVResult(
            coverage_per_fold=tuple(
                float(v) for v in payload["coverage_per_fold"]
            ),
            width_per_fold=tuple(float(v) for v in payload["width_per_fold"]),
        )
    raise ValueError(f"unknown journal payload type {kind!r}")


def _grid_fingerprints(
    kind: str,
    cells: Sequence[GridCell],
    feature_set: FeatureSet,
    profile: ExperimentProfile,
    seed: int,
    extra: Mapping[str, Any],
) -> Dict[GridCell, str]:
    """Stable per-cell fingerprints: config + commit, never timing.

    The git sha (``REPRO_GIT_SHA``, set by CI) is part of the identity:
    a journal written by one commit is never silently reused by
    another.
    """
    base: Dict[str, Any] = {
        "schema": 1,
        "grid": kind,
        "feature_set": feature_set.value,
        "profile": asdict(profile),
        "seed": int(seed),
        "git_sha": os.environ.get("REPRO_GIT_SHA") or None,
    }
    base.update(extra)
    fingerprints = {}
    for cell in cells:
        name, temperature, hours = cell
        fields = dict(base)
        fields.update(name=name, temperature=temperature, hours=hours)
        fingerprints[cell] = cell_fingerprint(fields)
    return fingerprints


# ---------------------------------------------------------------------------
# process-backend grid engine (shared-memory bin transport)
# ---------------------------------------------------------------------------

# Per-process state for backend="process" grid workers: the (pickled-
# once) SiliconDataset the cells read from.  Set by _init_grid_worker in
# every pool worker, and in the parent before fan-out so the serial
# fallback and the fork-based stuck-worker requeue path find it too.
_WORKER_GRID_STATE: Optional[Dict[str, Any]] = None

_SharedBinEntry = Tuple[str, ArraySpec, Tuple[np.ndarray, ...], int]


def _hist_bin_plan(
    names: Sequence[str], kind: str, profile: ExperimentProfile
) -> Tuple[Tuple[int, ...], bool, bool]:
    """Which histogram resolutions the grid bins at, and on which rows.

    Returns ``(max_bins values, need_fold_train, need_proper_train)``:
    QR bands and point models fit on the full CV-fold training matrix,
    CQR bands on the proper-training split inside it.  Methods that
    never bin (LR/GP/NN, exact-method XGBoost) contribute nothing.
    """
    bins_wanted = set()
    need_full = False
    need_proper = False
    for name in names:
        base = name.split(" ")[-1]
        if base == "XGBoost" and profile.xgb_tree_method == "hist":
            bins_wanted.add(int(profile.xgb_max_bins))
        elif base == "CatBoost":
            bins_wanted.add(int(profile.catboost_max_bins))
        else:
            continue
        if kind == "region" and name.startswith("CQR "):
            need_proper = True
        else:
            need_full = True
    return tuple(sorted(bins_wanted)), need_full, need_proper


def _grid_bin_subsets(
    dataset: SiliconDataset,
    kind: str,
    names: Sequence[str],
    read_points: Sequence[int],
    feature_set: FeatureSet,
    profile: ExperimentProfile,
    seed: int,
    calibration_fraction: float,
) -> Dict[str, BinnedDataset]:
    """Pre-bin every distinct training matrix the grid will fit on.

    The enumeration replays the execution path exactly: the feature
    matrix depends only on ``(hours, feature_set)``, the CV folds on
    ``(n_samples, n_folds, seed)`` via :func:`fold_row_subsets`, and the
    CQR proper-training split on ``(fold size, calibration_fraction,
    seed)`` -- all deterministic, so the digests computed here are the
    digests the cell fits will look up.  Binning goes through
    :func:`shared_binned_dataset`, warming the parent cache as a side
    effect.  A subset this enumeration missed is only ever a worker-side
    cache miss (the worker re-bins), never a correctness issue.
    """
    bins_wanted, need_full, need_proper = _hist_bin_plan(names, kind, profile)
    if not bins_wanted:
        return {}
    entries: Dict[str, BinnedDataset] = {}
    kfold = KFold(n_splits=profile.n_folds, shuffle=True, random_state=seed)
    for hours in read_points:
        X, _ = dataset.features(
            int(hours),
            include_parametric=feature_set.include_parametric,
            include_onchip=feature_set.include_onchip,
        )
        X = np.asarray(X, dtype=np.float64)
        for train_idx, _test_idx in fold_row_subsets(kfold, X.shape[0]):
            X_train = X[train_idx]
            subsets: List[np.ndarray] = []
            if need_full:
                subsets.append(X_train)
            if need_proper:
                proper_idx, _cal_idx = split_train_calibration(
                    X_train.shape[0],
                    calibration_fraction,
                    check_random_state(seed),
                )
                subsets.append(X_train[proper_idx])
            for subset in subsets:
                for max_bins in bins_wanted:
                    entries[dataset_digest(subset, max_bins)] = (
                        shared_binned_dataset(subset, max_bins)
                    )
    return entries


def _init_grid_worker(
    dataset: SiliconDataset, shared_entries: Tuple[_SharedBinEntry, ...]
) -> None:
    """Once-per-worker setup for ``backend="process"`` grids.

    Attaches every shared-memory code matrix, rebuilds its binner from
    the pickled edges, and seeds the worker's bin cache so cell fits hit
    by content digest instead of re-binning.  The big arrays never
    travel by pickle: the dataset arrives once per worker (not per
    cell), the codes by zero-copy attach.
    """
    global _WORKER_GRID_STATE
    seeded: Dict[str, BinnedDataset] = {}
    for digest, spec, edges, max_bins in shared_entries:
        codes = attach_array(spec)
        binner = FeatureBinner.from_edges(max_bins, edges)
        seeded[digest] = BinnedDataset(binner, codes)
    if seeded:
        seed_bin_cache(seeded)
    _WORKER_GRID_STATE = {"dataset": dataset}


class _GridCellTask:
    """Picklable per-cell runner for ``backend="process"`` grids.

    The thread backend runs closures over the caller's locals; a process
    pool cannot pickle those, so the small cell parameters travel on
    this instance while the big objects (the
    :class:`~repro.silicon.dataset.SiliconDataset`, the shared bin
    codes) arrive through :func:`_init_grid_worker`.
    """

    def __init__(self, kind: str, kwargs: Dict[str, Any]) -> None:
        if kind not in ("point", "region"):
            raise ValueError(f"kind must be 'point' or 'region', got {kind!r}")
        self.kind = kind
        self.kwargs = dict(kwargs)

    def __call__(self, cell: GridCell) -> GridCVResult:
        state = _WORKER_GRID_STATE
        if state is None:
            raise RuntimeError(
                "process-grid worker state missing: _init_grid_worker never ran"
            )
        return _run_cell(self.kind, state["dataset"], cell, self.kwargs)


def _run_cell(
    kind: str, dataset: SiliconDataset, cell: GridCell, kwargs: Dict[str, Any]
) -> GridCVResult:
    """One grid cell, its CV folds serial: nesting parallelism would
    oversubscribe the pool the cells fan out over."""
    name, temperature, hours = cell
    experiment = run_point_experiment if kind == "point" else run_region_experiment
    return experiment(dataset, name, temperature, hours, n_jobs=1, **kwargs)


@contextmanager
def _process_grid_session(
    dataset: SiliconDataset,
    kind: str,
    cells: Sequence[GridCell],
    kwargs: Dict[str, Any],
):
    """Stand up the shared-memory transport for one process-backend grid.

    Pre-bins the grid's training matrices (warming the parent cache),
    copies the code matrices into parent-owned shared segments, and
    yields ``(task, initializer, initargs)`` for the fan-out.  The
    parent worker state is set before the yield so the serial fallback
    and the fork-based requeue subprocesses inherit it; segments are
    unlinked and the state cleared on exit no matter how the grid ends
    -- a SIGKILLed worker cannot leak a segment, because it never owned
    one.
    """
    global _WORKER_GRID_STATE
    entries = _grid_bin_subsets(
        dataset,
        kind,
        list(dict.fromkeys(name for name, _, _ in cells)),
        list(dict.fromkeys(hours for _, _, hours in cells)),
        kwargs["feature_set"],
        kwargs["profile"],
        kwargs["seed"],
        # Only region grids fit on a proper-training split.
        kwargs.get("calibration_fraction", 0.25),
    )
    with SharedArrayBundle() as bundle:
        shared_entries: List[_SharedBinEntry] = []
        for digest, binned in entries.items():
            spec = bundle.share(digest, binned.codes)
            shared_entries.append(
                (
                    digest,
                    spec,
                    tuple(binned.binner.edges_),
                    int(binned.max_bins),
                )
            )
        _WORKER_GRID_STATE = {"dataset": dataset}
        try:
            yield (
                _GridCellTask(kind, kwargs),
                _init_grid_worker,
                (dataset, tuple(shared_entries)),
            )
        finally:
            _WORKER_GRID_STATE = None


def _run_grid(
    kind: str,
    dataset: SiliconDataset,
    cells: Sequence[GridCell],
    cell_kwargs: Dict[str, Any],
    fingerprints: Mapping[GridCell, str],
    to_payload: Callable[[GridCVResult], Dict[str, Any]],
    journal: Optional[RunJournal],
    retry_policy: Optional[RetryPolicy],
    timeout: Optional[float],
    on_error: str,
    n_jobs: Optional[int],
    task_wrapper: Optional[Callable[[Callable], Callable]],
    backend: str,
) -> GridResult:
    """Shared resilient driver behind both grid runners.

    Every cell is ``run_<kind>_experiment(dataset, *cell, n_jobs=1,
    **cell_kwargs)``.  Completed cells found in ``journal`` are reused
    (their payloads round-trip floats exactly, so a resumed grid is
    bit-identical to an uninterrupted one); pending cells fan out through
    :func:`~repro.perf.parallel.parallel_map_outcomes` and are journaled
    the moment they succeed -- before any failure can abort the run.

    ``backend="process"`` runs the cells in worker processes set up by
    :func:`_process_grid_session` and refuses ``task_wrapper``.  It
    weakens the journal guarantee: workers cannot share the parent's
    journal file handle, so completed cells are recorded in the parent
    as their outcomes drain, and a parent killed mid-grid loses the
    cells whose outcomes it had not drained yet.  Resume still works --
    those cells simply re-run.
    """
    if on_error not in ("raise", "capture"):
        raise ValueError(
            f"on_error must be 'raise' or 'capture', got {on_error!r}"
        )
    if backend == "process" and task_wrapper is not None:
        raise ValueError("task_wrapper (fault injection) requires backend='thread'")
    results: Dict[GridCell, GridCVResult] = {}
    pending: List[GridCell] = list(cells)
    if journal is not None:
        recorded = journal.completed()
        pending = []
        for cell in cells:
            entry = recorded.get(fingerprints[cell])
            if entry is not None:
                results[cell] = _result_from_payload(entry["payload"])
            else:
                pending.append(cell)
    with ExitStack() as stack:
        if backend == "process":
            fn, initializer, initargs = stack.enter_context(
                _process_grid_session(dataset, kind, cells, cell_kwargs)
            )
        else:
            def fn(cell: GridCell) -> GridCVResult:
                return _run_cell(kind, dataset, cell, cell_kwargs)

            if task_wrapper is not None:
                fn = task_wrapper(fn)
            initializer, initargs = None, ()
        journal_in_task = journal is not None and backend != "process"
        if journal_in_task:
            # Record from inside the task, not after the fan-out returns:
            # a SIGKILL mid-grid must only ever lose cells still in flight.
            inner, recording_journal = fn, journal

            def fn(cell: GridCell) -> GridCVResult:
                value = inner(cell)
                recording_journal.record(
                    fingerprints[cell], list(cell), to_payload(value)
                )
                return value

        outcomes = parallel_map_outcomes(
            fn, pending, n_jobs=n_jobs, backend=backend,
            retry_policy=retry_policy, timeout=timeout,
            initializer=initializer, initargs=initargs,
        )
    failures: List[FailureRecord] = []
    attempts: Dict[GridCell, int] = {}
    first_error: Optional[BaseException] = None
    for cell, outcome in zip(pending, outcomes):
        attempts[cell] = outcome.attempts
        if outcome.ok:
            results[cell] = outcome.value
            if journal is not None and not journal_in_task:
                journal.record(
                    fingerprints[cell], list(cell), to_payload(outcome.value)
                )
        else:
            if first_error is None:
                first_error = outcome.error
            failures.append(
                FailureRecord(
                    key=cell,
                    fingerprint=fingerprints[cell],
                    error_type=type(outcome.error).__name__,
                    message=str(outcome.error),
                    attempts=outcome.attempts,
                    timed_out=outcome.timed_out,
                )
            )
    if first_error is not None and on_error == "raise":
        raise first_error
    ordered = {cell: results[cell] for cell in cells if cell in results}
    return GridResult(ordered, failures=failures, attempts=attempts)


def run_point_grid(
    dataset: SiliconDataset,
    model_names: Sequence[str],
    temperatures: Sequence[float],
    read_points: Sequence[int],
    feature_set: FeatureSet = FeatureSet.BOTH,
    profile: Optional[ExperimentProfile] = None,
    seed: int = 0,
    n_jobs: Optional[int] = None,
    journal: Optional[RunJournal] = None,
    retry_policy: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
    on_error: str = "raise",
    task_wrapper: Optional[Callable[[Callable], Callable]] = None,
    backend: str = "thread",
) -> GridResult:
    """Fig.-2 grid: every (model, temperature, hours) cell, optionally parallel.

    Cells are mutually independent experiments, so the grid is fanned out
    through :func:`repro.perf.parallel.parallel_map_outcomes` with the
    folds inside each cell forced serial (``n_jobs=1``) -- parallelising
    both levels would oversubscribe the worker pool.  The returned
    :class:`GridResult` is an ordered dict keyed by
    ``(model_name, temperature_c, hours)``; every cell value is identical
    to a serial run of :func:`run_point_experiment`.

    Resilience (all optional, see ``docs/RUNTIME.md``): ``journal``
    checkpoints every completed cell and resumes an interrupted grid
    bit-identically; ``retry_policy`` re-runs transient worker faults on
    a deterministic backoff; ``timeout`` bounds each cell (cooperative
    for threads, hard-kill + requeue for processes);
    ``on_error="capture"`` returns partial results with structured
    :class:`FailureRecord` entries instead of raising on the first
    failed cell.  ``task_wrapper`` is the execution-fault injection seam
    used by :func:`repro.eval.stress.run_execution_campaign`.

    ``backend="process"`` fans cells out to worker processes instead of
    threads: the dataset is pickled once per worker, pre-binned code
    matrices travel by shared memory (see ``docs/PERFORMANCE.md``), and
    results are bit-identical to the serial and thread paths.  Journal
    records are written parent-side as outcomes drain (see
    :func:`_run_grid`); ``task_wrapper`` requires the thread backend.
    """
    profile = profile or ExperimentProfile.full()
    cells = [
        (name, float(temperature), int(hours))
        for name in model_names
        for temperature in temperatures
        for hours in read_points
    ]
    fingerprints = _grid_fingerprints(
        "point", cells, feature_set, profile, seed, extra={}
    )
    return _run_grid(
        "point",
        dataset,
        cells,
        dict(feature_set=feature_set, profile=profile, seed=seed),
        fingerprints,
        _point_payload,
        journal=journal,
        retry_policy=retry_policy,
        timeout=timeout,
        on_error=on_error,
        n_jobs=n_jobs,
        task_wrapper=task_wrapper,
        backend=backend,
    )


def run_region_grid(
    dataset: SiliconDataset,
    method_names: Sequence[str],
    temperatures: Sequence[float],
    read_points: Sequence[int],
    feature_set: FeatureSet = FeatureSet.BOTH,
    alpha: float = 0.1,
    calibration_fraction: float = 0.25,
    cfs_k: int = 10,
    profile: Optional[ExperimentProfile] = None,
    seed: int = 0,
    n_jobs: Optional[int] = None,
    journal: Optional[RunJournal] = None,
    retry_policy: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
    on_error: str = "raise",
    task_wrapper: Optional[Callable[[Callable], Callable]] = None,
    backend: str = "thread",
) -> GridResult:
    """Table-III grid: every (method, temperature, hours) cell, optionally parallel.

    Same contract as :func:`run_point_grid`, including the resilience
    parameters (journaled resume, deterministic retries, per-cell
    timeouts, failure capture) and the ``backend="process"``
    shared-memory engine: independent cells fan out with per-cell
    folds forced serial, results keyed by
    ``(method_name, temperature_c, hours)`` in cell order, values
    identical to serial :func:`run_region_experiment` calls.  ``alpha``
    is validated by :func:`run_region_experiment` in every cell.
    """
    profile = profile or ExperimentProfile.full()
    cells = [
        (name, float(temperature), int(hours))
        for name in method_names
        for temperature in temperatures
        for hours in read_points
    ]
    fingerprints = _grid_fingerprints(
        "region",
        cells,
        feature_set,
        profile,
        seed,
        extra={
            "alpha": float(alpha),
            "calibration_fraction": float(calibration_fraction),
            "cfs_k": int(cfs_k),
        },
    )
    cell_kwargs = dict(
        feature_set=feature_set,
        alpha=alpha,
        calibration_fraction=calibration_fraction,
        cfs_k=cfs_k,
        profile=profile,
        seed=seed,
    )
    return _run_grid(
        "region",
        dataset,
        cells,
        cell_kwargs,
        fingerprints,
        _interval_payload,
        journal=journal,
        retry_policy=retry_policy,
        timeout=timeout,
        on_error=on_error,
        n_jobs=n_jobs,
        task_wrapper=task_wrapper,
        backend=backend,
    )
