"""Quantile binning of feature matrices for histogram-based tree growth.

Both boosting models pre-discretise every feature into at most ``max_bins``
quantile bins once per fit; split search then works on integer bin codes
with ``np.bincount`` histograms instead of per-node sorting.  With the
paper's 156-chip dataset and the default 32 bins this is numerically
indistinguishable from exact greedy search while being orders of magnitude
faster on the 1800-column parametric feature block.

Binning used to happen once per *fit*; it now happens once per *dataset*:
:class:`BinnedDataset` bundles a fitted :class:`FeatureBinner` with its
code matrix (plus the level-0 histogram state every boosting round
recomputed identically), and :func:`shared_binned_dataset` memoises those
bundles content-addressed -- the CQR lo/hi pair, CV folds that share a
training slice, and experiment-grid cells that rebuild the same matrix
all reuse one binning pass.  Sharing is strictly a wall-clock
optimisation: cached codes are the exact arrays an independent fit would
have produced, so every model trained through the cache is bit-identical
to one trained without it (``tests/test_binshare.py`` asserts this).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BinnedDataset",
    "FeatureBinner",
    "bin_cache_stats",
    "bin_major_prefix_sums",
    "clear_bin_cache",
    "dataset_digest",
    "disable_bin_cache",
    "histogram_cells",
    "histogram_sums",
    "quantile_bin_edges",
    "seed_bin_cache",
    "shared_binned_dataset",
]


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


class FeatureBinner:
    """Digitise a feature matrix into integer bin codes.

    ``fit`` learns per-feature threshold arrays from the training matrix;
    ``transform`` maps any matrix with the same columns to codes in
    ``[0, n_bins)``.  Bin code ``b`` for feature ``j`` means
    ``edges[j][b-1] < x <= edges[j][b]`` (code 0 = below the first edge).
    """

    def __init__(self, max_bins: int = 32) -> None:
        if max_bins < 2:
            raise ValueError(f"max_bins must be >= 2, got {max_bins}")
        self.max_bins = max_bins
        self.edges_: List[np.ndarray] = []
        self._n_bins: Optional[int] = None

    @classmethod
    def from_edges(
        cls, max_bins: int, edges: Sequence[np.ndarray]
    ) -> "FeatureBinner":
        """Rebuild a fitted binner from per-feature edge arrays.

        Used to reconstitute binners shipped to worker processes (the
        edges travel by pickle once per worker, the code matrix by shared
        memory); the result is indistinguishable from the binner the
        edges came from.
        """
        binner = cls(max_bins)
        binner.edges_ = [np.asarray(e, dtype=np.float64) for e in edges]
        return binner

    def fit(self, X: np.ndarray) -> "FeatureBinner":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        self._n_bins = None
        n_samples, n_features = X.shape
        if n_samples == 0 or n_features == 0:
            self.edges_ = [
                quantile_bin_edges(X[:, j], self.max_bins)
                for j in range(n_features)
            ]
            return self
        # Vectorised equivalent of calling quantile_bin_edges per column
        # (kept above as the reference oracle): one column-wise sort finds
        # every column's distinct values, and the interior quantiles of
        # all many-valued columns are computed in a single np.quantile
        # call -- which is bit-identical to the per-column call, as the
        # parity tests assert.
        sorted_X = np.sort(X, axis=0)
        distinct_mask = np.empty(X.shape, dtype=bool)
        distinct_mask[0] = True
        np.not_equal(sorted_X[1:], sorted_X[:-1], out=distinct_mask[1:])
        n_distinct = distinct_mask.sum(axis=0)
        few = n_distinct <= self.max_bins  # midpoint path, constants included
        edges: List[Optional[np.ndarray]] = [None] * n_features
        many_columns = np.flatnonzero(~few)
        if many_columns.size:
            quantiles = np.linspace(0.0, 1.0, self.max_bins + 1)[1:-1]
            interior = np.quantile(X[:, many_columns], quantiles, axis=0)
            for position, j in enumerate(many_columns):
                edges[j] = np.unique(interior[:, position])
        for j in np.flatnonzero(few):
            unique = sorted_X[distinct_mask[:, j], j]
            if unique.size <= 1:
                edges[j] = np.empty(0)
            else:
                edges[j] = (unique[:-1] + unique[1:]) / 2.0
        self.edges_ = edges
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if not self.edges_ and self.edges_ != []:
            raise RuntimeError("FeatureBinner is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.edges_):
            raise ValueError(
                f"X must be 2-D with {len(self.edges_)} columns, got shape {X.shape}"
            )
        # Codes are < max_bins, so the default 32-bin (and anything up to
        # 256-bin) matrix fits in uint8 -- a quarter of the int32 memory
        # traffic on the paper's 1800-column parametric block, which is
        # what the histogram inner loop spends most of its time streaming.
        dtype = np.uint8 if self.max_bins <= 256 else np.int32
        binned = np.zeros(X.shape, dtype=dtype)
        for j, edges in enumerate(self.edges_):
            if edges.size:
                binned[:, j] = np.searchsorted(edges, X[:, j], side="right")
        return binned

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    @property
    def n_bins(self) -> int:
        """Upper bound on bin codes across all features (codes < n_bins).

        Computed once per fitted binner: the per-tree growers read this
        every round, and recomputing the max over ~2000 edge arrays per
        tree is measurable on the paper-sized feature block.
        """
        if not self.edges_:
            return 1
        if self._n_bins is None:
            self._n_bins = max(
                (edges.size for edges in self.edges_), default=0
            ) + 1
        return self._n_bins

    def threshold(self, feature: int, bin_index: int) -> float:
        """Raw-unit threshold corresponding to splitting after ``bin_index``.

        A sample goes right iff its bin code exceeds ``bin_index``, i.e.
        iff its raw value exceeds ``edges[feature][bin_index]``.
        """
        edges = self.edges_[feature]
        if not 0 <= bin_index < edges.size:
            raise IndexError(
                f"bin_index {bin_index} out of range for feature {feature} "
                f"with {edges.size} edges"
            )
        return float(edges[bin_index])


def histogram_cells(
    binned: np.ndarray,
    leaf_idx: np.ndarray,
    n_leaves: int,
    n_bins: int,
    candidate_features: np.ndarray,
) -> np.ndarray:
    """Flat (feature, leaf, bin) cell index per (sample, feature) pair.

    Build once per tree level and feed to :func:`histogram_sums` for every
    statistic (gradients, Hessians, counts) so the index arithmetic is not
    repeated.
    """
    sub = binned[:, candidate_features]
    n_candidates = candidate_features.size
    return (
        np.arange(n_candidates)[None, :] * (n_leaves * n_bins)
        + leaf_idx[:, None] * n_bins
        + sub
    ).ravel()


def histogram_sums(
    cell: np.ndarray,
    weights: np.ndarray,
    n_leaves: int,
    n_bins: int,
    n_candidates: int,
) -> np.ndarray:
    """Sum per-sample ``weights`` into pre-computed (feature, leaf, bin) cells.

    ``cell`` comes from :func:`histogram_cells`; the result has shape
    ``(n_candidates, n_leaves, n_bins)``.  This is the inner loop of
    histogram-based split search shared by both boosting models.
    """
    size = n_candidates * n_leaves * n_bins
    return np.bincount(
        cell, weights=np.repeat(weights, n_candidates), minlength=size
    ).reshape(n_candidates, n_leaves, n_bins)


def bin_major_prefix_sums(
    cells: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Left-child sums of every split of a ``(F, L, B)`` histogram, bin-major.

    ``out[b, l, f]`` is ``cells[f, l, 0] + ... + cells[f, l, b]`` for
    ``b < B - 1``: the statistic of leaf ``l``'s rows that a split of
    feature ``f`` after bin ``b`` sends left.  The adds are those of
    ``np.cumsum(cells, axis=2)[:, :, :-1]`` in the same order, so the
    values are bit-identical; the ``(B - 1, L, F)`` layout turns them
    into ``B - 2`` adds of contiguous (leaf, feature) planes, and every
    later pass of a split scan streams whole planes instead of strided
    16-32-bin rows.  ``out`` (C-contiguous, that shape) is filled in
    place when given.
    """
    n_candidates, n_leaves, n_bins = cells.shape
    if out is None:
        out = np.empty((n_bins - 1, n_leaves, n_candidates))
    np.copyto(out, cells[:, :, :-1].transpose(2, 1, 0))
    for b in range(1, n_bins - 1):
        np.add(out[b - 1], out[b], out=out[b])
    return out


class BinnedDataset:
    """A fitted binner plus its code matrix, shareable across fits.

    The bundle is immutable from the models' point of view: ``codes`` is
    exactly ``binner.fit_transform(X)`` for the matrix it was built from,
    so any fit that starts from a :class:`BinnedDataset` produces the
    same floats as one that re-bins ``X`` itself.  On top of the codes it
    caches the two pieces of level-0 histogram state that every boosting
    round recomputes identically when no row/column sampling is active:
    the flat (feature, leaf, bin) cell index and the unit-weight
    histogram (sample counts, which double as the Hessian histogram for
    the unit-Hessian squared-error/pinball objectives).

    Row-subset views via :meth:`take` are only valid *within* one fit
    (boosting row subsampling): a CV fold must not slice a full-dataset
    code matrix, because a binner fitted on the fold's rows has different
    edges.  Fold sharing happens one level up, in
    :func:`shared_binned_dataset`, which memoises one ``BinnedDataset``
    per distinct row subset by content.
    """

    def __init__(self, binner: FeatureBinner, codes: np.ndarray) -> None:
        codes = np.asarray(codes)
        if codes.ndim != 2 or codes.shape[1] != len(binner.edges_):
            raise ValueError(
                f"codes must be 2-D with {len(binner.edges_)} columns, "
                f"got shape {codes.shape}"
            )
        self.binner = binner
        self.codes = codes
        self.n_bins = int(binner.n_bins)
        self.codes_max = int(codes.max()) if codes.size else 0
        self._root_level: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_matrix(cls, X: np.ndarray, max_bins: int) -> "BinnedDataset":
        """Fit a binner on ``X`` and bundle it with the code matrix."""
        binner = FeatureBinner(max_bins)
        return cls(binner, binner.fit_transform(X))

    @property
    def n_samples(self) -> int:
        return int(self.codes.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.codes.shape[1])

    @property
    def max_bins(self) -> int:
        return int(self.binner.max_bins)

    def take(self, rows: np.ndarray) -> np.ndarray:
        """Row-subset codes for in-fit subsampling (same binner edges)."""
        return self.codes[rows]

    def root_level(self, n_bins: int) -> Tuple[np.ndarray, np.ndarray]:
        """Level-0 ``(cell, unit_histogram)`` over *all* features.

        Valid only for split searches whose candidate set is the full
        ``arange(n_features)`` and whose rows are the full matrix -- the
        growers fall back to computing their own state otherwise.  Keyed
        by ``n_bins`` because the two boosting models size their
        histograms differently (``binner.n_bins`` vs. ``codes.max()+1``).
        The lock makes concurrent lo/hi member fits build the state once.
        """
        with self._lock:
            cached = self._root_level.get(n_bins)
            if cached is None:
                root_slot = np.zeros(self.n_samples, dtype=np.int64)
                cell = histogram_cells(
                    self.codes, root_slot, 1, n_bins,
                    np.arange(self.n_features),
                )
                unit = histogram_sums(
                    cell, np.ones(self.n_samples), 1, n_bins, self.n_features
                )
                cached = (cell, unit)
                self._root_level[n_bins] = cached
            return cached


# ---------------------------------------------------------------------------
# content-addressed dataset cache
# ---------------------------------------------------------------------------

_CACHE_LOCK = threading.RLock()
_CACHE: "OrderedDict[str, BinnedDataset]" = OrderedDict()
_CACHE_CAPACITY = 64
_CACHE_ENABLED = True
_CACHE_STATS = {"hits": 0, "builds": 0, "seeded": 0}


def dataset_digest(X: np.ndarray, max_bins: int) -> str:
    """Content key for one (matrix, max_bins) binning problem.

    SHA-256 over the float64 bytes plus shape and resolution: two
    matrices with equal content share a key no matter how they were
    produced (a fold slice, a fresh feature build, a shared-memory view),
    which is what lets the CQR pair, CV folds, and grid cells converge on
    one binning pass without any caller-side plumbing.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    digest = hashlib.sha256()
    digest.update(f"{X.shape[0]}x{X.shape[1]}:{int(max_bins)}:".encode())
    digest.update(X.data)
    return digest.hexdigest()


def shared_binned_dataset(X: np.ndarray, max_bins: int) -> BinnedDataset:
    """The memoised :class:`BinnedDataset` for ``X`` at ``max_bins``.

    Cache hits return the already-built bundle (codes, edges, level-0
    histogram state) without touching ``X`` beyond hashing it; misses
    bin once and insert.  The cache is process-global, thread-safe, and
    LRU-bounded; :func:`disable_bin_cache` bypasses it entirely for
    benchmarking the unshared path.
    """
    X = np.asarray(X, dtype=np.float64)
    if not _CACHE_ENABLED:
        return BinnedDataset.from_matrix(X, max_bins)
    key = dataset_digest(X, max_bins)
    with _CACHE_LOCK:
        cached = _CACHE.get(key)
        if cached is not None:
            _CACHE.move_to_end(key)
            _CACHE_STATS["hits"] += 1
            return cached
    built = BinnedDataset.from_matrix(X, max_bins)
    with _CACHE_LOCK:
        winner = _CACHE.setdefault(key, built)
        _CACHE.move_to_end(key)
        _CACHE_STATS["builds"] += 1
        while len(_CACHE) > _CACHE_CAPACITY:
            _CACHE.popitem(last=False)
    return winner


def seed_bin_cache(entries: Mapping[str, BinnedDataset]) -> None:
    """Pre-populate the cache with externally built bundles.

    The process-grid engine calls this in every worker with bundles
    whose code matrices are shared-memory views: cells then hit the
    cache by content digest instead of re-binning, without the matrices
    ever having been pickled.
    """
    with _CACHE_LOCK:
        for key, dataset in entries.items():
            if not isinstance(dataset, BinnedDataset):
                raise TypeError(
                    f"cache entries must be BinnedDataset, got {type(dataset)!r}"
                )
            _CACHE[key] = dataset
            _CACHE.move_to_end(key)
            _CACHE_STATS["seeded"] += 1
        while len(_CACHE) > _CACHE_CAPACITY:
            _CACHE.popitem(last=False)


def clear_bin_cache() -> None:
    """Drop every cached dataset and reset the hit/build counters."""
    with _CACHE_LOCK:
        _CACHE.clear()
        for key in _CACHE_STATS:
            _CACHE_STATS[key] = 0


def bin_cache_stats() -> Dict[str, int]:
    """Snapshot of cache counters plus the current entry count."""
    with _CACHE_LOCK:
        stats = dict(_CACHE_STATS)
        stats["entries"] = len(_CACHE)
        return stats


@contextmanager
def disable_bin_cache() -> Iterator[None]:
    """Context manager: every fit inside re-bins independently.

    Used by the perf benchmark to time the unshared path honestly and by
    the parity tests to produce the no-cache reference models.
    """
    global _CACHE_ENABLED
    with _CACHE_LOCK:
        previous = _CACHE_ENABLED
        _CACHE_ENABLED = False
    try:
        yield
    finally:
        with _CACHE_LOCK:
            _CACHE_ENABLED = previous
