"""Compiled decision-table inference kernels for fitted tree ensembles.

The boosting models fit trees one at a time, and walking them one at
a time at predict time is a Python loop over 100 trees per batch.  Once
``repro.serve`` made ``predict`` a long-lived hot path, that loop
became the dominant serving cost.  This module
compiles a *fitted* ensemble into flat numpy tensors -- decision tables
-- that score a whole batch across **all trees at once**, with no
per-tree Python recursion:

* :class:`CompiledDepthwiseTables` packs a list of
  :class:`~repro.models.tree.GradientTree` objects into padded
  ``(n_trees, max_nodes)`` feature/threshold/child/value arrays.  The
  batch kernel keeps an ``(n_rows, n_trees)`` node cursor and advances
  every (row, tree) pair one level per iteration, so the Python-level
  loop runs at most ``max_depth`` times regardless of tree count.
* :class:`CompiledObliviousTables` packs a list of
  :class:`~repro.models.oblivious.ObliviousTree` decision tables into
  stacked ``(n_trees, depth)`` feature/threshold tensors plus an
  ``(n_trees, 2**depth)`` leaf-value tensor.  Trees shallower than the
  ensemble maximum are padded with ``+inf`` thresholds and
  ``np.repeat``-expanded leaf values, which maps every padded leaf code
  back to the right original leaf.  A quantile band compiles both of
  its members' trees into one such table and scores them in one call,
  each member through its own prefix sum.

**Parity contract.**  Both kernels are bit-identical to the reference
per-tree loop, not merely close: comparisons use the same operators on
the same float64 values in the same order (``x <= threshold`` routing
left for depth-wise trees, ``x > threshold`` setting the level bit for
oblivious tables), and the boosted sum accumulates tree contributions
*sequentially* in fitting order -- ``p += lr * v_t`` per tree -- as one
``np.cumsum`` prefix sum rather than through ``np.sum``, whose pairwise
reduction would change the rounding.  The test suite asserts
``np.array_equal`` (exact float equality) between the compiled path and
the per-tree loop of ``tests/oracles/trees.py`` across random ensembles.

**Precision contract.**  Thresholds are stored as float64 and every
comparison happens in float64: :func:`tree_values` casts ``X`` on
entry, so a float32 caller lands on the same side of every split as
the float64 reference walk.  This pins down the boundary semantics the
models document -- a kernel comparing in float32 would route rows with
values between a threshold's float32 neighbours differently.

Compilation happens at ``fit`` time (the boosting models store the
result as a ``compiled_`` fitted attribute), never inside ``predict``
-- prediction stays read-only.  Bundles pickled before this module
existed lack the attribute; the boosting models' ``__setstate__``
compiles it when such a bundle is unpickled, so ``predict`` always has
a kernel to score through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Sequence, Tuple

import numpy as np

__all__ = [
    "CompiledDepthwiseTables",
    "CompiledObliviousTables",
    "compile_depthwise",
    "compile_oblivious",
]

_LEAF = -1


def _as_float64_2d(X: np.ndarray) -> np.ndarray:
    """The kernel-side precision gate: comparisons happen in float64."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    return X


def _boosted_prefix(
    tree_values: np.ndarray, base_score: float, learning_rate: float
) -> np.ndarray:
    """Boosted prediction after 0, 1, ..., ``n_trees`` rounds.

    ``tree_values`` is tree-major, shape ``(n_trees, n_rows)``.  Row 0
    is the base score and row ``t + 1`` adds ``lr * v_t`` to row ``t``:
    one ``np.cumsum`` over the rows ``[base, lr*v_0, ..., lr*v_{T-1}]``.
    ``cumsum`` is ``np.add.accumulate``, which adds strictly left to
    right, so every row is bit-identical to the reference loop's
    ``p += lr * v_t``.  ``np.sum`` over the tree axis would not be: it
    reduces pairwise, and floating-point addition is not associative.
    Shape ``(n_trees + 1, n_rows)``.
    """
    n_trees, n_rows = tree_values.shape
    terms = np.empty((n_trees + 1, n_rows))
    terms[0] = base_score
    np.multiply(tree_values, learning_rate, out=terms[1:])
    return np.cumsum(terms, axis=0, out=terms)


@dataclass(frozen=True)
class CompiledDepthwiseTables:
    """A fitted depth-wise tree ensemble as padded flat tensors.

    All arrays share the leading ``(n_trees, max_nodes)`` shape; trees
    with fewer nodes are padded with leaf sentinels (``feature == -1``)
    so every tree can be advanced by the same vectorised step.

    Attributes
    ----------
    feature:
        Split feature per node, ``-1`` marking leaves and padding.
    threshold:
        Split threshold per node (float64; ``0.0`` at leaves/padding,
        where it is never compared).
    left, right:
        Child node indices per interior node (``0`` at leaves/padding,
        where they are never followed).
    value:
        Leaf value per node (interior entries hold the node's Newton
        value, which prediction never reads).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @property
    def n_trees(self) -> int:
        return int(self.feature.shape[0])

    @property
    def max_nodes(self) -> int:
        return int(self.feature.shape[1])

    def summary(self) -> Dict[str, Any]:
        """JSON-ready kernel description for manifests and reports."""
        return {
            "kernel": "depthwise",
            "n_trees": self.n_trees,
            "max_nodes": self.max_nodes,
        }

    def tree_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf value of every tree for every row, shape ``(n, n_trees)``.

        Column ``t`` is bit-identical to ``trees[t].predict(X)``.  The
        node cursor starts at every root and each iteration advances
        all (row, tree) pairs still at an interior node one level, so
        the loop runs ``max_depth`` times -- not ``n_trees`` times.
        """
        X = _as_float64_2d(X)
        n_rows = X.shape[0]
        tree_range = np.arange(self.n_trees)
        row_column = np.arange(n_rows)[:, None]
        node = np.zeros((n_rows, self.n_trees), dtype=np.int64)
        while True:
            split_feature = self.feature[tree_range, node]
            interior = split_feature >= 0
            if not interior.any():
                break
            # Leaves gather column 0 as a harmless placeholder; the
            # np.where below discards their routing entirely.
            gather = np.where(interior, split_feature, 0)
            goes_left = X[row_column, gather] <= self.threshold[tree_range, node]
            child = np.where(
                goes_left,
                self.left[tree_range, node],
                self.right[tree_range, node],
            )
            node = np.where(interior, child, node)
        return self.value[tree_range, node]

    def predict(
        self, X: np.ndarray, base_score: float, learning_rate: float
    ) -> np.ndarray:
        """Boosted prediction, bit-identical to the per-tree loop.

        Copied out of the prefix rows, so a kept prediction does not pin
        every round's row.
        """
        values = self.tree_values(X).T
        return _boosted_prefix(values, base_score, learning_rate)[-1].copy()

    def staged_predict(
        self, X: np.ndarray, base_score: float, learning_rate: float
    ) -> np.ndarray:
        """Per-round boosted predictions, shape ``(n_trees, n_rows)``."""
        values = self.tree_values(X).T
        return _boosted_prefix(values, base_score, learning_rate)[1:]


@dataclass(frozen=True)
class CompiledObliviousTables:
    """A fitted oblivious-tree ensemble as stacked decision tables.

    Trees shallower than ``depth`` (including depth-0 single-leaf
    tables) are padded with ``+inf`` thresholds on feature ``0``: the
    padded levels always test false, so a shallow tree's leaf code is
    its original code shifted left -- exactly where ``np.repeat``
    placed its expanded leaf values.

    A table may also hold the trees of several ensembles back to back,
    compiled together and with ``members`` set, so that one call scores
    all of them: a quantile band's lower and upper models are one kernel
    call.

    Attributes
    ----------
    features:
        Level split features, shape ``(n_trees, depth)``.
    thresholds:
        Level thresholds (float64), shape ``(n_trees, depth)``.
    leaf_values:
        Per-tree leaf tables, shape ``(n_trees, 2**depth)``.
    members:
        Tree count of each ensemble, in order, for a table holding
        several; empty for a table of one ensemble.
    """

    features: np.ndarray
    thresholds: np.ndarray
    leaf_values: np.ndarray
    members: Tuple[int, ...] = ()

    @property
    def n_trees(self) -> int:
        return int(self.leaf_values.shape[0])

    @property
    def depth(self) -> int:
        return int(self.features.shape[1])

    def summary(self) -> Dict[str, Any]:
        """JSON-ready kernel description for manifests and reports."""
        return {
            "kernel": "oblivious",
            "n_trees": self.n_trees,
            "depth": self.depth,
            "n_leaves": int(self.leaf_values.shape[1]),
        }

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle a one-ensemble table exactly as before ``members``
        existed (the class default restores it), so bundles keep their
        size."""
        state = dict(self.__dict__)
        if not self.members:
            state.pop("members", None)
        return state

    def _leaf_rows(self, X: np.ndarray) -> np.ndarray:
        """Leaf value of every tree for every row, tree-major:
        shape ``(n_trees, n_rows)``.

        The leaf code has one bit per level, most significant bit first,
        from the same float64 ``x > threshold`` test as the reference.
        One gather reads every (level, tree) column of ``X`` as a row of
        ``X.T``; the comparisons land level-major as 0.0/1.0 planes, and
        one matrix-vector product with the bit weights ``2**(depth-1),
        ..., 1`` packs each tree's bits into its code.  The product runs
        in float32, which holds every code below ``2**24`` exactly --
        far past any depth whose ``2**depth``-leaf tables fit in memory.
        Adding the tree's offset ``t * 2**depth`` makes the code a flat
        index into the leaf tables, read with one ``np.take``.
        """
        X = _as_float64_2d(X)
        n_trees, depth = self.features.shape
        n_rows = X.shape[0]
        planes = np.empty((depth, n_trees, n_rows), dtype=np.float32)
        np.greater(X.T[self.features.T], self.thresholds.T[:, :, None], out=planes)
        weights = np.ldexp(np.float32(1.0), np.arange(depth - 1, -1, -1))
        codes = np.matmul(weights, planes.reshape(depth, n_trees * n_rows))
        codes = codes.astype(np.intp).reshape(n_trees, n_rows)
        codes += np.arange(0, self.leaf_values.size, 2**depth)[:, None]
        return np.take(self.leaf_values, codes)

    def tree_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf value of every tree for every row, shape ``(n, n_trees)``.

        Column ``t`` is bit-identical to ``trees[t].predict(X)``.
        """
        return self._leaf_rows(X).T.copy()

    def predict(
        self, X: np.ndarray, base_score: Any, learning_rate: Any
    ) -> np.ndarray:
        """Boosted prediction, bit-identical to the per-tree loop.

        For a table of one ensemble, ``base_score`` and
        ``learning_rate`` are numbers and the result has shape
        ``(n_rows,)``.  A table with ``members`` takes one of each per
        member and returns ``(n_members, n_rows)``: row ``m`` is member
        ``m``'s own prefix sum over its own trees, read at its own tree
        count, the same floats as scoring that member's table alone.
        """
        rows = self._leaf_rows(X)
        if not self.members:
            return _boosted_prefix(rows, base_score, learning_rate)[-1].copy()
        predictions = np.empty((len(self.members), rows.shape[1]))
        start = 0
        for member, count in enumerate(self.members):
            predictions[member] = _boosted_prefix(
                rows[start:start + count], base_score[member], learning_rate[member]
            )[-1]
            start += count
        return predictions

    def staged_predict(
        self, X: np.ndarray, base_score: float, learning_rate: float
    ) -> np.ndarray:
        """Per-round boosted predictions, shape ``(n_trees, n_rows)``.

        Defined for a table of one ensemble only.
        """
        if self.members:
            raise ValueError("staged_predict needs a table of one ensemble")
        rows = self._leaf_rows(X)
        return _boosted_prefix(rows, base_score, learning_rate)[1:]


def compile_depthwise(trees: Sequence[Any]) -> CompiledDepthwiseTables:
    """Pack fitted :class:`~repro.models.tree.GradientTree` objects.

    Every tree contributes its flat parallel arrays, right-padded to the
    widest tree with leaf sentinels.  Thresholds and children at leaf
    positions are sanitised to ``0`` -- the kernel masks them out, but
    keeping NaN thresholds (the grower's leaf marker) out of the padded
    tensor means no comparison ever touches one.
    """
    if not trees:
        raise ValueError("cannot compile an empty ensemble")
    for position, tree in enumerate(trees):
        if getattr(tree, "feature_", None) is None:
            raise ValueError(f"tree {position} is not fitted")
    n_trees = len(trees)
    max_nodes = max(int(tree.feature_.size) for tree in trees)
    feature = np.full((n_trees, max_nodes), _LEAF, dtype=np.int64)
    threshold = np.zeros((n_trees, max_nodes))
    left = np.zeros((n_trees, max_nodes), dtype=np.int64)
    right = np.zeros((n_trees, max_nodes), dtype=np.int64)
    value = np.zeros((n_trees, max_nodes))
    for position, tree in enumerate(trees):
        size = int(tree.feature_.size)
        feature[position, :size] = tree.feature_
        value[position, :size] = tree.value_
        interior = tree.feature_ >= 0
        threshold[position, :size] = np.where(interior, tree.threshold_, 0.0)
        left[position, :size] = np.where(interior, tree.left_, 0)
        right[position, :size] = np.where(interior, tree.right_, 0)
    return CompiledDepthwiseTables(
        feature=feature, threshold=threshold, left=left, right=right, value=value
    )


def compile_oblivious(trees: Sequence[Any]) -> CompiledObliviousTables:
    """Pack fitted :class:`~repro.models.oblivious.ObliviousTree` tables.

    Shallow trees are padded to the ensemble's maximum depth with
    ``+inf`` thresholds (the padded bit is always 0) and their leaf
    values expanded with ``np.repeat`` so every padded leaf code indexes
    the value of the original leaf it extends.  A depth-0 tree becomes a
    row of all-``+inf`` levels over a constant leaf table -- no special
    case anywhere downstream.
    """
    if not trees:
        raise ValueError("cannot compile an empty ensemble")
    n_trees = len(trees)
    depth = max(int(tree.features.size) for tree in trees)
    features = np.zeros((n_trees, depth), dtype=np.int64)
    thresholds = np.full((n_trees, depth), np.inf)
    leaf_values = np.zeros((n_trees, 2**depth))
    for position, tree in enumerate(trees):
        tree_depth = int(tree.features.size)
        expected_leaves = 1 << tree_depth
        if int(tree.leaf_values.size) != expected_leaves:
            raise ValueError(
                f"tree {position} has {tree.leaf_values.size} leaves for "
                f"depth {tree_depth}; expected {expected_leaves}"
            )
        features[position, :tree_depth] = tree.features
        thresholds[position, :tree_depth] = tree.thresholds
        leaf_values[position] = np.repeat(
            np.asarray(tree.leaf_values, dtype=np.float64),
            2 ** (depth - tree_depth),
        )
    return CompiledObliviousTables(
        features=features, thresholds=thresholds, leaf_values=leaf_values
    )
