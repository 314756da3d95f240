"""The (lower, upper) quantile-band region regressor of paper Eq. (2).

A region regressor :math:`g_r` is a pair of point predictors trained on
the pinball loss at quantiles :math:`q_{lo} = \\alpha/2` and
:math:`q_{hi} = 1 - \\alpha/2`; the predicted region for a sample is the
closed interval between the two (paper Section II-B.2).  This is the "QR"
row family of Table III, and also the heuristic band that CQR calibrates.

Any estimator exposing a ``quantile`` constructor parameter can act as the
template: :class:`~repro.models.linear.QuantileLinearRegression`,
:class:`~repro.models.nn.MLPRegressor`,
:class:`~repro.models.gbm.GradientBoostingRegressor`, or
:class:`~repro.models.oblivious.ObliviousBoostingRegressor`.

When both members are fitted oblivious boosters, the band scores them
with one kernel call: ``compiled_`` compiles both members' trees into
one decision table (:func:`~repro.models.tables.compile_oblivious`),
and each member's prediction is still its own prefix sum over its own
trees, so the band's floats equal the two members' ``predict`` bit for
bit.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.models.base import BaseRegressor, check_fitted, clone
from repro.models.oblivious import ObliviousBoostingRegressor
from repro.models.tables import CompiledObliviousTables, compile_oblivious

__all__ = ["PackageDefaultQuantileBand", "QuantileBandRegressor"]


def _joint_table(
    lower: Any, upper: Any
) -> Optional[CompiledObliviousTables]:
    """Both members' trees as one table, when both are fitted oblivious
    boosters of one width; ``None`` otherwise."""
    fitted = all(
        isinstance(member, ObliviousBoostingRegressor) and member.trees_ is not None
        for member in (lower, upper)
    )
    if not fitted or lower.n_features_in_ != upper.n_features_in_:
        return None
    return dataclasses.replace(
        compile_oblivious([*lower.trees_, *upper.trees_]),
        members=(len(lower.trees_), len(upper.trees_)),
    )


class _MemberBand(BaseRegressor):
    """What the two band classes share: raw member predictions, sorted
    into a band, through one joint kernel call when there is one.

    ``compiled_`` is derived from the members, so it is left out of the
    pickle and rebuilt on unpickling: a pickled band holds what it held
    before the joint table existed, byte for byte.
    """

    def _set_members(self, lower: BaseRegressor, upper: BaseRegressor) -> None:
        self.lower_, self.upper_ = lower, upper
        self.compiled_ = _joint_table(lower, upper)

    def _raw(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The members' predictions, lower model first.

        The joint path validates ``X`` once, as the lower member's
        ``predict`` would (same checks, same messages), then makes one
        kernel call; any other pair calls each member's ``predict``.
        """
        joint = self.compiled_
        if joint is None:
            return self.lower_.predict(X), self.upper_.predict(X)
        lower, upper = self.lower_, self.upper_
        X = lower._check_predict_X(X)
        raw = joint.predict(
            X,
            (lower.base_score_, upper.base_score_),
            (lower.learning_rate, upper.learning_rate),
        )
        return raw[0], raw[1]

    def _interval(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        check_fitted(self, "lower_")
        raw_lower, raw_upper = self._raw(X)
        return np.minimum(raw_lower, raw_upper), np.maximum(raw_lower, raw_upper)

    def _crossing_rate(self, X: np.ndarray) -> float:
        raw_lower, raw_upper = self._raw(X)
        return float(np.mean(raw_lower > raw_upper))

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("compiled_", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # setattr interns the names, as default unpickling does, so a
        # re-pickled band shares them with the rest of the bundle.
        for name, value in state.items():
            setattr(self, name, value)
        self.compiled_ = _joint_table(self.lower_, self.upper_)


class QuantileBandRegressor(_MemberBand):
    """Train two quantile clones of a template model and predict a band.

    Parameters
    ----------
    template:
        An unfitted estimator with a ``quantile`` parameter.  It is cloned
        (never mutated) into a lower- and an upper-quantile model.
    alpha:
        Target miscoverage; the band spans quantiles ``alpha/2`` and
        ``1 − alpha/2`` (paper Section IV-E uses ``alpha=0.1`` → 5 %–95 %).

    Notes
    -----
    The two quantile models are trained independently, so on hard data the
    raw band may cross (lower above upper).  ``predict_interval`` applies
    the standard monotonicity fix of sorting the two bounds per sample;
    the in-sample crossing rate is computed once by ``fit`` and exposed as
    ``crossing_rate_`` for diagnostics (prediction itself is read-only, as
    the estimator contract requires).
    """

    def __init__(
        self,
        template: BaseRegressor,
        alpha: float = 0.1,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.template = template
        self.alpha = alpha
        self.lower_: Optional[BaseRegressor] = None
        self.upper_: Optional[BaseRegressor] = None

    @property
    def quantiles(self) -> Tuple[float, float]:
        """The (lower, upper) target quantiles implied by ``alpha``."""
        return self.alpha / 2.0, 1.0 - self.alpha / 2.0

    def fit(
        self, X: np.ndarray, y: np.ndarray, binned=None
    ) -> "QuantileBandRegressor":
        """Fit the lower/upper quantile clones and the crossing diagnostic.

        ``binned`` optionally carries a pre-binned
        :class:`~repro.models.binning.BinnedDataset` for ``X``; it is
        forwarded to members whose ``fit`` accepts the seam (the
        histogram boosters), so the lo/hi pair shares one binning pass.
        Members without the seam are fitted exactly as before.
        """
        import inspect

        def fit_member(quantile: float) -> BaseRegressor:
            member = clone(self.template, quantile=quantile)
            if (
                binned is not None
                and "binned" in inspect.signature(member.fit).parameters
            ):
                return member.fit(X, y, binned=binned)
            return member.fit(X, y)

        self._set_members(*(fit_member(q) for q in self.quantiles))
        self.crossing_rate_ = self._crossing_rate(X)
        return self

    def predict_interval(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-sample (lower, upper) band, with crossings sorted out."""
        return self._interval(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Band midpoint -- a crude point estimate, mainly for diagnostics."""
        lower, upper = self.predict_interval(X)
        return (lower + upper) / 2.0


class PackageDefaultQuantileBand(_MemberBand):
    """A quantile band built the way the CatBoost *package defaults* do it.

    CatBoost's ``loss_function='Quantile'`` defaults to ``alpha=0.5``
    unless explicitly written as ``'Quantile:alpha=0.05'``.  A user who
    "utilizes the default hyperparameters" (paper Section IV-C.3) and only
    switches the loss to Quantile therefore trains *both* band models on
    the **median** objective -- they differ only through training
    randomness.  The resulting band is a few mV wide with ~10-25 %
    coverage, which is precisely the pathological "QR CatBoost" row of the
    paper's Table III; conformalizing it (CQR CatBoost) degenerates into
    split CP around the strongest point predictor, which is why CQR
    CatBoost is simultaneously the *shortest* and well-covered variant.

    This class exists to reproduce that published behaviour faithfully
    and transparently; pair it with
    :class:`QuantileBandRegressor` (the correctly configured band) in the
    ablation benchmarks to quantify the difference.

    Parameters
    ----------
    template:
        Unfitted estimator with ``quantile`` and (ideally) ``random_state``
        parameters.
    alpha:
        Nominal target miscoverage -- recorded for interface parity; the
        trained quantiles are both ``loss_quantile`` regardless.
    loss_quantile:
        The quantile both models are actually trained at (package default
        0.5).
    random_state:
        Seed for drawing the two member seeds.
    """

    def __init__(
        self,
        template: BaseRegressor,
        alpha: float = 0.1,
        loss_quantile: float = 0.5,
        random_state: Optional[int] = None,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if not 0.0 < loss_quantile < 1.0:
            raise ValueError(
                f"loss_quantile must be in (0, 1), got {loss_quantile}"
            )
        self.template = template
        self.alpha = alpha
        self.loss_quantile = loss_quantile
        self.random_state = random_state
        self.lower_: Optional[BaseRegressor] = None
        self.upper_: Optional[BaseRegressor] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "PackageDefaultQuantileBand":
        """Fit both members on the (median) loss quantile, as the trap does."""
        from repro.models.base import check_random_state

        rng = check_random_state(self.random_state)
        members = []
        for _ in range(2):
            member = clone(self.template, quantile=self.loss_quantile)
            if "random_state" in member.get_params():
                member.set_params(random_state=int(rng.integers(0, 2**31 - 1)))
            members.append(member.fit(X, y))
        self._set_members(*members)
        self.crossing_rate_ = self._crossing_rate(X)
        return self

    def predict_interval(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-sample band between the two (near-identical) median fits."""
        return self._interval(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Band midpoint (an honest median estimate, unlike the band)."""
        lower, upper = self.predict_interval(X)
        return (lower + upper) / 2.0
