"""Drift-triggered online recalibration and republication.

The flow already recalibrates *in memory*: a coverage alarm swaps
Gibbs-Candès adaptive margins into
:class:`~repro.robust.flow.RobustVminFlow`'s calibration slot and every
observed label updates them.  That state, however, lives only in the
serving process -- a restart would come back up on the stale registry
bundle and re-learn the drift from scratch.  :class:`DriftRecalibrator`
closes that gap: it watches the label feedback stream through
:meth:`~repro.serve.service.VminServingService.observe`, and while the
slot holds an adaptive state *and* enough fresh labels have
accumulated, it republishes the recalibrated flow to the registry as a
new version (reason ``recalibrated``, parent = the version it drifted
from) and hot-swaps the service onto it -- making the adaptive state
durable and auditable.  A weighted shift repair is never republished.

Zero-label ingests are explicit no-ops, mirroring the flow contract:
the ATE legitimately delivers empty feedback batches and those must not
count toward (or reset) the recalibration trigger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.serve.service import VminServingService

__all__ = ["DriftRecalibrator", "RecalibrationEvent"]


@dataclass(frozen=True)
class RecalibrationEvent:
    """One completed recalibration republication.

    Attributes
    ----------
    version:
        The new registry version holding the recalibrated bundle.
    parent:
        The version the service was on when drift was detected.
    n_labels:
        Fresh labels ingested since the previous republication (the
        evidence behind this one).
    alpha_t:
        The adaptive miscoverage level at publication time -- how far
        Gibbs-Candès had moved off the nominal ``alpha``.
    """

    version: str
    parent: str
    n_labels: int
    alpha_t: float

    def describe(self) -> str:
        """Human-readable one-line summary."""
        return (
            f"republished {self.parent} -> {self.version} after "
            f"{self.n_labels} labels (alpha_t={self.alpha_t:.3f})"
        )


class DriftRecalibrator:
    """Republish the served flow once online recalibration has evidence.

    Parameters
    ----------
    service:
        The serving process whose label stream and registry this
        recalibrator manages.
    min_labels:
        Fresh labels that must accumulate *after* the flow goes
        adaptive before a republication fires -- republishing on the
        alarm itself would persist margins fitted to a handful of
        points.
    """

    def __init__(self, service: VminServingService, min_labels: int = 50) -> None:
        if min_labels < 1:
            raise ValueError(f"min_labels must be >= 1, got {min_labels}")
        self.service = service
        self.min_labels = int(min_labels)
        self._labels_since_publish = 0
        self.events_: List[RecalibrationEvent] = []

    def ingest(
        self, X: np.ndarray, y: np.ndarray
    ) -> Optional[RecalibrationEvent]:
        """Feed one labelled batch through the service; maybe republish.

        Calls :meth:`~repro.serve.service.VminServingService.observe`
        (so the monitor and the adaptive margins update exactly once),
        counts the labels toward the republication budget, and when the
        flow is adaptive with at least ``min_labels`` of evidence,
        publishes the recalibrated flow as a new registry version and
        hot-swaps onto it.  Returns the :class:`RecalibrationEvent`
        when a republication happened, else ``None``.  Empty batches
        are no-ops.
        """
        y = np.asarray(y, dtype=np.float64)
        if y.ndim == 1 and y.shape[0] == 0:
            return None
        self.service.observe(X, y)
        self._labels_since_publish += int(y.shape[0])
        return self.maybe_republish()

    def maybe_republish(self) -> Optional[RecalibrationEvent]:
        """Republish now if the trigger conditions hold, else ``None``.

        The snapshot, publication, audit note and hot-swap happen in
        :meth:`~repro.serve.service.VminServingService.republish_adaptive`
        under the service's own locks.
        """
        if self._labels_since_publish < self.min_labels:
            return None
        published = self.service.republish_adaptive(self._labels_since_publish)
        if published is None:
            return None
        version, parent, alpha_t = published
        event = RecalibrationEvent(version, parent, self._labels_since_publish, alpha_t)
        self.events_.append(event)
        self._labels_since_publish = 0
        return event
