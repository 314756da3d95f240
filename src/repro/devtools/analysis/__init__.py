"""The project model and flow framework reprolint's rules run on.

Every file of a run is parsed once into a :class:`Project`: a module
table with resolved imports (:mod:`.project`).  The whole-program rules
build on per-function control-flow graphs (:mod:`.cfg`),
reaching-definitions and labelled taint over them (:mod:`.dataflow`),
a best-effort call graph (:mod:`.callgraph`), and inter-procedural
source-to-sink summaries (:mod:`.interproc`).  Two rule packs run on
top: REP2xx concurrency/determinism and REP3xx conformal calibration
hygiene (:mod:`repro.devtools.rules`), run by :mod:`repro.devtools.engine`
beside the per-module REP1xx rules.
"""

from repro.devtools.analysis.project import Project

__all__ = ["Project"]
