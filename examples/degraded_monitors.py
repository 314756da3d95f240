"""Serving Vmin intervals when on-chip monitors die in the field.

The paper's reliability pitch assumes every ROD/CPD sensor keeps
reporting.  This demo breaks that assumption on purpose: it deploys a
:class:`repro.robust.RobustVminFlow` (the hardened wrapper around the
paper's CQR pipeline), then

1. kills 10 % of the ROD sensors and shows the flow *degrading* --
   imputing the dead columns and widening intervals -- instead of
   crashing on NaN,
2. kills the whole monitor block and shows the graceful *fallback* to a
   parametric-only model,
3. sweeps a full fault campaign and prints the stress report
   (coverage/length per fault kind and severity),
4. streams aged in-field labels until the rolling-coverage monitor
   alarms and online (Gibbs-Candès) recalibration kicks in.

Run:
    python examples/degraded_monitors.py [--smoke]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import FaultCampaign, RobustVminFlow
from repro.eval import run_fault_campaign
from repro.models import ObliviousBoostingRegressor
from repro.robust import DeadSensors, FaultScenario
from repro.silicon import SiliconDataset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    dataset = SiliconDataset.generate(seed=args.seed)
    X, names = dataset.features(hours=0)
    y = dataset.target(temperature_c=25.0, hours=0)
    n_train = 110
    n_trees = 15 if args.smoke else 100

    # Column groups: time-zero parametric block (still trustworthy when
    # monitors die) vs the on-chip ROD/CPD block (the thing that fails).
    parametric_cols = [i for i, n in enumerate(names) if n.startswith("par_")]
    monitor_cols = [i for i, n in enumerate(names) if not n.startswith("par_")]
    rod_cols = [i for i, n in enumerate(names) if n.startswith("rod_")]

    flow = RobustVminFlow(
        base_model=ObliviousBoostingRegressor(
            n_estimators=n_trees, quantile=0.5, random_state=args.seed
        ),
        alpha=0.1,
        random_state=args.seed,
        monitor_window=30,
        monitor_min_observations=15,
        gamma=0.2,
    )
    flow.fit(
        X[:n_train],
        y[:n_train],
        feature_names=names,
        fallback_columns=parametric_cols,
        monitor_columns=monitor_cols,
    )
    X_test, y_test = X[n_train:], y[n_train:]

    clean = flow.predict_interval(X_test)
    print(f"guaranteed coverage (clean inputs): {flow.guaranteed_coverage_:.1%}")
    print(
        f"clean serve:     status={clean.status.value:<9} "
        f"coverage={clean.coverage(y_test):6.1%}  "
        f"width={clean.mean_width*1e3:5.1f} mV"
    )

    # ------------------------------------------------------------------
    # 1. 10 % of ROD sensors dead: degrade, impute, widen.
    # ------------------------------------------------------------------
    ten_pct_dead = FaultScenario(
        name="10% ROD sensors dead",
        injectors=(DeadSensors(0.10, columns=rod_cols),),
        severity=0.10,
        seed=args.seed,
    )
    degraded = flow.predict_interval(ten_pct_dead.apply(X_test))
    print(
        f"10% RODs dead:   status={degraded.status.value:<9} "
        f"coverage={degraded.coverage(y_test):6.1%}  "
        f"width={degraded.mean_width*1e3:5.1f} mV  "
        f"(inflation {degraded.inflation:.2f}x, "
        f"{int(degraded.health.unhealthy.sum())} columns imputed)"
    )

    # ------------------------------------------------------------------
    # 2. The whole monitor block dead: parametric-only fallback.
    # ------------------------------------------------------------------
    all_dead = FaultScenario(
        name="monitor block dead",
        injectors=(DeadSensors(1.0, columns=monitor_cols),),
        severity=1.0,
        seed=args.seed,
    )
    fellback = flow.predict_interval(all_dead.apply(X_test))
    print(
        f"monitors dead:   status={fellback.status.value:<9} "
        f"coverage={fellback.coverage(y_test):6.1%}  "
        f"width={fellback.mean_width*1e3:5.1f} mV  "
        f"(fallback model used: {fellback.used_fallback})"
    )
    for note in fellback.notes:
        print(f"                 note: {note}")

    # ------------------------------------------------------------------
    # 3. Full fault-campaign stress report.
    # ------------------------------------------------------------------
    severities = (0.1,) if args.smoke else (0.05, 0.1, 0.2)
    campaign = FaultCampaign.standard(
        severities=severities, columns=monitor_cols, seed=args.seed
    )
    report = run_fault_campaign(flow, X_test, y_test, campaign)
    print()
    print(report.to_table(title="Fault campaign | 25C / 0h holdout"))
    print(
        f"worst dead-sensor coverage drop: "
        f"{report.coverage_drop('dead_sensors')*100:+.1f} points vs nominal"
    )

    # ------------------------------------------------------------------
    # 4. Coverage drift -> alarm -> online recalibration.
    # ------------------------------------------------------------------
    print("\nstreaming aged labels against the time-zero model:")
    read_points = (168, 1008) if args.smoke else (168, 504, 1008)
    for hours in read_points:
        y_aged = dataset.target(25.0, hours)[n_train:]
        for start in range(0, X_test.shape[0], 6):
            stop = min(start + 6, X_test.shape[0])
            alarm = flow.observe(X_test[start:stop], y_aged[start:stop]).alarm
            if alarm is not None:
                print(f"  !! {alarm.describe()} -> recalibrating online")
        # The serving calibration's alpha_t: alpha until the first alarm.
        alpha_t = flow.calibration_.alpha_t if flow.adaptive_active else flow.alpha
        print(
            f"  after {hours:4d} h: rolling coverage "
            f"{flow.rolling_coverage():6.1%}, recalibrations "
            f"{flow.recalibrations_}, adaptive alpha_t {alpha_t: .3f}"
        )
    print(
        f"\ntotal alarms: {len(flow.alarms_)}; "
        f"online recalibration active: {flow.adaptive_active}"
    )


if __name__ == "__main__":
    main()
