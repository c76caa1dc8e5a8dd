"""Output checks of one ``rumornet simulate`` run, grid point by grid point.

A grid point fails when the manifest lists it under ``failures``, when its
row is missing from ``final_size.csv``, or when one of these checks fails:

* an uninoculated mean-field final size differs from reference.json by more
  than PIN_TOL (configuration graphs only, where it does not depend on the
  seed; inoculated values are deliberately not pinned);
* the last mean-field R of ``timeseries.csv`` differs from the point's R_mf by
  more than CURVE_TOL;
* on a lambda sweep over a configuration graph, R_mf decreases as lambda
  grows at fixed (alpha, beta, sigma, g), exceeds ZERO_TOL below the
  analytic threshold of the ``thresholds`` module, or is not positive above
  it;
* a Monte Carlo ensemble mean lies outside its reference band.

``check_run`` returns, for every grid point, the list of reasons it failed
(empty when it passed); every comparison is written so that a NaN fails it.
It needs ``rumornet`` importable for the thresholds.
"""

from __future__ import annotations

import json
import os
from itertools import groupby

PIN_TOL = 1e-6
CURVE_TOL = 1e-3
ZERO_TOL = 1e-9


def read_final_size(path) -> dict[int, dict]:
    """Rows of ``final_size.csv`` keyed by grid point, every column a float."""
    with open(path, encoding="ascii") as fh:
        lines = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
    header = lines[0].split(",")
    rows: dict[int, dict] = {}
    for line in lines[1:]:
        row = dict(zip(header, map(float, line.split(","))))
        rows[int(row["point"])] = row
    return rows


def read_final_curve_r(path) -> dict[int, float]:
    """Last mean-field R of every point in ``timeseries.csv``."""
    last: dict[int, float] = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("point,"):
                continue
            point, engine, _t, _i, _s, r = line.strip().split(",")
            if engine == "meanfield":
                last[int(point)] = float(r)
    return last


def _threshold(scenario, dist, alpha: float, beta: float, g: float) -> float:
    from rumornet.expcli.scenario import make_targeted_plan
    from rumornet.thresholds import threshold_modified, threshold_random_inoc, threshold_targeted_inoc

    bare = threshold_modified(dist, alpha, beta)
    if g == 0.0 or scenario.inoc_kind == "none":
        return bare
    if scenario.inoc_kind == "random":
        return threshold_random_inoc(bare, g)
    return threshold_targeted_inoc(dist, alpha, beta, make_targeted_plan(dist, g))


def check_sweep(scenario, rows: dict[int, dict], reasons: dict[int, list[str]]) -> None:
    """Monotonicity in lambda and the analytic threshold, on every series of a sweep."""
    from rumornet.netgen import sample_powerlaw_distribution

    dist = sample_powerlaw_distribution(scenario.gamma, scenario.k_min, scenario.n_nodes)
    series = sorted(rows.values(), key=lambda r: (r["alpha"], r["beta"], r["sigma"], r["g"], r["lambda"]))
    for key, group in groupby(series, key=lambda r: (r["alpha"], r["beta"], r["sigma"], r["g"])):
        alpha, beta, _sigma, g = key
        lambda_c = _threshold(scenario, dist, alpha, beta, g)
        previous = None
        for row in group:
            point, r = int(row["point"]), row["R_mf"]
            if previous is not None and not r >= previous:
                reasons[point].append(f"R_mf={r!r} fell below {previous!r} at the previous lambda")
            previous = r
            if row["lambda"] < lambda_c and not r <= ZERO_TOL:
                reasons[point].append(f"R_mf={r!r} > {ZERO_TOL} below lambda_c={lambda_c!r}")
            if row["lambda"] > lambda_c and not r > 0.0:
                reasons[point].append(f"R_mf={r!r} not positive above lambda_c={lambda_c!r}")


def check_run(scenario, out_dir: str, reference: dict) -> dict[int, list[str]]:
    """Per grid point, the reasons it failed; an empty list means it passed."""
    with open(os.path.join(out_dir, "manifest.json"), encoding="ascii") as fh:
        manifest = json.load(fh)
    reasons: dict[int, list[str]] = {p: [] for p in range(manifest["points"])}
    for failure in manifest["failures"]:
        reasons[failure["point"]].append(f"run failed: {failure['error']}")
    rows = read_final_size(os.path.join(out_dir, "final_size.csv"))
    for point in reasons:
        if point not in rows and not reasons[point]:
            reasons[point].append("missing from final_size.csv")

    workload = scenario.name
    for point, value in reference["r_mf"].get(workload, {}).items():
        row = rows.get(int(point))
        if row is not None and not abs(row["R_mf"] - value) <= PIN_TOL:
            reasons[int(point)].append(f"R_mf={row['R_mf']!r} differs from reference {value!r}")
    for point, band in reference["r_mc"].get(workload, {}).items():
        row = rows.get(int(point))
        if row is not None and not band["lo"] <= row["R_mc_mean"] <= band["hi"]:
            reasons[int(point)].append(
                f"R_mc_mean={row['R_mc_mean']!r} outside [{band['lo']:.4f}, {band['hi']:.4f}]"
            )
    if scenario.timeseries and scenario.engine in ("meanfield", "both"):
        curve_r = read_final_curve_r(os.path.join(out_dir, "timeseries.csv"))
        for point, row in rows.items():
            if point not in curve_r:
                reasons[point].append("no mean-field curve in timeseries.csv")
            elif not abs(curve_r[point] - row["R_mf"]) <= CURVE_TOL:
                reasons[point].append(f"final curve R={curve_r[point]!r} differs from R_mf={row['R_mf']!r}")
    if scenario.net_kind == "configuration" and len(scenario.lam_grid) > 1 and scenario.engine != "montecarlo":
        check_sweep(scenario, rows, reasons)
    return reasons
