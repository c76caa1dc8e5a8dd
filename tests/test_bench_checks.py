"""The benchmark's output checks pass on a mean-field sweep across the thresholds.

``perfbench/checks.py`` imports from ``rumornet.expcli.scenario`` and
``rumornet.thresholds`` and reads Scenario fields; a rename there breaks the
benchmark without failing anything in the package.  Its sweep check also
asserts that ``final_rumor_size`` is zero below the analytic threshold and
positive above it, so a clean pass on a grid that straddles every threshold
ties the two together.
"""

import importlib.util
import os
from itertools import groupby
from operator import itemgetter

from rumornet.expcli.scenario import parse_scenario, run_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCENARIO = """\
[scenario]
engine = meanfield
timeseries = false

[network]
kind = configuration
n = 2000

[model]
lambda = 0.005, 0.05, 0.2, 0.5, 1.0, 2.0
alpha = 0.5, 1.0
beta = -0.5, 0.5

[inoculation]
kind = targeted
g = 0, 0.05
"""
POINTS = 48


def load_checks():
    spec = importlib.util.spec_from_file_location("bench_checks", os.path.join(ROOT, "perfbench", "checks.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_run_passes_a_sweep_across_the_thresholds(tmp_path):
    checks = load_checks()
    config = tmp_path / "sweep.cfg"
    config.write_text(SCENARIO)
    scenario = parse_scenario(config)
    out_dir = str(tmp_path / "out")
    run_scenario(scenario, out_dir)

    reasons = checks.check_run(scenario, out_dir, {"r_mf": {}, "r_mc": {}})
    assert len(reasons) == POINTS
    assert {point: why for point, why in reasons.items() if why} == {}

    rows = checks.read_final_size(os.path.join(out_dir, "final_size.csv"))
    series_key = itemgetter("alpha", "beta", "sigma", "g")
    series = [list(group) for _, group in groupby(sorted(rows.values(), key=series_key), key=series_key)]
    assert len(series) == 8
    for group in series:
        # every series crosses its threshold inside the lambda grid
        assert any(row["R_mf"] <= checks.ZERO_TOL for row in group)
        assert any(row["R_mf"] > checks.ZERO_TOL for row in group)
