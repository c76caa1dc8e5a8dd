"""The benchmark's output checks pass on a mean-field sweep across the
thresholds, and on the benchmark's own workloads with their references.

``perfbench/checks.py`` imports from ``rumornet.expcli.scenario`` and
``rumornet.thresholds`` and reads Scenario fields; a rename there breaks the
benchmark without failing anything in the package.  Its sweep check also
asserts that ``final_rumor_size`` is zero below the analytic threshold and
positive above it, so a clean pass on a grid that straddles every threshold
ties the two together.
"""

import importlib.util
import json
import os
from collections import Counter
from itertools import groupby
from operator import itemgetter

import pytest

from rumornet.expcli import cli
from rumornet.expcli.scenario import parse_scenario, run_scenario, threshold_table

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


@pytest.mark.parametrize("seed", [1, 3])
def test_check_run_passes_the_monte_carlo_workload(tmp_path, seed):
    # the benchmark's own scenario and reference: every Monte Carlo mean stays
    # inside its reference band
    checks = load_checks()
    config = os.path.join(ROOT, "perfbench", "scenarios", "mc_outbreak.ini")
    with open(os.path.join(ROOT, "perfbench", "reference.json"), encoding="ascii") as fh:
        reference = json.load(fh)
    out_dir = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", config, "--seed", str(seed), "--out", out_dir]) == 0

    reasons = checks.check_run(parse_scenario(config), out_dir, reference)
    assert len(reasons) == len(reference["r_mc"]["mc_outbreak"])
    assert {point: why for point, why in reasons.items() if why} == {}


@pytest.mark.parametrize("seed", [1, 3])
def test_check_run_passes_the_phase_diagram_workload(tmp_path, seed):
    # the benchmark's own sweep and reference: every point passes, and every
    # point below its analytic threshold reads exactly 0.0, so the check that
    # R_mf is positive above the threshold cannot pass on rounding residue
    checks = load_checks()
    config = os.path.join(ROOT, "perfbench", "scenarios", "phase_diagram.ini")
    with open(os.path.join(ROOT, "perfbench", "reference.json"), encoding="ascii") as fh:
        reference = json.load(fh)
    out_dir = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", config, "--seed", str(seed), "--out", out_dir]) == 0

    scenario = parse_scenario(config)
    reasons = checks.check_run(scenario, out_dir, reference)
    assert len(reasons) == len(scenario.grid())
    assert {point: why for point, why in reasons.items() if why} == {}

    axes = ("alpha", "beta", "sigma", "g")
    thresholds = {tuple(row[axis] for axis in axes): row["lambda_c"] for row in threshold_table(scenario)}
    with open(os.path.join(out_dir, "final_size.csv"), encoding="ascii") as fh:
        header, *lines = [line.strip().split(",") for line in fh if not line.startswith("#")]
    below = 0
    for cells in lines:
        row = dict(zip(header, cells))
        if float(row["lambda"]) < thresholds[tuple(float(row[axis]) for axis in axes)]:
            assert row["R_mf"] == "0.0", row
            below += 1
    assert below == 266


@pytest.mark.parametrize("seed", [1, 3])
def test_check_run_passes_the_mf_timeseries_workload(tmp_path, seed):
    # the benchmark's own curves and reference: every point passes, including
    # the check that each curve ends within CURVE_TOL of its final size, and
    # each curve keeps its 401 samples
    checks = load_checks()
    config = os.path.join(ROOT, "perfbench", "scenarios", "mf_timeseries.ini")
    with open(os.path.join(ROOT, "perfbench", "reference.json"), encoding="ascii") as fh:
        reference = json.load(fh)
    out_dir = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", config, "--seed", str(seed), "--out", out_dir]) == 0

    scenario = parse_scenario(config)
    reasons = checks.check_run(scenario, out_dir, reference)
    assert len(reasons) == len(scenario.grid()) == 4
    assert {point: why for point, why in reasons.items() if why} == {}

    with open(os.path.join(out_dir, "timeseries.csv"), encoding="ascii") as fh:
        points = [line.split(",", 2)[:2] for line in fh if not line.startswith(("#", "point,"))]
    assert all(engine == "meanfield" for _, engine in points)
    assert sorted(Counter(point for point, _ in points).items()) == [(str(p), 401) for p in range(4)]
