"""Tests of the benchmark itself: the output checker, fail counting, the tracer.

    python3 -m pytest perfbench/selftest.py

Run from the repository root.  The file is deliberately not named
``test_*.py``, so the repository's own test run does not collect it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from checks import check_run, read_final_size  # noqa: E402
from rumornet.expcli.scenario import parse_scenario  # noqa: E402
from rumornet.netgen import sample_powerlaw_distribution  # noqa: E402
from tracer import layer_metrics, self_times  # noqa: E402

# Every layer in a second: a small graph, both engines, curves and inoculation.
SMALL = """\
[scenario]
name = selftest
engine = both
timeseries = true
runs = 2

[network]
kind = configuration
n = 2000

[model]
lambda = 0.5, 1.0
alpha = 0.8
t_end = 10
t_max = 20
seeds = 5

[inoculation]
kind = random
g = 0, 0.2
"""

# Point 1 (beta = 0) leaves [0, 1] at t ~ 0.3 on the seed code's RK4 at this dt.
FAILING = """\
[scenario]
name = selftest_fail
engine = meanfield
timeseries = true

[network]
kind = configuration
n = 10000

[model]
lambda = 0.5
alpha = 1.0
beta = -0.5, 0
dt_meanfield = 0.1
"""


def _child(config: str, out_dir: str, mode: str, seed: int = 7) -> dict:
    result = out_dir + ".json"
    env = run.child_env(ROOT)
    subprocess.run([sys.executable, os.path.join(HERE, "child.py"), config, str(seed), out_dir, result, mode],
                   cwd=ROOT, env=env, check=True, capture_output=True, timeout=170)
    with open(result, encoding="utf-8") as fh:
        record = json.load(fh)
    record["out_dir"] = out_dir
    record["manifest"] = run.read_manifest(out_dir)
    return record


@pytest.fixture(scope="module")
def reference():
    with open(os.path.join(HERE, "reference.json"), encoding="ascii") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def phase_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("phase") / "out")
    _child(os.path.join(HERE, "scenarios", "phase_diagram.ini"), out, "0")
    return out


@pytest.fixture(scope="module")
def outbreak_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("outbreak") / "out")
    _child(os.path.join(HERE, "scenarios", "mc_outbreak.ini"), out, "0")
    return out


def _tamper(path: str, point: int, column: str, value: float) -> None:
    with open(path, encoding="ascii") as fh:
        lines = fh.readlines()
    header = next(line for line in lines if not line.startswith("#")).strip().split(",")
    col = header.index(column)
    for idx, line in enumerate(lines):
        fields = line.strip().split(",")
        if not line.startswith("#") and fields[0] == str(point):
            fields[col] = repr(value)
            lines[idx] = ",".join(fields) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)


def test_untampered_phase_diagram_passes(phase_run, reference):
    reasons = check_run(parse_scenario(os.path.join(HERE, "scenarios", "phase_diagram.ini")), phase_run, reference)
    assert len(reasons) == 576
    assert run.count_ok(reasons) == 576


@pytest.mark.parametrize("point,tamper,expect", [
    (46, lambda r: r + 1e-4, "differs from reference"),   # uninoculated: pinned to the reference
    (46, lambda r: float("nan"), "differs from reference"),
    (263, lambda r: r / 4, "fell below"),                 # inoculated: not pinned, must grow with lambda
    (0, lambda r: 1e-3, "below lambda_c"),                # sub-threshold: R must stay 0
])
def test_checker_rejects_tampered_final_size(phase_run, reference, tmp_path, point, tamper, expect):
    out = str(tmp_path / "out")
    shutil.copytree(phase_run, out)
    path = os.path.join(out, "final_size.csv")
    scenario = parse_scenario(os.path.join(HERE, "scenarios", "phase_diagram.ini"))
    _tamper(path, point, "R_mf", tamper(read_final_size(path)[point]["R_mf"]))
    reasons = check_run(scenario, out, reference)
    assert any(expect in why for why in reasons[point]), reasons[point]
    assert run.count_ok(reasons) < 576


@pytest.mark.parametrize("point", range(4))
def test_checker_rejects_vanished_outbreak(outbreak_run, reference, tmp_path, point):
    scenario = parse_scenario(os.path.join(HERE, "scenarios", "mc_outbreak.ini"))
    assert run.count_ok(check_run(scenario, outbreak_run, reference)) == 4
    out = str(tmp_path / "out")
    shutil.copytree(outbreak_run, out)
    _tamper(os.path.join(out, "final_size.csv"), point, "R_mc_mean", 0.0)
    reasons = check_run(scenario, out, reference)
    assert any("R_mc_mean=0.0 outside" in why for why in reasons[point]), reasons[point]
    assert run.count_ok(reasons) == 3


def test_failing_point_counts_in_fail_ratio(tmp_path, reference):
    config = tmp_path / "fail.ini"
    config.write_text(FAILING)
    reps = [_child(str(config), str(tmp_path / f"rep{i}"), "0") for i in range(2)]
    assert reps[0]["manifest"]["completed"] == 1
    reasons = check_run(parse_scenario(str(config)), reps[0]["out_dir"], reference)
    assert reasons[0] == []
    assert "IntegrationError" in reasons[1][0]
    assert run.count_ok(reasons) == 1  # fail_ratio 0.5


def test_reproducibility_check_sees_changed_bytes(tmp_path):
    config = tmp_path / "small.ini"
    config.write_text(SMALL)
    reps = [_child(str(config), str(tmp_path / f"rep{i}"), mode) for i, mode in enumerate("01")]
    hashes = [rep["manifest"]["files"] for rep in reps]
    assert hashes[0] == hashes[1]  # a traced run writes the same bytes as a plain one
    reps[1]["manifest"]["files"]["final_size.csv"] = "0" * 64
    reproducible, _ = run.check_outputs(str(config), reps, ROOT)
    assert not reproducible


def test_traced_verb_is_self_plus_children(tmp_path):
    config = tmp_path / "small.ini"
    config.write_text(SMALL)
    spans = _child(str(config), str(tmp_path / "out"), "1")["spans"]
    selfs = self_times(spans)
    names = {span["name"] for span in spans}
    assert {"expcli.main", "expcli.parse", "expcli.verb", "netgen.build", "netgen.network_init",
            "meanfield.integrate", "meanfield.final_size", "meanfield.fixed_point", "montecarlo.ensemble",
            "montecarlo.run", "inoculation.plan", "inoculation.apply", "expcli.svg"} <= names
    for idx, span in enumerate(spans):
        children = [s["end"] - s["start"] for s in spans if s["parent"] == idx]
        assert span["end"] - span["start"] == pytest.approx(selfs[idx] + sum(children), abs=1e-9)
        if span["name"] == "expcli.verb":
            assert children and selfs[idx] >= 0.0
    metrics = layer_metrics(spans)
    assert metrics["montecarlo.runs"] == 2 * 4
    assert metrics["meanfield.integrate_calls"] == 4
    classes = sample_powerlaw_distribution(2.4, 2, 2000).support.size
    assert metrics["meanfield.class_steps"] == 4 * 1000 * classes  # t_end / dt = 10 / 0.01
    assert metrics["expcli.points"] == 4


def test_layer_table_lists_the_declared_per_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)
    declared = [m["name"] for m in spec["per_layer"]]
    listed = [name for layer in layers["layers"] for name in layer["metrics"]]
    assert sorted(listed) == sorted(declared)
    workloads = {w["name"] for w in spec["workloads"]}
    assert {p["workload"] for p in layers["shares"] + layers["zero"]} <= workloads
    assert {p["metric"] for p in layers["shares"]} <= set(declared)


def test_self_time_counts_overlapping_children_once():
    spans = [
        {"name": "p", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "a", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "b", "start": 3.0, "end": 6.0, "parent": 0},
    ]
    assert self_times(spans) == [5.0, 3.0, 3.0]
