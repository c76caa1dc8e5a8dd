import dataclasses
import json
import os
import pickle
from unittest import mock

import numpy as np
import pytest

from rumornet import montecarlo
from rumornet.expcli import scenario as scenario_module
from rumornet.expcli.cli import main
from rumornet.expcli.scenario import (
    Scenario,
    ScenarioError,
    _audit_header,
    _write_csv,
    build_network,
    compare_engines,
    parse_scenario,
    run_scenario,
    threshold_table,
)
from rumornet.expcli.svg import line_plot
from rumornet.inoculation import InoculationPlan
from rumornet.meanfield import ModelParams, final_rumor_size
from rumornet.netgen import DegreeDistribution, Network
from rumornet.thresholds import threshold_modified_bounded

MINIMAL = """\
[scenario]
engine = meanfield

[network]
kind = configuration
gamma = 2.4
k_min = 2
n = 1000

[model]
lambda = 0.2,0.5,0.9
alpha = 0.5
beta = -0.5
"""


def write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def line_of(text, line):
    """Physical 1-based line number of ``line`` in ``text``, as an editor shows it."""
    return text.splitlines().index(line) + 1


class TestParsing:
    def test_minimal_defaults(self, tmp_path):
        scenario = parse_scenario(write_config(tmp_path, MINIMAL))
        assert scenario.engine == "meanfield"
        assert len(scenario.grid()) == 3
        # every field MINIMAL leaves unset, with the default it takes
        assert {
            name: getattr(scenario, name)
            for name in ("name", "seed", "out_dir", "workers", "timeseries", "runs", "m", "m0",
                         "sigma_grid", "s0", "mc_seeds", "dt_meanfield", "dt_montecarlo",
                         "t_end", "t_max", "inoc_kind", "g_grid", "tolerance")
        } == {
            "name": "scenario", "seed": 0, "out_dir": "out", "workers": 1, "timeseries": True,
            "runs": None, "m": 3, "m0": 5, "sigma_grid": [1.0], "s0": None, "mc_seeds": 1,
            "dt_meanfield": 0.01, "dt_montecarlo": 0.1, "t_end": 100.0, "t_max": 200.0,
            "inoc_kind": "none", "g_grid": [0.0], "tolerance": 0.1,
        }

    def test_key_table_names_each_field_once(self):
        names = [name for name, _, _ in scenario_module._KEYS.values()]
        assert sorted(names) == sorted(field.name for field in dataclasses.fields(Scenario))

    def test_bad_engine_reported_before_missing_n(self, tmp_path):
        bad = MINIMAL.replace("engine = meanfield", "engine = warp").replace("n = 1000\n", "")
        with pytest.raises(ScenarioError, match=r"scenario\.cfg:2: engine must be one of"):
            parse_scenario(write_config(tmp_path, bad))

    def test_alpha_out_of_range_cites_line(self, tmp_path):
        bad = MINIMAL.replace("alpha = 0.5", "alpha = 1.5")
        lineno = line_of(bad, "alpha = 1.5")
        assert lineno == 12
        path = write_config(tmp_path, bad)
        with pytest.raises(
            ScenarioError, match=rf"scenario\.cfg:{lineno}: alpha values must lie in \(0, 1\]"
        ):
            parse_scenario(path)

    def test_unknown_key_cites_line(self, tmp_path):
        bad = MINIMAL + "momentum = 3\n"
        lineno = line_of(bad, "momentum = 3")
        assert lineno == 14
        path = write_config(tmp_path, bad)
        with pytest.raises(ScenarioError, match=rf"scenario\.cfg:{lineno}: unknown key 'momentum'"):
            parse_scenario(path)

    def test_engine_both_requires_runs(self, tmp_path):
        both = MINIMAL.replace("engine = meanfield", "engine = both")
        lineno = line_of(both, "engine = both")
        assert lineno == 2
        with pytest.raises(
            ScenarioError, match=rf"scenario\.cfg:{lineno}: \[scenario\] runs is required when engine=both"
        ):
            parse_scenario(write_config(tmp_path, both))
        both_with_runs = both.replace("engine = both", "engine = both\nruns = 5")
        scenario = parse_scenario(write_config(tmp_path, both_with_runs, "b.cfg"))
        assert scenario.engine == "both"
        assert scenario.runs == 5

    def test_empty_grid_rejected(self, tmp_path):
        bad = MINIMAL.replace("lambda = 0.2,0.5,0.9", "lambda = ,")
        with pytest.raises(ScenarioError, match="lambda"):
            parse_scenario(write_config(tmp_path, bad))

    def test_missing_file(self):
        with pytest.raises(ScenarioError):
            parse_scenario("/nonexistent/path.cfg")

    def test_syntax_error_cites_line(self, tmp_path):
        path = write_config(tmp_path, "[scenario]\nnonsense line\n")
        with pytest.raises(ScenarioError, match=r"scenario\.cfg:2: expected 'key = value'"):
            parse_scenario(path)

    def test_leading_comments_count_as_lines(self, tmp_path):
        text = "# sweep over alpha\n\n" + MINIMAL.replace("alpha = 0.5", "alpha = 1.5")
        lineno = line_of(text, "alpha = 1.5")
        assert lineno == 14
        path = write_config(tmp_path, text)
        with pytest.raises(
            ScenarioError, match=rf"scenario\.cfg:{lineno}: alpha values must lie in \(0, 1\]"
        ):
            parse_scenario(path)

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_nodes_cites_line(self, tmp_path, n):
        bad = MINIMAL.replace("n = 1000", f"n = {n}")
        lineno = line_of(bad, f"n = {n}")
        assert lineno == 8
        with pytest.raises(ScenarioError, match=rf"scenario\.cfg:{lineno}: n must be >= 2, got {n}"):
            parse_scenario(write_config(tmp_path, bad))

    def test_k_min_below_one_cites_line(self, tmp_path):
        bad = MINIMAL.replace("k_min = 2", "k_min = 0")
        lineno = line_of(bad, "k_min = 0")
        assert lineno == 7
        with pytest.raises(ScenarioError, match=rf"scenario\.cfg:{lineno}: k_min must be >= 1, got 0"):
            parse_scenario(write_config(tmp_path, bad))


class TestRunScenario:
    def test_row_count_and_manifest(self, tmp_path):
        scenario = parse_scenario(write_config(tmp_path, MINIMAL))
        out = tmp_path / "out"
        manifest = run_scenario(scenario, out_dir=str(out))
        assert manifest["completed"] == 3
        csv_lines = (out / "final_size.csv").read_text().splitlines()
        data = [line for line in csv_lines if not line.startswith("#")]
        assert data[0].startswith("point,lambda")
        assert len(data) == 1 + 3
        assert (out / "final_size.svg").exists()
        assert (out / "manifest.json").exists()
        header = [line for line in csv_lines if line.startswith("#")]
        assert any("seed=0" in line for line in header)
        assert any("gamma=2.4" in line for line in header)

    def test_deterministic_hashes(self, tmp_path):
        config = MINIMAL.replace("engine = meanfield", "engine = montecarlo\nruns = 4\nseed = 9")
        scenario = parse_scenario(write_config(tmp_path, config))
        m1 = run_scenario(scenario, out_dir=str(tmp_path / "a"))
        m2 = run_scenario(scenario, out_dir=str(tmp_path / "b"))
        assert m1["files"] == m2["files"]

    def test_plans_built_once_per_g(self, tmp_path):
        # three lambdas share each g: simulate and threshold build one plan
        # per nonzero g, not one per grid point
        config = MINIMAL + "\n[inoculation]\nkind = targeted\ng = 0,0.05,0.1\n"
        scenario = parse_scenario(write_config(tmp_path, config))
        real = scenario_module.make_targeted_plan
        with mock.patch.object(scenario_module, "make_targeted_plan", wraps=real) as spy:
            assert run_scenario(scenario, out_dir=str(tmp_path / "out"))["completed"] == 9
            assert [call.args[1] for call in spy.call_args_list] == [0.05, 0.1]
            spy.reset_mock()
            assert len(threshold_table(scenario)) == 3
            assert [call.args[1] for call in spy.call_args_list] == [0.05, 0.1]

    def test_meanfield_r_increases_with_lambda(self, tmp_path):
        scenario = parse_scenario(write_config(tmp_path, MINIMAL))
        out = tmp_path / "out"
        run_scenario(scenario, out_dir=str(out))
        rows = [line.split(",") for line in (out / "final_size.csv").read_text().splitlines()
                if line and not line.startswith("#")][1:]
        rs = [float(row[-1]) for row in rows]
        assert rs == sorted(rs)

    def test_terms_built_once_per_plan_and_alpha(self, tmp_path, monkeypatch):
        rules, builds = [], []
        rule, memo = InoculationPlan._rule, DegreeDistribution.memo

        def counting_rule(plan, dist):
            rules.append((dist, plan))
            return rule(plan, dist)

        def counting_memo(dist, key, build):
            def counted():
                builds.append((dist, key))
                return build()
            return memo(dist, key, counted)

        monkeypatch.setattr(InoculationPlan, "_rule", counting_rule)
        monkeypatch.setattr(DegreeDistribution, "memo", counting_memo)
        lambdas = ",".join(f"{0.05 * i:g}" for i in range(1, 25))
        config = MINIMAL.replace("engine = meanfield", "engine = meanfield\ntimeseries = false").replace(
            "lambda = 0.2,0.5,0.9", f"lambda = {lambdas}").replace("alpha = 0.5", "alpha = 0.5,0.8") + """
[inoculation]
kind = targeted
g = 0,0.05,0.1
"""
        scenario = parse_scenario(write_config(tmp_path, config))
        assert len(scenario.grid()) == 24 * 2 * 3
        run_scenario(scenario, out_dir=str(tmp_path / "out"))
        threshold_table(scenario)
        # simulate and threshold each build their distribution; on each, every
        # plan's profile and every alpha's weights are built once
        dists = list({id(dist): dist for dist, _ in rules}.values())
        assert len(dists) == 2
        for dist in dists:
            plans = scenario.plans(dist)
            assert [plan for owner, plan in rules if owner is dist] == [plans[0.05], plans[0.1]]
            keys = [key for owner, key in builds if owner is dist]
            assert len(keys) == len(set(keys))
        weights = [key for dist, key in builds if key[0] == "weights"]
        assert weights == [("weights", 0.5), ("weights", 0.8)]


class TestThresholdTable:
    def test_lambda_c_decreasing_in_alpha_per_size(self, tmp_path):
        for n in (10**3, 10**5):
            config = f"""\
[scenario]
engine = meanfield

[network]
kind = configuration
gamma = 2.4
k_min = 2
n = {n}

[model]
lambda = 1.0
alpha = 0.1,0.3,0.5,0.7,0.9,1.0
beta = 0.0
"""
            scenario = parse_scenario(write_config(tmp_path, config, f"thr{n}.cfg"))
            rows = threshold_table(scenario)
            assert [row["alpha"] for row in rows] == [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
            assert {(row["beta"], row["sigma"], row["g"]) for row in rows} == {(0.0, 1.0, 0.0)}
            values = [row["lambda_c"] for row in rows]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_random_inoculation_scaling(self, tmp_path):
        config = MINIMAL.replace("lambda = 0.2,0.5,0.9", "lambda = 1.0") + """
[inoculation]
kind = random
g = 0.0,0.5
"""
        scenario = parse_scenario(write_config(tmp_path, config))
        rows = threshold_table(scenario)
        assert rows[1]["lambda_c"] == pytest.approx(2 * rows[0]["lambda_c"], rel=1e-12)

    def test_ba_threshold_is_the_onset_simulate_sees(self, tmp_path):
        config = """\
[scenario]
engine = meanfield
seed = 0

[network]
kind = ba
m = 2
m0 = 3
n = 2000

[model]
lambda = 0.2
alpha = 0.8
beta = 0
sigma = 0.5,1,2

[inoculation]
kind = targeted
g = 0.0,0.05
"""
        scenario = parse_scenario(write_config(tmp_path, config))
        rows = threshold_table(scenario)
        dist = build_network(scenario)[0]
        cases = [(sigma, g) for sigma in (0.5, 1.0, 2.0) for g in (0.0, 0.05)]
        assert len(rows) == len(cases)
        for row, (sigma, g) in zip(rows, cases):
            plan = scenario.plan_for(dist, g)
            below = ModelParams(lam=row["lambda_c"] * (1 - 1e-3), alpha=0.8, sigma=sigma)
            above = ModelParams(lam=row["lambda_c"] * (1 + 1e-3), alpha=0.8, sigma=sigma)
            assert final_rumor_size(dist, below, plan) < 1e-12
            assert final_rumor_size(dist, above, plan) > 1e-5

    def test_one_series_per_combination(self, tmp_path):
        config = MINIMAL.replace("beta = -0.5", "beta = -0.5\nsigma = 0.5,1,2") + """
[inoculation]
kind = targeted
g = 0,0.05
"""
        path = write_config(tmp_path, config)
        assert main(["threshold", "--config", str(path), "--out", str(tmp_path / "t")]) == 0
        lines = (tmp_path / "t" / "thresholds.csv").read_text().splitlines()
        data = [line.split(",") for line in lines if not line.startswith("#")]
        assert [(float(row[2]), float(row[3])) for row in data[1:]] == [
            (sigma, g) for sigma in (0.5, 1.0, 2.0) for g in (0.0, 0.05)]
        svg = (tmp_path / "t" / "thresholds.svg").read_text()
        # x is g; one line per sigma, each through its two g values
        assert svg.count("<polyline") == 3
        assert [svg.count(f">s={sigma}</text>") for sigma in ("0.5", "1", "2")] == [1, 1, 1]
        assert ">g</text>" in svg

    @pytest.mark.parametrize("network, gamma, k_min", [
        ("kind = configuration\ngamma = 2.6\nk_min = 3\nn = 2000", 2.6, 3),
        ("kind = ba\nm = 2\nm0 = 3\nn = 2000", 3.0, 2),
    ], ids=["configuration", "ba"])
    def test_classic_column(self, tmp_path, network, gamma, k_min):
        config = f"""\
[network]
{network}

[model]
lambda = 1.0
alpha = 0.5,0.8
beta = -0.5

[inoculation]
kind = random
g = 0.0,1.0
"""
        path = write_config(tmp_path, config)
        assert main(["threshold", "--config", str(path), "--out", str(tmp_path / "t")]) == 0
        lines = (tmp_path / "t" / "thresholds.csv").read_text().splitlines()
        data = [line.split(",") for line in lines if not line.startswith("#")]
        assert data[0] == ["alpha", "beta", "sigma", "g", "lambda_c", "lambda_c_classic", "regime"]
        classic = threshold_modified_bounded(gamma, k_min, 2000, 1.0, 0.0).value
        assert len(data) == 1 + 4
        for row, alpha, g in zip(data[1:], (0.5, 0.5, 0.8, 0.8), (0.0, 1.0, 0.0, 1.0)):
            assert [float(cell) for cell in row[:4]] == [alpha, -0.5, 1.0, g]
            assert float(row[5]) == classic
            if g == 1.0:
                assert row[4] == "no-outbreak"
            else:
                # the paper's claim: the modified threshold exceeds the classic one
                assert float(row[4]) > classic
        assert [row["lambda_c_classic"] for row in threshold_table(parse_scenario(path))] == [classic] * 4


class TestCsvWriter:
    def test_cell_rule_and_audit_header(self, tmp_path):
        scenario = parse_scenario(write_config(tmp_path, MINIMAL))
        path = tmp_path / "cells.csv"
        rows = [
            [3, True, 0.1, np.float64(1 / 3), "no-outbreak"],
            [np.int64(-7), False, float("inf"), np.float64(2.0), ""],
        ]
        _write_csv(path, ["int", "bool", "float", "np_float", "str"], rows, _audit_header(scenario))
        assert path.read_text() == (
            "# scenario=scenario\n"
            "# engine=meanfield seed=0\n"
            "# network kind=configuration gamma=2.4 k_min=2 n=1000 m=3 m0=5\n"
            "# lambda=0.2,0.5,0.9 alpha=0.5 beta=-0.5 sigma=1.0\n"
            "# inoculation kind=none g=0.0\n"
            "# runs=None seeds=1 dt_mf=0.01 dt_mc=0.1 t_end=100.0 t_max=200.0\n"
            "int,bool,float,np_float,str\n"
            "3,1,0.1,0.3333333333333333,no-outbreak\n"
            "-7,0,inf,2.0,\n"
        )

    def test_no_header(self, tmp_path):
        path = tmp_path / "bare.csv"
        _write_csv(path, ["k", "p"], [])
        assert path.read_text() == "k,p\n"

    def test_generate_distribution_parses_back_exactly(self, tmp_path):
        path = write_config(tmp_path, MINIMAL.replace("n = 1000", "n = 300"))
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "g"), "--seed", "5"]) == 0
        lines = (tmp_path / "g" / "degree_distribution.csv").read_text().splitlines()
        assert lines[0] == "k,p"
        support = [int(line.split(",")[0]) for line in lines[1:]]
        probs = [float(line.split(",")[1]) for line in lines[1:]]
        dist = build_network(parse_scenario(path))[0]
        assert support == dist.support.tolist()
        assert probs == dist.probs.tolist()


class TestCompareEngines:
    def test_lambda_zero_point_passes(self, tmp_path):
        config = """\
[scenario]
engine = both
runs = 3
seed = 4

[network]
kind = configuration
gamma = 2.4
k_min = 2
n = 500

[model]
lambda = 0.0
alpha = 0.5
beta = -0.5
seeds = 1
"""
        scenario = parse_scenario(write_config(tmp_path, config))
        report = compare_engines(scenario)
        assert report["all_passed"]
        assert report["rows"][0]["deviation"] <= 1 / 500 + 1e-12

    def test_requires_engine_both(self, tmp_path):
        scenario = parse_scenario(write_config(tmp_path, MINIMAL))
        with pytest.raises(ScenarioError):
            compare_engines(scenario)


class TestSvg:
    def test_self_contained_and_deterministic(self):
        series = [("a", [0, 1, 2], [0.0, 0.5, 0.25]), ("b", [0, 1, 2], [0.1, 0.2, 0.9])]
        doc1 = line_plot(series, title="t", xlabel="x", ylabel="y")
        doc2 = line_plot(series, title="t", xlabel="x", ylabel="y")
        assert doc1 == doc2
        assert doc1.startswith("<svg")
        assert "href" not in doc1 and "url(" not in doc1
        assert doc1.count("<polyline") == 2

    def test_handles_degenerate_and_nonfinite(self):
        doc = line_plot([("flat", [1, 1, 1], [2, 2, float("nan")])])
        assert "<polyline" in doc

    def test_writes_file(self, tmp_path):
        path = tmp_path / "plot.svg"
        line_plot([("s", [0, 1], [0, 1])], path=path)
        assert path.read_text().startswith("<svg")


class TestCli:
    def test_threshold_verb_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL)
        code = main(["threshold", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "thresholds.csv").exists()

    def test_generate_verb(self, tmp_path):
        config = MINIMAL.replace("n = 1000", "n = 300")
        path = write_config(tmp_path, config)
        code = main(["generate", "--config", str(path), "--out", str(tmp_path / "g"), "--seed", "5"])
        assert code == 0
        edge_file = tmp_path / "g" / "network.edgelist"
        assert edge_file.read_text().startswith("# nodes=300")

    @pytest.mark.parametrize("network", [
        "kind = configuration\ngamma = 2.4\nk_min = 2\nn = 300",
        "kind = ba\nm = 2\nm0 = 3\nn = 300",
    ], ids=["configuration", "ba"])
    def test_generate_writes_the_graph_simulate_uses(self, tmp_path, network):
        config = f"""\
[scenario]
engine = montecarlo
runs = 1
timeseries = false
workers = 1

[network]
{network}

[model]
lambda = 0.5
alpha = 0.8
t_max = 5
"""
        path = write_config(tmp_path, config)
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "g"), "--seed", "7"]) == 0
        header, *lines = (tmp_path / "g" / "network.edgelist").read_text().splitlines()
        assert header == "# nodes=300"
        written = [tuple(map(int, line.split())) for line in lines]
        used = []
        real = montecarlo.ensemble

        def spy(network, *args, **kwargs):
            used.append(network)
            return real(network, *args, **kwargs)

        with mock.patch.object(montecarlo, "ensemble", spy):
            assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "s"), "--seed", "7"]) == 0
        assert len(used) == 1
        assert used[0].n == 300
        assert written == list(used[0].edges())

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path, MINIMAL.replace("alpha = 0.5", "alpha = 2.0"))
        assert main(["simulate", "--config", str(path)]) == 1
        path = write_config(tmp_path, MINIMAL.replace("n = 1000", "n = 0"), "no_nodes.cfg")
        assert main(["simulate", "--config", str(path)]) == 1

    def test_compare_tolerance_exit_code(self, tmp_path):
        # annealed mean field overshoots the quenched simulation at this point,
        # so the default 0.1 tolerance must trip
        config = """\
[scenario]
engine = both
runs = 8
seed = 6
timeseries = false

[network]
kind = configuration
gamma = 2.4
k_min = 2
n = 2000

[model]
lambda = 0.8
alpha = 0.5
beta = -0.5
seeds = 10
"""
        path = write_config(tmp_path, config)
        code = main(["compare", "--config", str(path), "--out", str(tmp_path / "c")])
        assert code == 3
        assert (tmp_path / "c" / "comparison.csv").exists()

    def test_workers_do_not_change_outputs(self, tmp_path):
        config = """\
[scenario]
engine = both
runs = 2
seed = 11
timeseries = true

[network]
kind = configuration
gamma = 2.4
k_min = 2
n = 500

[model]
lambda = 0.3,0.9
alpha = 0.8
beta = -0.5
t_max = 20

[inoculation]
kind = targeted
g = 0.0,0.05
"""
        path = write_config(tmp_path, config)
        hashes = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(["simulate", "--config", str(path), "--out", str(out), "--workers", workers]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["completed"] == 4
            hashes.append(manifest["files"])
        assert hashes[0] == hashes[1]

    def test_worker_jobs_carry_only_their_point(self, tmp_path, monkeypatch):
        # the run's assets reach each worker once, through the pool's
        # initializer; a job is (index, point) and holds no graph
        seen = {}

        class InlinePool:
            def __init__(self, max_workers, initializer, initargs):
                seen["initargs"] = initargs
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                seen["jobs"] = list(jobs)
                return map(fn, seen["jobs"])

        monkeypatch.setattr(scenario_module, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(scenario_module, "_worker_assets", None)
        config = """\
[scenario]
engine = both
runs = 1
timeseries = false

[network]
kind = configuration
n = 500

[model]
lambda = 0.3,0.9
alpha = 0.8
t_max = 10

[inoculation]
kind = targeted
g = 0.0,0.05
"""
        path = write_config(tmp_path, config)
        out = tmp_path / "w2"
        assert main(["simulate", "--config", str(path), "--out", str(out), "--workers", "2"]) == 0
        assert json.loads((out / "manifest.json").read_text())["completed"] == 4
        assert isinstance(seen["initargs"][2], Network)
        grid = parse_scenario(path).grid()
        assert seen["jobs"] == list(enumerate(grid))
        for job in seen["jobs"]:
            assert len(pickle.dumps(job)) < 200

    def test_simulate_writes_manifest(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "s")])
        assert code == 0
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["completed"] == 3
        for name in manifest["files"]:
            assert os.path.exists(tmp_path / "s" / name)
