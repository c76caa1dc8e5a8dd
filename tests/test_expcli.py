import ast
import concurrent.futures
import dataclasses
import glob
import itertools
import json
import math
import os
import pickle
import re
import sys
from unittest import mock

import numpy as np
import pytest

from rumornet import meanfield, montecarlo
from rumornet.expcli import scenario as scenario_module
from rumornet.expcli import svg as svg_module
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
from rumornet.meanfield import ModelParams, critical_rate, final_rumor_size
from rumornet.netgen import Network

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
                         "sigma_grid", "seeds", "dt_meanfield", "dt_montecarlo",
                         "t_end", "t_max", "inoc_kind", "g_grid", "tolerance")
        } == {
            "name": "scenario", "seed": 0, "out_dir": "out", "workers": 1, "timeseries": True,
            "runs": None, "m": 3, "m0": 5, "sigma_grid": [1.0], "seeds": 1,
            "dt_meanfield": 0.01, "dt_montecarlo": 0.1, "t_end": 100.0, "t_max": 200.0,
            "inoc_kind": "none", "g_grid": [0.0], "tolerance": 0.1,
        }

    def test_key_table_names_each_field_once(self):
        names = [name for name, _, _ in scenario_module._KEYS.values()]
        assert sorted(names) == sorted(field.name for field in dataclasses.fields(Scenario))

    def test_zero_spans_stay_legal_with_any_step(self, tmp_path):
        # only a nonzero span that rounds to zero steps is an error
        text = MINIMAL + "t_end = 0\nt_max = 0\ndt_meanfield = 300\ndt_montecarlo = 500\n"
        scenario = parse_scenario(write_config(tmp_path, text))
        assert (scenario.t_end, scenario.t_max) == (0.0, 0.0)

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

    def test_s0_is_an_unknown_key(self, tmp_path, capsys):
        # seeds is the one starting value; s0 = x reads seeds = round(x n)
        bad = MINIMAL + "s0 = 0.01\n"
        path = write_config(tmp_path, bad)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err == (
            f"config error: {path}:{line_of(bad, 's0 = 0.01')}: unknown key 's0' in [model]\n")
        assert not (tmp_path / "s").exists()

    def test_timeseries_other_than_true_or_false_cites_line_and_key(self, tmp_path):
        bad = MINIMAL.replace("engine = meanfield", "engine = meanfield\ntimeseries = yes")
        with pytest.raises(ScenarioError, match=(
                rf"scenario\.cfg:{line_of(bad, 'timeseries = yes')}: bad value for 'timeseries': "
                r"must be 'true' or 'false', got 'yes'$")):
            parse_scenario(write_config(tmp_path, bad))

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

    @pytest.mark.parametrize("value", ["0.1,,0.5", "0.1,0.5,", "0.1, ,0.5", ",0.1"])
    def test_empty_list_item_cites_line(self, tmp_path, value):
        bad = MINIMAL.replace("lambda = 0.2,0.5,0.9", f"lambda = {value}")
        lineno = line_of(bad, f"lambda = {value}")
        with pytest.raises(ScenarioError, match=rf"scenario\.cfg:{lineno}: bad value for 'lambda': empty item"):
            parse_scenario(write_config(tmp_path, bad))

    def test_missing_file(self):
        with pytest.raises(ScenarioError, match=r"^/nonexistent/path\.cfg: no such file$"):
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


PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def benchmark_scenarios() -> dict[str, str]:
    """Each scenario text the benchmark parses, by name: its workload files
    and the SMALL and FAILING fixtures of its self-test."""
    texts = {}
    for path in sorted(glob.glob(os.path.join(PERFBENCH, "scenarios", "*.ini"))):
        with open(path, encoding="utf-8") as fh:
            texts[os.path.basename(path)] = fh.read()
    with open(os.path.join(PERFBENCH, "selftest.py"), encoding="utf-8") as fh:
        module = ast.parse(fh.read())
    for node in module.body:
        name = getattr(node.targets[0], "id", None) if isinstance(node, ast.Assign) else None
        if name in ("SMALL", "FAILING"):
            texts[name] = ast.literal_eval(node.value)
    return texts


BENCHMARK_SCENARIOS = benchmark_scenarios()


class TestBenchmarkScenarios:
    """The benchmark runs these texts; a key they set must stay a key."""

    def test_all_found(self):
        assert {"mc_outbreak.ini", "mf_timeseries.ini", "phase_diagram.ini", "SMALL", "FAILING"} <= set(
            BENCHMARK_SCENARIOS)

    @pytest.mark.parametrize("name", sorted(BENCHMARK_SCENARIOS))
    def test_parses(self, tmp_path, name):
        parse_scenario(write_config(tmp_path, BENCHMARK_SCENARIOS[name]))


# a value each field's own check rejects, as a file writes it
BAD_VALUES = {
    "name": "", "engine": "warp", "seed": "-1", "out_dir": "", "workers": "0", "runs": "0",
    "net_kind": "er", "n_nodes": "1", "lam_grid": "0.5, -1", "alpha_grid": "0.5, 1.5", "beta_grid": "nan",
    "sigma_grid": "inf", "dt_meanfield": "0", "dt_montecarlo": "-0.1", "t_end": "-1", "t_max": "inf",
    "inoc_kind": "bogus", "g_grid": "1.5", "tolerance": "0",
}
# the Scenario fields that declare a check on their own value, in field order
CHECKED = [f for f in dataclasses.fields(Scenario) if f.metadata["check"] is not None]


def bad_line(f) -> str:
    return f"{f.metadata['key'][1]} = {BAD_VALUES[f.name]}".rstrip()


def scenario_text(*bad, reverse=False) -> str:
    """A valid file with the bad value of each field of ``bad``; its lines in
    field order, or with ``reverse`` in the reverse of it."""
    lines = {("scenario", "engine"): "engine = meanfield", ("network", "n"): "n = 1000",
             ("model", "lambda"): "lambda = 0.5"}
    lines.update({f.metadata["key"][:2]: bad_line(f) for f in bad})
    # _KEYS lists each section's keys together, so they stay together
    locs = sorted(lines, key=list(scenario_module._KEYS).index, reverse=reverse)
    return "".join(f"[{section}]\n" + "".join(lines[loc] + "\n" for loc in group)
                   for section, group in itertools.groupby(locs, key=lambda loc: loc[0]))


class TestFieldChecks:
    def test_every_checked_field_has_a_bad_value(self):
        assert [f.name for f in CHECKED] == list(BAD_VALUES)

    @pytest.mark.parametrize("f", CHECKED, ids=[f.name for f in CHECKED])
    def test_bad_file_value_cites_its_line_and_key(self, tmp_path, f):
        text = scenario_text(f)
        path = write_config(tmp_path, text)
        with pytest.raises(ScenarioError) as raised:
            parse_scenario(path)
        where = f"{path}:{line_of(text, bad_line(f))}: "
        assert str(raised.value).startswith(where)
        assert f"{f.metadata['key'][1]} " in str(raised.value)[len(where):]

    @pytest.mark.parametrize("key", ["seed", "out", "workers"])
    def test_bad_flag_fails_with_the_file_value_text_naming_the_flag(self, tmp_path, capsys, key):
        name, parse, _ = scenario_module._KEYS["scenario", key]
        f = next(f for f in CHECKED if f.name == name)
        with pytest.raises(ScenarioError) as from_file:
            parse_scenario(write_config(tmp_path, scenario_text(f), "bad.cfg"))
        expected = "--" + str(from_file.value).split(": ", 1)[1]
        path = write_config(tmp_path, scenario_text())
        with pytest.raises(ScenarioError, match=f"^{re.escape(expected)}$"):
            parse_scenario(path, {key: parse(BAD_VALUES[name])})
        assert main(["simulate", "--config", str(path), f"--{key}", BAD_VALUES[name]]) == 1
        assert capsys.readouterr().err == f"config error: {expected}\n"

    @pytest.mark.parametrize("key, file_value, flag_value", [("seed", "4", 9), ("out", "a", "b"), ("workers", "2", 3)])
    def test_valid_flag_replaces_the_file_value(self, tmp_path, key, file_value, flag_value):
        path = write_config(tmp_path, scenario_text().replace("[scenario]\n", f"[scenario]\n{key} = {file_value}\n"))
        name = scenario_module._KEYS["scenario", key][0]
        assert getattr(parse_scenario(path, {key: flag_value}), name) == flag_value
        # a flag that is not given leaves the file's value
        assert str(getattr(parse_scenario(path, {key: None}), name)) == file_value

    @pytest.mark.parametrize("first, second", zip(CHECKED, CHECKED[1:]), ids=[f.name for f in CHECKED[1:]])
    def test_of_two_bad_values_the_first_field_is_reported(self, tmp_path, first, second):
        # the later field's line comes first in the file
        text = scenario_text(first, second, reverse=True)
        assert line_of(text, bad_line(first)) > line_of(text, bad_line(second))
        path = write_config(tmp_path, text)
        with pytest.raises(ScenarioError) as raised:
            parse_scenario(path)
        assert str(raised.value).startswith(f"{path}:{line_of(text, bad_line(first))}: ")


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

    def test_montecarlo_timeseries_rows(self, tmp_path):
        config = MINIMAL.replace("engine = meanfield", "engine = both\nruns = 3\nseed = 5").replace(
            "n = 1000", "n = 400").replace("lambda = 0.2,0.5,0.9", "lambda = 0.3,1.0") + """t_end = 5
dt_montecarlo = 0.2
t_max = 200

[inoculation]
kind = targeted
g = 0,0.05
"""
        scenario = parse_scenario(write_config(tmp_path, config))
        out = tmp_path / "out"
        assert run_scenario(scenario, out_dir=str(out))["completed"] == 4

        def table(name):
            lines = [line for line in (out / name).read_text().splitlines() if not line.startswith("#")]
            return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]

        final = {int(row["point"]): float(row["R_mc_mean"]) for row in table("final_size.csv")}
        blocks = [(key, list(rows)) for key, rows in
                  itertools.groupby(table("timeseries.csv"), key=lambda row: (int(row["point"]), row["engine"]))]
        # one mean-field block, then one Monte Carlo block, per point
        assert [key for key, _ in blocks] == [(p, engine) for p in range(4) for engine in ("meanfield", "montecarlo")]
        for (point, engine), rows in blocks:
            if engine != "montecarlo":
                continue
            times = [float(row["t"]) for row in rows]
            r = [float(row["R"]) for row in rows]
            # every run ended before t_max, so each curve stops short of it
            assert len(times) < round(scenario.t_max / scenario.dt_montecarlo) + 1
            assert times == [k * scenario.dt_montecarlo for k in range(len(times))]
            assert all(later >= earlier for earlier, later in zip(r, r[1:]))
            assert r[-1] == pytest.approx(final[point], rel=1e-12)

    def test_meanfield_r_increases_with_lambda(self, tmp_path):
        scenario = parse_scenario(write_config(tmp_path, MINIMAL))
        out = tmp_path / "out"
        run_scenario(scenario, out_dir=str(out))
        rows = [line.split(",") for line in (out / "final_size.csv").read_text().splitlines()
                if line and not line.startswith("#")][1:]
        rs = [float(row[-1]) for row in rows]
        assert rs == sorted(rs)

    def test_each_family_table_built_once_per_run(self, tmp_path, monkeypatch):
        builds = []
        family_table = meanfield._family_table

        def counting_table(dist, alpha, beta, plan):
            table = family_table(dist, alpha, beta, plan)
            if not builds or builds[-1][1] is not table:
                builds.append(((alpha, beta, plan), table, dist))
            return table

        monkeypatch.setattr(meanfield, "_family_table", counting_table)
        lambdas = ",".join(f"{0.05 * i:g}" for i in range(1, 25))
        config = MINIMAL.replace("lambda = 0.2,0.5,0.9", f"lambda = {lambdas}").replace(
            "alpha = 0.5", "alpha = 0.5,0.8") + """sigma = 1,2
t_end = 2

[inoculation]
kind = targeted
g = 0,0.05,0.1
"""
        scenario = parse_scenario(write_config(tmp_path, config))
        assert len(scenario.grid()) == 24 * 2 * 2 * 3
        run_scenario(scenario, out_dir=str(tmp_path / "out"))
        # the final sizes and the curves of a family's 48 points (lambda and
        # sigma) read one table, built once, on the run's one distribution
        (dist,) = {id(dist): dist for _, _, dist in builds}.values()
        families = [key for key, _, _ in builds]
        plans = scenario.plans(dist)
        assert families == [(alpha, -0.5, plans[g]) for alpha in (0.5, 0.8) for g in (0.0, 0.05, 0.1)]


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

    @pytest.mark.parametrize("inoculation", ["kind = none", "kind = random\ng = 0.01,0.05,0.3",
                                             "kind = targeted\ng = 0.01,0.05,0.3"],
                             ids=["none", "random", "targeted"])
    def test_written_lambda_c_is_where_the_outbreak_starts(self, tmp_path, inoculation):
        # R_mf is exactly 0 at the lambda_c thresholds.csv writes and positive
        # just above it, on the phase_diagram law, for every family and sigma
        config = f"""\
[network]
kind = configuration
gamma = 2.4
k_min = 2
n = 100000

[model]
lambda = 1.0
alpha = 0.5,0.65,0.8,1.0
beta = -0.5,0,0.5
sigma = 0.5,1,2

[inoculation]
{inoculation}
"""
        path = write_config(tmp_path, config)
        assert main(["threshold", "--config", str(path), "--out", str(tmp_path / "t")]) == 0
        lines = (tmp_path / "t" / "thresholds.csv").read_text().splitlines()
        header, *data = [line.split(",") for line in lines if not line.startswith("#")]
        scenario = parse_scenario(path)
        dist = build_network(scenario, graph=False)[0]
        assert len(data) == len(scenario.grid())
        for cells in data:
            row = dict(zip(header, cells))
            alpha, beta, sigma, g, lambda_c = (float(row[key]) for key in ("alpha", "beta", "sigma", "g", "lambda_c"))
            plan = scenario.plan_for(dist, g)
            at = ModelParams(lam=lambda_c, alpha=alpha, beta=beta, sigma=sigma)
            above = ModelParams(lam=lambda_c * (1 + 1e-9), alpha=alpha, beta=beta, sigma=sigma)
            assert final_rumor_size(dist, at, plan) == 0.0, row
            assert final_rumor_size(dist, above, plan) > 0.0, row

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

    @pytest.mark.parametrize("network, k_min", [
        ("kind = configuration\ngamma = 2.6\nk_min = 3\nn = 2000", 3),
        ("kind = ba\nm = 2\nm0 = 3\nn = 2000", 2),
    ], ids=["configuration", "ba"])
    def test_classic_column(self, tmp_path, network, k_min):
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
        # the classic model's lambda_c on the distribution simulate uses: the
        # discrete <k>/<k**2> of the (alpha=1, beta=0, no plan) family
        dist = build_network(parse_scenario(path), graph=False)[0]
        assert dist.k_min == k_min
        classic = critical_rate(dist, 1.0, 0.0)
        assert classic == pytest.approx((dist.probs @ dist.power(1.0)) / (dist.probs @ dist.power(2.0)), rel=1e-14)
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

    @pytest.mark.parametrize("network, alpha, beta, regimes", [
        # a2 = alpha + beta + 2 - gamma at gamma=2.4 is -0.7, -0.2, -0.5, 0,
        # -0.1 and 0.4; alpha=0.4, beta=0 sits on the boundary
        ("kind = configuration\ngamma = 2.4\nk_min = 2\nn = 1000", "0.2,0.4,0.8", "-0.5,0",
         ["finite-independent", "finite-independent", "finite-independent", "logarithmic",
          "finite-independent", "vanishing"]),
        # a BA network's regime is that of gamma=3, whatever its gamma key
        ("kind = ba\ngamma = 2.4\nm = 2\nm0 = 3\nn = 300", "0.5,1.0", "0,0.5",
         ["finite-independent", "logarithmic", "logarithmic", "vanishing"]),
    ], ids=["configuration", "ba"])
    def test_regime_column(self, tmp_path, network, alpha, beta, regimes):
        config = f"""\
[network]
{network}

[model]
lambda = 0.5
alpha = {alpha}
beta = {beta}
"""
        path = write_config(tmp_path, config)
        assert main(["threshold", "--config", str(path), "--out", str(tmp_path / "t")]) == 0
        lines = (tmp_path / "t" / "thresholds.csv").read_text().splitlines()
        header, *data = [line.split(",") for line in lines if not line.startswith("#")]
        assert [row[header.index("regime")] for row in data] == regimes


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

    def test_compare_integrates_no_curve(self, tmp_path, monkeypatch):
        # comparison.csv holds final sizes only, so timeseries = true adds no work
        config = MINIMAL.replace("engine = meanfield", "engine = both\nruns = 1\ntimeseries = true").replace(
            "n = 1000", "n = 300")
        scenario = parse_scenario(write_config(tmp_path, config))
        assert scenario.timeseries

        def integrate(*args, **kwargs):
            raise AssertionError("compare integrated a curve")

        monkeypatch.setattr(scenario_module, "integrate", integrate)
        report = compare_engines(scenario)
        assert report["failures"] == []
        assert [row["point"] for row in report["rows"]] == [0, 1, 2]

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

    @pytest.mark.parametrize("value", [1e16, 1e20, 1e300, -1e300])
    def test_one_value_axis_at_any_magnitude(self, value):
        # +-0.5 is lost to rounding there; the point lands mid-axis either way
        x_doc = line_plot([("x", [value], [0.5])])
        y_doc = line_plot([("y", [0.0, 1.0], [value, value])])
        assert '<polyline points="383.00,' in x_doc
        assert '<polyline points="62.00,224.00 704.00,224.00"' in y_doc
        for doc in (x_doc, y_doc):
            assert "nan" not in doc and "inf" not in doc
            assert doc.count("<line") >= 4

    def test_one_value_axis_keeps_its_half_unit_padding(self):
        # below 2**51 - 1 the padding is the +-0.5 it always was
        for value in (0.0, 1.0, -3.25, 1e15, 2.0**51 - 2.0, -(2.0**51 - 2.0)):
            assert svg_module._widened(value, value) == (value - 0.5, value + 0.5)
        assert svg_module._widened(0.0, 1.0) == (0.0, 1.0)

    def test_ticks_end_on_a_range_a_few_doubles_wide(self):
        # the step of 0.5 is half the spacing of the doubles at 2**52, so it
        # does not move a tick; each next tick is then the next double
        assert svg_module._nice_ticks(2.0**52, 2.0**52 + 2) == [2.0**52, 2.0**52 + 1, 2.0**52 + 2]
        doc = line_plot([("a", [2.0**52, 2.0**52 + 2], [0, 1])])
        assert "nan" not in doc and "inf" not in doc

    def test_tick_labels_take_the_fewest_digits_that_tell_them_apart(self):
        # at 6 significant digits each x label read 4.5036e+15
        doc = line_plot([("a", [2.0**52, 2.0**52 + 2], [0, 1])])
        x_labels = re.findall(r'text-anchor="middle" font-family="sans-serif" font-size="11">([^<]*)<', doc)
        y_labels = re.findall(r'text-anchor="end" font-family="sans-serif" font-size="11">([^<]*)<', doc)
        assert x_labels == ["4503599627370496", "4503599627370497", "4503599627370498"]
        # the y ticks differ at 6 digits, so they keep them (0.6000000000000001 reads 0.6)
        assert y_labels == ["0", "0.2", "0.4", "0.6", "0.8", "1"]
        assert svg_module._labelled([1.0, 1.0000001]) == [(1.0, "1"), (1.0000001, "1.0000001")]
        assert svg_module._labelled([1.0, math.nextafter(1.0, 2.0)])[1][1] == "1.0000000000000002"

    def test_range_wider_than_the_largest_double(self):
        assert svg_module._nice_ticks(-1e308, 1e308) == [-1e308, -5e307, 0.0, 5e307, 1e308]
        top = sys.float_info.max
        for xs, ys in (([-1e308, 1e308], [0, 1]), ([0, 1], [-top, top]), ([top], [top]), ([-top, top], [top, -top])):
            doc = line_plot([("a", xs, ys)])
            assert "nan" not in doc and "inf" not in doc
            assert doc.count("<polyline") == 1 and doc.count("<line") >= 4

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

    @pytest.mark.parametrize("flag, value", [("--seed", "x"), ("--workers", "1.5")])
    def test_flag_value_that_does_not_parse_is_a_config_error(self, tmp_path, capsys, flag, value):
        # argparse once rejected these itself, with its usage text and exit 2
        path = write_config(tmp_path, MINIMAL)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o"), flag, value]) == 1
        assert capsys.readouterr().err.startswith(f"config error: bad value for '{flag}': ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["directory", "utf-16 bytes"])
    def test_config_that_cannot_be_read_as_text_is_a_config_error(self, tmp_path, capsys, kind):
        # both once escaped main as a traceback
        path = tmp_path / "scenario.cfg"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe" + MINIMAL.encode("utf-16-le"))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: ") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line", [
        "seeds = 0", "seeds = 500", "dt_meanfield = 0", "dt_montecarlo = -0.1", "t_end = -1", "t_max = -1",
        "lambda = 0.5, inf", "beta = nan", "sigma = 1, inf", "t_end = inf", "t_max = inf", "dt_meanfield = inf",
        "dt_meanfield = 300", "t_end = 0.004", "dt_montecarlo = 500", "t_max = 0.04", "seed = -3",
        "t_end = 1e308", "t_max = 1e308",
    ])
    def test_value_every_point_would_fail_on_is_a_config_error(self, tmp_path, capsys, line):
        # each of these once parsed; then every grid point failed at run time,
        # or (seed = -3) the graph build did, or (t_max, dt_montecarlo = 500)
        # the Monte Carlo took no step and reported the seed fraction, or
        # (dt_meanfield = inf or 300, t_end = 0.004) the curve had one sample,
        # or (t_end, t_max = 1e308) round(t / dt) escaped main as an
        # OverflowError; a span that rounds to zero steps, or to too many to
        # count, cites its dt line when the file has one, else its t line
        lambdas = "" if line.startswith("lambda") else "lambda = 0.5, 1.0\n"
        # seed is the one key here of [scenario]
        scenario_line, model_line = (f"{line}\n", "") if line.startswith("seed") else ("", f"{line}\n")
        config = f"""\
[scenario]
engine = both
runs = 1
{scenario_line}
[network]
n = 200

[model]
{lambdas}{model_line}"""
        path = write_config(tmp_path, config)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"{path}:{line_of(config, line)}: " in capsys.readouterr().err

    def test_negative_seed_override_is_a_config_error(self, tmp_path, capsys):
        # it once failed the graph build: exit 2, "expected non-negative integer"
        path = write_config(tmp_path, MINIMAL.replace("n = 1000", "n = 300"))
        assert main(["generate", "--config", str(path), "--out", str(tmp_path / "g"), "--seed", "-2"]) == 1
        assert "config error: --seed must be >= 0, got -2" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_a_config_error(self, tmp_path, capsys, workers):
        # both were once run as workers = 1 without a word
        config = MINIMAL.replace("engine = meanfield", f"engine = meanfield\nworkers = {workers}")
        path = write_config(tmp_path, config)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "file")]) == 1
        assert f"{path}:{line_of(config, f'workers = {workers}')}: workers must be >= 1, got {workers}" in (
            capsys.readouterr().err)
        path = write_config(tmp_path, MINIMAL, name="flag.cfg")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "flag"), "--workers", workers]) == 1
        assert f"config error: --workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not (tmp_path / "file").exists() and not (tmp_path / "flag").exists()

    @pytest.mark.parametrize("key", ["out", "name"])
    def test_empty_out_or_name_is_a_config_error(self, tmp_path, capsys, key):
        # an empty out once failed os.makedirs(""), exit 2; an empty name
        # was written into every CSV header as "# scenario="
        config = MINIMAL.replace("engine = meanfield", f"engine = meanfield\n{key} =")
        path = write_config(tmp_path, config)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "s")]) == 1
        assert f"{path}:{line_of(config, f'{key} =')}: {key} must not be empty" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_empty_out_override_is_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL)
        assert main(["simulate", "--config", str(path), "--out", ""]) == 1
        assert "config error: --out must not be empty" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "0", "-0.1"])
    def test_tolerance_no_point_can_pass_is_a_config_error(self, tmp_path, capsys, value):
        # the check is deviation < tolerance, so each of these once failed
        # every point and made compare exit 3
        config = f"""\
[scenario]
engine = both
runs = 1

[network]
n = 200

[model]
lambda = 0.5

[compare]
tolerance = {value}
"""
        path = write_config(tmp_path, config)
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"{path}:{line_of(config, f'tolerance = {value}')}: tolerance must be finite and > 0" in err
        assert not (tmp_path / "out").exists()

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

        # the pool is imported where it runs, from concurrent.futures
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
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
        # the jobs run grouped by family, each (index, point) once
        grid = parse_scenario(path).grid()
        assert sorted(seen["jobs"], key=lambda job: job[0]) == list(enumerate(grid))
        assert [index for index, _ in seen["jobs"]] == [0, 2, 1, 3]
        for job in seen["jobs"]:
            assert len(pickle.dumps(job)) < 200

    def test_simulate_at_a_huge_lambda_writes_its_plot(self, tmp_path):
        config = MINIMAL.replace("lambda = 0.2,0.5,0.9", "lambda = 1e20").replace(
            "engine = meanfield", "engine = meanfield\ntimeseries = false")
        path = write_config(tmp_path, config)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["completed"] == 1 and sorted(manifest["files"]) == ["final_size.csv", "final_size.svg"]

    def test_simulate_over_a_lambda_range_a_few_doubles_wide(self, tmp_path):
        # the final-size plot's lambda axis spans two doubles of spacing 1
        config = MINIMAL.replace("lambda = 0.2,0.5,0.9", "lambda = 4503599627370496, 4503599627370498").replace(
            "engine = meanfield", "engine = meanfield\ntimeseries = false")
        path = write_config(tmp_path, config)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
        assert json.loads((tmp_path / "s" / "manifest.json").read_text())["completed"] == 2

    @pytest.mark.parametrize("n, seeds", [(2000, 10), (50, 50)])
    def test_both_engines_start_from_seeds_over_n(self, tmp_path, n, seeds):
        # seeds = n starts every node spreading, which the mean field's
        # initial state must also allow
        config = f"""\
[scenario]
engine = both
runs = 1
timeseries = true

[network]
n = {n}

[model]
lambda = 0.5
seeds = {seeds}
t_end = 1
t_max = 1
"""
        path = write_config(tmp_path, config)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
        lines = (tmp_path / "s" / "timeseries.csv").read_text().splitlines()
        header, *rows = [line.split(",") for line in lines if not line.startswith("#")]
        start = {row[1]: float(row[header.index("S")]) for row in rows if float(row[header.index("t")]) == 0.0}
        assert sorted(start) == ["meanfield", "montecarlo"]
        for value in start.values():
            assert abs(value - seeds / n) <= 1e-12

    def test_simulate_writes_manifest(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "s")])
        assert code == 0
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["completed"] == 3
        for name in manifest["files"]:
            assert os.path.exists(tmp_path / "s" / name)
