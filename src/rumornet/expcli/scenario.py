"""Declarative experiment scenarios: parse, sweep, export.

A scenario file is flat ``key = value`` text under ``[section]`` headers with
comma-separated lists for parameter grids and ``#`` comments.  ``_KEYS`` is
the reference for the keys a file may set and the default of each.  Running one
produces a CSV per plot family plus one SVG per CSV and a manifest with
content hashes; re-running with the same master seed reproduces identical
bytes.  Every random stream is keyed to (master seed, grid-point index,
run index), never to execution order, so grid points can run in any order or
in parallel without changing the output.

The benchmark in ``perfbench/`` binds names of this module from outside the
package, so they keep their names and every call goes through them:

* its tracer wraps the module globals ``build_ba_network``,
  ``build_configuration_network``, ``sample_powerlaw_distribution``,
  ``integrate``, ``final_rumor_size``, ``make_random_plan``,
  ``make_targeted_plan`` and ``line_plot``;
* its output checks import ``make_targeted_plan`` from here and read the
  Scenario fields ``name``, ``engine``, ``timeseries``, ``net_kind``,
  ``gamma``, ``k_min``, ``n_nodes``, ``lam_grid`` and ``inoc_kind``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .. import montecarlo
from ..inoculation import KIND_RANDOM, InoculationPlan, make_random_plan, make_targeted_plan
from ..meanfield import ModelParams, final_rumor_size, integrate, uniform_seed_state
from ..netgen import (
    DegreeDistribution,
    Network,
    build_ba_network,
    build_configuration_network,
    sample_powerlaw_distribution,
)
from .svg import line_plot

__all__ = [
    "Scenario",
    "ScenarioError",
    "build_network",
    "compare_engines",
    "parse_scenario",
    "run_scenario",
    "threshold_table",
    "write_comparison",
    "write_distribution_csv",
    "write_threshold_table",
]

ENGINES = ("meanfield", "montecarlo", "both")
NETWORK_KINDS = ("configuration", "ba")
INOC_KINDS = ("none", "random", "targeted")


class ScenarioError(ValueError):
    """Malformed or invalid scenario configuration."""


# each sweep axis, by its name in a grid point and a CSV column, to the
# Scenario field that holds its grid; in grid order, which numbers the points
_AXES = {"lambda": "lam_grid", "alpha": "alpha_grid", "beta": "beta_grid", "sigma": "sigma_grid", "g": "g_grid"}


@dataclass
class Scenario:
    name: str
    engine: str
    seed: int
    out_dir: str
    workers: int
    timeseries: bool
    runs: int | None
    net_kind: str
    gamma: float
    k_min: int
    n_nodes: int
    m: int
    m0: int
    lam_grid: list[float]
    alpha_grid: list[float]
    beta_grid: list[float]
    sigma_grid: list[float]
    inoc_kind: str
    g_grid: list[float]
    s0: float
    mc_seeds: int
    dt_meanfield: float
    dt_montecarlo: float
    t_end: float
    t_max: float
    tolerance: float

    def grid(self) -> list[dict]:
        """Cartesian product of the parameter grids, in ``_AXES`` order."""
        return [dict(zip(_AXES, values)) for values in product(*(getattr(self, f) for f in _AXES.values()))]

    def plan_for(self, dist: DegreeDistribution, g: float) -> InoculationPlan | None:
        if self.inoc_kind == "none" or g == 0.0:
            return None
        if self.inoc_kind == "random":
            return make_random_plan(g)
        return make_targeted_plan(dist, g)

    def plans(self, dist: DegreeDistribution) -> dict[float, InoculationPlan | None]:
        """The plan of every ``g`` of the grid, each built once."""
        return {g: self.plan_for(dist, g) for g in self.g_grid}


# ---------------------------------------------------------------------------
# parsing

def _parse_lines(path):
    """Raw (section, key) -> (value, lineno) map with syntax checking."""
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    section = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if not section:
                    raise ScenarioError(f"{path}:{lineno}: empty section name")
                continue
            if "=" not in line:
                raise ScenarioError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            if section is None:
                raise ScenarioError(f"{path}:{lineno}: key outside any [section]")
            key, value = (part.strip() for part in line.split("=", 1))
            if (section, key) in entries:
                raise ScenarioError(f"{path}:{lineno}: duplicate key '{key}' in [{section}]")
            entries[(section, key)] = (value, lineno)
    return entries


def _float_list(text: str) -> list[float]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ValueError("empty list")
    return [float(item) for item in items]


_REQUIRED = object()

# (section, key) -> (Scenario field, parser, default).  A text default goes
# through the parser as if the file held it.  None means unset; for ``name``,
# ``s0`` and ``seeds`` it means worked out from other fields.
_KEYS = {
    ("scenario", "name"): ("name", str, None),
    ("scenario", "engine"): ("engine", str, "meanfield"),
    ("scenario", "seed"): ("seed", int, "0"),
    ("scenario", "out"): ("out_dir", str, "out"),
    ("scenario", "workers"): ("workers", int, "1"),
    ("scenario", "timeseries"): ("timeseries", str, "true"),
    ("scenario", "runs"): ("runs", int, None),
    ("network", "kind"): ("net_kind", str, "configuration"),
    ("network", "gamma"): ("gamma", float, "2.4"),
    ("network", "k_min"): ("k_min", int, "2"),
    ("network", "n"): ("n_nodes", int, _REQUIRED),
    ("network", "m"): ("m", int, "3"),
    ("network", "m0"): ("m0", int, "5"),
    ("model", "lambda"): ("lam_grid", _float_list, _REQUIRED),
    ("model", "alpha"): ("alpha_grid", _float_list, "1.0"),
    ("model", "beta"): ("beta_grid", _float_list, "0.0"),
    ("model", "sigma"): ("sigma_grid", _float_list, "1.0"),
    ("model", "s0"): ("s0", float, None),
    ("model", "seeds"): ("mc_seeds", int, None),
    # the time between samples of the mean-field curve; the integrator
    # chooses its own steps
    ("model", "dt_meanfield"): ("dt_meanfield", float, "0.01"),
    ("model", "dt_montecarlo"): ("dt_montecarlo", float, "0.1"),
    ("model", "t_end"): ("t_end", float, "100.0"),
    ("model", "t_max"): ("t_max", float, "200.0"),
    ("inoculation", "kind"): ("inoc_kind", str, "none"),
    ("inoculation", "g"): ("g_grid", _float_list, "0.0"),
    ("compare", "tolerance"): ("tolerance", float, "0.1"),
}


def parse_scenario(path) -> Scenario:
    """Parse and validate a scenario file.

    Every complaint about a line in the file cites its physical line number,
    counting blank and comment lines.  A missing required key (``[network] n``,
    ``[model] lambda``) has no line to cite, so its complaint cites the file only.
    """
    if not os.path.exists(path):
        raise ScenarioError(f"{path}: no such file")
    entries = _parse_lines(path)

    for (section, key), (_, lineno) in entries.items():
        if (section, key) not in _KEYS:
            raise ScenarioError(f"{path}:{lineno}: unknown key '{key}' in [{section}]")

    fields = {name: parse(default) if isinstance(default, str) else default
              for name, parse, default in _KEYS.values()}
    lines: dict[str, int] = {}
    for loc, (text, lineno) in entries.items():
        name, parse, _ = _KEYS[loc]
        try:
            fields[name] = parse(text)
        except ValueError as exc:
            raise ScenarioError(f"{path}:{lineno}: bad value for '{loc[1]}': {exc}") from None
        lines[name] = lineno

    def fail(name: str, message: str):
        lineno = lines.get(name)
        where = f"{path}:{lineno}" if lineno is not None else str(path)
        raise ScenarioError(f"{where}: {message}")

    def require(name: str):
        if fields[name] is _REQUIRED:
            section, key = next(loc for loc, spec in _KEYS.items() if spec[0] == name)
            fail(name, f"missing required key '{key}' in [{section}]")
        return fields[name]

    # os.makedirs fails on an empty out, and an empty name would head every
    # CSV as "# scenario="
    for name, key in (("name", "name"), ("out_dir", "out")):
        if fields[name] == "":
            fail(name, f"{key} must not be empty")
    engine = fields["engine"]
    if engine not in ENGINES:
        fail("engine", f"engine must be one of {ENGINES}, got '{engine}'")
    if fields["timeseries"] not in ("true", "false"):
        fail("timeseries", "timeseries must be 'true' or 'false'")
    runs = fields["runs"]
    if engine in ("montecarlo", "both") and runs is None:
        fail("engine", f"[scenario] runs is required when engine={engine}")
    if runs is not None and runs < 1:
        fail("runs", "runs must be >= 1")

    kind = fields["net_kind"]
    if kind not in NETWORK_KINDS:
        fail("net_kind", f"network kind must be one of {NETWORK_KINDS}, got '{kind}'")
    n_nodes = require("n_nodes")
    if n_nodes < 2:
        fail("n_nodes", f"n must be >= 2, got {n_nodes}")
    if kind == "configuration" and not 2.0 < fields["gamma"] <= 3.0:
        fail("gamma", f"gamma must lie in (2, 3], got {fields['gamma']}")
    if kind == "configuration" and fields["k_min"] < 1:
        fail("k_min", f"k_min must be >= 1, got {fields['k_min']}")
    m, m0 = fields["m"], fields["m0"]
    if kind == "ba" and not n_nodes > m0 >= m >= 1:
        fail("m", f"need n > m0 >= m >= 1, got n={n_nodes}, m0={m0}, m={m}")

    require("lam_grid")
    for name, check, what in (
        ("lam_grid", lambda v: 0 <= v < math.inf, "lambda values must be finite and >= 0"),
        ("alpha_grid", lambda v: 0 < v <= 1, "alpha values must lie in (0, 1]"),
        ("beta_grid", math.isfinite, "beta values must be finite"),
        ("sigma_grid", lambda v: 0 < v < math.inf, "sigma values must be finite and > 0"),
    ):
        for v in fields[name]:
            if not check(v):
                fail(name, f"{what} (got {v})")

    if fields["inoc_kind"] not in INOC_KINDS:
        fail("inoc_kind", f"inoculation kind must be one of {INOC_KINDS}")
    for v in fields["g_grid"]:
        if not 0.0 <= v <= 1.0:
            fail("g_grid", f"g values must lie in [0, 1] (got {v})")
    if fields["inoc_kind"] == "none" and any(v != 0.0 for v in fields["g_grid"]):
        fail("g_grid", "nonzero g requires inoculation kind random or targeted")

    for name, check, what in (
        # numpy's SeedSequence, which keys every random stream, takes no negative seed
        ("seed", lambda v: v >= 0, "seed must be >= 0"),
        ("workers", lambda v: v >= 1, "workers must be >= 1"),
        ("s0", lambda v: v is None or 0.0 < v < 1.0, "s0 must lie in (0, 1)"),
        ("mc_seeds", lambda v: v is None or 1 <= v <= n_nodes, f"seeds must lie in [1, n] = [1, {n_nodes}]"),
        ("dt_meanfield", lambda v: 0 < v < math.inf, "dt_meanfield must be finite and > 0"),
        ("dt_montecarlo", lambda v: 0 < v < math.inf, "dt_montecarlo must be finite and > 0"),
        ("t_end", lambda v: 0 <= v < math.inf, "t_end must be finite and >= 0"),
        ("t_max", lambda v: 0 <= v < math.inf, "t_max must be finite and >= 0"),
        ("tolerance", lambda v: 0 < v < math.inf, "tolerance must be finite and > 0"),
    ):
        if not check(fields[name]):
            fail(name, f"{what}, got {fields[name]}")
    # a nonzero span of round(t / dt) == 0 steps would give a curve of the
    # initial state alone, or Monte Carlo runs that take no step
    for span, step in (("t_end", "dt_meanfield"), ("t_max", "dt_montecarlo")):
        t, dt = fields[span], fields[step]
        if t > 0 and round(t / dt) == 0:
            fail(step if step in lines else span, f"{span} = {t} rounds to zero steps of {step} = {dt}")

    if fields["s0"] is None:
        fields["s0"] = 1.0 / n_nodes
    if fields["mc_seeds"] is None:
        fields["mc_seeds"] = max(1, int(round(fields["s0"] * n_nodes)))
    if fields["name"] is None:
        fields["name"] = os.path.splitext(os.path.basename(str(path)))[0]
    fields["timeseries"] = fields["timeseries"] == "true"
    return Scenario(**fields)


# ---------------------------------------------------------------------------
# execution

def build_network(scenario: Scenario, graph: bool = True) -> tuple[DegreeDistribution, Network | None]:
    """The degree distribution analytics use, with the scenario's graph if
    ``graph`` is set.

    The graph's random stream is keyed to the master seed alone, so every verb
    that builds it gets the same graph: a BA graph comes with its empirical
    distribution, a configuration graph with the power law it realizes.  A BA
    distribution is the empirical one of its graph, so a BA scenario always
    builds the graph; a configuration scenario without one draws no random
    numbers.
    """
    if scenario.net_kind == "configuration":
        dist = sample_powerlaw_distribution(scenario.gamma, scenario.k_min, scenario.n_nodes)
        if not graph:
            # numpy.random is imported on first use; a mean-field-only run never loads it
            return dist, None
    rng = np.random.default_rng(montecarlo._run_seed(scenario.seed, 0))
    if scenario.net_kind == "ba":
        network = build_ba_network(scenario.n_nodes, scenario.m0, scenario.m, rng)
        return network.empirical_distribution(), network
    return dist, build_configuration_network(dist, scenario.n_nodes, rng)


def _point_result(scenario: Scenario, dist, network, plans, index: int, point: dict) -> dict:
    params = ModelParams(
        lam=point["lambda"], alpha=point["alpha"], beta=point["beta"], sigma=point["sigma"]
    )
    plan = plans[point["g"]]
    result: dict = {"point": index, **point}
    if scenario.engine in ("meanfield", "both"):
        result["r_mf"] = final_rumor_size(dist, params, plan)
        if scenario.timeseries:
            steps = int(round(scenario.t_end / scenario.dt_meanfield))
            stride = max(1, steps // 400)
            traj = integrate(
                uniform_seed_state(dist, scenario.s0), dist, params, plan,
                t_end=scenario.t_end, dt=scenario.dt_meanfield, sample_every=stride,
            )
            result["mf_curve"] = (traj.times, traj.i, traj.s, traj.r)
    if scenario.engine in ("montecarlo", "both"):
        summary = montecarlo.ensemble(
            network, params, plan=plan, runs=scenario.runs, seeds=scenario.mc_seeds,
            dt=scenario.dt_montecarlo, t_max=scenario.t_max,
            master_seed=montecarlo._run_seed(scenario.seed, 1 + index),
            keep_traces=scenario.timeseries,
        )
        result["r_mc_mean"] = summary.mean_final_r
        result["r_mc_std"] = summary.std_final_r
        result["peak_s_mean"] = summary.mean_peak_s
        if scenario.timeseries:
            result["mc_curve"] = montecarlo.mean_trace(summary.traces)
    return result


def _point_job(assets, job):
    """Run one grid point ``job = (index, point)`` on the run's
    ``assets = (scenario, dist, network, plans)``."""
    idx, point = job
    try:
        return "ok", _point_result(*assets, idx, point)
    except Exception as exc:
        return "err", {"point": idx, "params": point, "error": f"{type(exc).__name__}: {exc}"}


# the run's assets in a worker process, set once by the pool's initializer
_worker_assets = None


def _init_worker(*assets) -> None:
    global _worker_assets
    _worker_assets = assets


def _worker_job(job):
    return _point_job(_worker_assets, job)


def _family_order(job) -> tuple:
    """The key that runs a mean-field family's points, one (alpha, beta, g)
    for every lambda and sigma, in a row, each family in point order."""
    index, point = job
    return point["alpha"], point["beta"], point["g"], point["sigma"], index


def _collect_results(scenario: Scenario) -> tuple[list[dict], list[dict]]:
    """Run every grid point; results in point order, a failed point recorded, never fatal.

    The graph and the inoculation plans are built once per run.  With several
    workers each worker process receives them once, and a job carries only
    its point.  The points run grouped by family (_family_order): the
    mean-field solvers keep only the last family's table of per-class terms,
    so a family's points in a row build it once.  Every random stream is
    keyed to the point's index, so the order moves no number, and the
    outcomes are put back in point order before anything is written.
    """
    dist, network = build_network(scenario, graph=scenario.engine in ("montecarlo", "both"))
    assets = (scenario, dist, network, scenario.plans(dist))
    jobs = sorted(enumerate(scenario.grid()), key=_family_order)
    if scenario.workers > 1 and len(jobs) > 1:
        # imported here, so a one-worker run never loads the process pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=scenario.workers, initializer=_init_worker,
                                 initargs=assets) as pool:
            outcomes = list(pool.map(_worker_job, jobs))
    else:
        outcomes = [_point_job(assets, job) for job in jobs]
    outcomes.sort(key=lambda outcome: outcome[1]["point"])
    results = [payload for status, payload in outcomes if status == "ok"]
    failures = [payload for status, payload in outcomes if status == "err"]
    return results, failures


def _audit_header(scenario: Scenario) -> list[str]:
    return [
        f"# scenario={scenario.name}",
        f"# engine={scenario.engine} seed={scenario.seed}",
        f"# network kind={scenario.net_kind} gamma={scenario.gamma} k_min={scenario.k_min} "
        f"n={scenario.n_nodes} m={scenario.m} m0={scenario.m0}",
        f"# lambda={','.join(map(str, scenario.lam_grid))} alpha={','.join(map(str, scenario.alpha_grid))} "
        f"beta={','.join(map(str, scenario.beta_grid))} sigma={','.join(map(str, scenario.sigma_grid))}",
        f"# inoculation kind={scenario.inoc_kind} g={','.join(map(str, scenario.g_grid))}",
        f"# runs={scenario.runs} seeds={scenario.mc_seeds} dt_mf={scenario.dt_meanfield} "
        f"dt_mc={scenario.dt_montecarlo} t_end={scenario.t_end} t_max={scenario.t_max}",
    ]


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):  # bool, int, numpy integer
        return str(int(value))
    return repr(float(value))


def _write_csv(path, columns: list[str], rows, header=()) -> None:
    """Write the ``header`` comment lines, the column line and one line per row.

    Every cell is formatted by one rule: a str passes through, an integer
    prints as one (a bool as 0 or 1), anything else as repr(float(x)), so
    a numpy float prints like a Python float.
    """
    with open(path, "w", encoding="ascii") as fh:
        for line in header:
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def write_distribution_csv(dist: DegreeDistribution, path) -> None:
    _write_csv(path, ["k", "p"], zip(dist.support, dist.probs))


# the order in which a plot picks its x axis, the first axis that varies; the
# pick is in the hashed SVG bytes
_X_ORDER = ("lambda", "beta", "alpha", "g", "sigma")


def _sweep_axis(scenario: Scenario, axes=_X_ORDER) -> str:
    """The first of ``axes`` whose grid holds more than one value, else the first of ``axes``."""
    return next((axis for axis in axes if len(getattr(scenario, _AXES[axis])) > 1), axes[0])


# each axis's short name in a series label, in label order
_SHORT = {"alpha": "a", "beta": "b", "sigma": "s", "g": "g", "lambda": "l"}


def _series_label(point: dict, axis: str) -> str:
    return ",".join(f"{short}={point[key]:g}" for key, short in _SHORT.items() if key != axis)


def _write_final_size(scenario: Scenario, results: list[dict], out_dir: str) -> list[str]:
    columns = ["point", *_AXES]
    if scenario.engine in ("meanfield", "both"):
        columns.append("R_mf")
    if scenario.engine in ("montecarlo", "both"):
        columns += ["R_mc_mean", "R_mc_std", "peak_S_mean"]
    # a result's keys are its column names in lower case
    _write_csv(os.path.join(out_dir, "final_size.csv"), columns,
               ([res[column.lower()] for column in columns] for res in results), _audit_header(scenario))

    axis = _sweep_axis(scenario)
    series: dict[str, list[tuple[float, float]]] = {}
    for res in results:
        base = _series_label(res, axis)
        if scenario.engine in ("meanfield", "both"):
            series.setdefault(f"{base} mf" if base else "mf", []).append((res[axis], res["r_mf"]))
        if scenario.engine in ("montecarlo", "both"):
            series.setdefault(f"{base} mc" if base else "mc", []).append((res[axis], res["r_mc_mean"]))
    plot_series = []
    for label in sorted(series):
        pts = sorted(series[label])
        plot_series.append((label, [p[0] for p in pts], [p[1] for p in pts]))
    svg_path = os.path.join(out_dir, "final_size.svg")
    line_plot(plot_series, title=f"{scenario.name}: final rumor size", xlabel=axis, ylabel="R", path=svg_path)
    return ["final_size.csv", "final_size.svg"]


def _write_timeseries(scenario: Scenario, results: list[dict], out_dir: str) -> list[str]:
    rows = []
    for res in results:
        for engine_key, tag in (("mf_curve", "meanfield"), ("mc_curve", "montecarlo")):
            if engine_key in res:
                rows += [(res["point"], tag, *sample) for sample in zip(*res[engine_key])]
    if not rows:
        return []
    _write_csv(os.path.join(out_dir, "timeseries.csv"), ["point", "engine", "t", "I", "S", "R"], rows,
               _audit_header(scenario))
    plot_series = []
    for res in results:
        for engine_key, tag in (("mf_curve", "mf"), ("mc_curve", "mc")):
            if engine_key in res:
                times, _, _, r = res[engine_key]
                label = f"p{res['point']} {tag}" if len(results) <= 8 else ""
                plot_series.append((label, list(map(float, times)), list(map(float, r))))
    svg_path = os.path.join(out_dir, "timeseries.svg")
    line_plot(plot_series, title=f"{scenario.name}: R(t)", xlabel="t", ylabel="R", path=svg_path)
    return ["timeseries.csv", "timeseries.svg"]


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def run_scenario(scenario: Scenario, out_dir: str | None = None) -> dict:
    """Run every grid point, write the plot-family files, return the manifest."""
    out_dir = out_dir or scenario.out_dir
    os.makedirs(out_dir, exist_ok=True)
    results, failures = _collect_results(scenario)

    files = _write_final_size(scenario, results, out_dir)
    if scenario.timeseries:
        files += _write_timeseries(scenario, results, out_dir)

    manifest = {
        "scenario": scenario.name,
        "engine": scenario.engine,
        "seed": scenario.seed,
        "points": len(scenario.grid()),
        "completed": len(results),
        "failures": failures,
        "files": {name: _sha256(os.path.join(out_dir, name)) for name in sorted(files)},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def compare_engines(scenario: Scenario) -> dict:
    """Per grid point |R_mc_mean - R_mf| with a pass flag against the tolerance."""
    if scenario.engine != "both":
        raise ScenarioError("engine comparison requires engine=both")
    results, failures = _collect_results(scenario)
    rows = []
    for res in results:
        deviation = abs(res["r_mc_mean"] - res["r_mf"])
        rows.append({**res, "deviation": deviation, "passed": deviation < scenario.tolerance})
    return {
        "tolerance": scenario.tolerance,
        "rows": rows,
        "failures": failures,
        "all_passed": bool(rows) and all(row["passed"] for row in rows),
    }


def write_comparison(scenario: Scenario, report: dict, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    columns = ["point", *_AXES, "R_mf", "R_mc_mean", "deviation", "passed"]
    _write_csv(
        os.path.join(out_dir, "comparison.csv"), columns,
        ([row[column.lower()] for column in columns] for row in report["rows"]),
        _audit_header(scenario) + [f"# tolerance={report['tolerance']}"],
    )
    xs = [row["point"] for row in report["rows"]]
    series = [
        ("mf", xs, [row["r_mf"] for row in report["rows"]]),
        ("mc", xs, [row["r_mc_mean"] for row in report["rows"]]),
    ]
    svg_path = os.path.join(out_dir, "comparison.svg")
    line_plot(series, title="engine comparison", xlabel="grid point", ylabel="R", path=svg_path)
    return ["comparison.csv", "comparison.svg"]


# the axes that key a threshold row; lambda moves no threshold
_THRESHOLD_AXES = tuple(axis for axis in _AXES if axis != "lambda")


def threshold_table(scenario: Scenario) -> list[dict]:
    """Analytic threshold rows ``alpha,beta,sigma,g,lambda_c,lambda_c_classic,regime``,
    one per distinct (alpha, beta, sigma, g) of the grids, in grid order.

    lambda_c and a targeted plan use the distribution ``simulate`` uses: a
    configuration scenario's power law, a BA scenario's empirical degree
    distribution.  lambda_c_classic and regime come from
    threshold_modified_bounded on the bounded network, for a BA network with
    gamma=3 and k_min=m: lambda_c_classic is its value for the classic model
    (alpha=1, beta=0), regime its size regime at the row's alpha and beta.
    Random inoculation rescales lambda_c by 1/(1-g); a targeted plan uses the
    profile-weighted moment ratio.  The outbreak condition compares the
    growth rate with the stifling rate sigma, so both thresholds of a row are
    its sigma times their sigma = 1 values.
    """
    # imported here, the one caller, so a simulate run never loads them
    from ..thresholds import (
        threshold_modified,
        threshold_modified_bounded,
        threshold_random_inoc,
        threshold_targeted_inoc,
    )

    dist = build_network(scenario, graph=False)[0]
    gamma, k_min = (3.0, scenario.m) if scenario.net_kind == "ba" else (scenario.gamma, scenario.k_min)
    classic = threshold_modified_bounded(gamma, k_min, scenario.n_nodes, 1.0, 0.0).value
    plans = scenario.plans(dist)
    rows = []
    grids = (getattr(scenario, _AXES[axis]) for axis in _THRESHOLD_AXES)
    for key in dict.fromkeys(product(*grids)):
        alpha, beta, sigma, g = key
        bare = threshold_modified(dist, alpha, beta)
        plan = plans[g]
        if plan is None:
            lambda_c = bare
        elif plan.kind == KIND_RANDOM:
            lambda_c = threshold_random_inoc(bare, plan.g)
        else:
            lambda_c = threshold_targeted_inoc(dist, alpha, beta, plan)
        rows.append({
            **dict(zip(_THRESHOLD_AXES, key)),
            "lambda_c": sigma * lambda_c,
            "lambda_c_classic": sigma * classic,
            "regime": threshold_modified_bounded(gamma, k_min, scenario.n_nodes, alpha, beta).regime,
        })
    return rows


def write_threshold_table(scenario: Scenario, rows: list[dict], out_dir: str) -> list[str]:
    """Write ``thresholds.csv`` and ``thresholds.svg``.

    The SVG plots lambda_c against the first swept axis of the grid other
    than lambda, with one series per combination of the other axes; a series
    is labelled by the axes that vary.  Rows without an outbreak are left out
    of the plot.
    """
    os.makedirs(out_dir, exist_ok=True)
    columns = [*_THRESHOLD_AXES, "lambda_c", "lambda_c_classic", "regime"]
    _write_csv(
        os.path.join(out_dir, "thresholds.csv"), columns,
        ([*(row[axis] for axis in _THRESHOLD_AXES),
          "no-outbreak" if math.isinf(row["lambda_c"]) else row["lambda_c"],
          row["lambda_c_classic"], row["regime"]] for row in rows),
        _audit_header(scenario),
    )
    axis = _sweep_axis(scenario, _X_ORDER[1:])
    varying = [other for other in _THRESHOLD_AXES if other != axis and len({row[other] for row in rows}) > 1]
    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        if math.isfinite(row["lambda_c"]):
            label = ",".join(f"{_SHORT[other]}={row[other]:g}" for other in varying) or "lambda_c"
            series.setdefault(label, []).append((row[axis], row["lambda_c"]))
    plot_series = [(label, *map(list, zip(*sorted(pts)))) for label, pts in series.items()]
    svg_path = os.path.join(out_dir, "thresholds.svg")
    line_plot(plot_series, title=f"{scenario.name}: thresholds", xlabel=axis, ylabel="lambda_c", path=svg_path)
    return ["thresholds.csv", "thresholds.svg"]
