"""Declarative experiment scenarios: parse, sweep, export.

A scenario file is flat ``key = value`` text under ``[section]`` headers with
comma-separated lists for parameter grids and ``#`` comments.  Each field of
``Scenario`` declares the key a file may set for it and its default.  Running one
produces a CSV per plot family plus one SVG per CSV and a manifest with
content hashes; re-running with the same master seed reproduces identical
bytes.  Every random stream is keyed to (master seed, grid-point index,
run index), never to execution order, so grid points can run in any order or
in parallel without changing the output.

The benchmark in ``perfbench/`` binds names of this module, and three of
``rumornet.thresholds``, from outside the package, so they keep their names
and every call goes through them:

* its tracer wraps the module globals ``build_ba_network``,
  ``build_configuration_network``, ``sample_powerlaw_distribution``,
  ``integrate``, ``final_rumor_size``, ``make_random_plan``,
  ``make_targeted_plan`` and ``line_plot``;
* its output checks import ``make_targeted_plan`` from here and read the
  Scenario fields ``name``, ``engine``, ``timeseries``, ``net_kind``,
  ``gamma``, ``k_min``, ``n_nodes``, ``lam_grid`` and ``inoc_kind``;
* its threshold check imports ``threshold_modified``,
  ``threshold_random_inoc`` and ``threshold_targeted_inoc`` from
  ``rumornet.thresholds``, which keeps them for it alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .. import montecarlo
from ..inoculation import InoculationPlan, make_random_plan, make_targeted_plan
from ..meanfield import ModelParams, critical_rate, final_rumor_size, integrate, uniform_seed_state
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


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"must be 'true' or 'false', got {text!r}")
    return text == "true"


def _float_list(text: str) -> list[float]:
    items = [part.strip() for part in text.split(",")]
    if items == [""]:
        raise ValueError("empty list")
    if "" in items:
        raise ValueError(f"empty item {items.index('') + 1} in {text!r}")
    return [float(item) for item in items]


_REQUIRED = object()


def _key(section: str, key: str, parse, default, check=None):
    """A Scenario field read from ``key`` in ``[section]`` by ``parse``.

    A text default goes through ``parse`` as if the file held it.  None means
    unset; for ``name`` it means the file's name.  ``check = (test, message)``
    is the rule on the field's own value
    (on each item of a list): a set value for which ``test`` is false is a
    config error, ``message`` formatted with the ``key`` and the ``value``.
    """
    return field(metadata={"key": (section, key, parse, default), "check": check})


_POSITIVE = (lambda v: 0 < v < math.inf, "{key} must be finite and > 0, got {value}")
_NONNEGATIVE = (lambda v: 0 <= v < math.inf, "{key} must be finite and >= 0, got {value}")
# os.makedirs fails on an empty out, and an empty name would head every CSV
# as "# scenario="
_NONEMPTY = (lambda v: v != "", "{key} must not be empty")


@dataclass
class Scenario:
    name: str = _key("scenario", "name", str, None, _NONEMPTY)
    engine: str = _key("scenario", "engine", str, "meanfield",
                       (lambda v: v in ENGINES, f"{{key}} must be one of {ENGINES}, got '{{value}}'"))
    # numpy's SeedSequence, which keys every random stream, takes no negative seed
    seed: int = _key("scenario", "seed", int, "0", (lambda v: v >= 0, "{key} must be >= 0, got {value}"))
    out_dir: str = _key("scenario", "out", str, "out", _NONEMPTY)
    workers: int = _key("scenario", "workers", int, "1", (lambda v: v >= 1, "{key} must be >= 1, got {value}"))
    timeseries: bool = _key("scenario", "timeseries", _bool, "true")
    runs: int | None = _key("scenario", "runs", int, None, (lambda v: v >= 1, "{key} must be >= 1"))
    net_kind: str = _key("network", "kind", str, "configuration", (
        lambda v: v in NETWORK_KINDS, f"network {{key}} must be one of {NETWORK_KINDS}, got '{{value}}'"))
    gamma: float = _key("network", "gamma", float, "2.4")
    k_min: int = _key("network", "k_min", int, "2")
    n_nodes: int = _key("network", "n", int, _REQUIRED, (lambda v: v >= 2, "{key} must be >= 2, got {value}"))
    m: int = _key("network", "m", int, "3")
    m0: int = _key("network", "m0", int, "5")
    lam_grid: list[float] = _key("model", "lambda", _float_list, _REQUIRED,
                                 (lambda v: 0 <= v < math.inf, "{key} values must be finite and >= 0 (got {value})"))
    alpha_grid: list[float] = _key("model", "alpha", _float_list, "1.0",
                                   (lambda v: 0 < v <= 1, "{key} values must lie in (0, 1] (got {value})"))
    beta_grid: list[float] = _key("model", "beta", _float_list, "0.0",
                                  (math.isfinite, "{key} values must be finite (got {value})"))
    sigma_grid: list[float] = _key("model", "sigma", _float_list, "1.0",
                                   (lambda v: 0 < v < math.inf, "{key} values must be finite and > 0 (got {value})"))
    # the initial spreaders of the Monte Carlo; the mean field starts at seeds / n
    seeds: int = _key("model", "seeds", int, "1")
    # the time between samples of the mean-field curve; the integrator
    # chooses its own steps
    dt_meanfield: float = _key("model", "dt_meanfield", float, "0.01", _POSITIVE)
    dt_montecarlo: float = _key("model", "dt_montecarlo", float, "0.1", _POSITIVE)
    t_end: float = _key("model", "t_end", float, "100.0", _NONNEGATIVE)
    t_max: float = _key("model", "t_max", float, "200.0", _NONNEGATIVE)
    inoc_kind: str = _key("inoculation", "kind", str, "none",
                          (lambda v: v in INOC_KINDS, f"inoculation {{key}} must be one of {INOC_KINDS}"))
    g_grid: list[float] = _key("inoculation", "g", _float_list, "0.0",
                               (lambda v: 0.0 <= v <= 1.0, "{key} values must lie in [0, 1] (got {value})"))
    tolerance: float = _key("compare", "tolerance", float, "0.1", _POSITIVE)

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
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except FileNotFoundError:
        raise ScenarioError(f"{path}: no such file") from None
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    for lineno, raw in enumerate(lines, start=1):
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


# (section, key) -> (Scenario field, parser, default), from the fields' declarations
_KEYS = {f.metadata["key"][:2]: (f.name, *f.metadata["key"][2:]) for f in dataclasses.fields(Scenario)}
# Scenario field -> its check on its own value, or None
_CHECKS = {f.name: f.metadata["check"] for f in dataclasses.fields(Scenario)}


def _complaint(check, value, key: str) -> str | None:
    """What ``check`` says against a set ``value``, or each item of a list
    value, naming the key ``key``; None if it holds."""
    if check is None or value is None:
        return None
    test, message = check
    for item in value if isinstance(value, list) else [value]:
        if not test(item):
            return message.format(key=key, value=item)
    return None


def parse_scenario(path, overrides=None) -> Scenario:
    """Parse and validate a scenario file.

    Every complaint about a line in the file cites its physical line number,
    counting blank and comment lines.  A missing required key (``[network] n``,
    ``[model] lambda``) has no line to cite, so its complaint cites the file only.
    Of several bad values, the one of the first field in ``Scenario`` is reported.

    ``overrides`` maps a ``[scenario]`` key to the text of its command-line
    flag (``--seed``), None if not given; each is parsed and checked as the
    file's value would be, its complaint naming the flag, and replaces it.
    """
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

    for (section, key), (name, _, _) in _KEYS.items():
        if fields[name] is _REQUIRED:
            fail(name, f"missing required key '{key}' in [{section}]")
        complaint = _complaint(_CHECKS[name], fields[name], key)
        if complaint:
            fail(name, complaint)

    # the rules that read two fields
    engine, runs, kind, n_nodes = fields["engine"], fields["runs"], fields["net_kind"], fields["n_nodes"]
    if engine in ("montecarlo", "both") and runs is None:
        fail("engine", f"[scenario] runs is required when engine={engine}")
    if kind == "configuration" and not 2.0 < fields["gamma"] <= 3.0:
        fail("gamma", f"gamma must lie in (2, 3], got {fields['gamma']}")
    if kind == "configuration" and fields["k_min"] < 1:
        fail("k_min", f"k_min must be >= 1, got {fields['k_min']}")
    m, m0 = fields["m"], fields["m0"]
    if kind == "ba" and not n_nodes > m0 >= m >= 1:
        fail("m", f"need n > m0 >= m >= 1, got n={n_nodes}, m0={m0}, m={m}")
    if fields["inoc_kind"] == "none" and any(v != 0.0 for v in fields["g_grid"]):
        fail("g_grid", "nonzero g requires inoculation kind random or targeted")
    if not 1 <= fields["seeds"] <= n_nodes:
        fail("seeds", f"seeds must lie in [1, n] = [1, {n_nodes}], got {fields['seeds']}")
    # a nonzero span of round(t / dt) == 0 steps would give a curve of the
    # initial state alone, or Monte Carlo runs that take no step; one whose
    # t / dt overflows has no step count at all
    for span, step in (("t_end", "dt_meanfield"), ("t_max", "dt_montecarlo")):
        t, dt = fields[span], fields[step]
        where = step if step in lines else span
        if not math.isfinite(t / dt):
            fail(where, f"{span} = {t} is too many steps of {step} = {dt} to count")
        if t > 0 and round(t / dt) == 0:
            fail(where, f"{span} = {t} rounds to zero steps of {step} = {dt}")

    for key, value in (overrides or {}).items():
        if value is None:
            continue
        name, parse, _ = _KEYS["scenario", key]
        try:
            value = parse(value)
        except ValueError as exc:
            raise ScenarioError(f"bad value for '--{key}': {exc}") from None
        complaint = _complaint(_CHECKS[name], value, f"--{key}")
        if complaint:
            raise ScenarioError(complaint)
        fields[name] = value

    if fields["name"] is None:
        fields["name"] = os.path.splitext(os.path.basename(str(path)))[0]
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
                uniform_seed_state(dist, scenario.seeds / scenario.n_nodes), dist, params, plan,
                t_end=scenario.t_end, dt=scenario.dt_meanfield, sample_every=stride,
            )
            result["mf_curve"] = (traj.times, traj.i, traj.s, traj.r)
    if scenario.engine in ("montecarlo", "both"):
        summary = montecarlo.ensemble(
            network, params, plan=plan, runs=scenario.runs, seeds=scenario.seeds,
            dt=scenario.dt_montecarlo, t_max=scenario.t_max,
            master_seed=montecarlo._run_seed(scenario.seed, 1 + index),
        )
        result["r_mc_mean"] = summary.mean_final_r
        result["r_mc_std"] = summary.std_final_r
        result["peak_s_mean"] = summary.mean_peak_s
        if scenario.timeseries:
            result["mc_curve"] = summary.mean_curve
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
        f"# runs={scenario.runs} seeds={scenario.seeds} dt_mf={scenario.dt_meanfield} "
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


def _series_label(point: dict, axes) -> str:
    """The short name and value in ``point`` of each of ``axes``, in label order."""
    return ",".join(f"{short}={point[key]:g}" for key, short in _SHORT.items() if key in axes)


def _series(points) -> list[tuple[str, list, list]]:
    """One ``(label, xs, ys)`` series per label of the ``(label, x, y)``
    points, in the order the labels first occur, each sorted by x."""
    groups: dict[str, list[tuple[float, float]]] = {}
    for label, x, y in points:
        groups.setdefault(label, []).append((x, y))
    return [(label, *map(list, zip(*sorted(pts)))) for label, pts in groups.items()]


# each engine with its tag in series labels and result keys, and its
# final_size.csv columns, the first of them the one plotted
_ENGINE_OUTPUTS = (
    ("meanfield", "mf", ("R_mf",)),
    ("montecarlo", "mc", ("R_mc_mean", "R_mc_std", "peak_S_mean")),
)


def _write_family(out_dir: str, stem: str, columns, rows, header, series, **labels) -> list[str]:
    """Write ``stem.csv`` and its plot ``stem.svg`` into ``out_dir``, which it
    makes if need be; return the two file names.

    ``labels`` are line_plot's title, xlabel and ylabel.
    """
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, f"{stem}.csv"), columns, rows, header)
    # through the module global, which the benchmark's tracer wraps
    line_plot(series, path=os.path.join(out_dir, f"{stem}.svg"), **labels)
    return [f"{stem}.csv", f"{stem}.svg"]


def _write_final_size(scenario: Scenario, results: list[dict], out_dir: str) -> list[str]:
    engines = [spec for spec in _ENGINE_OUTPUTS if scenario.engine in (spec[0], "both")]
    columns = ["point", *_AXES, *(column for _, _, engine_columns in engines for column in engine_columns)]
    # a result's keys are its column names in lower case
    rows = ([res[column.lower()] for column in columns] for res in results)
    axis = _sweep_axis(scenario)
    others = [other for other in _AXES if other != axis]
    series = _series((f"{_series_label(res, others)} {tag}".lstrip(), res[axis], res[engine_columns[0].lower()])
                     for res in results for _, tag, engine_columns in engines)
    # the plot lists its series in label order
    return _write_family(out_dir, "final_size", columns, rows, _audit_header(scenario), sorted(series),
                         title=f"{scenario.name}: final rumor size", xlabel=axis, ylabel="R")


def _write_timeseries(scenario: Scenario, results: list[dict], out_dir: str) -> list[str]:
    curves = [(res["point"], engine, tag, res[f"{tag}_curve"])
              for res in results for engine, tag, _ in _ENGINE_OUTPUTS if f"{tag}_curve" in res]
    if not curves:
        return []
    rows = [(point, engine, *sample) for point, engine, _, curve in curves for sample in zip(*curve)]
    series = [(f"p{point} {tag}" if len(results) <= 8 else "", list(map(float, times)), list(map(float, r)))
              for point, _, tag, (times, _, _, r) in curves]
    return _write_family(out_dir, "timeseries", ["point", "engine", "t", "I", "S", "R"], rows,
                         _audit_header(scenario), series, title=f"{scenario.name}: R(t)", xlabel="t", ylabel="R")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def run_scenario(scenario: Scenario) -> dict:
    """Run every grid point, write the plot-family files and the manifest
    into ``scenario.out_dir``, return the manifest."""
    out_dir = scenario.out_dir
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
    """Per grid point |R_mc_mean - R_mf|, run without curves, with a pass flag against the tolerance."""
    if scenario.engine != "both":
        raise ScenarioError("engine comparison requires engine=both")
    results, failures = _collect_results(dataclasses.replace(scenario, timeseries=False))
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


def write_comparison(scenario: Scenario, report: dict) -> list[str]:
    """Write ``comparison.csv`` and ``comparison.svg`` into ``scenario.out_dir``."""
    columns = ["point", *_AXES, "R_mf", "R_mc_mean", "deviation", "passed"]
    rows = report["rows"]
    xs = [row["point"] for row in rows]
    series = [(tag, xs, [row[engine_columns[0].lower()] for row in rows]) for _, tag, engine_columns in _ENGINE_OUTPUTS]
    return _write_family(scenario.out_dir, "comparison", columns,
                         ([row[column.lower()] for column in columns] for row in rows),
                         _audit_header(scenario) + [f"# tolerance={report['tolerance']}"], series,
                         title="engine comparison", xlabel="grid point", ylabel="R")


# the axes that key a threshold row; lambda moves no threshold
_THRESHOLD_AXES = tuple(axis for axis in _AXES if axis != "lambda")


def threshold_table(scenario: Scenario) -> list[dict]:
    """Analytic threshold rows ``alpha,beta,sigma,g,lambda_c,lambda_c_classic,regime``,
    one per distinct (alpha, beta, sigma, g) of the grids, in grid order.

    Both thresholds are ``critical_rate``, the one definition of lambda_c, on
    the distribution ``simulate`` uses: a configuration scenario's power law,
    a BA scenario's empirical degree distribution.  lambda_c is that of the
    row's (alpha, beta, sigma, plan), for every plan and for none, so
    ``simulate`` reports R_mf = 0 at every lambda <= lambda_c of its row and
    an outbreak above it.  lambda_c_classic is that of the classic model
    (alpha=1, beta=0, no plan) at the row's sigma.  regime is the
    ``size_regime`` of the row's alpha and beta, the sign of
    alpha + beta + 2 - gamma, with gamma=3 for a BA network.
    """
    # imported here, the one caller, so a simulate run never loads it
    from ..thresholds import size_regime

    dist = build_network(scenario, graph=False)[0]
    gamma = 3.0 if scenario.net_kind == "ba" else scenario.gamma
    classic = critical_rate(dist, 1.0, 0.0)
    plans = scenario.plans(dist)
    rows = []
    grids = (getattr(scenario, _AXES[axis]) for axis in _THRESHOLD_AXES)
    for key in dict.fromkeys(product(*grids)):
        alpha, beta, sigma, g = key
        rows.append({
            **dict(zip(_THRESHOLD_AXES, key)),
            "lambda_c": critical_rate(dist, alpha, beta, plans[g], sigma),
            # the double critical_rate(dist, 1.0, 0.0, None, sigma) returns
            "lambda_c_classic": sigma * classic,
            "regime": size_regime(gamma, alpha, beta),
        })
    return rows


def write_threshold_table(scenario: Scenario, rows: list[dict]) -> list[str]:
    """Write ``thresholds.csv`` and ``thresholds.svg`` into ``scenario.out_dir``.

    The SVG plots lambda_c against the first swept axis of the grid other
    than lambda, with one series per combination of the other axes; a series
    is labelled by the axes that vary.  Rows without an outbreak are left out
    of the plot.
    """
    columns = [*_THRESHOLD_AXES, "lambda_c", "lambda_c_classic", "regime"]
    csv_rows = ([*(row[axis] for axis in _THRESHOLD_AXES),
                 "no-outbreak" if math.isinf(row["lambda_c"]) else row["lambda_c"],
                 row["lambda_c_classic"], row["regime"]] for row in rows)
    axis = _sweep_axis(scenario, _X_ORDER[1:])
    varying = [other for other in _THRESHOLD_AXES if other != axis and len({row[other] for row in rows}) > 1]
    series = _series((_series_label(row, varying) or "lambda_c", row[axis], row["lambda_c"])
                     for row in rows if math.isfinite(row["lambda_c"]))
    return _write_family(scenario.out_dir, "thresholds", columns, csv_rows, _audit_header(scenario), series,
                         title=f"{scenario.name}: thresholds", xlabel=axis, ylabel="lambda_c")
