"""Scenario benchmark of ``rumornet simulate``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn, each in its own process.

Run it from the root of a checkout; it imports ``rumornet`` from ``src/``.
Each workload is one scenario file in ``scenarios/``, run through the public
entry point ``rumornet.expcli.cli.main(["simulate", ...])`` with the
workload seed passed as ``--seed`` and ``--workers 1``.  Every repetition is
a fresh interpreter (child.py) with one BLAS thread, so set-up, memory and
time are those a user of the CLI sees on one core.

A run repeats the scenario while another repetition is expected to end
within ``--seconds`` (at least MIN_REPS times, so that outputs can be compared
byte for byte).  Between repetitions it samples the set-up time alone in fresh
processes, SETUP_PROBES of them spread over the run.  With ``--trace 1`` it
alternates plain and traced repetitions, reports the per-layer metrics of the
traced ones (tracer.py; medians), with ``trace.overhead_s`` the traced minus
the plain verb time, and checks the layer shares predicted in layers.json,
printing every miss.  Otherwise every repetition is plain and it reports the
end-to-end metrics:

  points_per_s  grid points that completed and passed the output checks,
                divided by the wall time of the ``main`` call (median)
  ok_ratio      those points divided by the grid points attempted,
                i.e. 1 - fail_ratio (fail_ratio is printed alongside)
  setup_s       first line of the process to the start of the verb (median)
  peak_rss_mb   peak resident memory of the process (median)

The output checks are in checks.py.  Repetitions of one seed must write
identical files (the manifest's sha256 hashes); if they do not, the result
says ``"correct": false`` and the command exits with 1.  ``attempted`` and
``failed`` count ``simulate`` calls; a call fails when it exits non-zero or
leaves no readable outputs.  The last line of standard output is the JSON
result; the full record, with the environment, goes to
``.bench_work/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
STARTED = time.monotonic()
DEADLINE_S = 170.0  # a run must end within 180 s; a repetition still running then is killed
SETUP_PROBES = 15
MIN_REPS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def declared_units(root: str) -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics BENCHMARK.json declares."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def workload_names() -> list[str]:
    return sorted(name[:-4] for name in os.listdir(os.path.join(HERE, "scenarios")) if name.endswith(".ini"))


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    return env


def environment(root: str, seed: int, env: dict[str, str]) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    try:
        git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=git_env,
                                capture_output=True, text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": openblas,
        "commit": commit,
        "seed": seed,
        "threads": {var: env.get(var) for var in THREAD_VARS},
    }


def run_child(scenario: str, seed: int, out_dir: str, mode: str, env: dict, root: str) -> dict:
    """One fresh-process repetition; returns child.py's record plus its wall time."""
    result_path = out_dir + ".json"
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), scenario, str(seed), out_dir, result_path, mode],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - STARTED)),
        )
        returncode, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        returncode, stderr = -9, "killed: the run's time limit was reached"
    wall = time.perf_counter() - start
    try:
        with open(result_path, encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        record = {"exit_code": returncode or -1}
    record.update(mode=mode, wall_s=wall, out_dir=out_dir, stderr=stderr[-2000:])
    if returncode != 0:
        record["exit_code"] = record.get("exit_code") or returncode
    return record


def read_manifest(out_dir: str) -> dict | None:
    try:
        with open(os.path.join(out_dir, "manifest.json"), encoding="ascii") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def check_outputs(scenario_path: str, reps: list[dict], root: str) -> tuple[bool, dict[int, list[str]]]:
    """Byte-reproducibility across repetitions, then per-point checks of the first."""
    sys.path.insert(0, os.path.join(root, "src"))
    from checks import check_run
    from rumornet.expcli.scenario import parse_scenario

    with open(os.path.join(HERE, "reference.json"), encoding="ascii") as fh:
        reference = json.load(fh)
    hashes = [rep["manifest"]["files"] for rep in reps]
    reproducible = all(h == hashes[0] for h in hashes)
    return reproducible, check_run(parse_scenario(scenario_path), reps[0]["out_dir"], reference)


def count_ok(reasons: dict[int, list[str]]) -> int:
    """Grid points that completed and passed every check; the rest make up fail_ratio."""
    return sum(1 for why in reasons.values() if not why)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def share_report(workload: str, layer: dict[str, float]) -> list[str]:
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        predictions = json.load(fh)
    lines = []
    verb = layer.get("expcli.verb_s", 0.0)
    for pred in predictions["shares"]:
        if pred["workload"] == workload:
            share = layer[pred["metric"]] / verb if verb else 0.0
            verdict = "met" if share >= pred["min_share"] else "MISSED"
            lines.append(f"prediction {pred['metric']} / expcli.verb_s = {share:.3f} "
                         f"(predicted >= {pred['min_share']}): {verdict}")
    for pred in predictions["zero"]:
        if pred["workload"] == workload:
            for name, value in sorted(layer.items()):
                if name.startswith(pred["prefix"]):
                    verdict = "met" if value == 0 else "MISSED"
                    lines.append(f"prediction {name} = {value:.6g} (predicted 0): {verdict}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a scenario name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "rumornet")):
        print(f"error: {root} holds no src/rumornet; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in workload_names()]
        return max(codes)
    if args.workload not in workload_names():
        print(f"error: unknown workload {args.workload!r}; choose from {workload_names()}", file=sys.stderr)
        return 2
    scenario_path = os.path.join(HERE, "scenarios", f"{args.workload}.ini")
    end_to_end_units, layer_units = declared_units(root)
    work = os.path.join(root, ".bench_work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = child_env(root)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(root, args.seed, env)}
    print("env " + json.dumps(record["environment"], sort_keys=True))

    probes: list[dict] = []

    def probe_until(count: float) -> None:
        while len(probes) < count:
            probes.append(run_child(scenario_path, args.seed, os.path.join(work, f"setup{len(probes)}"),
                                    "setup", env, root))

    modes = ["0", "1"] if args.trace else ["0"]
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        rep = run_child(scenario_path, args.seed, os.path.join(work, f"rep{len(reps)}"),
                        modes[len(reps) % len(modes)], env, root)
        rep["manifest"] = read_manifest(rep["out_dir"]) if rep["exit_code"] == 0 else None
        reps.append(rep)
        elapsed = time.perf_counter() - start
        typical = median([r["wall_s"] for r in reps])
        print(f"rep {len(reps) - 1} mode={rep['mode']} exit={rep['exit_code']} wall={rep['wall_s']:.3f}s",
              file=sys.stderr)
        if len(reps) >= MIN_REPS and elapsed + typical > args.seconds:
            break
        probe_until(SETUP_PROBES * elapsed / args.seconds)
    probe_until(SETUP_PROBES)

    good = [rep for rep in reps if rep["manifest"] is not None]
    failed = len(reps) - len(good)
    for rep in reps:
        if rep["manifest"] is None:
            print(f"simulate failed (exit {rep['exit_code']}): {rep['stderr']}", file=sys.stderr)
    reproducible, reasons = check_outputs(scenario_path, good, root) if good else (False, {})
    points = len(reasons)
    ok_points = count_ok(reasons)
    for point, why in sorted(reasons.items()):
        for reason in why:
            print(f"point {point} failed: {reason}")
    if not reproducible:
        print("outputs differ between repetitions of one seed (manifest sha256)", file=sys.stderr)

    plain = [rep for rep in good if rep["mode"] == "0"]
    setups = [p["setup_s"] for p in probes if "setup_s" in p] + [rep["setup_s"] for rep in plain]
    end_to_end = {
        "points_per_s": median([ok_points / rep["call_s"] for rep in plain]),
        "ok_ratio": ok_points / points if points else 0.0,
        "setup_s": median(setups),
        "peak_rss_mb": median([rep["peak_rss_mb"] for rep in plain]),
    }
    for name, value in end_to_end.items():
        print(f"{args.workload} {name} {value:.6g} {end_to_end_units[name]}")
    print(f"{args.workload} fail_ratio {1.0 - end_to_end['ok_ratio']:.6g} ratio "
          f"({points - ok_points} of {points} grid points)")

    if args.trace:
        from tracer import layer_metrics

        traced = [layer_metrics(rep["spans"]) for rep in good if rep["mode"] == "1"] or [layer_metrics([])]
        layer = {name: median([t[name] for t in traced]) for name in traced[0]}
        layer["trace.overhead_s"] = (median([rep["verb_s"] for rep in good if rep["mode"] == "1"])
                                     - median([rep["verb_s"] for rep in plain]))
        for line in share_report(args.workload, layer):
            print(line)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in layer_units.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in end_to_end_units.items()}

    correct = reproducible and failed == 0
    record.update(reps=[{k: v for k, v in rep.items() if k not in ("spans", "stderr")} for rep in reps],
                  setup_probes=[p.get("setup_s") for p in probes], reproducible=reproducible,
                  point_failures={str(p): why for p, why in reasons.items() if why},
                  end_to_end=end_to_end, metrics=metrics)
    shutil.rmtree(work, ignore_errors=True)
    results = os.path.join(root, ".bench_work", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, os.path.basename(work) + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": len(reps), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
