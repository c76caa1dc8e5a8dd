"""Regenerate reference.json, the values the output checks compare against.

    PYTHONPATH=src python3 perfbench/make_reference.py [--out PATH]

Run it from the repository root, on the commit whose behaviour is the
reference.  It runs each workload's scenario in this process, once per seed
1..REFERENCE_SEEDS, and records:

* ``r_mf``: the mean-field final size of every uninoculated grid point of a
  configuration-graph workload.  These do not depend on the seed; the script
  stops if they do.
* ``r_mc``: for every Monte Carlo grid point, the band ``[lo, hi]`` that the
  ensemble mean ``R_mc_mean`` of a run must land in: mean +- BAND_SIGMAS
  standard deviations across seeds, with the lower edge raised to at least
  FLOOR_FRACTION of the smallest value seen, so that a point where every
  reference seed broke out fails when its outbreak vanishes.  The spread
  across seeds contains both a new graph and new random streams, so a change
  that only reorders random draws stays inside the band while a change in
  what the simulation means moves outside it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import read_final_size  # noqa: E402

REFERENCE_SEEDS = 12
BAND_SIGMAS = 6.0
FLOOR_FRACTION = 0.25
WORKLOADS = ("mc_outbreak", "mf_timeseries", "phase_diagram")


def _simulate(workload: str, seed: int, out_dir: str) -> dict[int, dict]:
    from rumornet.expcli import cli

    config = os.path.join(HERE, "scenarios", f"{workload}.ini")
    code = cli.main(["simulate", "--config", config, "--seed", str(seed), "--out", out_dir])
    if code != 0:
        raise SystemExit(f"{workload} seed {seed}: simulate exited with {code}")
    return read_final_size(os.path.join(out_dir, "final_size.csv"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(HERE, "reference.json"))
    args = parser.parse_args(argv)

    from rumornet.expcli.scenario import parse_scenario

    reference: dict = {"r_mf": {}, "r_mc": {}}
    for workload in WORKLOADS:
        scenario = parse_scenario(os.path.join(HERE, "scenarios", f"{workload}.ini"))
        # mean field alone draws no random numbers: a second seed proves it
        seeds = 2 if scenario.engine == "meanfield" else REFERENCE_SEEDS
        runs = []
        for seed in range(1, seeds + 1):
            with tempfile.TemporaryDirectory() as tmp:
                runs.append(_simulate(workload, seed, tmp))
        if scenario.net_kind == "configuration" and scenario.engine != "montecarlo":
            pinned = {str(p): row["R_mf"] for p, row in runs[0].items() if row["g"] == 0.0}
            for other in runs[1:]:
                for point, value in pinned.items():
                    if other[int(point)]["R_mf"] != value:
                        raise SystemExit(f"{workload}: R_mf of point {point} depends on the seed")
            if pinned:
                reference["r_mf"][workload] = pinned
        if scenario.engine != "meanfield":
            bands = {}
            for point in sorted(runs[0]):
                values = [run[point]["R_mc_mean"] for run in runs]
                mean, std = statistics.fmean(values), statistics.stdev(values)
                bands[str(point)] = {
                    "lo": max(mean - BAND_SIGMAS * std, FLOOR_FRACTION * min(values)),
                    "hi": mean + BAND_SIGMAS * std,
                }
            reference["r_mc"][workload] = bands
        print(f"{workload}: {len(runs)} seeds", file=sys.stderr)
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
