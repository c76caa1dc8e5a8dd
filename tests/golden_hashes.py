"""The sha256 of every file that a fixed set of CLI cases writes.

    python tests/golden_hashes.py           print the environment and hashes as JSON
    python tests/golden_hashes.py --write   rewrite tests/golden_hashes.json with them

Each case is a verb, a scenario and a seed, run through ``rumornet``'s
``main`` in a temporary directory; its entry maps each file the verb wrote
(``manifest.json`` aside, which holds the others' hashes) to its sha256.
``tests/test_golden_hashes.py`` runs this script and compares its output
with the committed table, so a change that moves output bytes shows in the
table's diff when the table is rewritten.

The bytes depend on which SIMD kernels numpy dispatches to: the final sizes
and curves moved when AVX512_SKX was switched off on an AVX512 host.  So the
script switches off numpy's AVX512 targets before it imports numpy, and every
x86-64 host with AVX2 runs the same kernels.  The table records the numpy
version, the C library and the dispatch targets left enabled; where any of
them differ, the test skips rather than compares.
"""

from __future__ import annotations

import os

# read by numpy when it is imported, so set before any import of it
os.environ["NPY_DISABLE_CPU_FEATURES"] = "X86_V4 AVX512_ICL AVX512_SPR"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TABLE = os.path.join(HERE, "golden_hashes.json")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__  # noqa: E402

from rumornet.expcli.cli import main  # noqa: E402

# scenarios that no file under perfbench/ holds, written into the case's
# directory: a preferential-attachment graph, and both engines' curves under
# a targeted plan
SCENARIOS = {
    "ba.ini": """\
[scenario]
name = golden_ba

[network]
kind = ba
n = 300
m = 2
m0 = 3

[model]
lambda = 0.5
""",
    "both_targeted.ini": """\
[scenario]
name = golden_both_targeted
engine = both
runs = 2
timeseries = true

[network]
n = 2000

[model]
lambda = 0.5, 1.5
alpha = 0.8
seeds = 10
t_end = 20
t_max = 20

[inoculation]
kind = targeted
g = 0.05
""",
}

# (verb, scenario, seed); a scenario path is relative to the repository root
CASES = (
    ("simulate", "perfbench/scenarios/mc_outbreak.ini", 1),
    ("simulate", "perfbench/scenarios/mf_timeseries.ini", 1),
    ("simulate", "perfbench/scenarios/phase_diagram.ini", 1),
    ("compare", "perfbench/scenarios/mc_outbreak.ini", 1),
    ("threshold", "perfbench/scenarios/phase_diagram.ini", 1),
    ("generate", "perfbench/scenarios/mc_outbreak.ini", 1),
    ("generate", "ba.ini", 1),
    ("simulate", "both_targeted.ini", 1),
)


def environment() -> dict:
    """What the bytes depend on besides the code."""
    return {
        "numpy": np.__version__,
        "libc": list(platform.libc_ver()),
        "dispatch": [target for target in __cpu_dispatch__ if __cpu_features__.get(target)],
    }


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_case(verb: str, scenario: str, seed: int, work: str) -> dict[str, str]:
    """Run one case in ``work`` and return {file name: sha256}."""
    if scenario in SCENARIOS:
        config = os.path.join(work, scenario)
        with open(config, "w", encoding="ascii") as fh:
            fh.write(SCENARIOS[scenario])
    else:
        config = os.path.join(ROOT, scenario)
    out = os.path.join(work, "out")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([verb, "--config", config, "--seed", str(seed), "--out", out])
    # compare exits 3 when a deviation is above its tolerance, which is an
    # output like any other
    if code != 0 and not (verb == "compare" and code == 3):
        raise SystemExit(f"{verb} {scenario} exited {code}")
    return {name: _digest(os.path.join(out, name)) for name in sorted(os.listdir(out)) if name != "manifest.json"}


def collect() -> dict:
    hashes = {}
    for verb, scenario, seed in CASES:
        with tempfile.TemporaryDirectory() as work:
            hashes[f"{verb} {scenario} {seed}"] = run_case(verb, scenario, seed, work)
    return {"environment": environment(), "hashes": hashes}


if __name__ == "__main__":
    record = collect()
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if sys.argv[1:] == ["--write"]:
        with open(TABLE, "w", encoding="ascii") as fh:
            fh.write(text)
    elif sys.argv[1:]:
        raise SystemExit(__doc__)
    else:
        sys.stdout.write(text)
