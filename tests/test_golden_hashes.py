"""Output bytes stay what tests/golden_hashes.json records.

The cases run in one fresh interpreter through tests/golden_hashes.py, which
fixes numpy's SIMD dispatch; a change that moves bytes on purpose rewrites
the table with ``python tests/golden_hashes.py --write``.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))


def test_outputs_match_the_golden_table():
    with open(os.path.join(HERE, "golden_hashes.json"), encoding="ascii") as fh:
        expected = json.load(fh)
    run = subprocess.run([sys.executable, os.path.join(HERE, "golden_hashes.py")],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    if got["environment"] != expected["environment"]:
        pytest.skip(f"the table was made in {expected['environment']}, this run is in {got['environment']}")
    assert got["hashes"] == expected["hashes"]
