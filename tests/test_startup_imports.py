"""A run loads only the modules it executes.

Importing the package loads no submodule; a one-worker ``simulate`` never
loads the process pool or the threshold formulas, and ``threshold`` loads the
formulas where it computes them.  ``sys.modules`` is shared by every test of
one pytest run, so the check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCENARIO = """\
[scenario]
engine = meanfield
workers = 1

[network]
kind = configuration
n = 500

[model]
lambda = 0.3, 0.9
t_end = 2
dt_meanfield = 0.1
"""

CHILD = """\
import json, sys
import rumornet
loaded = {"package": sorted(name for name in sys.modules if name.startswith("rumornet."))}
from rumornet.expcli.cli import main
config, out = sys.argv[1], sys.argv[2]
loaded["simulate_code"] = main(["simulate", "--config", config, "--out", out + "/simulate", "--workers", "1"])
loaded["simulate"] = sorted(sys.modules)
loaded["threshold_code"] = main(["threshold", "--config", config, "--out", out + "/threshold"])
loaded["threshold"] = sorted(sys.modules)
print(json.dumps(loaded))
"""

NOT_IN_SIMULATE = ("concurrent.futures.process", "multiprocessing", "rumornet.thresholds")


def test_a_run_loads_only_what_it_executes(tmp_path):
    config = tmp_path / "startup.cfg"
    config.write_text(SCENARIO)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(config), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["package"] == []
    assert loaded["simulate_code"] == 0
    assert json.loads((tmp_path / "simulate" / "manifest.json").read_text())["completed"] == 2
    assert [name for name in NOT_IN_SIMULATE if name in loaded["simulate"]] == []
    assert loaded["threshold_code"] == 0
    assert "rumornet.thresholds" in loaded["threshold"]
    assert (tmp_path / "threshold" / "thresholds.csv").exists()
