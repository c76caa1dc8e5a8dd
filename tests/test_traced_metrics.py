"""The benchmark's tracer still sees the mean-field solver layers.

``perfbench/tracer.py`` wraps public functions at the names their callers
look them up by.  If a refactor routes a call around such a name, the traced
metric reads 0 and nothing else fails; this test catches that.  The tracer
patches modules for the life of the process, so it runs in a subprocess.
"""

import json
import os
import subprocess
import sys

from rumornet.netgen import sample_powerlaw_distribution

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCENARIO = """\
[scenario]
engine = meanfield
timeseries = true

[network]
kind = configuration
n = 1000

[model]
lambda = 0.05, 0.5, 1.5
alpha = 0.8
t_end = 2
dt_meanfield = 0.1

[inoculation]
kind = targeted
g = 0.05, 0.2
"""
POINTS = 6
STEPS = 20  # t_end / dt_meanfield

CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer, layer_metrics
tracer = Tracer()
tracer.install()
from rumornet.expcli import cli
code = cli.main(["simulate", "--config", sys.argv[2], "--out", sys.argv[3], "--seed", "3"])
print(json.dumps({"code": code, "spans": tracer.spans, "metrics": layer_metrics(tracer.spans)}))
"""


def test_traced_solver_metrics_count_every_point(tmp_path):
    config = tmp_path / "traced.cfg"
    config.write_text(SCENARIO)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, os.path.join(ROOT, "perfbench"), str(config), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    # a traced name whose wrapper raises fails its point, not the run
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["failures"] == []
    assert manifest["completed"] == POINTS
    spans, metrics = result["spans"], result["metrics"]
    assert metrics["expcli.points"] == POINTS
    assert metrics["meanfield.fixed_point_calls"] == POINTS
    assert metrics["meanfield.integrate_calls"] == POINTS
    classes = sample_powerlaw_distribution(2.4, 2, 1000).support.size
    assert metrics["meanfield.class_steps"] == POINTS * STEPS * classes
    final_size = [i for i, span in enumerate(spans) if span["name"] == "meanfield.final_size"]
    assert len(final_size) == POINTS
    # each fixed point is solved inside a final-size call, through the traced name
    assert [span["parent"] for span in spans if span["name"] == "meanfield.fixed_point"] == final_size
