"""The benchmark's span hooks still find the library's layers.

``perfbench/spans.py`` wraps the functions in its ``TRACED`` list by name and
reads some of their argument names.  A rename or deletion in the library would
silently zero a per-layer metric; this test turns that into a failure.
"""

import json
import os
import subprocess
import sys

import riemflow

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
import riemflow
missing = [f"{layer}.{name}" for layer, name, _ in spans.TRACED
           if not callable(getattr(getattr(riemflow, layer, None), name, None))]
tracer = spans.Tracer()
spans.install(tracer)
from riemflow.scenarios import config_from_dict, run_scenario
out = {"csv": sys.argv[2] + "/hooks.csv", "summary": sys.argv[2] + "/hooks.json"}
run_scenario(config_from_dict({
    "family": {"name": "conformal-torus"},
    "chart": {"dimension": 3, "kind": "periodic-grid", "points_per_axis": 8},
    "law": "riemann-flow", "integrator": {"dt": 1e-3, "t_end": 3e-3, "stride": 1},
    "output": out}))
run_scenario(config_from_dict({
    "family": "flat", "law": {"name": "conformal-wave", "points": 64},
    "integrator": {"dt": 1 / 128, "t_end": 1 / 16, "stride": 1}, "output": out}))
amounts = {}
for name, _, _, _, _, amount in tracer.spans:
    amounts[name] = amounts.get(name, 0) + amount
print(json.dumps({"missing": missing, "amounts": amounts}))
"""


def test_traced_layers_resolve_and_report_amounts(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(riemflow.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _SCRIPT,
                          os.path.join(REPO, "perfbench", "spans.py"), str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout)
    assert result["missing"] == []
    amounts = result["amounts"]
    # 8^3 samples per curvature call, 4 records, 8 steps, the CSV and
    # summary bytes
    assert amounts["curvature.riemann"] > 0
    assert amounts["flow.integrate_flow"] == 4
    assert amounts["wave.conformally_flat_wave_solve"] == 8
    assert amounts["scenarios.run_scenario"] > 0
