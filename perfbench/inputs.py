"""Seeded inputs of each workload, written as files before anything is timed.

This module needs numpy only, so the orchestrator can write the inputs
without importing riemflow.  The same seed always gives the same files.
Scenario workloads get riemflow scenario configs (loaded later with
``riemflow.scenarios.load_config``, as ``riemflow run`` does); the others get
one ``inputs.json``.  Every output path points into the run's directory.
"""

import json
import math
import os

import numpy as np

WORKLOADS = ("analytic-collapse", "grid-flow", "grid-linearize", "reduced-wave")

# grid-flow: the step of the timed run and the two coarser reference runs
GRID_FLOW_DT = 0.005
GRID_FLOW_REFERENCE_FACTORS = (2, 4)


def _scenario(scenario_id, out_dir, family, chart, law, dt, t_end, stride, seed, **extra):
    raw = {
        "id": scenario_id,
        "family": family,
        "chart": chart,
        "law": law,
        "integrator": {"dt": dt, "t_end": t_end, "stride": stride},
        "output": {"csv": os.path.join(out_dir, scenario_id + ".csv"),
                   "summary": os.path.join(out_dir, scenario_id + ".json")},
        "seed": seed,
    }
    raw.update(extra)
    return raw


def _analytic_collapse(rng, seed, out_dir):
    # The hyperbolic ball has constant curvature, so every chart point
    # collapses homothetically, but the runs stay at the origin (the shipped
    # configs' shape) and the seed changes nothing here: away from the
    # origin the Riemann wave's blow-up fit drifts by several percent.
    chart = {"dimension": 3, "kind": "analytic-point", "point": [0.0, 0.0, 0.0],
             "step": 0.01}
    family = {"name": "hyperbolic-poincare"}
    scenarios = [
        _scenario("riemann-flow", out_dir, family, chart, "riemann-flow", 1e-3, 2.0, 10, seed),
        _scenario("ricci-flow", out_dir, family, chart, "ricci-flow", 5e-4, 1.0, 10, seed),
        _scenario("riemann-wave", out_dir, family, chart, "riemann-wave", 1e-3, 2.0, 10, seed,
                  initial_velocity_scale=0.0),
    ]
    return {"scenarios": scenarios}


def _grid_flow(rng, seed, out_dir):
    params = {"amplitude": 0.05, "mode": 1,
              "phases": [float(p) for p in rng.uniform(0.0, 2.0 * math.pi, size=3)]}
    family = {"name": "conformal-torus", "params": params}
    chart = {"dimension": 3, "kind": "periodic-grid", "points_per_axis": 12}
    scenarios = [_scenario("grid-flow", out_dir, family, chart, "riemann-flow",
                           GRID_FLOW_DT, 0.2, 5, seed)]
    for factor in GRID_FLOW_REFERENCE_FACTORS:
        scenarios.append(_scenario(f"grid-flow-dt{factor}x", out_dir, family, chart,
                                   "riemann-flow", factor * GRID_FLOW_DT, 0.2, 5, seed))
    return {"family_params": params, "lengths": [2.0 * math.pi] * 3,
            "points_per_axis": 12, "scenarios": scenarios}


def _grid_linearize(rng, seed, out_dir):
    return {
        "amplitude": 0.05, "mode": 1, "points_per_axis": 8,
        "phases": [float(p) for p in rng.uniform(0.0, 2.0 * math.pi, size=3)],
        # the direction h is drawn from this seed when the fields are built
        "direction_seed": int(rng.integers(2 ** 31)),
        "direction_scale": 0.1,
        "law": "riemann-induced", "eps": 1e-2, "dt": 5e-3, "t_end": 0.1,
    }


def _reduced_wave(rng, seed, out_dir):
    points = 2048
    return {
        "points": points, "length": 1.0,
        # dt = dx/2 = 2^-12 divides t_end exactly
        "dt": 0.5 / points, "t_end": 1.0, "stride": 256,
        "standing": {"amplitude": float(rng.uniform(5e-5, 2e-4)),
                     "phase": float(rng.uniform(0.0, 1.0))},
        "right_mover": {"amplitude": float(rng.uniform(5e-5, 2e-4)),
                        "phase": float(rng.uniform(0.0, 1.0))},
        "scale_collapse": {"lam": 1.0, "v": 0.0, "dt": 1e-3, "t_end": 3.0, "stride": 10},
        "scale_polynomial": {"lam": -6.0, "v": 2.0, "dt": 1e-3, "t_end": 5.0, "stride": 100},
    }


_MAKERS = {
    "analytic-collapse": _analytic_collapse,
    "grid-flow": _grid_flow,
    "grid-linearize": _grid_linearize,
    "reduced-wave": _reduced_wave,
}


def write_inputs(workload, seed, out_dir):
    """Write the workload's inputs for ``seed`` into ``out_dir``.

    ``inputs.json`` lists the scenario configs, one file per scenario next
    to it, under ``config_files``.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    inputs = _MAKERS[workload](rng, seed, out_dir)
    inputs["workload"] = workload
    inputs["seed"] = seed
    files = []
    for raw in inputs.pop("scenarios", []):
        path = os.path.join(out_dir, raw["id"] + ".config.json")
        with open(path, "w") as fh:
            json.dump(raw, fh, indent=2)
        files.append(path)
    inputs["config_files"] = files
    with open(os.path.join(out_dir, "inputs.json"), "w") as fh:
        json.dump(inputs, fh, indent=2)
