"""Configuration-driven experiment runner.

A scenario is a JSON document selecting a metric family, a chart, an
evolution law, integrator settings and output paths.  A document is checked
when it is loaded, before any run starts: unknown keys, parameters the law
or the family does not take or cannot use, a number that is not finite, a
fraction where a whole number is needed (``dimension``, ``stride``,
``points_per_axis``, ``mode``, ``points``, ``seed``), a negative ``seed``,
a chart that cannot be built, grid ``lengths`` other than a conformal
torus's periods, and a conformal wave of fewer than 3 ``points`` or a
``length`` that is not positive are refused with :class:`SchemaError`, on
the key at fault.  A grid chart without ``lengths`` takes the family's.
The law is parsed once, at load, into the config's :class:`~riemflow.flow.Law`
record or, for the laws of :data:`OTHER_LAWS`, typed parameters.
Runs write a time-series CSV plus a JSON summary; with a fixed seed the CSV
bytes are reproducible on one platform.

Flow/wave CSV columns:
``t, f_est, min_rel_eig, max_rel_eig, sup_ric_norm, sup_riem_norm,
scalar_min, scalar_max, eq_residual, det_g_min``.  ``eq_residual`` is
exactly 0 for ``ricci`` and ``ricci-wave``, whose rate is built from the
curvature it is checked against; for the other laws it is the Weyl part of
Riem, which the pair trace cannot see, at n >= 4, and a roundoff check
only at n = 3.

Summary keys: ``termination, t_final, T_est, blowup_exponent, residuals,
discrepancies`` plus the scenario id, wall time and a config echo; flows
and waves add ``T_est_uncertainty`` and ``residuals.equation_max_relative``
(max of eq_residual / sup_riem_norm where sup_riem_norm > 0).  The
``discrepancies`` list records where the commonly quoted constants disagree
with the values computed under the implemented sign conventions (the
constant-curvature factor of the round sphere, the sign of the scaled-flow
coefficient, the validity condition of the closed-form wave polynomial).
A ``conformal-wave`` run steps with the largest step not above ``dt`` that
divides ``t_end`` and reports it as ``dt_used``.
"""

import json
import math
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .charts import DEFAULT_ANALYTIC_STEP, AnalyticChart, GridChart, MetricField, _require_periodic
from .errors import NoSingularity, ParseError, SchemaError, finite_number, whole_number
from .families import make_family
from .flow import COLLAPSE_EIG_FRACTION, integrate_flow, monitor_blow_up, resolve_law, step_ends
from .wave import (
    constant_curvature_wave_ode,
    conformally_flat_wave_solve,
    integrate_wave,
)

FLOW_LAWS = {"ricci-flow": "ricci", "riemann-flow": "riemann-induced",
             "riemann-type": "riemann-type", "general-flow": "general"}
WAVE_LAWS = {"ricci-wave": "ricci-wave", "riemann-wave": "riemann-wave",
             "general": "general"}
# the scenario laws outside the law table, with their parameters' defaults
OTHER_LAWS = {"scale-ode": {"lam": 0.0, "v": 0.0},
              "conformal-wave": {"amplitude": 1e-4, "mode": 1, "points": 256,
                                 "length": 1.0, "velocity": "zero"}}
VELOCITIES = ("zero", "right-mover")
# the seed of the family's random phases in a scenario that gives none
DEFAULT_SEED = 0
# the integrator settings of a scenario that gives none
INTEGRATOR_DEFAULTS = {"dt": 1e-3, "t_end": 1.0, "stride": 10}

CSV_COLUMNS = ("t", "f_est", "min_rel_eig", "max_rel_eig", "sup_ric_norm",
               "sup_riem_norm", "scalar_min", "scalar_max", "eq_residual",
               "det_g_min")


@dataclass
class ScenarioConfig:
    scenario_id: str
    family_name: str
    family_params: dict
    dimension: int
    chart_spec: dict
    chart: object         # the chart of chart_spec, built at load
    law_name: str
    law: object           # a flow or wave law's Law record, else its solver's parameters
    dt: float
    t_end: float
    stride: int
    collapse_threshold: float
    curvature_cap: float
    initial_velocity_scale: float
    csv_path: str
    summary_path: str
    seed: int
    raw: dict = dataclass_field(default_factory=dict)


_TOP_KEYS = {"id", "family", "chart", "law", "integrator", "stop",
             "initial_velocity_scale", "output", "seed"}


def _require_known(mapping, allowed, context):
    for key in mapping:
        if key not in allowed:
            raise SchemaError(f"unknown {context} key", key=key)


def load_config(path):
    """Parse and validate a scenario configuration file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return config_from_dict(raw, default_id=str(path))
    except (TypeError, ValueError) as exc:
        # a value of the wrong type, such as "dt": "fast"
        raise SchemaError(f"{path}: {exc}") from None


def config_from_dict(raw, default_id="scenario"):
    if not isinstance(raw, dict):
        raise SchemaError("configuration root must be an object")
    _require_known(raw, _TOP_KEYS, "configuration")

    family = raw.get("family")
    if isinstance(family, str):
        family = {"name": family}
    if not isinstance(family, dict) or "name" not in family:
        raise SchemaError("configuration needs a family name", key="family")
    _require_known(family, {"name", "params", "dimension"}, "family")
    family_name = family["name"]
    family_params = dict(family.get("params", {}))

    chart = dict(raw.get("chart", {}))
    _require_known(chart, {"dimension", "kind", "point", "step",
                           "points_per_axis", "lengths"}, "chart")
    dimension = whole_number(chart.get("dimension", family.get("dimension", 3)), "dimension",
                             least=2)
    # built here to refuse a bad family or chart at load; the run keeps the
    # chart and builds its own family, whose random phases the seed sets
    metric_family = make_family(family_name, dimension, family_params,
                                np.random.default_rng(0))
    built_chart = _build_chart(chart, metric_family)

    law = raw.get("law")
    if isinstance(law, str):
        law = {"name": law}
    if not isinstance(law, dict) or "name" not in law:
        raise SchemaError("configuration needs a law name", key="law")
    law_params = dict(law)
    law_name = law_params.pop("name")
    known = set(FLOW_LAWS) | set(WAVE_LAWS) | set(OTHER_LAWS)
    if law_name not in known:
        raise SchemaError(f"unknown law {law_name!r}; choose from {sorted(known)}",
                          key="law")
    if law_name in OTHER_LAWS:
        law = _other_law_params(law_name, law_params)
    else:
        try:
            law = resolve_law(({**FLOW_LAWS, **WAVE_LAWS}[law_name], law_params), dimension,
                              1 if law_name in FLOW_LAWS else 2)
        except ValueError as exc:
            raise SchemaError(f"{law_name}: {exc}", key="law") from None

    integ = {**INTEGRATOR_DEFAULTS, **dict(raw.get("integrator", {}))}
    _require_known(integ, INTEGRATOR_DEFAULTS, "integrator")
    dt = finite_number(integ["dt"], "dt", positive=True)
    t_end = finite_number(integ["t_end"], "t_end", positive=True)
    stride = whole_number(integ["stride"], "stride", least=1)

    stop = dict(raw.get("stop", {}))
    _require_known(stop, {"collapse_threshold", "curvature_cap"}, "stop")
    collapse_threshold = finite_number(stop.get("collapse_threshold", COLLAPSE_EIG_FRACTION),
                                       "collapse_threshold")
    curvature_cap = stop.get("curvature_cap")
    if curvature_cap is not None:
        curvature_cap = finite_number(curvature_cap, "curvature_cap")

    output = dict(raw.get("output", {}))
    _require_known(output, {"csv", "summary"}, "output")

    scenario_id = str(raw.get("id", default_id))
    return ScenarioConfig(
        scenario_id=scenario_id,
        family_name=family_name,
        family_params=family_params,
        dimension=dimension,
        chart_spec=chart,
        chart=built_chart,
        law_name=law_name,
        law=law,
        dt=dt,
        t_end=t_end,
        stride=stride,
        collapse_threshold=collapse_threshold,
        curvature_cap=curvature_cap,
        initial_velocity_scale=finite_number(raw.get("initial_velocity_scale", 0.0),
                                             "initial_velocity_scale"),
        csv_path=output.get("csv", f"{scenario_id}.csv"),
        summary_path=output.get("summary", f"{scenario_id}.json"),
        seed=whole_number(raw.get("seed", DEFAULT_SEED), "seed", least=0),
        raw=dict(raw),
    )


def _build_chart(spec, family):
    """The chart of ``spec`` for a :class:`~riemflow.families.MetricFamily`.
    A grid chart's periods default to the family's ``default_lengths``, and
    a family with fixed ``periods`` refuses others (``SchemaError`` on
    ``lengths``).  A spec the chart classes refuse raises ``SchemaError``
    on ``chart``, for scenarios and the CLI alike."""
    try:
        return _chart_of(spec, family)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad chart: {exc}", key="chart") from None


def _chart_of(spec, family):
    dimension = family.dimension
    kind = spec.get("kind")
    if kind is None:
        kind = "periodic-grid" if family.default_lengths else "analytic-point"
    if kind == "analytic-point":
        point = np.asarray(spec.get("point", [0.0] * dimension), dtype=float)
        return AnalyticChart(dimension, point, float(spec.get("step", DEFAULT_ANALYTIC_STEP)))
    if kind == "periodic-grid":
        ppa = spec.get("points_per_axis", 16)
        ppa = (whole_number(ppa, "points_per_axis") if np.isscalar(ppa)
               else tuple(whole_number(p, "points_per_axis") for p in ppa))
        lengths = spec.get("lengths", family.default_lengths or 2.0 * math.pi)
        chart = GridChart(dimension, ppa, lengths if np.isscalar(lengths) else tuple(lengths))
        if family.periods is not None and chart.lengths != family.periods:
            raise SchemaError(f"chart lengths {list(chart.lengths)} are not the "
                              f"{family.name} periods {list(family.periods)}", key="lengths")
        try:
            _require_periodic(chart, family.metric_function, f"{family.name} metric", "g")
        except ValueError as exc:
            raise SchemaError(f"bad chart: {exc}", key="chart") from None
        return chart
    raise SchemaError(f"unknown chart kind {kind!r}", key="kind")


def _fmt(x):
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return format(float(x), ".17g")


def _write_csv(path, columns, rows):
    lines = [",".join(columns)] + [",".join(_fmt(v) for v in row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _family_discrepancies(cfg, family):
    notes = []
    lam = family.constant_curvature
    if lam is not None and lam != 0.0:
        # the commonly quoted factor for these model spaces is (n-1) with the
        # opposite sign of the computed one
        notes.append({
            "id": f"{cfg.family_name}-curvature-factor",
            "computed": lam,
            "commonly_stated": -math.copysign(cfg.dimension - 1, lam),
            "note": "constant-curvature factor under the implemented component "
                    "formula; the commonly quoted value is (n-1) with the "
                    "opposite sign, which would put the collapse on the other "
                    "model space",
        })
        if lam > 0:
            notes.append({
                "id": "collapse-time-comparison",
                "computed": 1.0 / lam,
                "commonly_stated": 1.0 / (cfg.dimension - 1),
                "note": "finite collapse horizon 1/factor versus the commonly "
                        "stated 1/(n-1)",
            })
    if cfg.law.name == "riemann-type":
        n = cfg.dimension
        notes.append({
            "id": "scaled-flow-alpha-sign",
            "computed": -2.0 * (n - 2),
            "commonly_stated": 2.0 * (n - 2),
            "note": "leading coefficient that actually converts the scaled "
                    "pair-product flow into the classical first-order law",
        })
    return notes


def run_scenario(cfg: ScenarioConfig):
    """Run one scenario, write its artifacts, return the summary dict."""
    t_start = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    summary = {
        "id": cfg.scenario_id,
        "termination": None,
        "t_final": None,
        "T_est": None,
        "blowup_exponent": None,
        "residuals": {},
        "discrepancies": [],
        "config": cfg.raw,
    }
    exit_code = 0

    if cfg.law_name == "scale-ode":
        lam, v = cfg.law["lam"], cfg.law["v"]
        result = constant_curvature_wave_ode(lam, v, cfg.dt, cfg.t_end,
                                             record_stride=cfg.stride)
        rows = [[t, f, fp] for t, f, fp in zip(result.times, result.scales, result.rates)]
        _write_csv(cfg.csv_path, ("t", "f", "f_rate"), rows)
        collapsed = result.collapse_time is not None
        summary["termination"] = "collapse" if collapsed else "t_end"
        summary["t_final"] = float(result.times[-1])
        summary["T_est"] = result.collapse_time
        summary["residuals"] = {"polynomial_condition": result.polynomial_residual}
        summary["concave"] = result.concave
        summary["discrepancies"] = _scale_ode_notes(lam, v)
        exit_code = 2 if collapsed else 0
    elif cfg.law_name == "conformal-wave":
        amp, mode, N, L = (cfg.law[key] for key in ("amplitude", "mode", "points", "length"))
        x = np.arange(N) * (L / N)
        u0 = 1.0 + amp * np.sin(2.0 * math.pi * mode * x / L)
        if cfg.law["velocity"] == "zero":
            u1 = np.zeros(N)
        else:
            u1 = -amp * (2.0 * math.pi * mode / L) * np.cos(2.0 * math.pi * mode * x / L)
        # the solver takes whole steps: use the largest step not above dt
        # that divides t_end, so the run ends exactly at t_end
        dt = cfg.t_end / len(step_ends(0.0, cfg.t_end, cfg.dt))
        result = conformally_flat_wave_solve(u0, u1, dt, cfg.t_end, length=L,
                                             stride=cfg.stride)
        rows = [[t, u.min(), u.max(), 0.5 * (u.max() - u.min())]
                for t, u in zip(result.times, result.u)]
        _write_csv(cfg.csv_path, ("t", "u_min", "u_max", "half_range"), rows)
        summary["termination"] = "t_end"
        summary["t_final"] = float(result.times[-1])
        summary["residuals"] = {"min_u": float(result.u.min())}
        summary["dt_used"] = dt
    else:
        family = make_family(cfg.family_name, cfg.dimension, cfg.family_params, rng)
        fld = MetricField.from_function(cfg.chart, family.metric_function)
        if cfg.law_name in FLOW_LAWS:
            traj = integrate_flow(fld, cfg.law, cfg.dt, cfg.t_end, stride=cfg.stride,
                                  collapse_threshold=cfg.collapse_threshold,
                                  curvature_cap=cfg.curvature_cap)
        else:
            v0 = cfg.initial_velocity_scale * fld.samples
            traj = integrate_wave(fld, cfg.law, cfg.dt, cfg.t_end, velocity=v0,
                                  stride=cfg.stride,
                                  collapse_threshold=cfg.collapse_threshold,
                                  curvature_cap=cfg.curvature_cap)
        _write_csv(cfg.csv_path, CSV_COLUMNS,
                   zip(traj.times, *(traj.diagnostics[c] for c in CSV_COLUMNS[1:])))
        summary["termination"] = traj.termination
        summary["t_final"] = float(traj.times[-1])
        resid = traj.diagnostic("eq_residual")
        riem = traj.diagnostic("sup_riem_norm")
        curved = riem != 0.0       # a flat record has no scale: None if all are
        summary["residuals"] = {"equation_max": float(np.nanmax(resid)),
                                "equation_max_relative": float(np.nanmax(
                                    resid[curved] / riem[curved])) if curved.any() else None}
        summary["T_est_uncertainty"] = None
        if traj.termination in ("collapse", "curvature_cap"):
            exit_code = 2
            try:
                report = monitor_blow_up(traj)
                summary["T_est"] = report.T_est
                summary["T_est_uncertainty"] = report.T_est_uncertainty
                summary["blowup_exponent"] = report.exponent
            except (NoSingularity, ValueError):
                pass
        summary["discrepancies"] = _family_discrepancies(cfg, family)

    summary["wall_time_s"] = time.perf_counter() - t_start
    summary["exit_code"] = exit_code
    with open(cfg.summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return summary


def _other_law_params(law_name, law_params):
    """The parameters of a scale-ode or conformal-wave scenario over their
    defaults in :data:`OTHER_LAWS`, numbers converted to their default's
    type; :class:`SchemaError` for a name without a default, a value that
    is not a finite number where the default is a number, a fraction where
    it is a whole number, and for a conformal wave of fewer than 3 points,
    a length that is not positive or a velocity not in :data:`VELOCITIES`."""
    defaults = OTHER_LAWS[law_name]
    extra = set(law_params) - set(defaults)
    if extra:
        raise SchemaError(f"unknown {law_name} parameter", key=sorted(extra)[0])
    params = {**defaults, **law_params}
    for key, default in defaults.items():
        if type(default) is int:
            params[key] = whole_number(params[key], key)
        elif type(default) is float:
            params[key] = finite_number(params[key], key)
    if law_name == "conformal-wave":
        if params["velocity"] not in VELOCITIES:
            raise SchemaError("velocity must be 'zero' or 'right-mover'", key="velocity")
        if params["points"] < 3:
            raise SchemaError("conformal-wave needs at least 3 points", key="points")
        if params["length"] <= 0.0:
            raise SchemaError("length must be positive", key="length")
    return params


def _scale_ode_notes(lam, v):
    return [{
        "id": "wave-polynomial-condition",
        "computed": v * v + 2.0 * lam / 3.0,
        "commonly_stated": 0.0,
        "note": "the closed-form quadratic solves the scale equation exactly "
                "only when v^2 = -2 lam / 3",
    }]
