"""Configuration-driven experiment runner.

A scenario is a JSON document selecting a metric family, a chart, an
evolution law, integrator settings and output paths.  A document is checked
when it is loaded, before any run starts: unknown keys, parameters the law
or the family does not take or cannot use, a fraction where a whole number
is needed (``dimension``, ``stride``, ``points_per_axis``, ``mode``,
``points``), a chart that cannot be built, grid ``lengths`` other than a
conformal torus's periods, and a conformal wave of fewer than 3 ``points``
or a ``length`` that is not positive and finite are refused with
:class:`SchemaError`.  A grid chart without ``lengths`` takes the family's.
Runs write a time-series CSV plus a JSON summary; with a fixed seed the CSV
bytes are reproducible on one platform.

Flow/wave CSV columns:
``t, f_est, min_rel_eig, max_rel_eig, sup_ric_norm, sup_riem_norm,
scalar_min, scalar_max, eq_residual, det_g_min``.

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

from .charts import DEFAULT_ANALYTIC_STEP, AnalyticChart, GridChart, MetricField
from .errors import NoSingularity, ParseError, SchemaError, whole_number
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
_VELOCITIES = ("zero", "right-mover")

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
    law_name: str
    law_params: dict
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
    dimension = whole_number(chart.get("dimension", family.get("dimension", 3)), "dimension")
    if dimension < 2:
        raise SchemaError("chart dimension must be at least 2", key="dimension")
    # built once here to refuse a bad family or chart at load; the run builds
    # its own family, whose random phases come from the scenario seed
    metric_family = make_family(family_name, dimension, family_params,
                                np.random.default_rng(0))
    _build_chart(chart, metric_family)

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
        _other_law_params(law_name, law_params)
    else:
        _resolved_law(law_name, law_params, dimension)

    integ = dict(raw.get("integrator", {}))
    _require_known(integ, {"dt", "t_end", "stride"}, "integrator")
    dt = float(integ.get("dt", 1e-3))
    t_end = float(integ.get("t_end", 1.0))
    stride = whole_number(integ.get("stride", 10), "stride")
    if dt <= 0:
        raise SchemaError("dt must be positive", key="dt")
    if t_end <= 0:
        raise SchemaError("t_end must be positive", key="t_end")
    if stride < 1:
        raise SchemaError("stride must be at least 1", key="stride")

    stop = dict(raw.get("stop", {}))
    _require_known(stop, {"collapse_threshold", "curvature_cap"}, "stop")
    collapse_threshold = float(stop.get("collapse_threshold", COLLAPSE_EIG_FRACTION))
    curvature_cap = stop.get("curvature_cap")
    if curvature_cap is not None:
        curvature_cap = float(curvature_cap)

    output = dict(raw.get("output", {}))
    _require_known(output, {"csv", "summary"}, "output")

    scenario_id = str(raw.get("id", default_id))
    return ScenarioConfig(
        scenario_id=scenario_id,
        family_name=family_name,
        family_params=family_params,
        dimension=dimension,
        chart_spec=chart,
        law_name=law_name,
        law_params=law_params,
        dt=dt,
        t_end=t_end,
        stride=stride,
        collapse_threshold=collapse_threshold,
        curvature_cap=curvature_cap,
        initial_velocity_scale=float(raw.get("initial_velocity_scale", 0.0)),
        csv_path=output.get("csv", f"{scenario_id}.csv"),
        summary_path=output.get("summary", f"{scenario_id}.json"),
        seed=int(raw.get("seed", 0)),
        raw=dict(raw),
    )


def _resolved_law(law_name, law_params, dimension):
    """The library's law record of a flow or wave scenario law."""
    order = 1 if law_name in FLOW_LAWS else 2
    try:
        return resolve_law(({**FLOW_LAWS, **WAVE_LAWS}[law_name], law_params), dimension,
                           order)
    except ValueError as exc:
        raise SchemaError(f"{law_name}: {exc}", key="law") from None


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
        _require_periodic(chart, family)
        return chart
    raise SchemaError(f"unknown chart kind {kind!r}", key="kind")


def _require_periodic(chart, family):
    """Refuse (``SchemaError`` on ``chart``) a grid on which the family's
    metric is not finite, or differs by more than 1e-9 of max |g| from its
    values one period further along some axis."""
    shifts = np.vstack([np.zeros(chart.dimension), np.diag(chart.lengths)])
    with np.errstate(all="ignore"):
        g, *images = [np.asarray(family.metric_function(chart.sample_points + shift), dtype=float)
                      for shift in shifts]
        for axis, image in enumerate(images, 1):
            gap = np.abs(image - g).max() / np.abs(g).max()
            if not gap <= 1e-9:   # nan where a value is not finite
                raise SchemaError(f"bad chart: the {family.name} metric is not finite and "
                                  f"periodic on the grid: one period along axis {axis} changes "
                                  f"it by {gap:.3g} of max |g|", key="chart")


def _fmt(x):
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return format(float(x), ".17g")


def _write_csv(path, columns, rows):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _trajectory_rows(traj):
    d = traj.diagnostics
    rows = []
    for idx, t in enumerate(traj.times):
        rows.append([t] + [d[c][idx] for c in CSV_COLUMNS[1:]])
    return rows


def _family_discrepancies(cfg, family, law):
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
    if law.name == "riemann-type":
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
        params = _other_law_params(cfg.law_name, cfg.law_params)
        lam, v = params["lam"], params["v"]
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
        params = _other_law_params(cfg.law_name, cfg.law_params)
        amp, mode, N, L = (params[key] for key in ("amplitude", "mode", "points", "length"))
        x = np.arange(N) * (L / N)
        u0 = 1.0 + amp * np.sin(2.0 * math.pi * mode * x / L)
        if params["velocity"] == "zero":
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
        chart = _build_chart(cfg.chart_spec, family)
        fld = MetricField.from_function(chart, family.metric_function)
        law = _resolved_law(cfg.law_name, cfg.law_params, cfg.dimension)
        if cfg.law_name in FLOW_LAWS:
            traj = integrate_flow(fld, law, cfg.dt, cfg.t_end, stride=cfg.stride,
                                  collapse_threshold=cfg.collapse_threshold,
                                  curvature_cap=cfg.curvature_cap)
        else:
            v0 = cfg.initial_velocity_scale * fld.samples
            traj = integrate_wave(fld, law, cfg.dt, cfg.t_end, velocity=v0,
                                  stride=cfg.stride,
                                  collapse_threshold=cfg.collapse_threshold,
                                  curvature_cap=cfg.curvature_cap)
        _write_csv(cfg.csv_path, CSV_COLUMNS, _trajectory_rows(traj))
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
        summary["discrepancies"] = _family_discrepancies(cfg, family, law)

    summary["wall_time_s"] = time.perf_counter() - t_start
    summary["exit_code"] = exit_code
    with open(cfg.summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return summary


def _other_law_params(law_name, law_params):
    """The parameters of a scale-ode or conformal-wave scenario over their
    defaults in :data:`OTHER_LAWS`, each converted to its default's type;
    :class:`SchemaError` for a name without a default, a value that does
    not convert, a fraction where the default is a whole number, and for
    a conformal wave of fewer than 3 points or a length that is not
    positive and finite."""
    defaults = OTHER_LAWS[law_name]
    extra = set(law_params) - set(defaults)
    if extra:
        raise SchemaError(f"unknown {law_name} parameter", key=sorted(extra)[0])
    params = {**defaults, **law_params}
    for key, default in defaults.items():
        if type(default) is int:
            params[key] = whole_number(params[key], key)
        else:
            try:
                params[key] = type(default)(params[key])
            except (TypeError, ValueError):
                raise SchemaError(f"{law_name} parameter must be a number",
                                  key=key) from None
    if law_name == "conformal-wave":
        if params["velocity"] not in _VELOCITIES:
            raise SchemaError("velocity must be 'zero' or 'right-mover'", key="velocity")
        if params["points"] < 3:
            raise SchemaError("conformal-wave needs at least 3 points", key="points")
        if not 0.0 < params["length"] < math.inf:
            raise SchemaError("length must be positive and finite", key="length")
    return params


def _scale_ode_notes(lam, v):
    return [{
        "id": "wave-polynomial-condition",
        "computed": v * v + 2.0 * lam / 3.0,
        "commonly_stated": 0.0,
        "note": "the closed-form quadratic solves the scale equation exactly "
                "only when v^2 = -2 lam / 3",
    }]
