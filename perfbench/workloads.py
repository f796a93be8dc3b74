"""The four workloads: their initial fields, operations and output checks.

An operation is one scenario or solve together with its checks.  ``run``
calls riemflow's public API and is the only timed part; ``check`` compares
the result with the oracles in ``oracles.py`` or with a property the method
must have, and returns the list of problems found (empty when it passes).

Every riemflow function is called through its module attribute (for example
``flow.integrate_flow``) so that the traced run sees the wrapped function.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from riemflow import flow, scenarios, variation, wave
from riemflow.charts import AnalyticChart, GridChart, MetricField
from riemflow.families import make_family

import oracles

# columns of the flow CSV that carry the trajectory (f_est, eq_residual and
# det_g_min are excluded from the step-order check: they sit at roundoff)
STATE_COLUMNS = ("min_rel_eig", "max_rel_eig", "sup_ric_norm", "sup_riem_norm",
                 "scalar_min", "scalar_max")


@dataclass
class Operation:
    name: str
    run: object      # () -> result, timed
    check: object    # result -> list of problems, untimed


def read_csv(path):
    """Columns of a riemflow CSV as float arrays keyed by header name."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, k] for k, name in enumerate(header)}


def _expect(problems, ok, message):
    if not ok:
        problems.append(message)


def _initial_field(cfg):
    """The scenario's initial metric field, built as run_scenario builds it."""
    family = make_family(cfg.family_name, cfg.dimension, cfg.family_params,
                         np.random.default_rng(cfg.seed))
    spec = cfg.chart_spec
    if spec["kind"] == "analytic-point":
        chart = AnalyticChart(cfg.dimension, np.asarray(spec["point"], dtype=float),
                              float(spec["step"]))
    else:
        chart = GridChart(cfg.dimension, spec["points_per_axis"],
                          family.default_lengths)
    return MetricField.from_function(chart, family.metric_function)


def _load_scenarios(inputs):
    """The scenario configs and their initial fields.  run_scenario builds
    its own fields; these are built because set-up (``setup_s``) includes
    them, as it does for ``riemflow run``."""
    configs = [scenarios.load_config(path) for path in inputs["config_files"]]
    return configs, [_initial_field(cfg) for cfg in configs]


def _scenario_op(cfg, check):
    def run():
        summary = scenarios.run_scenario(cfg)
        return summary, read_csv(cfg.csv_path)
    return Operation(cfg.scenario_id, run, check)


# ---------------------------------------------------------------------------
# analytic-collapse
# ---------------------------------------------------------------------------


def _check_collapse(result, scale, T, T_tol, exponent, exponent_tol, scale_tol,
                    residual_ratio_max):
    """Shared checks of a collapse on a constant-curvature chart.

    ``scale(t)`` is the oracle for the relative eigenvalues; the check uses
    records where the oracle is defined (above its floor).
    """
    summary, csv = result
    problems = []
    _expect(problems, summary["termination"] == "collapse",
            f"termination {summary['termination']!r}, expected 'collapse'")
    ref = scale(csv["t"])
    keep = np.isfinite(ref)
    _expect(problems, keep.sum() >= 10, f"only {keep.sum()} records above the oracle floor")
    for col in ("min_rel_eig", "max_rel_eig"):
        err = float(np.abs(csv[col][keep] - ref[keep]).max())
        _expect(problems, err <= scale_tol, f"{col} off the oracle scale by {err:.3e}")
    T_est = summary["T_est"]
    _expect(problems, T_est is not None and abs(T_est - T) <= T_tol,
            f"T_est {T_est} vs {T}")
    exp = summary["blowup_exponent"]
    _expect(problems, exp is not None and abs(exp - exponent) <= exponent_tol,
            f"blow-up exponent {exp} vs {exponent}")
    if residual_ratio_max is not None:
        ratio = float(np.max(csv["eq_residual"] / csv["sup_riem_norm"]))
        _expect(problems, ratio <= residual_ratio_max,
                f"eq_residual / sup_riem_norm = {ratio:.3e}")
    return problems


class AnalyticCollapse:
    """hyperbolic-poincare, n = 3, one analytic chart point: the Riemann
    flow, the Ricci flow and the Riemann wave from rest, each to collapse."""

    def build(self, inputs):
        configs, fields = _load_scenarios(inputs)
        return {"configs": configs, "fields": fields}

    def warm_up(self, state):
        # the same three laws at a ten times coarser step: every code path
        # of a collapse run, including the blow-up fits, at a tenth of the cost
        for cfg in state["configs"]:
            coarse = scenarios.config_from_dict(
                dict(cfg.raw, integrator=dict(cfg.raw["integrator"], dt=10 * cfg.dt)))
            scenarios.run_scenario(coarse)

    def operations(self, state):
        n = 3
        lam = 1.0           # riemflow's sectional factor of the hyperbolic ball
        T_wave = oracles.beta_collapse_time(lam)

        def wave_scale(t):
            ref = oracles.scale_ode_reference(lam, 0.0, t)
            # near the singularity f ~ sqrt(T - t) and RK4's error grows;
            # compare only while the scale is above 0.1
            return np.where(ref > 0.1, ref, np.nan)

        checks = {
            "riemann-flow": lambda r: _check_collapse(
                r, lambda t: oracles.homothety_scale(lam, t), 1.0 / lam, 1e-6,
                -1.0, 1e-3, 1e-6, 1e-8),
            # the Ricci residual is scored against the Riemann law's
            # equation by the program, so it is not checked here
            "ricci-flow": lambda r: _check_collapse(
                r, lambda t: oracles.homothety_scale(2.0 * (n - 1) * lam, t),
                1.0 / (2.0 * (n - 1) * lam), 1e-6, -1.0, 1e-3, 1e-6, None),
            # the wave's T_est may be off by the method's accuracy, a tenth
            # of its step (dt = 1e-3), not by roundoff
            "riemann-wave": lambda r: _check_collapse(
                r, wave_scale, T_wave, 1e-4, -0.5, 1e-2, 1e-6, 1e-8),
        }
        return [_scenario_op(cfg, checks[cfg.scenario_id]) for cfg in state["configs"]]


# ---------------------------------------------------------------------------
# grid-flow
# ---------------------------------------------------------------------------


class GridFlow:
    """conformal-torus on a 12^3 periodic grid, Riemann flow to t = 0.2."""

    def build(self, inputs):
        configs, fields = _load_scenarios(inputs)
        return {"inputs": inputs, "configs": configs, "fields": fields,
                "references": None}

    def warm_up(self, state):
        # the reference runs at 2 dt and 4 dt (configs[1:], in that order)
        # double as the warm-up pass
        finals = []
        for cfg in state["configs"][1:]:
            summary = scenarios.run_scenario(cfg)
            if summary["termination"] != "t_end":
                raise RuntimeError(f"reference run {cfg.scenario_id} ended with "
                                   f"{summary['termination']!r}")
            csv = read_csv(cfg.csv_path)
            finals.append(np.array([csv[c][-1] for c in STATE_COLUMNS]))
        state["references"] = finals

    def operations(self, state):
        inputs = state["inputs"]
        cfg = state["configs"][0]
        n = cfg.dimension
        ppa = inputs["points_per_axis"]
        lengths = np.asarray(inputs["lengths"])
        axes = [np.arange(ppa) * L / ppa for L in lengths]
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        params = inputs["family_params"]
        phi, grad_sq, lap = oracles.conformal_torus_phi(
            points, params["amplitude"], params["mode"], params["phases"], lengths)
        scal = oracles.conformal_scalar(phi, grad_sq, lap, n)
        # fourth-order stencils: error ~ (k h)^4 times the curvature scale,
        # with k h = 2 pi mode / points per axis on every axis
        kh = 2.0 * math.pi * params["mode"] / ppa
        scal_tol = 0.05 * kh ** 4 * float(np.abs(scal).max())

        def check(result):
            summary, csv = result
            problems = []
            _expect(problems, summary["termination"] == "t_end",
                    f"termination {summary['termination']!r}")
            _expect(problems, abs(summary["t_final"] - cfg.t_end) <= 1e-12,
                    f"t_final {summary['t_final']!r} != {cfg.t_end}")
            _expect(problems, all(np.all(np.isfinite(v)) for v in csv.values()),
                    "non-finite CSV values")
            _expect(problems, csv["t"][0] == 0.0, "first record is not t = 0")
            for col, ref in (("scalar_min", scal.min()), ("scalar_max", scal.max())):
                err = abs(csv[col][0] - ref)
                _expect(problems, err <= scal_tol,
                        f"{col} at t=0 is {csv[col][0]:.6f}, closed form {ref:.6f} "
                        f"(tolerance {scal_tol:.2e})")
            ratio = float(np.max(csv["eq_residual"] / csv["sup_riem_norm"]))
            _expect(problems, ratio <= 1e-10, f"eq_residual / sup_riem_norm = {ratio:.3e}")
            # RK4 is fourth order: the final-state gaps to the 2 dt and 4 dt
            # runs shrink by about 2^4, and the gap to the 2 dt run bounds
            # this run's own temporal error (gap / 15)
            final = np.array([csv[c][-1] for c in STATE_COLUMNS])
            ref2, ref4 = state["references"]
            e1 = float(np.abs(final - ref2).max())
            e2 = float(np.abs(ref2 - ref4).max())
            order = oracles.observed_order(e2, e1) if e1 > 0 else float("inf")
            _expect(problems, 3.0 <= order <= 5.0,
                    f"observed temporal order {order:.3f} (gaps {e2:.3e}, {e1:.3e})")
            _expect(problems, e1 / 15.0 <= 1e-8 * float(np.abs(final).max()),
                    f"temporal error estimate {e1 / 15.0:.3e}")
            return problems

        return [_scenario_op(cfg, check)]


# ---------------------------------------------------------------------------
# grid-linearize
# ---------------------------------------------------------------------------


class GridLinearize:
    """Two-run tangency of the linearized Riemann-induced flow on 8^3."""

    def build(self, inputs):
        n = 3
        family = make_family("conformal-torus", n,
                             {"amplitude": inputs["amplitude"], "mode": inputs["mode"],
                              "phases": inputs["phases"]})
        chart = GridChart(n, inputs["points_per_axis"], family.default_lengths)
        field = MetricField.from_function(chart, family.metric_function)
        rng = np.random.default_rng(inputs["direction_seed"])
        h = rng.normal(size=field.values.shape)
        h = 0.5 * (h + np.swapaxes(h, -1, -2)) * inputs["direction_scale"]
        eps = inputs["eps"]
        perturbed = [(e, MetricField.from_samples(chart, field.values + e * h),
                      MetricField.from_samples(chart, field.values - e * h))
                     for e in (eps, 0.5 * eps)]
        return {"inputs": inputs, "field": field, "h": h.reshape(field.samples.shape),
                "perturbed": perturbed}

    def _solve(self, state, t_end):
        inp = state["inputs"]
        law, dt = inp["law"], inp["dt"]
        h_lin = variation.integrate_linearized_flow(state["field"], state["h"], law,
                                                    dt, t_end)
        pairs = [(e, flow.integrate_flow(plus, law, dt, t_end, stride=10 ** 9),
                  flow.integrate_flow(minus, law, dt, t_end, stride=10 ** 9))
                 for e, plus, minus in state["perturbed"]]
        return h_lin, pairs

    def warm_up(self, state):
        self._solve(state, 2 * state["inputs"]["dt"])

    def operations(self, state):
        t_end = state["inputs"]["t_end"]

        def check(result):
            h_lin, pairs = result
            problems = []
            _expect(problems, np.all(np.isfinite(h_lin)), "non-finite linearized solution")
            errors = []
            for e, tp, tm in pairs:
                for traj in (tp, tm):
                    _expect(problems, traj.termination == "t_end"
                            and abs(traj.times[-1] - t_end) <= 1e-12,
                            f"nonlinear run ended with {traj.termination!r} at {traj.times[-1]}")
                quotient = (tp.states[-1] - tm.states[-1]) / (2.0 * e)
                errors.append(float(np.abs(quotient - h_lin).max()))
            scale = float(np.abs(h_lin).max())
            order = oracles.observed_order(errors[0], errors[1]) if errors[1] > 0 else 0.0
            _expect(problems, 1.95 <= order <= 2.05,
                    f"tangency order {order:.4f} (errors {errors})")
            eps = pairs[0][0]
            _expect(problems, errors[0] <= 10.0 * eps * eps * scale,
                    f"tangency error {errors[0]:.3e} vs max|h(T)| {scale:.3e}")
            return problems

        return [Operation("tangency", lambda: self._solve(state, t_end), check)]


# ---------------------------------------------------------------------------
# reduced-wave
# ---------------------------------------------------------------------------


class ReducedWave:
    """The 1+1 conformally flat wave and the constant-curvature scale ODE."""

    def build(self, inputs):
        N, L = inputs["points"], inputs["length"]
        x = np.arange(N) * (L / N)
        k = 2.0 * math.pi / L
        modes = {}
        for name in ("standing", "right_mover"):
            a, p = inputs[name]["amplitude"], inputs[name]["phase"]
            u0 = 1.0 + a * np.sin(k * (x + p))
            u1 = np.zeros(N) if name == "standing" else -a * k * np.cos(k * (x + p))
            modes[name] = (u0, u1)
        return {"inputs": inputs, "x": x, "modes": modes}

    def warm_up(self, state):
        inp = state["inputs"]
        for u0, u1 in state["modes"].values():
            wave.conformally_flat_wave_solve(u0, u1, inp["dt"], 16 * inp["dt"],
                                             length=inp["length"], stride=inp["stride"])
        for key in ("scale_collapse", "scale_polynomial"):
            c = inp[key]
            wave.constant_curvature_wave_ode(c["lam"], c["v"], c["dt"], c["t_end"],
                                             record_stride=c["stride"])

    def operations(self, state):
        inp = state["inputs"]
        x = state["x"]
        ops = []
        refs = {"standing": oracles.dalembert_standing, "right_mover": oracles.dalembert_right}
        for name, (u0, u1) in state["modes"].items():
            a, phase = inp[name]["amplitude"], inp[name]["phase"]

            def run(u0=u0, u1=u1):
                return wave.conformally_flat_wave_solve(u0, u1, inp["dt"], inp["t_end"],
                                                        length=inp["length"],
                                                        stride=inp["stride"])

            def check(result, a=a, phase=phase, ref=refs[name]):
                problems = []
                t_end = inp["t_end"]
                _expect(problems, abs(result.times[-1] - t_end) <= 1e-12 * t_end,
                        f"t_final {result.times[-1]!r} != t_end {t_end}")
                exact = ref(x[None, :], result.times[:, None], a, phase)
                gap = float(np.abs(result.u - exact).max())
                # the nonlinearity moves u off d'Alembert by O(a^2 k^2 t)
                bound = 2.0 * (2.0 * math.pi) ** 2 * t_end * a * a
                _expect(problems, gap <= bound,
                        f"gap to d'Alembert {gap:.3e} exceeds {bound:.3e} (a = {a:.3e})")
                return problems

            ops.append(Operation(name, run, check))

        col = inp["scale_collapse"]
        T = oracles.beta_collapse_time(col["lam"])

        def check_collapse(result):
            problems = []
            Tc = result.collapse_time
            # the bound is the method's accuracy: a tenth of one step
            _expect(problems, Tc is not None and abs(Tc - T) <= 0.1 * col["dt"],
                    f"collapse time {Tc!r} vs closed form {T:.10f}")
            ref = oracles.scale_ode_reference(col["lam"], col["v"], result.times)
            keep = ref > 0.1
            err = float(np.abs(result.scales[keep] - ref[keep]).max())
            _expect(problems, err <= 1e-6, f"scale off the reference by {err:.3e}")
            return problems

        pol = inp["scale_polynomial"]
        # (1 + c t)^2 is exact for v = 2c and lam = -6 c^2
        c_rate = 0.5 * pol["v"]
        if abs(pol["lam"] + 6.0 * c_rate * c_rate) > 1e-12:
            raise ValueError("scale_polynomial needs lam = -6 (v/2)^2")

        def check_polynomial(result):
            problems = []
            _expect(problems, result.collapse_time is None, "polynomial case collapsed")
            _expect(problems, abs(result.times[-1] - pol["t_end"]) <= 1e-9,
                    f"ended at {result.times[-1]!r}")
            exact = oracles.polynomial_scale(c_rate, result.times)
            err = float(np.max(np.abs(result.scales - exact) / exact))
            _expect(problems, err <= 1e-9, f"relative gap to (1 + t)^2 is {err:.3e}")
            return problems

        for key, check in (("scale_collapse", check_collapse),
                           ("scale_polynomial", check_polynomial)):
            c = inp[key]
            ops.append(Operation(key, lambda c=c: wave.constant_curvature_wave_ode(
                c["lam"], c["v"], c["dt"], c["t_end"], record_stride=c["stride"]), check))
        return ops


WORKLOADS = {
    "analytic-collapse": AnalyticCollapse(),
    "grid-flow": GridFlow(),
    "grid-linearize": GridLinearize(),
    "reduced-wave": ReducedWave(),
}


def load_inputs(path):
    with open(path) as fh:
        return json.load(fh)
