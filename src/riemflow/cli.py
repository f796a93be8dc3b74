"""Command-line entry points.

Subcommands: ``curvature`` (one-shot tensor report), ``flow``, ``wave``,
``scale-ode``, ``conformal-wave``, ``soliton``, ``linearize``,
``identity-check`` and ``run <config.json> [...]``.

Exit status: 0 for a smooth completion, 2 when a finite-time singularity was
detected (an expected scientific outcome, not an error) and 1 for internal
errors.
"""

import argparse
import concurrent.futures
import json
import sys

import numpy as np

from .bialternate import bialternate_product, recover_metric, verify_recovery_identity
from .charts import DEFAULT_ANALYTIC_STEP, MetricField
from .curvature import ricci_and_scalar, riemann, tensor_norm, weyl
from .errors import RiemflowError
from .families import make_family
from .flow import integrate_flow
from .scenarios import _build_chart, config_from_dict, load_config, run_scenario
from .variation import (
    SolitonData,
    classify_soliton,
    integrate_linearized_flow,
    linearized_flow_rhs,
    soliton_residual,
)


def _family_args(p, default_family="sphere-stereographic"):
    p.add_argument("--family", default=default_family)
    p.add_argument("--dimension", "-n", type=int, default=3)
    p.add_argument("--amplitude", type=float, default=0.05,
                   help="conformal-torus amplitude")
    p.add_argument("--mode", type=int, default=1, help="conformal-torus mode")
    p.add_argument("--lame", nargs="*", default=None,
                   help="diagonal-lame coefficient expressions, one per axis")
    p.add_argument("--seed", type=int, default=0)


def _chart_args(p):
    p.add_argument("--grid", type=int, default=None,
                   help="points per axis; selects a periodic-grid chart")
    p.add_argument("--point", type=float, nargs="*", default=None,
                   help="analytic chart evaluation point (defaults to origin)")
    p.add_argument("--step", type=float, default=DEFAULT_ANALYTIC_STEP,
                   help="analytic finite-difference step")


def _family_params(args):
    params = {}
    if args.family == "conformal-torus":
        params = {"amplitude": args.amplitude, "mode": args.mode}
    elif args.family == "diagonal-lame":
        if not args.lame:
            raise SystemExit("diagonal-lame needs --lame expressions")
        params = {"expressions": list(args.lame)}
    return params


def _chart_spec(args):
    """The scenario chart spec of the chart arguments."""
    if args.grid:
        return {"dimension": args.dimension, "kind": "periodic-grid", "points_per_axis": args.grid}
    return {"dimension": args.dimension, "kind": "analytic-point",
            "point": args.point or [0.0] * args.dimension, "step": args.step}


def _build_field(args):
    rng = np.random.default_rng(args.seed)
    family = make_family(args.family, args.dimension, _family_params(args), rng)
    chart = _build_chart(_chart_spec(args), family)
    return family, MetricField.from_function(chart, family.metric_function)


def _cmd_curvature(args):
    family, fld = _build_field(args)
    riem = riemann(fld)
    ric, scal = ricci_and_scalar(fld, riem)
    report = {
        "family": args.family,
        "dimension": args.dimension,
        "sup_riem_norm": float(tensor_norm(riem, fld).max()),
        "sup_ric_norm": float(tensor_norm(ric, fld).max()),
        "scalar_range": [float(scal.min()), float(scal.max())],
        "R_1212_first_sample": float(riem.block[0, 0, 0]),   # the pairs (0, 1), (0, 1)
    }
    if args.dimension >= 3:
        report["sup_weyl_norm"] = float(tensor_norm(weyl(fld, riem), fld).max())
    if family.constant_curvature is not None:
        report["constant_curvature_factor"] = family.constant_curvature
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _scenario_from_args(args, law_name, law_params=None, extra=None):
    raw = {
        "id": args.id,
        "family": {"name": args.family, "params": _family_params(args)},
        "chart": _chart_spec(args),
        "law": {"name": law_name, **(law_params or {})},
        "integrator": {"dt": args.dt, "t_end": args.t_end, "stride": args.stride},
        "output": {"csv": args.csv, "summary": args.summary},
        "seed": args.seed,
    }
    if extra:
        raw.update(extra)
    return config_from_dict(raw, default_id=args.id)


def _report(summary, keys=("id", "termination", "t_final", "T_est", "blowup_exponent")):
    """Print ``keys`` of a run's summary and return its exit code."""
    print(json.dumps({k: summary[k] for k in keys}, indent=2, sort_keys=True))
    return summary["exit_code"]


def _integration_args(p, t_end=1.0):
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-end", type=float, default=t_end)
    p.add_argument("--stride", type=int, default=10)
    p.add_argument("--csv", default=None)
    p.add_argument("--summary", default=None)
    p.add_argument("--id", default=None)


def _finalize_output_args(args, stem):
    if args.id is None:
        args.id = stem
    if args.csv is None:
        args.csv = f"{args.id}.csv"
    if args.summary is None:
        args.summary = f"{args.id}.json"


def _cmd_flow(args):
    _finalize_output_args(args, f"flow-{args.family}-n{args.dimension}")
    params = {key: value for key, value in (("alpha", args.alpha), ("beta", args.beta))
              if value is not None}
    return _report(run_scenario(_scenario_from_args(args, args.law, params)))


def _cmd_wave(args):
    _finalize_output_args(args, f"wave-{args.family}-n{args.dimension}")
    return _report(run_scenario(_scenario_from_args(
        args, args.law, None, extra={"initial_velocity_scale": args.velocity_scale})))


def _cmd_scale_ode(args):
    _finalize_output_args(args, f"scale-ode-lam{args.lam:g}")
    raw = {
        "id": args.id,
        "family": {"name": "flat"},
        "law": {"name": "scale-ode", "lam": args.lam, "v": args.v},
        "integrator": {"dt": args.dt, "t_end": args.t_end, "stride": args.stride},
        "output": {"csv": args.csv, "summary": args.summary},
        "seed": args.seed,
    }
    return _report(run_scenario(config_from_dict(raw, default_id=args.id)),
                   ("id", "termination", "T_est", "residuals"))


def _cmd_conformal_wave(args):
    _finalize_output_args(args, "conformal-wave")
    raw = {
        "id": args.id,
        "family": {"name": "flat"},
        "law": {"name": "conformal-wave", "amplitude": args.amplitude,
                "mode": args.mode, "points": args.points, "length": args.length,
                "velocity": args.velocity},
        "integrator": {"dt": args.dt, "t_end": args.t_end, "stride": args.stride},
        "output": {"csv": args.csv, "summary": args.summary},
        "seed": args.seed,
    }
    return _report(run_scenario(config_from_dict(raw, default_id=args.id)),
                   ("id", "termination", "t_final", "residuals"))


def _cmd_soliton(args):
    family, fld = _build_field(args)
    lam = args.lam
    if lam is None:
        lam = -(family.constant_curvature or 0.0)
    if args.potential == "zero":
        potential = lambda x: np.zeros(np.asarray(x).shape[:-1])  # noqa: E731
    elif args.potential == "quadratic":
        potential = lambda x: -lam * np.sum(np.asarray(x) ** 2, axis=-1) / 4.0  # noqa: E731
    else:
        raise SystemExit("potential must be 'zero' or 'quadratic'")
    _, norm = soliton_residual(fld, SolitonData(factor=lam, potential=potential))
    report = {
        "family": args.family,
        "factor": lam,
        "classification": classify_soliton(lam),
        "max_residual_norm": norm,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_linearize(args):
    rng = np.random.default_rng(args.seed)
    family = make_family("conformal-torus", args.dimension,
                         {"amplitude": args.amplitude, "mode": args.mode}, rng)
    chart = _build_chart({"kind": "periodic-grid", "points_per_axis": args.grid}, family)
    fld = MetricField.from_function(chart, family.metric_function)
    h = rng.normal(size=fld.values.shape)
    h = 0.5 * (h + np.swapaxes(h, -1, -2)) * 0.1

    lin = linearized_flow_rhs(fld, h.reshape(fld.samples.shape), which=args.which)
    hlin = integrate_linearized_flow(fld, h.reshape(fld.samples.shape), args.which,
                                     args.dt, args.t_end)
    errs = []
    for eps in (args.eps, 0.5 * args.eps):
        plus = MetricField.from_samples(chart, fld.values + eps * h)
        minus = MetricField.from_samples(chart, fld.values - eps * h)
        tp = integrate_flow(plus, args.which, args.dt, args.t_end, stride=10 ** 9)
        tm = integrate_flow(minus, args.which, args.dt, args.t_end, stride=10 ** 9)
        quotient = (tp.states[-1] - tm.states[-1]) / (2.0 * eps)
        errs.append(float(np.abs(quotient - hlin).max()))
    order = float(np.log2(errs[0] / errs[1])) if errs[1] > 0 else float("inf")
    report = {"which": args.which, "errors": errs, "observed_order": order,
              "initial_rhs_max": float(np.abs(lin).max())}
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_identity_check(args):
    rng = np.random.default_rng(args.seed)
    worst_identity = 0.0
    worst_roundtrip = 0.0
    for _ in range(args.count):
        a = rng.normal(size=(args.dimension, args.dimension))
        g = a @ a.T + args.dimension * np.eye(args.dimension)
        G = bialternate_product(g)
        worst_identity = max(worst_identity, verify_recovery_identity(g, G, rng=rng))
        rec = recover_metric(G, args.dimension)
        worst_roundtrip = max(worst_roundtrip, float(np.abs(rec - g).max()))
    report = {"dimension": args.dimension, "count": args.count,
              "max_identity_residual": worst_identity,
              "max_roundtrip_error": worst_roundtrip}
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_run(args):
    configs = [load_config(path) for path in args.configs]
    if args.jobs > 1 and len(configs) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            summaries = list(pool.map(run_scenario, configs))
    else:
        summaries = [run_scenario(cfg) for cfg in configs]
    return max(_report(summary) for summary in summaries)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="riemflow",
        description="curvature-driven metric flows and waves via the pair product metric")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curvature", help="one-shot curvature report")
    _family_args(p)
    _chart_args(p)
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("flow", help="integrate a first-order law")
    _family_args(p)
    _chart_args(p)
    _integration_args(p)
    p.add_argument("--law", default="riemann-flow",
                   choices=["ricci-flow", "riemann-flow", "riemann-type"])
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("wave", help="integrate a second-order law")
    _family_args(p)
    _chart_args(p)
    _integration_args(p, t_end=0.5)
    p.add_argument("--law", default="riemann-wave",
                   choices=["ricci-wave", "riemann-wave"])
    p.add_argument("--velocity-scale", type=float, default=0.0,
                   help="initial metric velocity as a multiple of the metric")
    p.set_defaults(func=_cmd_wave)

    p = sub.add_parser("scale-ode", help="constant-curvature scale equation")
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--v", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    _integration_args(p, t_end=5.0)
    p.set_defaults(func=_cmd_scale_ode)

    p = sub.add_parser("conformal-wave", help="1+1 conformally flat wave")
    p.add_argument("--amplitude", type=float, default=1e-4)
    p.add_argument("--mode", type=int, default=1)
    p.add_argument("--points", type=int, default=256)
    p.add_argument("--length", type=float, default=1.0)
    p.add_argument("--velocity", default="zero", choices=["zero", "right-mover"])
    p.add_argument("--seed", type=int, default=0)
    _integration_args(p, t_end=1.0)
    p.set_defaults(func=_cmd_conformal_wave)

    p = sub.add_parser("soliton", help="generalized-fixed-point residual")
    _family_args(p)
    _chart_args(p)
    p.add_argument("--lam", type=float, default=None,
                   help="soliton constant (defaults to minus the family factor)")
    p.add_argument("--potential", default="zero", choices=["zero", "quadratic"])
    p.set_defaults(func=_cmd_soliton)

    p = sub.add_parser("linearize", help="two-run tangency check")
    p.add_argument("--which", default="ricci", choices=["ricci", "riemann-induced"])
    p.add_argument("--dimension", "-n", type=int, default=3)
    p.add_argument("--grid", type=int, default=8)
    p.add_argument("--amplitude", type=float, default=0.05)
    p.add_argument("--mode", type=int, default=1)
    p.add_argument("--eps", type=float, default=1e-2)
    p.add_argument("--dt", type=float, default=5e-3)
    p.add_argument("--t-end", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_linearize)

    p = sub.add_parser("identity-check", help="pair-product recovery checks")
    p.add_argument("--dimension", "-n", type=int, default=3)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_identity_check)

    p = sub.add_parser("run", help="run scenario configuration files")
    p.add_argument("configs", nargs="+")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RiemflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
