"""Command-line entry points.

Subcommands: ``curvature`` (one-shot tensor report), ``flow``, ``wave``,
``scale-ode``, ``conformal-wave``, ``soliton``, ``linearize``,
``identity-check`` and ``run <config.json> [...]``.

``flow``, ``wave``, ``scale-ode`` and ``conformal-wave`` write a scenario
document, which their summary echoes, and run it as ``run`` runs a file,
with the library's defaults (``scenarios.INTEGRATOR_DEFAULTS`` and
``OTHER_LAWS``, ``families.DEFAULTS``).  The document leaves out the seed,
the output paths, the analytic point and step and the wave's velocity scale
when their options are not given, so the scenario's own defaults apply.  A
family option the family does not take is refused, and so is a one-shot
report with a value that is not finite.

Exit status: 0 for a smooth completion (and ``--help``), 2 when a finite-time
singularity was detected (an expected scientific outcome, not an error) and
1 for errors: a refused option or document, or a failed run.
"""

import argparse
import concurrent.futures
import json
import re
import sys

import numpy as np

from .bialternate import bialternate_product, recover_metric, verify_recovery_identity
from .charts import MetricField
from .curvature import ricci_and_scalar, riemann, tensor_norm, weyl
from .errors import RiemflowError, SchemaError, finite_number, whole_number
from .families import DEFAULTS, make_family
from .flow import integrate_flow
from .scenarios import (
    DEFAULT_SEED,
    INTEGRATOR_DEFAULTS,
    OTHER_LAWS,
    VELOCITIES,
    _build_chart,
    config_from_dict,
    load_config,
    run_scenario,
)
from .variation import (
    SolitonData,
    classify_soliton,
    integrate_linearized_flow,
    linearized_flow_rhs,
    soliton_residual,
)


def _field_args(p):
    """The options of a metric family and of the chart it is sampled on."""
    p.add_argument("--family", default="sphere-stereographic")
    p.add_argument("--dimension", "-n", type=int, default=3)
    p.add_argument("--amplitude", type=float, help="conformal-torus amplitude")
    p.add_argument("--mode", type=int, help="conformal-torus mode")
    p.add_argument("--lame", nargs="*", dest="expressions", metavar="LAME",
                   help="diagonal-lame coefficient expressions, one per axis")
    p.add_argument("--seed", type=int)
    p.add_argument("--grid", type=int, default=None,
                   help="points per axis; selects a periodic-grid chart")
    p.add_argument("--point", type=float, nargs="*", default=None,
                   help="analytic chart evaluation point (defaults to origin)")
    p.add_argument("--step", type=float, help="analytic finite-difference step")


def _given(args, keys):
    """The options among ``keys`` that were given, by name."""
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _family_params(args):
    """The family's :data:`~riemflow.families.DEFAULTS` under every family
    option given; :func:`make_family` refuses one the family does not take."""
    return {**DEFAULTS.get(args.family, {}), **_given(args, ("amplitude", "mode", "expressions"))}


def _chart_spec(args):
    """The scenario chart spec of the chart arguments; without a ``--point``
    or a ``--step`` the scenario's own defaults apply."""
    if args.grid:
        return {"dimension": args.dimension, "kind": "periodic-grid", "points_per_axis": args.grid}
    return {"dimension": args.dimension, "kind": "analytic-point", **_given(args, ("step",)),
            **({"point": args.point} if args.point else {})}


def _build_field(args):
    rng = np.random.default_rng(DEFAULT_SEED if args.seed is None else args.seed)
    family = make_family(args.family, args.dimension, _family_params(args), rng)
    chart = _build_chart(_chart_spec(args), family)
    return family, MetricField.from_function(chart, family.metric_function)


def _print_report(report):
    """Print a one-shot report as JSON, None as null; one with a value that is
    not finite, which strict JSON cannot hold, is refused before anything is printed."""
    for key, value in sorted(report.items()):
        if not isinstance(value, (str, type(None))) and not np.isfinite(value).all():
            raise RiemflowError(f"the report's {key} is not finite, got {value}")
    print(json.dumps(report, indent=2, sort_keys=True))


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
    _print_report(report)
    return 0


_REPORT = ("id", "termination", "t_final", "T_est", "blowup_exponent")


def _report(summary, keys=_REPORT):
    """Print ``keys`` of a run's summary and return its exit code."""
    print(json.dumps({k: summary[k] for k in keys}, indent=2, sort_keys=True))
    return summary["exit_code"]


def _scenario(args):
    """The scenario config of a run subcommand's arguments: the document
    part its subparser's ``part`` writes, the integrator options, the
    output and seed options that were given (the scenario's defaults apply
    to the others), and the id ``--id`` gives or else its ``stem`` formats."""
    output = _given(args, ("csv", "summary"))
    return config_from_dict({
        "id": args.stem.format(**vars(args)) if args.id is None else args.id,
        **args.part(args),
        "integrator": {key: getattr(args, key) for key in INTEGRATOR_DEFAULTS},
        **({"output": output} if output else {}),
        **_given(args, ("seed",)),
    })


def _cmd_scenario(args):
    return _report(run_scenario(_scenario(args)), args.report)


def _field_part(args, law_params, **extra):
    """The family, chart and law of a flow or wave document, and ``extra``."""
    return {"family": {"name": args.family, "params": _family_params(args)},
            "chart": _chart_spec(args), "law": {"name": args.law, **law_params}, **extra}


def _cmd_soliton(args):
    family, fld = _build_field(args)
    lam = args.lam
    if lam is None:
        lam = -(family.constant_curvature or 0.0)
    if args.potential == "zero":
        potential = lambda x: np.zeros(np.asarray(x).shape[:-1])  # noqa: E731
    else:
        potential = lambda x: -lam * np.sum(np.asarray(x) ** 2, axis=-1) / 4.0  # noqa: E731
    try:
        _, norm = soliton_residual(fld, SolitonData(factor=lam, potential=potential))
    except ValueError as exc:   # a potential that is not periodic on the grid
        raise SchemaError(str(exc), key="potential") from None
    report = {
        "family": args.family,
        "factor": lam,
        "classification": classify_soliton(lam),
        "max_residual_norm": norm,
    }
    _print_report(report)
    return 0


def _cmd_linearize(args):
    # a run that takes no step has no tangency order, and a zero eps no quotient
    finite_number(args.dt, "dt", positive=True)
    finite_number(args.t_end, "t_end", positive=True)
    finite_number(args.eps, "eps", positive=True)
    rng = np.random.default_rng(args.seed)
    family = make_family("conformal-torus", args.dimension, _given(args, ("amplitude", "mode")), rng)
    chart = _build_chart({"kind": "periodic-grid", "points_per_axis": args.grid}, family)
    fld = MetricField.from_function(chart, family.metric_function)
    h = rng.normal(size=fld.values.shape)
    h = 0.5 * (h + np.swapaxes(h, -1, -2)) * 0.1

    lin = linearized_flow_rhs(fld, h.reshape(fld.samples.shape), which=args.which)
    hlin = integrate_linearized_flow(fld, h.reshape(fld.samples.shape), args.which,
                                     args.dt, args.t_end)
    # an order is fitted only to errors 100 times their quotient's roundoff
    errs, resolved = [], True
    for eps in (args.eps, 0.5 * args.eps):
        plus = MetricField.from_samples(chart, fld.values + eps * h)
        minus = MetricField.from_samples(chart, fld.values - eps * h)
        tp = integrate_flow(plus, args.which, args.dt, args.t_end, stride=10 ** 9)
        tm = integrate_flow(minus, args.which, args.dt, args.t_end, stride=10 ** 9)
        quotient = (tp.states[-1] - tm.states[-1]) / (2.0 * eps)
        errs.append(float(np.abs(quotient - hlin).max()))
        roundoff = np.finfo(float).eps * np.abs([tp.states[-1], tm.states[-1]]).max() / (2.0 * eps)
        resolved = resolved and errs[-1] > 100.0 * roundoff
    order = float(np.log2(errs[0] / errs[1])) if resolved else None
    report = {"which": args.which, "errors": errs, "observed_order": order,
              "initial_rhs_max": float(np.abs(lin).max())}
    _print_report(report)
    return 0


def _cmd_identity_check(args):
    # no sample checks nothing, and recovery needs n >= 3
    whole_number(args.count, "count", least=1)
    whole_number(args.dimension, "dimension", least=3)
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
    _print_report(report)
    return 0


def _cmd_run(args):
    jobs = whole_number(args.jobs, "jobs", least=1)
    configs = [load_config(path) for path in args.configs]
    # the pool starts all its workers at the first task: no more than there are configs
    workers = min(jobs, len(configs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(run_scenario, configs))
    else:
        summaries = [run_scenario(cfg) for cfg in configs]
    return max(_report(summary) for summary in summaries)


def _run_parser(sub, name, help, add_options, part, stem, report=_REPORT, **defaults):
    """The subparser of a run subcommand: ``add_options`` adds its options
    ahead of the integrator and output ones, ``part`` writes its part of the
    document and ``stem`` its default id from the parsed arguments, and it
    prints the summary's ``report`` keys.  ``defaults`` may set ``t_end``'s."""
    p = sub.add_parser(name, help=help)
    add_options(p)
    for key, default in INTEGRATOR_DEFAULTS.items():
        p.add_argument("--" + key.replace("_", "-"), type=type(default), default=default)
    for key in ("csv", "summary", "id"):
        p.add_argument(f"--{key}")
    p.set_defaults(func=_cmd_scenario, part=part, stem=stem, report=report, **defaults)
    return p


def _reduced_run_parser(sub, law, help, options, **defaults):
    """The run subparser of ``law``, one of :data:`OTHER_LAWS`, on the flat
    family: per parameter an option with its default there, plus ``--seed``;
    ``options`` holds more keywords of a parameter's option."""
    params = OTHER_LAWS[law]

    def add_options(p):
        for key, default in params.items():
            p.add_argument(f"--{key}", type=type(default), default=default,
                           **options.get(key, {}))
        p.add_argument("--seed", type=int)

    def part(args):
        return {"family": {"name": "flat"},
                "law": {"name": law, **{key: getattr(args, key) for key in params}}}

    return _run_parser(sub, law, help, add_options, part, **defaults)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, which also reads a negative number in scientific
    notation (``-1e-2``) and ``-inf`` as values, not as options, so that
    the schema refuses them by name; its subparsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)


def build_parser():
    parser = _Parser(
        prog="riemflow",
        description="curvature-driven metric flows and waves via the pair product metric")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curvature", help="one-shot curvature report")
    _field_args(p)
    p.set_defaults(func=_cmd_curvature)

    p = _run_parser(sub, "flow", "integrate a first-order law", _field_args,
                    lambda args: _field_part(args, _given(args, ("alpha", "beta"))),
                    "flow-{family}-n{dimension}")
    p.add_argument("--law", default="riemann-flow",
                   choices=["ricci-flow", "riemann-flow", "riemann-type"])
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)

    p = _run_parser(sub, "wave", "integrate a second-order law", _field_args,
                    lambda args: _field_part(
                        args, {}, **_given(args, ("initial_velocity_scale",))),
                    "wave-{family}-n{dimension}", t_end=0.5)
    p.add_argument("--law", default="riemann-wave",
                   choices=["ricci-wave", "riemann-wave"])
    p.add_argument("--velocity-scale", type=float, dest="initial_velocity_scale",
                   help="initial metric velocity as a multiple of the metric")

    _reduced_run_parser(sub, "scale-ode", "constant-curvature scale equation",
                        {"lam": {"required": True}}, stem="scale-ode-lam{lam:g}",
                        report=("id", "termination", "T_est", "residuals"), t_end=5.0)
    _reduced_run_parser(sub, "conformal-wave", "1+1 conformally flat wave",
                        {"velocity": {"choices": VELOCITIES}}, stem="conformal-wave",
                        report=("id", "termination", "t_final", "residuals"))

    p = sub.add_parser("soliton", help="generalized-fixed-point residual")
    _field_args(p)
    p.add_argument("--lam", type=float, default=None,
                   help="soliton constant (defaults to minus the family factor)")
    p.add_argument("--potential", default="zero", choices=["zero", "quadratic"])
    p.set_defaults(func=_cmd_soliton)

    p = sub.add_parser("linearize", help="two-run tangency check")
    p.add_argument("--which", default="ricci", choices=["ricci", "riemann-induced"])
    p.add_argument("--dimension", "-n", type=int, default=3)
    p.add_argument("--grid", type=int, default=8)
    p.add_argument("--amplitude", type=float)
    p.add_argument("--mode", type=int)
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse's usage error exits 2, which here means a collapse
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except RiemflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
