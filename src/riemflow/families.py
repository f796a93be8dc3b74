"""Named metric families for charts, scenarios and the CLI.

Registered names: ``flat``, ``sphere-stereographic``, ``hyperbolic-poincare``,
``conformal-torus`` (parameters ``amplitude``, a whole-number ``mode``, the
periods ``lengths``, 2 pi by default, and optional random phases drawn from
the scenario seed) and ``diagonal-lame`` (a table of coefficient
expressions, one per axis).  A conformal torus is periodic with its
``lengths`` only, so they are its ``periods``; the flat metric has every
period and none is fixed.

A ``diagonal-lame`` expression is parsed once, when the family is made, and
refused with :class:`SchemaError` unless it is built only from the
coordinates ``x1..xn``, the functions and constants of ``_SAFE_FUNCS``,
numeric constants, unary ``+ -``, binary ``+ - * / **`` and calls of the
listed functions.  A config can therefore not reach attributes, builtins or
any other object.  Integer constants are read as floats.

``sphere-stereographic`` is the unit-sphere conformal chart
``4 delta / (1 + |x|^2)^2`` and ``hyperbolic-poincare`` the unit-ball chart
``4 delta / (1 - |x|^2)^2``.  Their constant-curvature factors under the
implemented curvature convention are -1 and +1 respectively (pinned by the
one-time symbolic oracle; the commonly quoted factors have the opposite
sign).
"""

import ast
import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError, UnknownFamily, whole_number

# constant-curvature factors under the implemented component formula
SPHERE_CURVATURE_FACTOR = -1.0
HYPERBOLIC_CURVATURE_FACTOR = 1.0

_SAFE_FUNCS = {name: getattr(np, name) for name in (
    "sin", "cos", "tan", "exp", "log", "sqrt", "cosh", "sinh", "tanh", "abs",
)}
_SAFE_FUNCS["pi"] = math.pi

_SAFE_UNARY = (ast.UAdd, ast.USub)
_SAFE_BINARY = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


@dataclass
class MetricFamily:
    """A metric function plus the structural facts scenarios rely on."""

    name: str
    dimension: int
    metric_function: object
    constant_curvature: float = None   # factor lam with Riem = lam * G, if constant
    lame: tuple = None                 # diagonal coefficient callables, if orthogonal
    periods: tuple = None              # the only torus periods the metric has, if any
    default_lengths: tuple = None      # grid-chart periods when a chart gives none


def _flat(n):
    eye = np.eye(n)

    def metric(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(eye, x.shape[:-1] + (n, n)).copy()

    return MetricFamily("flat", n, metric, constant_curvature=0.0,
                        default_lengths=(2.0 * math.pi,) * n)


def _conformal_ball(n, sign, name, curvature):
    def metric(x):
        x = np.asarray(x, dtype=float)
        r2 = np.sum(x * x, axis=-1)
        phi = 4.0 / (1.0 + sign * r2) ** 2
        return phi[..., None, None] * np.eye(n)

    return MetricFamily(name, n, metric, constant_curvature=curvature)


def _conformal_torus(n, amplitude, mode, phases, lengths):
    mode = whole_number(mode, "mode")
    # ValueError unless each is one value or one per axis
    lengths = np.broadcast_to(np.asarray(lengths, dtype=float), (n,))
    phases = np.broadcast_to(np.asarray(phases, dtype=float), (n,))

    def metric(x):
        x = np.asarray(x, dtype=float)
        args = 2.0 * math.pi * mode * x / lengths + phases
        phi = amplitude * np.sum(np.sin(args), axis=-1)
        return np.exp(2.0 * phi)[..., None, None] * np.eye(n)

    return MetricFamily("conformal-torus", n, metric, periods=tuple(lengths),
                        default_lengths=tuple(lengths))


def _compile_expression(expr, n):
    """Code object of a diagonal-lame coefficient expression in ``x1..xn``;
    :class:`SchemaError` for any node outside the whitelist."""
    def refuse(what):
        raise SchemaError(f"diagonal-lame expression {expr!r}: {what}", key="expressions")

    if not isinstance(expr, str):
        refuse("expected a string")
    try:
        tree = ast.parse(expr, mode="eval")
    except (SyntaxError, ValueError) as exc:
        refuse(f"not an expression ({exc})")
    names = {f"x{k + 1}" for k in range(n)} | set(_SAFE_FUNCS)
    functions = set(_SAFE_FUNCS) - {"pi"}

    def check(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            # integers become floats, so that no constant can start unbounded
            # integer arithmetic such as 9 ** 9 ** 9
            try:
                node.value = float(node.value)
            except OverflowError:
                refuse(f"{node.value} is out of range")
            return
        if isinstance(node, ast.Name) and node.id in names:
            return
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, _SAFE_UNARY):
            return check(node.operand)
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SAFE_BINARY):
            check(node.left)
            return check(node.right)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in functions and not node.keywords):
            for arg in node.args:
                check(arg)
            return
        refuse(f"{ast.unparse(node)!r} is not allowed")

    check(tree.body)
    return compile(tree, f"<diagonal-lame {expr!r}>", "eval")


def _diagonal_lame(n, expressions):
    if len(expressions) != n:
        raise SchemaError(f"diagonal-lame needs one coefficient expression per axis, "
                          f"{n} here", key="expressions")

    def make_H(expr):
        code = _compile_expression(expr, n)

        def H(x):
            x = np.asarray(x, dtype=float)
            names = {f"x{k + 1}": x[..., k] for k in range(n)}
            names.update(_SAFE_FUNCS)
            out = eval(code, {"__builtins__": {}}, names)  # noqa: S307 - whitelisted at parse time
            return np.broadcast_to(np.asarray(out, dtype=float), x.shape[:-1]).copy()
        return H

    Hs = tuple(make_H(e) for e in expressions)

    def metric(x):
        x = np.asarray(x, dtype=float)
        vals = np.stack([H(x) for H in Hs], axis=-1)
        out = np.zeros(x.shape[:-1] + (n, n))
        for k in range(n):
            out[..., k, k] = vals[..., k] ** 2
        return out

    return MetricFamily("diagonal-lame", n, metric, lame=Hs)


def make_family(name, dimension, params=None, rng=None):
    """Instantiate a registered metric family.

    Parameters
    ----------
    name : str
        One of the registered family names.
    dimension : int
        Chart dimension.
    params : dict, optional
        Family parameters over :data:`DEFAULTS` (``amplitude``, ``mode``,
        ``phases`` for the conformal torus; ``expressions`` for diagonal-lame).
    rng : numpy.random.Generator, optional
        Source for the conformal torus phases when none are given.

    Raises :class:`UnknownFamily` for an unregistered name and
    :class:`SchemaError` for a parameter the family does not take or cannot
    use.
    """
    params = dict(params or {})
    allowed = _PARAMETERS.get(name) if isinstance(name, str) else None
    if allowed is None:
        raise UnknownFamily(f"no metric family named {name!r}")
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise SchemaError(f"unknown {name} parameter", key=unknown[0])
    params = {**DEFAULTS.get(name, {}), **params}
    if name == "flat":
        return _flat(dimension)
    if name == "sphere-stereographic":
        return _conformal_ball(dimension, +1.0, name, SPHERE_CURVATURE_FACTOR)
    if name == "hyperbolic-poincare":
        return _conformal_ball(dimension, -1.0, name, HYPERBOLIC_CURVATURE_FACTOR)
    if name == "conformal-torus":
        phases = params.get("phases")
        if phases is None:
            gen = rng if rng is not None else np.random.default_rng(0)
            phases = gen.uniform(0.0, 2.0 * math.pi, size=dimension)
        try:
            return _conformal_torus(dimension, float(params["amplitude"]), params["mode"], phases,
                                    params.get("lengths", (2.0 * math.pi,) * dimension))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"conformal-torus parameters: {exc}", key="params") from None
    expressions = params.get("expressions")
    if not isinstance(expressions, (list, tuple)):
        raise SchemaError("diagonal-lame needs an 'expressions' list", key="expressions")
    return _diagonal_lame(dimension, tuple(expressions))


# the parameters each registered family takes
_PARAMETERS = {"flat": (), "sphere-stereographic": (), "hyperbolic-poincare": (),
               "conformal-torus": ("amplitude", "mode", "lengths", "phases"),
               "diagonal-lame": ("expressions",)}
# the defaults of the family parameters whose default is a constant
DEFAULTS = {"conformal-torus": {"amplitude": 0.05, "mode": 1}}
