"""Infinitesimal deformations of the curvature laws and soliton residuals.

Linearizations are realised as numerical directional derivatives of the
curvature operators: the central quotient ``(F(g + eps h) - F(g - eps h)) /
(2 eps)`` with one Richardson extrapolation over ``eps`` and ``eps/2``.
No symbolic assembly of the derivative brackets is attempted; the quotient
is unambiguous and is validated against two-run tangency in the tests.
"""

from dataclasses import dataclass

import numpy as np

from .charts import MetricField, analytic_scalar_jet, grid_scalar_jet
from .curvature import (
    CurvatureTensor,
    christoffel_from_jets,
    kn_product,
    pair_product_from_samples,
    ricci_scalar_from_arrays,
    riemann,
    tensor_norm,
)
from .errors import NotPositiveDefinite, PerturbationTooLarge
from .flow import resolve_law

DEFAULT_RELATIVE_EPS = 1e-4
# halvings of eps before a perturbed metric that stays indefinite is refused
MAX_HALVINGS = 40


@dataclass
class PerturbationField:
    """Symmetric deformation direction h_ij with index raising on demand.

    ``direction`` is a samples array (grid charts) or a callable (analytic
    charts).  The raised variant satisfies the first-order relation
    ``d(g^{jk})/d eps = -h^{jk}`` along ``g + eps h``.
    """

    direction: object

    def __post_init__(self):
        if not callable(self.direction):
            h = np.asarray(self.direction, dtype=float)
            if np.abs(h - np.swapaxes(h, -1, -2)).max() > 1e-12 * max(np.abs(h).max(), 1.0):
                raise ValueError("perturbation directions must be symmetric")
            self.direction = h

    def lowered(self, field):
        if callable(self.direction):
            return np.asarray(self.direction(field.chart.sample_points), dtype=float)
        return self.direction.reshape(field.samples.shape)

    def raised(self, field):
        """h^{lk} = h_ij g^{jk} g^{il} at the chart samples."""
        ginv = field.inverse
        return np.einsum('...ij,...jk,...il->...lk', self.lowered(field), ginv, ginv)


@dataclass
class SolitonData:
    """Constant factor plus a potential (gradient case) or covector field."""

    factor: float
    potential: object = None      # scalar callable (analytic) or samples (grid)
    covector: object = None      # callable -> (..., n), or samples (S, n)


def _perturbed_field(field, h, eps, sign):
    """Metric field for g + sign*eps*h, matching the chart backend."""
    if isinstance(h, PerturbationField):
        h = h.direction
    chart = field.chart
    if chart.kind == "periodic-grid":
        h_arr = np.asarray(h, dtype=float).reshape(field.values.shape)
        return MetricField.from_samples(chart, field.values + sign * eps * h_arr)
    if callable(h):
        base = field.func

        def metric(x):
            return np.asarray(base(x), dtype=float) + sign * eps * np.asarray(h(x), dtype=float)

        return MetricField.from_function(chart, metric)
    raise TypeError("analytic charts need the direction as a callable h(x)")


def _direction_scale(field, h):
    if isinstance(h, PerturbationField):
        h = h.direction
    if callable(h):
        h0 = np.asarray(h(field.chart.sample_points), dtype=float)
    else:
        h0 = np.asarray(h, dtype=float)
    return float(np.abs(h0).max())


def _operator(field, which):
    if which not in ("Riem", "Ric"):
        raise ValueError("which must be 'Riem' or 'Ric'")
    riem = riemann(field).block
    return riem if which == "Riem" else ricci_scalar_from_arrays(field.inverse, riem)[0]


def _central_quotient(field, h, op, eps):
    """(op(g + e h) - op(g - e h)) / (2 e), Richardson-extrapolated over
    ``e`` and ``e/2``; ``e`` starts at ``eps`` times the metric
    scale over the direction scale and halves, at most ``MAX_HALVINGS``
    times, while a perturbed metric is not positive definite (``op``
    computes curvature, which checks that)."""
    g_scale = float(np.abs(field.samples).max())
    h_scale = _direction_scale(field, h)
    if h_scale == 0.0:
        return np.zeros_like(op(field))
    e = (eps if eps is not None else DEFAULT_RELATIVE_EPS) * g_scale / h_scale

    def quotient(e):
        plus = _perturbed_field(field, h, e, +1.0)
        minus = _perturbed_field(field, h, e, -1.0)
        return (op(plus) - op(minus)) / (2.0 * e)

    for _ in range(MAX_HALVINGS):
        try:
            d1 = quotient(e)
            d2 = quotient(0.5 * e)
            return (4.0 * d2 - d1) / 3.0
        except (NotPositiveDefinite, np.linalg.LinAlgError):
            e *= 0.5
    raise PerturbationTooLarge(
        f"could not keep g +/- eps h positive definite down to eps={e:.3e}")


def directional_curvature_derivative(field, h, which="Riem", eps=None):
    """Central-difference derivative of a curvature operator along ``h``:
    of the curvature block on 2-forms (``which='Riem'``) or of Ricci
    (``which='Ric'``).

    ``eps`` is relative to the metric scale divided by the direction scale;
    it is halved automatically while the perturbed metric loses positive
    definiteness.  The estimates at ``eps`` and ``eps/2`` are extrapolated
    to fourth order.
    """
    return _central_quotient(field, h, lambda f: _operator(f, which), eps)


def linearized_flow_rhs(field, h, which="ricci", eps=None):
    """dh/dt of the linearized law: the directional derivative of the
    nonlinear velocity map of the first-order law ``which`` along ``h``."""
    law = resolve_law(which, field.dimension, 1)
    return _central_quotient(field, h, law.rate_at, eps)


def _jets(field, func_or_samples, tail, what):
    """2-jets of a scalar (``tail = ()``) or covector (``tail = (n,)``) field
    given as samples (grid charts) or a callable."""
    chart = field.chart
    n = field.dimension
    if chart.kind == "periodic-grid":
        if callable(func_or_samples):
            pts = chart.sample_points.reshape(chart.grid_shape + (n,))
            vals = np.asarray(func_or_samples(pts), dtype=float)
        else:
            vals = np.asarray(func_or_samples, dtype=float).reshape(chart.grid_shape + tail)
        return grid_scalar_jet(vals, chart)
    if not callable(func_or_samples):
        raise TypeError(f"analytic charts need the {what} as a callable")
    return analytic_scalar_jet(func_or_samples, chart.point[None, :], n, chart.step)


def soliton_residual(field, data: SolitonData, gradient=True):
    """Left side of the generalized-fixed-point equation, plus its max norm.

    Gradient case:  R_ijkl + lam G_ijkl + (Hess f ^ g)_ijkl  with the
    covariant Hessian ``d_i d_k f - Gamma^l_ik d_l f``.  Vector case:
    ``R + lam G + (1/2) (L ^ g)`` with ``L_ik = nabla_i V_k + nabla_k V_i``
    for a lowered covector field ``V``.

    Returns ``(residual, max_norm)``: the residual as its block on 2-forms
    and the max of its norm, which contracts with one inverse metric per
    index.
    """
    field.validate_spd()
    g, dg, _ = field.jets()
    gam = christoffel_from_jets(g, dg, field.inverse)
    riem = riemann(field).block
    G = pair_product_from_samples(g)
    lam = float(data.factor)

    if gradient:
        _, df, d2f = _jets(field, data.potential, (), "potential")
        hess = d2f - np.einsum('...lik,...l->...ik', gam, df)
        resid = riem + lam * G + kn_product(hess, g)
    else:
        V, dV, _ = _jets(field, data.covector, (field.dimension,), "covector field")
        # nabla_i V_k = d_i V_k - Gamma^m_ik V_m ; dV[..., k, i] = d_i V_k
        nablaV = np.swapaxes(dV, -1, -2) - np.einsum('...mik,...m->...ik', gam, V)
        lie = nablaV + np.swapaxes(nablaV, -1, -2)
        resid = riem + lam * G + 0.5 * kn_product(lie, g)

    return resid, float(tensor_norm(CurvatureTensor(resid), field.inverse).max())


def classify_soliton(factor):
    """Sign classification of the soliton constant."""
    if factor < 0:
        return "shrinking"
    if factor == 0:
        return "static"
    return "expanding"


def integrate_linearized_flow(field, h, which, dt, t_end):
    """RK4 on the coupled pair (g, h): the base flow plus its linearization.

    Returns the deformation ``h(t_end)``; grid charts only.  Used by the
    two-run tangency checks.
    """
    chart = field.chart
    if chart.kind != "periodic-grid":
        raise ValueError("the coupled linearized integration runs on grid charts")
    shape = field.values.shape
    law = resolve_law(which, field.dimension, 1)

    def rhs(gvals, hvals):
        f = MetricField.from_samples(chart, gvals.reshape(shape))
        return law.rate_at(f), linearized_flow_rhs(f, hvals, which=law)

    g = field.samples.copy()
    hh = np.asarray(h, dtype=float).reshape(g.shape).copy()
    t = 0.0
    while t < t_end - 1e-14:
        step = min(dt, t_end - t)
        k1g, k1h = rhs(g, hh)
        k2g, k2h = rhs(g + 0.5 * step * k1g, hh + 0.5 * step * k1h)
        k3g, k3h = rhs(g + 0.5 * step * k2g, hh + 0.5 * step * k2h)
        k4g, k4h = rhs(g + step * k3g, hh + step * k3h)
        g = g + step / 6.0 * (k1g + 2 * k2g + 2 * k3g + k4g)
        hh = hh + step / 6.0 * (k1h + 2 * k2h + 2 * k3h + k4h)
        t += step
    return hh
