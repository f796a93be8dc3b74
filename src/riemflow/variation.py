"""Infinitesimal deformations of the curvature laws and soliton residuals.

Linearizations are complex-step derivatives (Squire & Trapp, SIAM Review 40,
1998; Martins, Sturdza & Alonso, ACM TOMS 29, 2003).  The jets are linear in
the metric samples and every kernel from the jets onward is rational in
them, so ``Im F(g + i STEP h) / STEP`` is F's derivative along a real ``h``
to roundoff: no difference is taken, so nothing cancels, and only the real
part g is checked for positivity, so ``h`` may have any size.  The
linearized flow is the flow's own RK4 of the complex samples g + i STEP h.
The tests check both against central quotients and two-run tangency.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .charts import MetricField, _require_periodic
from .curvature import (
    CurvatureTensor,
    christoffel_from_jets,
    kn_product,
    pair_product_from_samples,
    ricci_scalar_from_arrays,
    riemann,
    tensor_norm,
)
from .errors import StepRejected
from .flow import _check_schedule, _march, _rk4_step, _RK4System, resolve_law, step_ends

# the imaginary step: far below roundoff of g, so Im F(g + i STEP h) / STEP is
# F's derivative along h to roundoff, and far above underflow
STEP = 1e-30


@dataclass
class PerturbationField:
    """Symmetric deformation direction h_ij with index raising on demand.

    ``direction`` is a samples array (grid charts) or a callable (fields
    made from a function).  The raised variant satisfies the first-order relation
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


def _perturbed_field(field, h, eps):
    """Metric field for g + eps h, from the field's function and a callable
    ``h``, else from its samples and samples of ``h`` (grid charts); a
    complex ``eps`` gives complex samples."""
    if isinstance(h, PerturbationField):
        h = h.direction
    if callable(h) and field.func is None:
        h = h(field.chart.sample_points)
    if callable(h):
        base = field.func

        def metric(x):
            return np.asarray(base(x), dtype=float) + eps * np.asarray(h(x), dtype=float)

        return MetricField.from_function(field.chart, metric)
    h = np.asarray(h, dtype=float).reshape(field.samples.shape)
    return MetricField.from_samples(field.chart, field.samples + eps * h)


def _operator(field, which):
    if which not in ("Riem", "Ric"):
        raise ValueError("which must be 'Riem' or 'Ric'")
    riem = riemann(field).block
    return riem if which == "Riem" else ricci_scalar_from_arrays(field.inverse, riem)[0]


def _complex_step(field, h, op):
    """Im op(g + i STEP h) / STEP, the derivative of ``op`` along ``h``."""
    return op(_perturbed_field(field, h, 1j * STEP)).imag / STEP


def directional_curvature_derivative(field, h, which="Riem"):
    """Derivative of a curvature operator along ``h``, by complex step: of
    the curvature block on 2-forms (``which='Riem'``) or of Ricci
    (``which='Ric'``)."""
    return _complex_step(field, h, lambda f: _operator(f, which))


def linearized_flow_rhs(field, h, which="ricci"):
    """dh/dt of the linearized law: the derivative of the nonlinear velocity
    map of the first-order law ``which`` along ``h``, by complex step."""
    law = resolve_law(which, field.dimension, 1)
    return _complex_step(field, h, law.rate_at)


def _jets(field, func_or_samples, tail, name, symbol):
    """2-jets of a scalar (``tail = ()``) or covector (``tail = (n,)``) field,
    the ``name`` ``symbol``, given as a callable (on a grid chart a periodic
    one, else ``ValueError``) or as samples on a grid chart."""
    if callable(func_or_samples):
        if field.chart.kind == "periodic-grid":
            _require_periodic(field.chart, func_or_samples, name, symbol)
        return field.chart.jet(func_or_samples)
    shape = (field.chart.sample_count,) + tail
    return field.chart.jet(np.asarray(func_or_samples, dtype=float).reshape(shape))


def soliton_residual(field, data: SolitonData, gradient=True):
    """Left side of the generalized-fixed-point equation, plus its max norm.

    Gradient case:  R_ijkl + lam G_ijkl + (Hess f ^ g)_ijkl  with the
    covariant Hessian ``d_i d_k f - Gamma^l_ik d_l f``.  Vector case:
    ``R + lam G + (1/2) (L ^ g)`` with ``L_ik = nabla_i V_k + nabla_k V_i``
    for a lowered covector field ``V``.

    Returns ``(residual, max_norm)``: the residual as its block on 2-forms
    and the max of its norm, which contracts with one inverse metric per
    index.  On a grid chart a potential or covector given as a callable
    must be periodic, or ``ValueError`` is raised.
    """
    field.validate_spd()
    g, dg, _ = field.jets()
    gam = christoffel_from_jets(g, dg, field.inverse)
    riem = riemann(field).block
    G = pair_product_from_samples(g)
    lam = float(data.factor)

    if gradient:
        _, df, d2f = _jets(field, data.potential, (), "potential", "f")
        hess = d2f - np.einsum('...lik,...l->...ik', gam, df)
        resid = riem + lam * G + kn_product(hess, g)
    else:
        V, dV, _ = _jets(field, data.covector, (field.dimension,), "covector", "V")
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

    The flow's RK4 steps the complex samples g + i STEP h in the flows' loop,
    with no records; each stage's imaginary part is STEP times the
    linearized stage, so ``Im g(t_end) / STEP`` is the RK4 deformation
    ``h(t_end)``, which is returned.  The steps and the refusals (``dt <=
    0``, a ``t_end`` below 0 or not finite: ``ValueError``) are those of
    :func:`riemflow.flow.integrate_flow`, and a failed step raises
    :class:`StepRejected`.  Grid charts only: the analytic chart's frozen
    frame is real and refuses a complex field.  Used by the two-run
    tangency checks.
    """
    _check_schedule(0.0, t_end, dt)
    system = _RK4System(_perturbed_field(field, h, 1j * STEP),
                        resolve_law(which, field.dimension, 1))
    t, state, _, failed = _march(partial(_rk4_step, system), system.state0, None, 0.0,
                                 step_ends(0.0, t_end, dt))
    if failed:
        raise StepRejected(f"the RK4 step at t={t:.6g} fails its positivity or finiteness check")
    return state[0].imag / STEP
