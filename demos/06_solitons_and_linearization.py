"""Generalized fixed points and linearized flows.

A metric, a constant and a potential solve the soliton equation when the
curvature, the pair product term and the covariant Hessian block cancel.
The flat metric with the quadratic potential -lam |x|^2 / 4 works for every
lam; constant-curvature charts work with zero potential exactly when the
constant is minus the curvature factor.  Linearizations are numerical
directional derivatives, validated against two full nonlinear runs.
"""

import numpy as np

from riemflow import (
    AnalyticChart,
    GridChart,
    MetricField,
    SolitonData,
    classify_soliton,
    directional_curvature_derivative,
    integrate_flow,
    make_family,
    riemann,
    soliton_residual,
)
from riemflow.variation import integrate_linearized_flow

print("== quadratic-potential fixed points of the flat metric ==")


def flat(x):
    x = np.asarray(x)
    return np.broadcast_to(np.eye(3), x.shape[:-1] + (3, 3)).copy()


fld = MetricField.from_function(AnalyticChart(3, [0.2, -0.1, 0.3], 1e-2), flat)
for lam in (0.7, -1.3):
    data = SolitonData(factor=lam,
                       potential=lambda x, lam=lam: -lam * np.sum(
                           np.asarray(x) ** 2, axis=-1) / 4.0)
    _, norm = soliton_residual(fld, data)
    print(f"lam = {lam:+.1f}: residual {norm:.2e}, "
          f"classified {classify_soliton(lam)}")

print("\n== constant-curvature charts with zero potential ==")
zero = lambda x: np.zeros(np.asarray(x).shape[:-1])  # noqa: E731
for name in ("sphere-stereographic", "hyperbolic-poincare"):
    fam = make_family(name, 3)
    fldc = MetricField.from_function(AnalyticChart(3, [0, 0, 0], 1e-2),
                                     fam.metric_function)
    lam = -fam.constant_curvature
    _, norm = soliton_residual(fldc, SolitonData(factor=lam, potential=zero))
    print(f"{name}: the equation closes at constant {lam:+.0f} "
          f"(residual {norm:.1e}), classified {classify_soliton(lam)}")

print("\n== directional derivative of the curvature operator ==")
fam = make_family("conformal-torus", 3, {"amplitude": 0.08, "mode": 1},
                  np.random.default_rng(3))
fldg = MetricField.from_function(GridChart(3, 8, 2 * np.pi), fam.metric_function)
D = directional_curvature_derivative(fldg, fldg.samples.copy(), which="Riem")
print(f"derivative along the metric itself vs the curvature (degree-one "
      f"homogeneity): {np.abs(D - riemann(fldg).block).max():.2e}")
D0 = directional_curvature_derivative(fldg, fldg.samples.copy(), which="Ric")
print(f"same for the Ricci operator (degree zero): {np.abs(D0).max():.2e}")

print("\n== two-run tangency of the linearized flow ==")
rng = np.random.default_rng(17)
h = rng.normal(size=fldg.values.shape) * 0.1
h = 0.5 * (h + np.swapaxes(h, -1, -2))
hlin = integrate_linearized_flow(fldg, h.reshape(fldg.samples.shape),
                                 "ricci", 5e-3, 0.1)
for eps in (1e-2, 5e-3):
    plus = MetricField.from_samples(fldg.chart, fldg.values + eps * h)
    minus = MetricField.from_samples(fldg.chart, fldg.values - eps * h)
    tp = integrate_flow(plus, "ricci", 5e-3, 0.1, stride=10 ** 9)
    tm = integrate_flow(minus, "ricci", 5e-3, 0.1, stride=10 ** 9)
    quotient = (tp.states[-1] - tm.states[-1]) / (2 * eps)
    print(f"eps = {eps:g}: |central quotient - linearized| = "
          f"{np.abs(quotient - hlin).max():.3e}")
print("(the gap shrinks at second order in eps)")
