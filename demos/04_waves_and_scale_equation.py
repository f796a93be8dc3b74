"""Second-order evolutions and the constant-curvature scale equation.

On constant-curvature data the tensor wave reduces exactly to the scalar
equation f'^2 + f f'' + lam f = 0.  The closed-form quadratic
1 + v t - lam t^2/6 solves it only when v^2 = -2 lam / 3; the residual
v^2 + 2 lam / 3 is reported for every run.  For lam > 0 the scale collapses
in finite time with a square-root profile, so the curvature grows like
(T - t)^{-1/2}.
"""

import numpy as np

from riemflow import (
    AnalyticChart,
    MetricField,
    constant_curvature_wave_ode,
    integrate_wave,
    make_family,
    monitor_blow_up,
)

print("== the exact quadratic case: lam = -6, v = 2 ==")
res = constant_curvature_wave_ode(-6.0, 2.0, 1e-3, 5.0, record_stride=100)
err = np.abs(res.scales - (1.0 + res.times) ** 2).max()
print(f"polynomial-validity residual v^2 + 2 lam/3 = {res.polynomial_residual}")
print(f"max |f - (1+t)^2| on [0, 5]: {err:.2e}")

print("\n== collapse for lam = 1, v = 0 ==")
coarse = constant_curvature_wave_ode(1.0, 0.0, 1e-3, 3.0)
fine = constant_curvature_wave_ode(1.0, 0.0, 1e-6, 3.0, record_stride=1000)
print(f"collapse time, dt=1e-3: {coarse.collapse_time:.8f}")
print(f"collapse time, dt=1e-6: {fine.collapse_time:.8f}")
print(f"concave on the way down: {coarse.concave}")

print("\n== time reversal for v = 0 ==")
fwd = constant_curvature_wave_ode(-2.0, 0.0, 1e-3, 1.0)
bwd = constant_curvature_wave_ode(-2.0, 0.0, 1e-3, -1.0)
print(f"max |f(t) - f(-t)|: {np.abs(fwd.scales - bwd.scales).max():.2e}")

print("\n== full tensor wave against the scale equation ==")
fam = make_family("hyperbolic-poincare", 3)
fld = MetricField.from_function(AnalyticChart(3, [0, 0, 0], 1e-2),
                                fam.metric_function)
traj = integrate_wave(fld, "riemann-wave", 1e-3, 2.0, stride=10)
from scipy.interpolate import interp1d
ref = constant_curvature_wave_ode(fam.constant_curvature, 0.0, 1e-5, 1.2,
                                  record_stride=10)
fref = interp1d(ref.times, ref.scales, kind="cubic", bounds_error=False)
t = np.asarray(traj.times)
sel = t <= 0.9 * ref.collapse_time
dev = np.abs(traj.diagnostic("f_est")[sel] - fref(t[sel])).max()
print(f"termination: {traj.termination}; max deviation to 0.9T: {dev:.2e}")
rep = monitor_blow_up(traj)
print(f"singular time {rep.T_est:.6f} (scale-equation value "
      f"{ref.collapse_time:.6f}); curvature exponent {rep.exponent:+.3f} "
      "(square-root collapse gives -1/2)")

print("\n== the sphere chart instead grows and stays smooth ==")
fam = make_family("sphere-stereographic", 3)
fld = MetricField.from_function(AnalyticChart(3, [0, 0, 0], 1e-2),
                                fam.metric_function)
v = np.sqrt(2.0 / 3.0)  # v^2 = -2 lam / 3 with lam = -1
traj = integrate_wave(fld, "riemann-wave", 1e-3, 2.0,
                      velocity=v * fld.samples, stride=20)
t = np.asarray(traj.times)
exact = 1.0 + v * t + t ** 2 / 6.0
print(f"termination: {traj.termination}; max |f - quadratic|: "
      f"{np.abs(traj.diagnostic('f_est') - exact).max():.2e}")
