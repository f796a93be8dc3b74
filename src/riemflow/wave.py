"""Second-order metric evolutions, the scale ODE and the 1+1 conformal wave.

The tensor wave solves for the metric acceleration in

    d2G/dt2 = -2 Riem(g),   d2G/dt2 = (a ^ g) + 2 (k (.) k),

where ``a`` is the acceleration, ``k`` the metric velocity and
``(k (.) k)_ijkl = k_ik k_jl - k_il k_jk``.  The velocity-quadratic part
moves to the right-hand side and the same pair-trace inversion as the flow
applies.  The wave laws are rows of the law table in :mod:`riemflow.flow`
(:func:`~riemflow.flow.resolve_law`): ``riemann-wave`` is the general
scalar-coefficient family

    alpha d2G/dt2 + beta dG/dt + gamma G + delta Riem = 0

at (alpha=1, delta=2), ``ricci-wave`` is d2g/dt2 = -2 Ric(g), and a
``general`` law with ``alpha = 0`` resolves to the first-order flow.  A wave
law is evaluated through that table alone, as
``resolve_law(law, n, 2).rate_at(field, velocity)``, and its blow-up is
monitored by :func:`~riemflow.flow.monitor_blow_up`.  Flows and waves step
with one RK4 system, so the general law reproduces the Riemann flow and wave
trajectories bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .charts import MetricField
from .errors import CFLViolated, PositivityLost
from .flow import COLLAPSE_EIG_FRACTION, _rk4_evolve, estimate_singular_time

# the 1+1 wave stops with PositivityLost when its factor falls to this floor
POSITIVITY_FLOOR = 1e-8


@dataclass
class WaveState:
    t: float
    field: MetricField
    velocity: np.ndarray   # metric velocity samples (S, n, n), or (n, n) frame


def integrate_wave(initial, law, dt, t_end, *, velocity=None, stride=10,
                   collapse_threshold=COLLAPSE_EIG_FRACTION, curvature_cap=None,
                   cross_check_stride=None):
    """Integrate a second-order law via RK4 on the (metric, velocity) pair.

    ``initial`` is a :class:`WaveState` or a :class:`MetricField` together
    with a ``velocity`` array (defaulting to zero).  Laws: ``riemann-wave``,
    ``ricci-wave`` or ``('general', {...})``; a general law with
    ``alpha = 0`` is the first-order flow and ignores the velocity, so flow
    trajectories are reproduced exactly.  ``cross_check_stride`` is refused
    with ``ValueError`` unless the law resolves to such a flow with
    ``gamma = 0`` (see :func:`riemflow.flow.integrate_flow`).
    """
    return _rk4_evolve(initial, law, 2, velocity, dt, t_end, stride, collapse_threshold,
                       curvature_cap, cross_check_stride)


# ---------------------------------------------------------------------------
# constant-curvature scale ODE
# ---------------------------------------------------------------------------


@dataclass
class ScaleODEResult:
    times: np.ndarray
    scales: np.ndarray
    rates: np.ndarray
    collapse_time: float      # None when no collapse happened before t_end
    concave: bool             # scale stayed concave over the recorded span
    polynomial_residual: float  # v^2 + 2 lam / 3; zero iff the closed-form
                                # quadratic solves the ODE exactly


def constant_curvature_wave_ode(lam, v, dt, t_end, record_stride=1):
    """Integrate f'^2 + f f'' + lam f = 0, f(0)=1, f'(0)=v with RK4.

    The quadratic ``1 + v t - lam t^2 / 6`` solves this exactly only when
    ``v^2 = -2 lam / 3``; the constant residual ``v^2 + 2 lam / 3`` is
    reported so callers can see how far a given (lam, v) pair is from it.
    For ``lam > 0`` the scale hits zero in finite time; the returned
    collapse time comes from a power-law fit of the final samples.
    A negative ``t_end`` integrates backwards (``dt`` is the step size).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    direction = 1.0 if t_end >= 0 else -1.0
    f, fp, t = 1.0, float(v), 0.0
    times = [0.0]
    scales = [1.0]
    rates = [fp]
    floor = 1e-12

    def acc(fv, fpv):
        return -(fpv * fpv + lam * fv) / fv

    step = dt
    nrec = 0
    collapsed = False
    while direction * (t_end - t) > 1e-15:
        h = direction * min(step, abs(t_end - t))
        k1f, k1p = fp, acc(f, fp)
        ok = True
        try:
            f2, p2 = f + 0.5 * h * k1f, fp + 0.5 * h * k1p
            if f2 <= floor:
                ok = False
            else:
                k2f, k2p = p2, acc(f2, p2)
                f3, p3 = f + 0.5 * h * k2f, fp + 0.5 * h * k2p
                if f3 <= floor:
                    ok = False
                else:
                    k3f, k3p = p3, acc(f3, p3)
                    f4, p4 = f + h * k3f, fp + h * k3p
                    if f4 <= floor:
                        ok = False
                    else:
                        k4f, k4p = p4, acc(f4, p4)
                        fn = f + h / 6.0 * (k1f + 2 * k2f + 2 * k3f + k4f)
                        pn = fp + h / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
                        if fn <= floor or not math.isfinite(fn):
                            ok = False
        except (ZeroDivisionError, OverflowError):
            ok = False
        if not ok:
            step *= 0.5
            if step < dt * 1e-12:
                collapsed = True
                break
            continue
        f, fp, t = fn, pn, t + h
        step = min(step * 2.0, dt)
        nrec += 1
        if nrec % record_stride == 0 or direction * (t_end - t) <= 1e-15:
            times.append(t)
            scales.append(f)
            rates.append(fp)

    T = None
    if collapsed:
        if abs(times[-1] - t) > 1e-18:
            times.append(t)
            scales.append(f)
            rates.append(fp)
        T = estimate_singular_time(times, scales)
    times = np.asarray(times)
    scales = np.asarray(scales)
    rates = np.asarray(rates)
    concave = bool(np.all(np.diff(rates) <= 1e-12))
    return ScaleODEResult(times=times, scales=scales, rates=rates,
                          collapse_time=T, concave=concave,
                          polynomial_residual=v * v + 2.0 * lam / 3.0)


# ---------------------------------------------------------------------------
# conformally flat 1+1 wave
# ---------------------------------------------------------------------------


@dataclass
class ConformalWaveResult:
    times: np.ndarray
    u: np.ndarray          # (T, N) conformal factor history
    length: float


def conformally_flat_wave_solve(u0, u1, dt, t_end, length=None, stride=1):
    """Leapfrog solve of  u_t^2 + u_x^2 + u (u_tt - u_xx) = 0  on a circle.

    ``u0`` and ``u1`` sample the initial factor and its rate on a uniform
    periodic grid.  The time-centred velocity makes the update quadratic in
    the new level; the root continuous with the linear update is taken.
    The run takes ``t_end / dt`` steps and ends exactly at ``t_end``, so
    ``dt`` must divide ``t_end`` (to 1e-9 of a step); otherwise
    :class:`ValueError` is raised.  Raises :class:`CFLViolated` when
    ``dt > 0.5 dx`` and :class:`PositivityLost` when the factor reaches
    ``POSITIVITY_FLOOR``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    nsteps = round(t_end / dt)
    if nsteps < 1 or abs(t_end / dt - nsteps) > 1e-9:
        raise ValueError(f"dt={dt!r} does not divide t_end={t_end!r} into whole steps")
    u_prev = np.asarray(u0, dtype=float).copy()
    rate0 = np.asarray(u1, dtype=float).copy()
    N = len(u_prev)
    if length is None:
        length = float(N)
    dx = length / N
    if dt > 0.5 * dx:
        raise CFLViolated(f"dt={dt:.3e} exceeds 0.5*dx={0.5 * dx:.3e}")
    if np.min(u_prev) <= POSITIVITY_FLOOR:
        raise PositivityLost(0.0, int(np.argmin(u_prev)), float(np.min(u_prev)))

    def lap(u):
        return (np.roll(u, -1) + np.roll(u, 1) - 2.0 * u) / (dx * dx)

    def grad(u):
        return (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * dx)

    def accel(u, ut):
        return lap(u) - (ut * ut + grad(u) ** 2) / u

    # second-order bootstrap for the first level
    u_cur = u_prev + dt * rate0 + 0.5 * dt * dt * accel(u_prev, rate0)
    times = [0.0, dt]
    history = [u_prev.copy(), u_cur.copy()]

    t = dt
    for step_index in range(nsteps - 1):
        # centred update: solve  B^2/(4u) + B + C = 0  for B = u_new - u_prev
        C = 2.0 * u_prev - 2.0 * u_cur - dt * dt * (lap(u_cur) - grad(u_cur) ** 2 / u_cur)
        disc = 1.0 - C / u_cur
        if np.min(disc) <= 0.0:
            raise PositivityLost(t, int(np.argmin(disc)), float(np.min(u_cur)))
        B = 2.0 * u_cur * (np.sqrt(disc) - 1.0)
        u_new = u_prev + B
        if np.min(u_new) <= POSITIVITY_FLOOR:
            raise PositivityLost(t + dt, int(np.argmin(u_new)), float(np.min(u_new)))
        u_prev, u_cur = u_cur, u_new
        t = (step_index + 2) * dt
        if (step_index + 1) % stride == 0 or step_index == nsteps - 2:
            times.append(t)
            history.append(u_cur.copy())
    return ConformalWaveResult(times=np.asarray(times), u=np.asarray(history),
                               length=length)

