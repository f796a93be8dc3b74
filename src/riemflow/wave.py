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

The constant-curvature scale ODE is stepped in u = f^2, which stays regular
at collapse, by the flows' fixed-step loop with a scalar RK4 step; its
collapse time is the middle of the bracket of the step that ends at u <= 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .charts import MetricField
from .errors import CFLViolated, PositivityLost
from .flow import COLLAPSE_EIG_FRACTION, _check_schedule, _march, _rk4_evolve, step_ends

# the 1+1 wave stops with PositivityLost when its factor falls to this floor
POSITIVITY_FLOOR = 1e-8


@dataclass
class WaveState:
    t: float
    field: MetricField
    velocity: np.ndarray   # metric velocity samples (S, n, n)


def integrate_wave(initial, law, dt, t_end, *, velocity=None, stride=10,
                   collapse_threshold=COLLAPSE_EIG_FRACTION, curvature_cap=None,
                   cross_check_stride=None):
    """Integrate a second-order law via RK4 on the (metric, velocity) pair.

    ``initial`` is a :class:`WaveState` or a :class:`MetricField` together
    with a ``velocity`` array of the metric's samples (defaulting to zero).
    The steps are fixed at ``dt``, the last one ending exactly at ``t_end``
    (:func:`riemflow.flow.step_ends`).  Laws: ``riemann-wave``,
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

    The steps are taken in u = f^2 and u' = 2 f f'.  Since
    (f^2)'' = 2 (f'^2 + f f''), the equation becomes u'' = -2 lam sqrt(u),
    which is regular at collapse: u' stays finite and u crosses zero at a
    simple root.  Steps are fixed at ``dt``, the last one ending exactly at
    ``t_end`` (:func:`riemflow.flow.step_ends`); a negative ``t_end``
    integrates backwards.  When a step ends at u <= 0 (``lam > 0``
    collapses in finite time), its length is bisected to the root, which is
    returned as ``collapse_time``, and the run stops there.  Records hold
    f = sqrt(u) and f' = u' / (2 f) every ``record_stride`` steps, at
    ``t_end`` and at the last step before the root, so none lies at or past
    it.

    The quadratic ``1 + v t - lam t^2 / 6`` solves this exactly only when
    ``v^2 = -2 lam / 3``; the constant residual ``v^2 + 2 lam / 3`` is
    reported so callers can see how far a given (lam, v) pair is from it.
    """
    _check_schedule(0.0, abs(t_end), dt, record_stride, "record_stride")
    c, sqrt = -2.0 * lam, math.sqrt

    def step(state, h, a1):
        # a stage past the root continues with u'' = 0; a step to u <= 0 fails
        u, w = state
        u2, w2 = u + 0.5 * h * w, w + 0.5 * h * a1
        a2 = c * sqrt(u2) if u2 > 0.0 else 0.0
        u3, w3 = u + 0.5 * h * w2, w + 0.5 * h * a2
        a3 = c * sqrt(u3) if u3 > 0.0 else 0.0
        u4, w4 = u + h * w3, w + h * a3
        a4 = c * sqrt(u4) if u4 > 0.0 else 0.0
        u_next = u + h / 6.0 * (w + 2.0 * w2 + 2.0 * w3 + w4)
        if u_next <= 0.0:
            return None
        return (u_next, w + h / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)), c * sqrt(u_next)

    records = [(0.0, 1.0, 2.0 * v)]   # u = 1 and u' = 2 v, so u'' = c

    def accept(t, state, _, due):
        if due:
            records.append((t, *state))

    ends = step_ends(0.0, abs(t_end), dt)
    if t_end < 0.0:  # integrate backwards
        ends = [-t for t in ends]
    t, state, _, bracket = _march(step, records[0][1:], c, 0.0, ends, record_stride, accept)
    if records[-1][0] != t:  # the last step before the root
        records.append((t, *state))
    T = None if bracket is None else 0.5 * (bracket[0] + bracket[1])

    times, us, ws = np.array(records).T
    scales = np.sqrt(us)
    rates = ws / (2.0 * scales)
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

    ``u0`` and ``u1`` are 1-D arrays of one shape, at least 3 finite
    points, sampling the initial factor and its rate on a uniform periodic
    grid of period ``length`` (a positive number, default the point count).
    The centred stencils read their periodic neighbours from one ghost-cell
    buffer, the field with its last point copied before it and its first
    after.  The time-centred velocity makes the update quadratic in the
    new level; the root continuous with the linear update is taken.  A
    step allocates no array of the grid's size.  The run takes
    ``t_end / dt`` steps and ends exactly at ``t_end``, so ``dt`` must
    divide ``t_end`` (to 1e-9 of a step).  Inputs outside these terms raise
    :class:`ValueError`.  Raises :class:`CFLViolated` when ``dt > 0.5 dx``
    and :class:`PositivityLost` when the factor reaches
    ``POSITIVITY_FLOOR``.
    """
    _check_schedule(0.0, t_end, dt, stride)
    nsteps = round(t_end / dt)
    if nsteps < 1 or abs(t_end / dt - nsteps) > 1e-9:
        raise ValueError(f"dt={dt!r} does not divide t_end={t_end!r} into whole steps")
    u_prev = np.array(u0, dtype=float)
    rate0 = np.array(u1, dtype=float)
    if u_prev.ndim != 1 or len(u_prev) < 3:
        raise ValueError(f"u0 must be a 1-D array of at least 3 points, got shape "
                         f"{u_prev.shape}")
    if rate0.shape != u_prev.shape:
        raise ValueError(f"u1 has shape {rate0.shape}, u0 has shape {u_prev.shape}")
    if not (np.isfinite(u_prev).all() and np.isfinite(rate0).all()):
        raise ValueError("u0 and u1 must be finite")
    N = len(u_prev)
    if length is None:
        length = float(N)
    if not 0.0 < length < math.inf:
        raise ValueError(f"length must be positive and finite, got {length!r}")
    dx = length / N
    if dt > 0.5 * dx:
        raise CFLViolated(f"dt={dt:.3e} exceeds 0.5*dx={0.5 * dx:.3e}")
    if np.min(u_prev) <= POSITIVITY_FLOOR:
        raise PositivityLost(0.0, int(np.argmin(u_prev)), float(np.min(u_prev)))

    # work arrays: ghost[2:] and ghost[:-2] are the right and left neighbours
    ghost = np.empty(N + 2)
    right, left = ghost[2:], ghost[:-2]
    two_u, lap, g2, c = (np.empty(N) for _ in range(4))

    def stencil(u):
        # two_u = 2u, lap = u_xx and g2 = u_x^2 by centred differences
        ghost[1:-1] = u
        ghost[0], ghost[-1] = u[-1], u[0]
        np.multiply(u, 2.0, out=two_u)
        np.add(right, left, out=lap)
        np.subtract(lap, two_u, out=lap)
        np.divide(lap, dx * dx, out=lap)
        np.subtract(right, left, out=g2)
        np.divide(g2, 2.0 * dx, out=g2)
        np.square(g2, out=g2)

    # second-order bootstrap for the first level
    stencil(u_prev)
    u_cur = u_prev + dt * rate0 + 0.5 * dt * dt * (lap - (rate0 * rate0 + g2) / u_prev)
    if u_cur.min() <= POSITIVITY_FLOOR:
        raise PositivityLost(dt, int(np.argmin(u_cur)), float(np.min(u_cur)))
    times = [0.0, dt]
    history = [u_prev.copy(), u_cur.copy()]

    t = dt
    for step_index in range(nsteps - 1):
        # centred update: solve  B^2/(4u) + B + C = 0  for B = u_new - u_prev,
        # C = 2 u_prev - 2 u - dt^2 (u_xx - u_x^2 / u); disc = 1 - C / u
        stencil(u_cur)
        g2 /= u_cur
        lap -= g2
        lap *= dt * dt
        np.multiply(u_prev, 2.0, out=c)
        c -= two_u
        c -= lap
        c /= u_cur
        disc = np.subtract(1.0, c, out=c)
        if disc.min() <= 0.0:
            raise PositivityLost(t, int(np.argmin(disc)), float(np.min(u_cur)))
        # B = 2u (sqrt(disc) - 1); the new level takes the retiring one's buffer
        B = np.sqrt(disc, out=c)
        B -= 1.0
        B *= two_u
        u_new = np.add(u_prev, B, out=u_prev)
        if u_new.min() <= POSITIVITY_FLOOR:
            raise PositivityLost(t + dt, int(np.argmin(u_new)), float(np.min(u_new)))
        u_prev, u_cur = u_cur, u_new
        t = (step_index + 2) * dt
        if (step_index + 1) % stride == 0 or step_index == nsteps - 2:
            times.append(t)
            history.append(u_cur.copy())
    return ConformalWaveResult(times=np.asarray(times), u=np.asarray(history),
                               length=length)
