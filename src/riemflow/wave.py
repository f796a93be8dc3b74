"""Second-order metric evolutions, the scale ODE and the 1+1 conformal wave.

The tensor wave solves for the metric acceleration in

    d2G/dt2 = -2 Riem(g),   d2G/dt2 = (a ^ g) + 2 (k (.) k),

where ``a`` is the acceleration, ``k`` the metric velocity and
``(k (.) k)_ijkl = k_ik k_jl - k_il k_jk``.  The velocity-quadratic part
moves to the right-hand side and the same pair-trace inversion as the flow
applies.  The general scalar-coefficient family

    alpha d2G/dt2 + beta dG/dt + gamma G + delta Riem = 0

degenerates to the first-order flow for ``alpha = 0`` and is integrated with
the same stepping core, so flow-coefficient runs reproduce flow trajectories
bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .charts import MetricField
from .curvature import (
    kn_product,
    pair_product_from_samples,
    ricci_scalar_from_arrays,
    riemann,
)
from .errors import (
    CFLViolated,
    DegenerateCoefficients,
    DimensionTooSmall,
    NoSingularity,
    PositivityLost,
)
from .flow import (
    Trajectory,
    _FlowSystem,
    _frozen_frame_builder,
    _ricci_residual,
    _rk4_evolve,
    estimate_singular_time,
    monitor_blow_up,
    solve_pair_trace,
)

__all__ = [
    "WaveState", "ScaleODEState", "ConformalWaveField",
    "riemann_wave_accel", "ricci_wave_accel", "general_form_accel",
    "general_form_residual", "integrate_wave", "constant_curvature_wave_ode",
    "conformally_flat_wave_solve", "monitor_wave_blow_up",
]


@dataclass
class WaveState:
    t: float
    field: MetricField
    velocity: np.ndarray   # metric velocity samples (S, n, n), or (n, n) frame


@dataclass
class ScaleODEState:
    scale: float
    rate: float
    factor: float     # constant-curvature factor lam
    initial_rate: float


@dataclass
class ConformalWaveField:
    """Positive conformal factor on a periodic 1-d spatial grid."""

    u: np.ndarray
    length: float

    @property
    def dx(self):
        return self.length / len(self.u)


def _pair_squared(k):
    return (np.einsum('...ik,...jl->...ijkl', k, k)
            - np.einsum('...il,...jk->...ijkl', k, k))


def _wave_rhs4(g, k, riem_arr, alpha, beta, gamma, delta):
    """Right-hand side of (a ^ g) = ... for the general second-order law."""
    out = -2.0 * alpha * _pair_squared(k)
    if beta != 0.0:
        out = out - beta * kn_product(k, g)
    if gamma != 0.0:
        out = out - gamma * pair_product_from_samples(g)
    out = out - delta * riem_arr
    return out / alpha


def riemann_wave_accel(field: MetricField, velocity):
    """Metric acceleration solving d2G/dt2 = -2 Riem(g)."""
    n = field.dimension
    if n < 3:
        raise DimensionTooSmall("the tensor wave needs n >= 3")
    g = field.samples
    k = np.asarray(velocity, dtype=float).reshape(g.shape)
    riem_arr = riemann(field).array
    ginv = np.linalg.inv(g)
    rhs4 = _wave_rhs4(g, k, riem_arr, 1.0, 0.0, 0.0, 2.0)
    return solve_pair_trace(g, ginv, rhs4)


def ricci_wave_accel(field: MetricField):
    """-2 Ric(g); same right-hand side as the first-order law."""
    g = field.samples
    riem_arr = riemann(field).array
    ginv = np.linalg.inv(g)
    ric, _ = ricci_scalar_from_arrays(ginv, riem_arr)
    return -2.0 * ric


def general_form_accel(field: MetricField, velocity, alpha, beta, gamma, delta):
    """Acceleration (alpha != 0) or velocity (alpha = 0, beta != 0) of the
    general family.  Raises :class:`DegenerateCoefficients` when both leading
    coefficients vanish; use :func:`general_form_residual` to evaluate the
    algebraic members."""
    n = field.dimension
    if n < 3:
        raise DimensionTooSmall("the general family needs n >= 3")
    g = field.samples
    riem_arr = riemann(field).array
    ginv = np.linalg.inv(g)
    if alpha != 0.0:
        k = np.asarray(velocity, dtype=float).reshape(g.shape)
        rhs4 = _wave_rhs4(g, k, riem_arr, alpha, beta, gamma, delta)
        return solve_pair_trace(g, ginv, rhs4)
    if beta != 0.0:
        G = pair_product_from_samples(g)
        rhs4 = -(gamma * G + delta * riem_arr) / beta
        return solve_pair_trace(g, ginv, rhs4)
    raise DegenerateCoefficients("alpha and beta cannot both vanish")


def general_form_residual(field: MetricField, alpha, beta, gamma, delta,
                          velocity=None, acceleration=None):
    """Max-norm residual of the general family at supplied time derivatives.

    With ``alpha = beta = 0`` this evaluates the algebraic member
    ``gamma G + delta Riem = 0`` (for example ``gamma=1, delta=-1/lam``
    expresses constant curvature).
    """
    g = field.samples
    riem_arr = riemann(field).array
    total = gamma * pair_product_from_samples(g) + delta * riem_arr
    if beta != 0.0:
        if velocity is None:
            raise ValueError("beta != 0 needs the metric velocity")
        k = np.asarray(velocity, dtype=float).reshape(g.shape)
        total = total + beta * kn_product(k, g)
    if alpha != 0.0:
        if velocity is None or acceleration is None:
            raise ValueError("alpha != 0 needs velocity and acceleration")
        k = np.asarray(velocity, dtype=float).reshape(g.shape)
        a = np.asarray(acceleration, dtype=float).reshape(g.shape)
        total = total + alpha * (kn_product(a, g) + 2.0 * _pair_squared(k))
    return float(np.abs(total).max())


class _WaveSystem(_FlowSystem):
    """Second-order state (metric, velocity)."""

    wave = True

    def __init__(self, field, velocity, law, params):
        super().__init__(field, law, params)
        g = field.samples
        k = np.asarray(velocity, dtype=float)
        if self.grid:
            k = k.reshape(g.shape)
            self.state0 = [g.copy(), k.copy()]
        else:
            if k.shape == (self.n, self.n):
                kmat = k
            else:
                kmat = k.reshape(g.shape)[0]
            K0 = self._L0inv @ kmat @ self._L0inv.T
            self.state0 = [np.eye(self.n), 0.5 * (K0 + K0.T)]

    def velocity_samples(self, state):
        if self.grid:
            return state[1]
        return np.einsum('ab,bc,dc->ad', self._L0, state[1], self._L0)[None]

    def rhs(self, state):
        fld = self.field_of(state)
        g = self.metric_samples(state)
        k = self.velocity_samples(state)
        riem_arr = riemann(fld).array
        ginv = np.linalg.inv(g)
        if self.law == "riemann-wave":
            rhs4 = _wave_rhs4(g, k, riem_arr, 1.0, 0.0, 0.0, 2.0)
            acc = solve_pair_trace(g, ginv, rhs4)
        elif self.law == "ricci-wave":
            ric, _ = ricci_scalar_from_arrays(ginv, riem_arr)
            acc = -2.0 * ric
        elif self.law == "general":
            alpha = float(self.params.get("alpha", 1.0))
            beta = float(self.params.get("beta", 0.0))
            gamma = float(self.params.get("gamma", 0.0))
            delta = float(self.params.get("delta", 2.0))
            rhs4 = _wave_rhs4(g, k, riem_arr, alpha, beta, gamma, delta)
            acc = solve_pair_trace(g, ginv, rhs4)
        else:
            raise ValueError(f"unknown wave law {self.law!r}")
        if self.grid:
            return [state[1], acc], riem_arr, state[1]
        dK = self._L0inv @ acc[0] @ self._L0inv.T
        return [state[1], 0.5 * (dK + dK.T)], riem_arr, self.velocity_samples(state)

    def equation_residual(self, state, g, vel, riem_arr):
        k = self.velocity_samples(state)
        ginv = np.linalg.inv(g)
        if self.law == "riemann-wave":
            rhs4 = _wave_rhs4(g, k, riem_arr, 1.0, 0.0, 0.0, 2.0)
            acc = solve_pair_trace(g, ginv, rhs4)
            resid = kn_product(acc, g) + 2.0 * _pair_squared(k) + 2.0 * riem_arr
            return float(np.abs(resid).max())
        if self.law == "ricci-wave":
            ric, _ = ricci_scalar_from_arrays(ginv, riem_arr)
            return _ricci_residual(g, -2.0 * ric, riem_arr)
        if self.law == "general":
            alpha = float(self.params.get("alpha", 1.0))
            beta = float(self.params.get("beta", 0.0))
            gamma = float(self.params.get("gamma", 0.0))
            delta = float(self.params.get("delta", 2.0))
            rhs4 = _wave_rhs4(g, k, riem_arr, alpha, beta, gamma, delta)
            acc = solve_pair_trace(g, ginv, rhs4)
            total = (alpha * (kn_product(acc, g) + 2.0 * _pair_squared(k))
                     + beta * kn_product(k, g)
                     + gamma * pair_product_from_samples(g)
                     + delta * riem_arr)
            return float(np.abs(total).max())
        return float("nan")


def integrate_wave(initial, law, dt, t_end, *, velocity=None, stride=10,
                   collapse_threshold=1e-6, curvature_cap=None,
                   max_halvings=20, cross_check_stride=None):
    """Integrate a second-order law via RK4 on the (metric, velocity) pair.

    ``initial`` is a :class:`WaveState` or a :class:`MetricField` together
    with a ``velocity`` array (defaulting to zero).  Laws: ``riemann-wave``,
    ``ricci-wave`` or ``('general', {...})``; a general law with
    ``alpha = 0`` delegates to the first-order core so flow trajectories are
    reproduced exactly.
    """
    if isinstance(initial, WaveState):
        t0, fld, vel0 = initial.t, initial.field, initial.velocity
    else:
        t0, fld, vel0 = 0.0, initial, velocity
    if dt <= 0:
        raise ValueError("dt must be positive")
    fld.validate_spd()
    if isinstance(law, (tuple, list)):
        law_name, params = law[0], dict(law[1] or {})
    else:
        law_name, params = law, {}
    if law_name == "general" and float(params.get("alpha", 1.0)) == 0.0:
        if float(params.get("beta", 0.0)) == 0.0:
            raise DegenerateCoefficients("alpha and beta cannot both vanish")
        system = _FlowSystem(fld, "general", params)
        return _rk4_evolve(system, t0, dt, t_end, stride, collapse_threshold,
                           curvature_cap, max_halvings, cross_check_stride)
    if vel0 is None:
        vel0 = np.zeros_like(fld.samples)
    system = _WaveSystem(fld, vel0, law_name, params)
    return _rk4_evolve(system, t0, dt, t_end, stride, collapse_threshold,
                       curvature_cap, max_halvings, cross_check_stride)


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
    initial: ScaleODEState = None


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
                          polynomial_residual=v * v + 2.0 * lam / 3.0,
                          initial=ScaleODEState(scale=1.0, rate=float(v),
                                                factor=float(lam),
                                                initial_rate=float(v)))


# ---------------------------------------------------------------------------
# conformally flat 1+1 wave
# ---------------------------------------------------------------------------


@dataclass
class ConformalWaveResult:
    times: np.ndarray
    u: np.ndarray          # (T, N) conformal factor history
    length: float


def conformally_flat_wave_solve(u0, u1, dt, t_end, length=None, stride=1,
                                positivity_floor=1e-8):
    """Leapfrog solve of  u_t^2 + u_x^2 + u (u_tt - u_xx) = 0  on a circle.

    ``u0`` and ``u1`` sample the initial factor and its rate on a uniform
    periodic grid.  The time-centred velocity makes the update quadratic in
    the new level; the root continuous with the linear update is taken.
    The run takes ``t_end / dt`` steps and ends exactly at ``t_end``, so
    ``dt`` must divide ``t_end`` (to 1e-9 of a step); otherwise
    :class:`ValueError` is raised.  Raises :class:`CFLViolated` when
    ``dt > 0.5 dx`` and :class:`PositivityLost` when the factor reaches the
    floor.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    nsteps = round(t_end / dt)
    if nsteps < 1 or abs(t_end / dt - nsteps) > 1e-9:
        raise ValueError(f"dt={dt!r} does not divide t_end={t_end!r} into whole steps")
    if isinstance(u0, ConformalWaveField):
        if length is None:
            length = u0.length
        u0 = u0.u
    u_prev = np.asarray(u0, dtype=float).copy()
    rate0 = np.asarray(u1, dtype=float).copy()
    N = len(u_prev)
    if length is None:
        length = float(N)
    dx = length / N
    if dt > 0.5 * dx:
        raise CFLViolated(f"dt={dt:.3e} exceeds 0.5*dx={0.5 * dx:.3e}")
    if np.min(u_prev) <= positivity_floor:
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
        if np.min(u_new) <= positivity_floor:
            raise PositivityLost(t + dt, int(np.argmin(u_new)), float(np.min(u_new)))
        u_prev, u_cur = u_cur, u_new
        t = (step_index + 2) * dt
        if (step_index + 1) % stride == 0 or step_index == nsteps - 2:
            times.append(t)
            history.append(u_cur.copy())
    return ConformalWaveResult(times=np.asarray(times), u=np.asarray(history),
                               length=length)


def monitor_wave_blow_up(trajectory):
    """Wave-trajectory counterpart of the flow blow-up monitor."""
    return monitor_blow_up(trajectory)
