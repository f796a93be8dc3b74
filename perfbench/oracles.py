"""Reference answers computed apart from riemflow.

Nothing here imports riemflow: every value is a closed form, an exact
derivative, or an independent high-accuracy integration with scipy.  The
benchmark compares the program's outputs against these; ``test_oracles.py``
checks the oracles themselves against cases with known answers.

Sign convention: riemflow's curvature formula gives the unit sphere the
sectional factor -1 and scalar curvature -n(n-1), the opposite of the
standard convention.  :func:`conformal_scalar` follows riemflow's sign so
that it can be compared with the program directly.
"""

import math

import numpy as np


def homothety_scale(rate, t):
    """Scale 1 - rate*t of a homothetic collapse (rate = 1/T)."""
    return 1.0 - rate * np.asarray(t, dtype=float)


def beta_collapse_time(lam):
    """Collapse time of f'^2 + f f'' + lam f = 0 with f(0) = 1, f'(0) = 0.

    With F = f^2 the equation is F'' = -2 lam sqrt(F); its energy integral
    gives T = sqrt(3/(8 lam)) * int_0^1 (1 - F^(3/2))^(-1/2) dF
            = (2/3) sqrt(3/(8 lam)) B(2/3, 1/2).
    """
    if lam <= 0:
        raise ValueError("the scale collapses only for lam > 0")
    beta = math.gamma(2.0 / 3.0) * math.gamma(0.5) / math.gamma(2.0 / 3.0 + 0.5)
    return (2.0 / 3.0) * math.sqrt(3.0 / (8.0 * lam)) * beta


def scale_ode_reference(lam, v, t_eval, floor=1e-3):
    """f(t) of f'^2 + f f'' + lam f = 0, f(0)=1, f'(0)=v, by DOP853.

    Integrates to the first time f reaches ``floor`` (or to max(t_eval)) at
    rtol 1e-12; entries of ``t_eval`` beyond that time are NaN.
    """
    # imported here so that building a workload's fields (timed as set-up)
    # does not pay for scipy.integrate
    from scipy.integrate import solve_ivp

    t_eval = np.asarray(t_eval, dtype=float)

    def rhs(_, y):
        f, fp = y
        return [fp, -(fp * fp + lam * f) / f]

    def hit_floor(_, y):
        return y[0] - floor

    hit_floor.terminal = True
    hit_floor.direction = -1
    sol = solve_ivp(rhs, (0.0, float(t_eval.max())), [1.0, float(v)], method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True, events=hit_floor)
    out = np.full(t_eval.shape, np.nan)
    inside = t_eval <= sol.t[-1]
    out[inside] = sol.sol(t_eval[inside])[0]
    return out


def polynomial_scale(c, t):
    """(1 + c t)^2, the exact scale for lam = -6 c^2, v = 2 c."""
    return (1.0 + c * np.asarray(t, dtype=float)) ** 2


def conformal_torus_phi(points, amplitude, mode, phases, lengths):
    """phi, |grad phi|^2 and Laplacian of phi for the conformal torus
    phi(x) = amplitude * sum_k sin(2 pi mode x_k / L_k + phase_k), exactly."""
    x = np.asarray(points, dtype=float)
    k = 2.0 * math.pi * mode / np.asarray(lengths, dtype=float)
    arg = k * x + np.asarray(phases, dtype=float)
    phi = amplitude * np.sin(arg).sum(axis=-1)
    grad_sq = (amplitude * k * np.cos(arg)) ** 2
    lap = -amplitude * k * k * np.sin(arg)
    return phi, grad_sq.sum(axis=-1), lap.sum(axis=-1)


def conformal_scalar(phi, grad_sq, lap, n):
    """Scalar curvature of exp(2 phi) delta in riemflow's sign convention:
    exp(-2 phi) (2(n-1) lap phi + (n-1)(n-2) |grad phi|^2)."""
    return np.exp(-2.0 * phi) * (2.0 * (n - 1) * lap + (n - 1) * (n - 2) * grad_sq)


def dalembert_standing(x, t, amplitude, phase):
    """1 + a sin(2 pi (x + phase)) cos(2 pi t): the linear standing mode."""
    x, t = np.broadcast_arrays(np.asarray(x, float), np.asarray(t, float))
    return 1.0 + amplitude * np.sin(2.0 * math.pi * (x + phase)) * np.cos(2.0 * math.pi * t)


def dalembert_right(x, t, amplitude, phase):
    """1 + a sin(2 pi (x - t + phase)): the linear right-moving mode."""
    x, t = np.broadcast_arrays(np.asarray(x, float), np.asarray(t, float))
    return 1.0 + amplitude * np.sin(2.0 * math.pi * (x - t + phase))


def observed_order(coarse_error, fine_error, ratio=2.0):
    """log_ratio(coarse_error / fine_error)."""
    return math.log(coarse_error / fine_error) / math.log(ratio)
