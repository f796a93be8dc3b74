"""The benchmark's oracles against cases with known answers.

Run with ``python3 -m pytest perfbench/test_oracles.py``.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import oracles


@pytest.mark.parametrize("lam", [0.25, 1.0, 3.0])
def test_beta_collapse_time_matches_quadrature(lam):
    # T = sqrt(3/(8 lam)) int_0^1 (1 - F^1.5)^-1/2 dF; the endpoint
    # singularity (1 - F)^-1/2 is handed to quad's algebraic weight
    smooth = lambda F: math.sqrt((1.0 - F) / (1.0 - F ** 1.5)) if F < 1.0 else math.sqrt(2.0 / 3.0)  # noqa: E731
    integral, _ = quad(smooth, 0.0, 1.0, weight="alg", wvar=(0.0, -0.5), epsabs=1e-14)
    assert oracles.beta_collapse_time(lam) == pytest.approx(
        math.sqrt(3.0 / (8.0 * lam)) * integral, rel=1e-10)


def test_beta_collapse_time_value_and_scaling():
    assert oracles.beta_collapse_time(1.0) == pytest.approx(1.0561831, abs=5e-8)
    assert oracles.beta_collapse_time(4.0) == pytest.approx(0.5 * oracles.beta_collapse_time(1.0))


def test_scale_ode_reference_collapses_at_the_beta_time():
    T = oracles.beta_collapse_time(1.0)
    f = oracles.scale_ode_reference(1.0, 0.0, [0.0, 0.5 * T, T * (1 - 1e-4), T * (1 + 1e-4)])
    assert f[0] == 1.0
    # near T the scale behaves like sqrt(T - t): small just before, gone after
    assert 0.0 < f[2] < 0.05
    assert np.isnan(f[3])


def test_scale_ode_reference_matches_the_polynomial_solution():
    t = np.linspace(0.0, 5.0, 51)
    f = oracles.scale_ode_reference(-6.0, 2.0, t)
    np.testing.assert_allclose(f, oracles.polynomial_scale(1.0, t), rtol=1e-10)


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_polynomial_scale_solves_the_scale_ode(c):
    t = np.linspace(0.0, 3.0, 7)
    f = oracles.polynomial_scale(c, t)
    fp = 2.0 * c * (1.0 + c * t)
    fpp = 2.0 * c * c
    np.testing.assert_allclose(fp ** 2 + f * fpp + (-6.0 * c * c) * f, 0.0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_conformal_scalar_on_the_round_sphere(n):
    # 4 delta / (1 + |x|^2)^2 is the unit sphere: standard scalar curvature
    # n(n-1), and -n(n-1) in riemflow's sign convention
    x = np.random.default_rng(n).uniform(-0.6, 0.6, size=(20, n))
    r2 = np.sum(x * x, axis=-1)
    phi = math.log(2.0) - np.log1p(r2)
    grad_sq = 4.0 * r2 / (1.0 + r2) ** 2
    lap = -(2.0 * n / (1.0 + r2) - 4.0 * r2 / (1.0 + r2) ** 2)
    np.testing.assert_allclose(oracles.conformal_scalar(phi, grad_sq, lap, n),
                               -n * (n - 1), rtol=1e-12)


def test_conformal_torus_phi_derivatives_against_differences():
    rng = np.random.default_rng(0)
    lengths = np.array([2.0 * math.pi, 3.0, 5.0])
    phases = rng.uniform(0.0, 2.0 * math.pi, size=3)
    x = rng.uniform(0.0, 3.0, size=(10, 3))
    phi, grad_sq, lap = oracles.conformal_torus_phi(x, 0.05, 2, phases, lengths)
    h = 1e-4
    grad = np.zeros_like(x)
    second = np.zeros(len(x))
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        up = oracles.conformal_torus_phi(x + e, 0.05, 2, phases, lengths)[0]
        down = oracles.conformal_torus_phi(x - e, 0.05, 2, phases, lengths)[0]
        grad[:, k] = (up - down) / (2.0 * h)
        second += (up - 2.0 * phi + down) / (h * h)
    np.testing.assert_allclose(grad_sq, np.sum(grad ** 2, axis=-1), rtol=1e-6)
    np.testing.assert_allclose(lap, second, rtol=1e-4, atol=1e-8)


def _pde_terms(u, x, t, h=1e-3):
    """u_t^2 + u_x^2 and u_tt - u_xx of u(x, t) by central differences."""
    ut = (u(x, t + h) - u(x, t - h)) / (2 * h)
    ux = (u(x + h, t) - u(x - h, t)) / (2 * h)
    utt = (u(x, t + h) - 2 * u(x, t) + u(x, t - h)) / (h * h)
    uxx = (u(x + h, t) - 2 * u(x, t) + u(x - h, t)) / (h * h)
    return ut ** 2 + ux ** 2, utt - uxx


@pytest.mark.parametrize("mode", [oracles.dalembert_standing, oracles.dalembert_right])
def test_dalembert_as_the_amplitude_goes_to_zero(mode):
    # d'Alembert solves the linear wave equation exactly; in the 1+1 law
    # u_t^2 + u_x^2 + u (u_tt - u_xx) = 0 it leaves a residual of order a^2,
    # so the residual relative to a vanishes as a -> 0
    x = np.linspace(0.0, 1.0, 33)[:, None]
    t = np.linspace(0.0, 1.0, 9)[None, :]
    relative = []
    for a in (1e-2, 1e-3, 1e-4):
        u = lambda xx, tt: mode(xx, tt, a, 0.3)  # noqa: E731
        quadratic, linear = _pde_terms(u, x, t)
        assert np.abs(linear).max() <= 1e-4 * a * (2 * math.pi) ** 2
        residual = quadratic + u(x, t) * linear
        relative.append(np.abs(residual).max() / a)
    # u_t^2 + u_x^2 <= 2 a^2 k^2 with k = 2 pi
    assert relative[0] <= 2.0 * (2.0 * math.pi) ** 2 * 1e-2 * 1.01
    np.testing.assert_allclose(relative[1] / relative[0], 0.1, rtol=0.02)
    np.testing.assert_allclose(relative[2] / relative[1], 0.1, rtol=0.02)


def test_dalembert_initial_data():
    x = np.linspace(0.0, 1.0, 17)
    a, p, k = 1e-4, 0.25, 2.0 * math.pi
    np.testing.assert_allclose(oracles.dalembert_standing(x, 0.0, a, p), 1 + a * np.sin(k * (x + p)))
    np.testing.assert_allclose(oracles.dalembert_right(x, 0.0, a, p), 1 + a * np.sin(k * (x + p)))
    h = 1e-6
    rate = (oracles.dalembert_right(x, h, a, p) - oracles.dalembert_right(x, -h, a, p)) / (2 * h)
    np.testing.assert_allclose(rate, -a * k * np.cos(k * (x + p)), atol=1e-9)


def test_observed_order():
    assert oracles.observed_order(16e-6, 1e-6) == pytest.approx(4.0)
