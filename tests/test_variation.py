import numpy as np
import pytest

from conftest import (
    HYPERBOLIC_FACTOR,
    SPHERE_FACTOR,
    flat_grid_field,
    hyperbolic_field,
    sphere_field,
    torus_field,
)
from riemflow import flow, variation
from riemflow.charts import AnalyticChart, GridChart, MetricField
from riemflow.curvature import CurvatureTensor, ricci_and_scalar, riemann
from riemflow.errors import StepRejected
from riemflow.families import make_family
from riemflow.flow import _rk4_step as flow_rk4_step, resolve_law
from riemflow.variation import (
    PerturbationField,
    SolitonData,
    classify_soliton,
    directional_curvature_derivative,
    integrate_linearized_flow,
    linearized_flow_rhs,
    soliton_residual,
)


def _flat_field(n=3, point=(0.2, -0.1, 0.3)):
    def g(x):
        x = np.asarray(x)
        return np.broadcast_to(np.eye(n), x.shape[:-1] + (n, n)).copy()

    return MetricField.from_function(AnalyticChart(n, list(point), 1e-2), g)


def _sym_perturbation(shape, rng, scale=0.1):
    h = rng.normal(size=shape) * scale
    return 0.5 * (h + np.swapaxes(h, -1, -2))


# ---------------------------------------------------------------------------
# perturbation directions
# ---------------------------------------------------------------------------

def test_perturbation_field_rejects_asymmetric(rng):
    with pytest.raises(ValueError):
        PerturbationField(rng.normal(size=(1, 3, 3)))


def test_perturbation_field_raised_lowered_consistency(rng):
    # d(g^{jk})/d eps along g + eps h equals minus the raised direction
    fld, _ = torus_field(3, points=8, amplitude=0.06)
    h = _sym_perturbation(fld.values.shape, rng).reshape(fld.samples.shape)
    pert = PerturbationField(h)
    raised = pert.raised(fld)
    eps = 1e-6
    inv_plus = np.linalg.inv(fld.samples + eps * h)
    inv_minus = np.linalg.inv(fld.samples - eps * h)
    quotient = (inv_plus - inv_minus) / (2.0 * eps)
    assert np.abs(quotient + raised).max() < 1e-6


def test_perturbation_field_accepted_by_derivative(rng):
    fld, _ = torus_field(3, points=8, amplitude=0.06)
    h = _sym_perturbation(fld.values.shape, rng).reshape(fld.samples.shape)
    d_plain = directional_curvature_derivative(fld, h)
    d_wrapped = directional_curvature_derivative(fld, PerturbationField(h))
    assert np.array_equal(d_plain, d_wrapped)


@pytest.mark.parametrize("family", ["flat", "conformal-torus"])
def test_callable_direction_on_a_field_made_from_samples(family):
    # a field made from samples has no function: a callable direction is
    # sampled at the chart's points, as a field made from a function's is
    metric = make_family(family, 3, {}, np.random.default_rng(1)).metric_function
    chart = GridChart(3, 8, 2.0 * np.pi)

    def h(x):
        x = np.asarray(x)
        out = np.zeros(x.shape[:-1] + (3, 3))
        out[..., 0, 0] = np.sin(x[..., 1]) + 0.5
        out[..., 1, 2] = out[..., 2, 1] = 0.2 * np.cos(x[..., 0])
        out[..., 2, 2] = 0.1
        return out

    sampled = MetricField.from_samples(chart, metric(chart.sample_points))
    for which in ("Riem", "Ric"):
        d = directional_curvature_derivative(sampled, h, which)
        assert np.array_equal(d, directional_curvature_derivative(
            sampled, h(chart.sample_points), which))
        assert np.array_equal(d, directional_curvature_derivative(
            MetricField.from_function(chart, metric), h, which))


# ---------------------------------------------------------------------------
# directional derivatives
# ---------------------------------------------------------------------------

def test_derivative_linear_in_direction(rng):
    fld, _ = torus_field(3, points=8, amplitude=0.08)
    h1 = _sym_perturbation(fld.values.shape, rng)
    h2 = _sym_perturbation(fld.values.shape, rng)
    a, b = 0.7, -1.3
    d1 = directional_curvature_derivative(fld, h1.reshape(fld.samples.shape))
    d2 = directional_curvature_derivative(fld, h2.reshape(fld.samples.shape))
    d12 = directional_curvature_derivative(
        fld, (a * h1 + b * h2).reshape(fld.samples.shape))
    assert np.abs(d12 - a * d1 - b * d2).max() < 1e-8


def _fourth_order_quotient(op, perturbed, e):
    """(8 (F(e) - F(-e)) - (F(2e) - F(-2e))) / (12 e), F(s) = op(perturbed(s))."""
    F = {s: op(perturbed(s * e)) for s in (-2, -1, 1, 2)}
    return (8.0 * (F[1] - F[-1]) - (F[2] - F[-2])) / (12.0 * e)


def _derivatives_and_quotients(fld, h, perturbed, e):
    """(complex-step derivative, fourth-order quotient) of Riem, Ric and the
    linearized ricci and riemann-induced velocities along ``h``."""
    ops = [(lambda f, w=w: directional_curvature_derivative(f, h, which=w),
            lambda f, w=w: _operator_of(f, w)) for w in ("Riem", "Ric")]
    ops += [(lambda f, law=law: linearized_flow_rhs(f, h, which=law),
             lambda f, law=law: resolve_law(law, 3, 1).rate_at(f))
            for law in ("ricci", "riemann-induced")]
    return [(exact(fld), _fourth_order_quotient(op, perturbed, e)) for exact, op in ops]


def _operator_of(fld, which):
    R = riemann(fld)
    return R.block if which == "Riem" else ricci_and_scalar(fld, R)[0]


def test_complex_step_matches_fourth_order_quotient(rng):
    # the complex step is exact to roundoff; the quotient's truncation and
    # roundoff are about 1e-12 relative at e = 1e-3
    fld, _ = torus_field(3, points=8, amplitude=0.08)
    h = _sym_perturbation(fld.values.shape, rng)

    def perturbed(e):
        return MetricField.from_samples(fld.chart, fld.values + e * h)

    for exact, quotient in _derivatives_and_quotients(fld, h.reshape(fld.samples.shape),
                                                      perturbed, 1e-3):
        assert np.abs(exact - quotient).max() <= 1e-9 * np.abs(exact).max()


def test_complex_step_on_an_analytic_chart():
    # hyperbolic-poincare away from the origin, with a callable direction;
    # both sides differentiate the same stencil jets, whose roundoff grows as
    # 1 / step^2, so a coarse step keeps the quotient's roundoff near 1e-11
    fam = make_family("hyperbolic-poincare", 3)
    fld = MetricField.from_function(AnalyticChart(3, [0.2, -0.1, 0.15], 0.1),
                                    fam.metric_function)

    def h(x):
        x = np.asarray(x)
        out = np.zeros(x.shape[:-1] + (3, 3))
        out[..., 0, 0] = np.sin(x[..., 1]) + 0.5
        out[..., 0, 2] = out[..., 2, 0] = 0.3 * np.cos(x[..., 0] + x[..., 2])
        out[..., 1, 1] = x[..., 0] * x[..., 2]
        out[..., 1, 2] = out[..., 2, 1] = 0.2 * np.exp(x[..., 1])
        return out

    def perturbed(e):
        return MetricField.from_function(fld.chart,
                                         lambda x: fam.metric_function(x) + e * h(x))

    for exact, quotient in _derivatives_and_quotients(fld, h, perturbed, 1e-2):
        assert np.abs(exact - quotient).max() <= 1e-9 * np.abs(exact).max()
    # along h = g the curvature operator is homogeneous of degree one
    d_riem = directional_curvature_derivative(fld, fam.metric_function, which="Riem")
    assert np.abs(d_riem - riemann(fld).block).max() <= 1e-12 * np.abs(d_riem).max()


def test_derivative_homogeneity_identities():
    # scaling direction h = g: the curvature operator is homogeneous of
    # degree one, the Ricci operator of degree zero
    fld, _ = torus_field(3, points=8, amplitude=0.08)
    d_riem = directional_curvature_derivative(fld, fld.samples.copy(), which="Riem")
    assert np.abs(d_riem - riemann(fld).block).max() < 1e-12
    d_ric = directional_curvature_derivative(fld, fld.samples.copy(), which="Ric")
    assert np.abs(d_ric).max() < 1e-12


def test_derivative_flat_background_matches_second_differences(rng):
    # at the flat metric the linearized curvature is the pure bracket of
    # second derivatives of the perturbation
    n = 3
    chart = GridChart(n, 8, 2.0 * np.pi)
    flat = MetricField.from_function(
        chart, lambda x: np.broadcast_to(np.eye(n), np.asarray(x).shape[:-1] + (n, n)).copy())
    hvals = np.zeros(chart.grid_shape + (n, n))
    pts = chart.sample_points.reshape(chart.grid_shape + (n,))
    hvals[..., 0, 0] = 0.5 * np.sin(pts[..., 1])
    hvals[..., 0, 1] = hvals[..., 1, 0] = 0.3 * np.cos(pts[..., 2])
    hvals[..., 2, 2] = 0.4 * np.sin(pts[..., 0] + pts[..., 1])

    D = directional_curvature_derivative(flat, hvals.reshape(flat.samples.shape))

    from riemflow.charts import grid_scalar_jet
    _, _, d2h = grid_scalar_jet(hvals, chart)
    bracket = 0.5 * (np.einsum('sikjl->sijkl', d2h) + np.einsum('sjlik->sijkl', d2h)
                     - np.einsum('sjkil->sijkl', d2h) - np.einsum('siljk->sijkl', d2h))
    assert np.abs(CurvatureTensor(D).array - bracket).max() < 1e-7


# ---------------------------------------------------------------------------
# linearized flows
# ---------------------------------------------------------------------------

def test_linearized_rhs_zero_direction():
    fld, _ = torus_field(3, points=8)
    out = linearized_flow_rhs(fld, np.zeros_like(fld.samples), which="ricci")
    assert np.abs(out).max() == 0.0


def test_linearized_rhs_scaling_direction_ricci():
    # the first-order velocity -2 Ric is scale invariant, so its derivative
    # along h = g vanishes
    fld, _ = torus_field(3, points=8, amplitude=0.08)
    out = linearized_flow_rhs(fld, fld.samples.copy(), which="ricci")
    assert np.abs(out).max() < 1e-12


def test_linearized_integration_refuses_an_indefinite_base_metric(rng):
    fld, _ = torus_field(3, points=8, amplitude=0.05)
    values = fld.values.copy()
    values[0, 0, 0] = -np.eye(3)
    bad = MetricField.from_samples(fld.chart, values)
    with pytest.raises(StepRejected):
        integrate_linearized_flow(bad, _sym_perturbation(fld.samples.shape, rng),
                                  "ricci", 5e-3, 0.01)


@pytest.mark.parametrize("which", ["ricci", "riemann-induced"])
def test_two_run_tangency_central_order(which, rng):
    fld, _ = torus_field(3, points=8, amplitude=0.05)
    h = _sym_perturbation(fld.values.shape, rng, scale=0.1)
    dt, t_end = 5e-3, 0.1
    hlin = integrate_linearized_flow(fld, h.reshape(fld.samples.shape),
                                     which, dt, t_end)
    from riemflow.flow import integrate_flow
    errs = []
    for eps in (1e-2, 5e-3):
        plus = MetricField.from_samples(fld.chart, fld.values + eps * h)
        minus = MetricField.from_samples(fld.chart, fld.values - eps * h)
        tp = integrate_flow(plus, which, dt, t_end, stride=10 ** 9)
        tm = integrate_flow(minus, which, dt, t_end, stride=10 ** 9)
        quotient = (tp.states[-1] - tm.states[-1]) / (2.0 * eps)
        errs.append(np.abs(quotient - hlin).max())
    assert np.log2(errs[0] / errs[1]) > 1.7


def test_linearized_flow_refuses_the_flow_s_bad_schedules(rng):
    # a t_end before the start and a dt that is not positive, as the flow does
    fld, _ = torus_field(3, points=8, amplitude=0.05)
    h = _sym_perturbation(fld.samples.shape, rng)
    for dt, t_end, message in ((0.01, -1.0, "t_end"), (0.0, 0.1, "dt")):
        with pytest.raises(ValueError, match=message):
            integrate_linearized_flow(fld, h, "ricci", dt, t_end)


def test_linearized_flow_refuses_an_analytic_chart():
    # the frozen frame is real, so a complex-step run would drop the
    # direction's imaginary part: refused for callable and sample directions
    fld, _ = hyperbolic_field(3)
    for h in (lambda x: 0.1 * fld.func(x), 0.1 * fld.samples):
        with pytest.raises(ValueError):
            integrate_linearized_flow(fld, h, "ricci", 0.01, 0.02)


def test_linearized_flow_takes_the_flow_steps(monkeypatch, rng):
    # both runs step on one schedule: 0.07 / 0.01 is 7.000000000000001
    lengths = {flow: [], variation: []}
    for module, seen in lengths.items():
        def counting(system, state, dt, *rest, seen=seen):
            seen.append(dt)
            return flow_rk4_step(system, state, dt, *rest)
        monkeypatch.setattr(module, "_rk4_step", counting)
    fld, _ = torus_field(3, points=8, amplitude=0.05)
    integrate_linearized_flow(fld, _sym_perturbation(fld.samples.shape, rng), "ricci", 0.01, 0.07)
    flow.integrate_flow(fld, "ricci", 0.01, 0.07)
    assert len(lengths[flow]) == 7
    assert lengths[variation] == lengths[flow]


# ---------------------------------------------------------------------------
# solitons
# ---------------------------------------------------------------------------

def _zero_potential(x):
    return np.zeros(np.asarray(x).shape[:-1])


def test_soliton_flat_trivial():
    fld = _flat_field()
    _, norm = soliton_residual(fld, SolitonData(factor=0.0,
                                                potential=_zero_potential))
    assert norm < 1e-12


@pytest.mark.parametrize("lam", [0.7, -1.3])
def test_soliton_gaussian_type(lam):
    # flat metric with potential -lam |x|^2 / 4: the Hessian term cancels the
    # lam G term exactly
    fld = _flat_field()

    def potential(x):
        return -lam * np.sum(np.asarray(x) ** 2, axis=-1) / 4.0

    _, norm = soliton_residual(fld, SolitonData(factor=lam, potential=potential))
    assert norm < 1e-10


def test_soliton_constant_curvature_charts():
    # with zero potential the residual vanishes exactly when the constant
    # equals minus the curvature factor
    for build, factor in ((sphere_field, SPHERE_FACTOR),
                          (hyperbolic_field, HYPERBOLIC_FACTOR)):
        fld, _ = build(3)
        _, good = soliton_residual(fld, SolitonData(factor=-factor,
                                                    potential=_zero_potential))
        _, bad = soliton_residual(fld, SolitonData(factor=-factor + 0.3,
                                                   potential=_zero_potential))
        assert good < 1e-6
        assert bad > 1e-1


def test_soliton_gradient_and_vector_paths_agree():
    def g(x):
        x = np.asarray(x)
        u = 1.0 + 0.2 * np.sin(x[..., 0]) + 0.1 * np.cos(x[..., 1])
        return u[..., None, None] * np.eye(3)

    fld = MetricField.from_function(AnalyticChart(3, [0.3, -0.4, 0.2], 1e-3), g)

    def potential(x):
        x = np.asarray(x)
        return 0.3 * np.sin(x[..., 0]) + 0.2 * np.cos(x[..., 1] + x[..., 2])

    def covector(x):
        x = np.asarray(x)
        out = np.zeros(x.shape[:-1] + (3,))
        out[..., 0] = 0.3 * np.cos(x[..., 0])
        out[..., 1] = -0.2 * np.sin(x[..., 1] + x[..., 2])
        out[..., 2] = -0.2 * np.sin(x[..., 1] + x[..., 2])
        return out

    r1, _ = soliton_residual(fld, SolitonData(factor=0.2, potential=potential),
                             gradient=True)
    r2, _ = soliton_residual(fld, SolitonData(factor=0.2, covector=covector),
                             gradient=False)
    assert np.abs(r1 - r2).max() < 1e-9


def _periodic_potential(x):
    x = np.asarray(x)
    return 0.3 * np.sin(x[..., 0]) + 0.2 * np.cos(x[..., 1] + x[..., 2])


def test_soliton_grid_potential_as_samples_or_callable_is_the_same_bit_for_bit():
    fld, _ = torus_field(3)
    samples = _periodic_potential(fld.chart.sample_points)
    (r1, n1), (r2, n2) = (soliton_residual(fld, SolitonData(factor=0.4, potential=potential))
                          for potential in (_periodic_potential, samples))
    assert r1.tobytes() == r2.tobytes() and n1 == n2 > 0.0


@pytest.mark.parametrize("gradient", [True, False], ids=["potential", "covector"])
def test_soliton_refuses_a_callable_that_is_not_periodic_on_a_grid(gradient):
    # the stencils would difference -lam |x|^2 / 4, or V = x, across the seam
    # of the torus: the flat Gaussian soliton, whose residual is 0 on an
    # analytic chart, would read 136 on an 8^3 grid
    fld, _ = flat_grid_field(3)
    data = (SolitonData(factor=1.0, potential=lambda x: -np.sum(np.asarray(x) ** 2, axis=-1) / 4.0)
            if gradient else SolitonData(factor=1.0, covector=lambda x: np.asarray(x)))
    name = "potential" if gradient else "covector"
    with pytest.raises(ValueError, match=f"the {name} is not finite and periodic on the grid"):
        soliton_residual(fld, data, gradient=gradient)


def test_soliton_residual_scale_invariant_norm():
    # chart coordinates x -> c x with correspondingly transformed inputs
    # leave the residual norm unchanged
    c = 1.7
    lam = 0.4

    def g(x):
        x = np.asarray(x)
        u = 1.0 + 0.2 * np.sin(x[..., 0]) + 0.1 * np.cos(x[..., 1])
        return u[..., None, None] * np.eye(3)

    def potential(x):
        x = np.asarray(x)
        return 0.25 * np.sin(x[..., 0] + 0.5 * x[..., 2])

    base_point = np.array([0.3, -0.2, 0.5])
    fld1 = MetricField.from_function(AnalyticChart(3, base_point, 1e-3), g)
    _, n1 = soliton_residual(fld1, SolitonData(factor=lam, potential=potential))

    def g_scaled(y):
        y = np.asarray(y)
        return g(y / c) / c ** 2

    def potential_scaled(y):
        return potential(np.asarray(y) / c)

    fld2 = MetricField.from_function(AnalyticChart(3, c * base_point, c * 1e-3),
                                     g_scaled)
    _, n2 = soliton_residual(fld2, SolitonData(factor=lam,
                                               potential=potential_scaled))
    assert abs(n1 - n2) < 1e-8 * max(n1, 1.0)


def test_classification_table():
    assert classify_soliton(-1.0) == "shrinking"
    assert classify_soliton(0.0) == "static"
    assert classify_soliton(2.0) == "expanding"
