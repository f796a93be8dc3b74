import gc
import weakref

import numpy as np
import pytest

from conftest import (
    HYPERBOLIC_FACTOR,
    SPHERE_FACTOR,
    flat_grid_field,
    hyperbolic_field,
    nan_at,
    rand_spd,
    sphere_field,
    torus_field,
    upper_hessian,
)
from riemflow.bialternate import bialternate_product
from riemflow import charts, flow
from riemflow.charts import (
    AnalyticChart,
    GridChart,
    MetricField,
    analytic_stencil,
    richardson_jet,
)
from riemflow.curvature import (
    kn_product,
    pair_product_from_samples,
    ricci_and_scalar,
    riemann,
    weyl,
)
from riemflow.errors import (
    DimensionTooSmall,
    EmptyTrajectory,
    NoSingularity,
    NotInImage,
    NotPositiveDefinite,
    StencilOutOfDomain,
    StepRejected,
)
from riemflow.families import make_family
from riemflow.flow import (
    check_metric_equivalence,
    homothety_flow_solution,
    integrate_flow,
    monitor_blow_up,
    resolve_law,
)
from riemflow.wave import integrate_wave


# ---------------------------------------------------------------------------
# velocities
# ---------------------------------------------------------------------------

def test_flat_velocities_vanish():
    fld, _ = flat_grid_field(3)
    assert np.abs(resolve_law("ricci", 3, 1).rate_at(fld)).max() == 0.0
    assert np.abs(resolve_law("riemann-induced", 3, 1).rate_at(fld)).max() == 0.0


def test_ricci_velocity_on_model_charts():
    # Ric = (n-1) * factor * g, so the first-order velocity is -2 (n-1) factor g
    for build, factor in ((sphere_field, SPHERE_FACTOR),
                          (hyperbolic_field, HYPERBOLIC_FACTOR)):
        fld, _ = build(3)
        vel = resolve_law("ricci", 3, 1).rate_at(fld)
        assert np.abs(vel + 4.0 * factor * fld.samples).max() < 1e-6


def test_induced_velocity_is_minus_factor_times_metric():
    for build, factor in ((sphere_field, SPHERE_FACTOR),
                          (hyperbolic_field, HYPERBOLIC_FACTOR)):
        fld, _ = build(3)
        vel = resolve_law("riemann-induced", 3, 1).rate_at(fld)
        assert np.abs(vel + factor * fld.samples).max() < 1e-6


def test_induced_velocity_dimension_guard():
    fld, _ = sphere_field(2)
    with pytest.raises(DimensionTooSmall):
        resolve_law("riemann-induced", fld.dimension, 1).rate_at(fld)


def test_trace_self_consistency():
    # trace of the solved velocity must match the double contraction of the
    # pair-product equation computed through an independent arithmetic path
    fld, _ = torus_field(3, points=8, amplitude=0.1)
    g = fld.samples
    ginv = np.linalg.inv(g)
    vel = resolve_law("riemann-induced", 3, 1).rate_at(fld)
    tr_solved = np.einsum('sik,sik->s', ginv, vel)
    R = riemann(fld).array
    double = np.einsum('sik,sjl,sijkl->s', ginv, ginv, -2.0 * R)
    n = 3
    tr_contracted = double / (2.0 * (n - 1))
    assert np.abs(tr_solved - tr_contracted).max() < 1e-13 * max(np.abs(tr_solved).max(), 1)


def test_scaled_flow_alpha_sign():
    # the candidate first-order velocity -2 Ric satisfies the scaled
    # pair-product flow only for alpha = -2(n-2); the opposite sign fails
    fam = make_family("conformal-torus", 4, {"amplitude": 0.05, "mode": 1},
                      np.random.default_rng(9))
    fld = MetricField.from_function(GridChart(4, 8, 2.0 * np.pi), fam.metric_function)
    g, ginv, riem = fld.samples, fld.inverse, riemann(fld).block
    vel = resolve_law("ricci", 4, 1).rate_at(fld)
    n = 4

    def mismatch(alpha):
        # max |(vel ^ g) - alpha Riem - beta tr(vel) G|
        law = resolve_law(("riemann-type", {"alpha": alpha, "beta": 1.0 / (n - 1)}), n, 1)
        return law.residual(g, ginv, None, vel, riem)

    assert mismatch(-2.0 * (n - 2)) < 1e-12
    assert mismatch(2.0 * (n - 2)) > 1e-2


@pytest.mark.parametrize("n", [3, 4])
def test_riemann_type_rate_matches_its_closed_form(n):
    # (v ^ g) = alpha Riem + beta tr(v) G contracts to
    # (n-2) v + c tr(v) g = alpha Ric with c = 1 - beta (n-1), whose trace
    # gives tr(v) = alpha R / ((n-2) + n c); at n = 3 the contraction loses
    # nothing, so v solves the equation itself
    alpha, beta = 0.7, 0.3
    fld, _ = torus_field(n, amplitude=0.08)
    g, ginv = fld.samples, fld.inverse
    riem = riemann(fld)
    ric, scal = ricci_and_scalar(fld, riem)
    c = 1.0 - beta * (n - 1)
    trv = alpha * scal / ((n - 2) + n * c)
    want = (alpha * ric - c * trv[:, None, None] * g) / (n - 2)
    assert np.abs(scal).max() > 1e-2
    law = resolve_law(("riemann-type", {"alpha": alpha, "beta": beta}), n, 1)
    got = law.rate_at(fld)
    assert np.abs(got - want).max() < 1e-13 * np.abs(want).max()
    if n == 3:
        trace = np.einsum('sik,sik->s', ginv, got)
        left = kn_product(got, g) - alpha * riem.block \
            - beta * trace[:, None, None] * pair_product_from_samples(g)
        assert np.abs(left).max() < 1e-13
        assert law.residual(g, ginv, None, got, riem.block) < 1e-13


def test_riemann_type_integration_matches_ricci_flow():
    fld, _ = torus_field(3, points=8, amplitude=0.06)
    n = 3
    t1 = integrate_flow(fld, "ricci", 5e-3, 0.05, stride=2)
    t2 = integrate_flow(fld, ("riemann-type", {"alpha": -2.0 * (n - 2),
                                               "beta": 1.0 / (n - 1)}),
                        5e-3, 0.05, stride=2)
    diff = max(np.abs(a - b).max() for a, b in zip(t1.states, t2.states))
    assert diff < 1e-13


# ---------------------------------------------------------------------------
# pair-product equation residual
# ---------------------------------------------------------------------------

def test_residual_flat_zero():
    fld, _ = flat_grid_field(3)
    law = resolve_law("riemann-induced", 3, 1)
    assert law.residual(fld.samples, fld.inverse, None, np.zeros_like(fld.samples),
                        riemann(fld).block) == 0.0


def test_residual_dimension_three_is_roundoff():
    # in n = 3 the pair-trace inversion solves the full system identically,
    # so the residual sits at round-off for any resolution (in particular it
    # is bounded by c h^4 with room to spare)
    for points in (8, 16):
        fld, _ = torus_field(3, points=points, amplitude=0.1)
        law = resolve_law("riemann-induced", 3, 1)
        vel = law.rate_at(fld)
        res = law.residual(fld.samples, fld.inverse, None, vel, riemann(fld).block)
        h = 2.0 * np.pi / points
        assert res < 1e-10
        assert res < 1.0 * h ** 4


def test_residual_dimension_four_equals_twice_weyl():
    def g(x):
        x = np.asarray(x)
        base = np.broadcast_to(np.eye(4), x.shape[:-1] + (4, 4)).copy()
        base[..., 0, 0] += 0.3 * np.sin(x[..., 1])
        base[..., 1, 1] += 0.25 * np.cos(x[..., 2])
        base[..., 2, 3] = base[..., 3, 2] = 0.1 * np.sin(x[..., 0])
        return base

    fld = MetricField.from_function(GridChart(4, 8, 2.0 * np.pi), g)
    from riemflow.bialternate import kulkarni_nomizu
    vel = resolve_law("riemann-induced", 4, 1).rate_at(fld)
    R = riemann(fld)
    resid = kulkarni_nomizu(vel, fld.samples) + 2.0 * R.array
    C = weyl(fld, R).array
    assert np.abs(C).max() > 1e-4
    assert np.abs(resid - 2.0 * C).max() < 1e-12 * max(np.abs(C).max(), 1)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_flat_metric_is_fixed_point():
    fld, _ = flat_grid_field(3)
    for law in ("ricci", "riemann-induced",
                ("riemann-type", {"alpha": -2.0, "beta": 0.5})):
        traj = integrate_flow(fld, law, 0.05, 1.0, stride=5)
        assert traj.termination == "t_end"
        drift = max(np.abs(s - traj.states[0]).max() for s in traj.states)
        assert drift < 1e-12


def test_collapsing_homothety_matches_exact_solution():
    # hyperbolic chart: factor +1, f(t) = 1 - t, collapse at T = 1
    fld, fam = hyperbolic_field(3)
    lam = fam.constant_curvature
    traj = integrate_flow(fld, "riemann-induced", 1e-3, 2.0, stride=10)
    assert traj.termination == "collapse"
    t = np.asarray(traj.times)
    f = traj.diagnostic("f_est")
    mask = t <= 0.9 / lam
    rel = np.abs(f[mask] - (1.0 - lam * t[mask])) / (1.0 - lam * t[mask])
    assert rel.max() < 1e-6
    report = monitor_blow_up(traj)
    assert abs(report.T_est - 1.0 / lam) < 1e-3
    assert abs(report.exponent + 1.0) < 0.05


def test_expanding_homothety_matches_exact_solution():
    # sphere chart: factor -1, f(t) = 1 + t grows for all time
    fld, fam = sphere_field(3)
    lam = fam.constant_curvature
    traj = integrate_flow(fld, "riemann-induced", 1e-2, 3.0, stride=10)
    assert traj.termination == "t_end"
    t = np.asarray(traj.times)
    f = traj.diagnostic("f_est")
    assert np.abs(f - (1.0 - lam * t)).max() < 1e-6
    with pytest.raises(NoSingularity):
        monitor_blow_up(traj)


def test_ricci_flow_collapse_time_on_hyperbolic():
    # Ric = mu g with mu = 2 on the hyperbolic chart; f = 1 - 2 mu t
    fld, _ = hyperbolic_field(3)
    traj = integrate_flow(fld, "ricci", 5e-4, 1.0, stride=10)
    assert traj.termination == "collapse"
    report = monitor_blow_up(traj)
    mu = 2.0 * HYPERBOLIC_FACTOR
    assert abs(report.T_est - 1.0 / (2.0 * mu)) < 1e-3


def test_ricci_flow_on_sphere_has_no_singularity():
    fld, _ = sphere_field(3)
    traj = integrate_flow(fld, "ricci", 1e-2, 1.0, stride=10)
    assert traj.termination == "t_end"
    with pytest.raises(NoSingularity):
        monitor_blow_up(traj)


def test_rk4_temporal_order():
    # exponential pair-product decay: beta dG/dt + gamma G = 0 on a flat
    # torus gives f(t) = exp(-gamma t / (2 beta)) exactly
    fld, _ = flat_grid_field(3)
    errs = []
    for dt in (0.1, 0.05):
        traj = integrate_flow(fld, ("general", {"beta": 1.0, "gamma": 1.0,
                                                "delta": 0.0}), dt, 2.0,
                              stride=10 ** 9)
        f = traj.diagnostic("f_est")[-1]
        errs.append(abs(f - np.exp(-1.0)))
    order = np.log2(errs[0] / errs[1])
    assert abs(order - 4.0) < 0.3


def test_cross_check_mode_agrees_with_recovery():
    fld, _ = hyperbolic_field(3)
    traj = integrate_flow(fld, "riemann-induced", 1e-3, 0.5, stride=10,
                          cross_check_stride=5)
    cc = traj.diagnostic("cross_check_error")
    assert np.any(np.isfinite(cc))
    assert np.nanmax(cc) < 1e-8


def test_curvature_cap_termination():
    fld, _ = hyperbolic_field(3)
    traj = integrate_flow(fld, "riemann-induced", 1e-3, 2.0, stride=10,
                          curvature_cap=50.0)
    assert traj.termination == "curvature_cap"
    assert traj.times[-1] < 1.0
    report = monitor_blow_up(traj)
    assert abs(report.T_est - 1.0) < 1e-2


def test_a_t_end_before_the_start_is_refused():
    # like dt <= 0: a run never reports a horizon it did not reach; a t_end
    # at the start is reached with no step
    from riemflow.flow import FlowState
    from riemflow.wave import WaveState
    fld, _ = flat_grid_field(3)
    for run in (lambda: integrate_flow(FlowState(t=0.5, field=fld), "ricci", 0.1, 0.2),
                lambda: integrate_wave(WaveState(t=0.5, field=fld,
                                                 velocity=np.zeros_like(fld.samples)),
                                       "riemann-wave", 0.1, 0.2),
                lambda: integrate_flow(fld, "riemann-induced", 0.1, -1.0)):
        with pytest.raises(ValueError, match="t_end"):
            run()
    traj = integrate_flow(FlowState(t=0.5, field=fld), "ricci", 0.1, 0.5)
    assert traj.times == [0.5] and traj.termination == "t_end"


def test_integrate_accepts_flow_state():
    from riemflow.flow import FlowState
    fld, _ = flat_grid_field(3)
    traj = integrate_flow(FlowState(t=0.5, field=fld), "ricci", 0.1, 1.0, stride=1)
    assert traj.times[0] == 0.5
    assert abs(traj.times[-1] - 1.0) < 1e-12


def test_homothety_solution_values():
    sol = homothety_flow_solution(1.0, 0.5)
    assert sol.scale == 0.5 and sol.pair_scale == 0.25 and sol.collapse_time == 1.0
    assert homothety_flow_solution(0.0, 7.0).scale == 1.0
    sol = homothety_flow_solution(-1.0, 2.0)
    assert sol.scale == 3.0 and sol.collapse_time is None


# ---------------------------------------------------------------------------
# metric equivalence sandwich
# ---------------------------------------------------------------------------

def test_sandwich_on_flat_trajectory():
    fld, _ = flat_grid_field(3)
    traj = integrate_flow(fld, "riemann-induced", 0.1, 1.0, stride=2)
    for which in ("ricci", "riemann"):
        report = check_metric_equivalence(traj, which=which)
        assert report.passed
        assert report.bound == 0.0


def test_sandwich_on_model_trajectories():
    for build in (sphere_field, hyperbolic_field):
        fld, _ = build(3)
        traj = integrate_flow(fld, "riemann-induced", 1e-2, 0.3, stride=5)
        for which in ("ricci", "riemann"):
            assert check_metric_equivalence(traj, which=which).passed


class _FakeTrajectory:
    def __init__(self, times, states):
        self.times = times
        self.states = states

    def diagnostic(self, key):
        raise KeyError(key)


def test_sandwich_negative_control():
    # a fabricated trajectory that jumps far outside e^{±2mt} must fail
    g0 = np.eye(3)[None]
    fake = _FakeTrajectory([0.0, 0.1], [g0, 50.0 * g0])
    report = check_metric_equivalence(fake, m=1.0, which="ricci")
    assert not report.passed
    assert report.worst_margin < 0


def test_sandwich_empty_trajectory():
    with pytest.raises(EmptyTrajectory):
        check_metric_equivalence(_FakeTrajectory([], []), m=1.0)


# ---------------------------------------------------------------------------
# analytic-chart frozen frame
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["hyperbolic-poincare", "sphere-stereographic"])
def test_frozen_frame_field_matches_function_field(family):
    # the field built from the sample of the closed-form field
    # L0(x) Y L0(x)^T has that sample bit for bit, and its curvature to the roundoff
    # floor of the jet's second differences, 64 eps / h^2 relative: its jet
    # is a combination of basis jets, not the jet of the combined values
    fam = make_family(family, 3)
    h = 1e-2
    chart = AnalyticChart(3, [0.1, -0.2, 0.15], h)
    build = chart.evolving(MetricField.from_function(chart, fam.metric_function))
    rng = np.random.default_rng(5)
    for _ in range(3):
        Y = rand_spd(3, rng)

        def metric(x, Y=Y):
            L = np.linalg.cholesky(np.asarray(fam.metric_function(x), dtype=float))
            return np.einsum('...ab,bc,...dc->...ad', L, Y, L)

        ref = MetricField.from_function(chart, metric)
        got = build(metric(chart.point[None]))
        assert np.array_equal(got.samples, ref.samples)
        want = riemann(ref).array
        gap = np.abs(riemann(got).array - want).max()
        assert gap <= 64 * np.finfo(float).eps / h ** 2 * np.abs(want).max()


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("family", ["hyperbolic-poincare", "sphere-stereographic"])
def test_frozen_frame_jets_match_richardson_on_stencil_values(family, n):
    # the builder's basis-jet map gives the jet that richardson_jet takes
    # from the stencil values L0 Y L0^T, to the floor 64 eps / h^2 of the
    # metric's size; at the origin of a radial chart both gradients cancel
    # exactly, because every difference is still taken before dividing
    h = 1e-2
    fam = make_family(family, n)
    stencil = analytic_stencil(n, h)
    rng = np.random.default_rng(n)
    for point in (np.zeros(n), rng.uniform(-0.3, 0.3, n)):
        chart = AnalyticChart(n, point, h)
        build = chart.evolving(MetricField.from_function(chart, fam.metric_function))
        L = np.linalg.cholesky(fam.metric_function(point + stencil.offsets))
        for _ in range(5):
            Y = rand_spd(n, rng)
            vals = np.einsum('pab,bc,pdc->pad', L, Y, L)
            got = build(vals[:1]).jets()
            want = richardson_jet(stencil, vals[None])
            want = want[:2] + (upper_hessian(want[2]),)
            assert np.array_equal(got[0], want[0])
            floor = 64 * np.finfo(float).eps / h ** 2 * np.abs(want[0]).max()
            for a, b in zip(got[1:], want[1:]):
                assert a.shape == b.shape
                assert np.abs(a - b).max() <= floor
            if not point.any():
                assert np.all(got[1] == 0.0) and np.all(want[1] == 0.0)


def test_richardson_runs_once_per_analytic_run(monkeypatch):
    # the frozen frame differentiates the basis images once, when the run
    # starts; no right-hand side takes a stencil jet
    calls = []

    def counting(stencil, vals):
        calls.append(vals.shape)
        return richardson_jet(stencil, vals)

    monkeypatch.setattr(charts, "richardson_jet", counting)
    rhs = []
    monkeypatch.setattr(flow, "riemann", lambda f: rhs.append(1) or riemann(f))
    fld, _ = hyperbolic_field(3)
    for run in (lambda: integrate_flow(fld, "riemann-induced", 1e-2, 0.1, stride=1),
                lambda: integrate_wave(fld, "riemann-wave", 1e-2, 0.1, stride=1)):
        calls.clear()
        rhs.clear()
        assert len(run().times) == 11
        assert len(rhs) == 41
        assert len(calls) == 1


@pytest.mark.parametrize("stage", [np.nan, np.inf])
@pytest.mark.parametrize("make", [hyperbolic_field, torus_field], ids=["analytic", "grid"])
def test_non_finite_stage_fails_the_step(make, stage):
    # a stage whose state is not finite fails the step, on both chart kinds;
    # the stencil was checked at the start
    fld, _ = make(3)
    system = flow._RK4System(fld, resolve_law("riemann-induced", 3, 1))
    with np.errstate(invalid="ignore"):
        new, first = flow._rk4_step(system, system.state0, stage)
    assert new is None
    assert first is not None


def test_stencil_values_out_of_domain_refused_at_start():
    # a metric that is not finite at a stencil point is refused when the run
    # builds its frame, naming that point
    chart = AnalyticChart(3, [0.1, -0.2, 0.15], 1e-2)
    bad = chart.point + analytic_stencil(3, 1e-2).offsets[7]
    fld = MetricField.from_function(chart, nan_at(_ball_metric, bad))
    for run in (lambda: integrate_flow(fld, "riemann-induced", 1e-3, 0.01),
                lambda: integrate_wave(fld, "riemann-wave", 1e-3, 0.01)):
        with pytest.raises(StencilOutOfDomain) as err:
            run()
        assert np.array_equal(err.value.point,
                              chart.point + analytic_stencil(3, 1e-2).offsets[7])


def _ball_metric(x):
    x = np.asarray(x)
    r2 = np.sum(x * x, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (4.0 / (1.0 - r2) ** 2)[..., None, None] * np.eye(3)
    return np.where(r2[..., None, None] < 1.0, out, np.nan)


def test_stencil_out_of_domain_in_time_loop():
    # the centre lies in the ball, a stencil point at x1 = 1.005 does not
    fld = MetricField.from_function(AnalyticChart(3, [0.995, 0.0, 0.0], 1e-2), _ball_metric)
    for run in (lambda: integrate_flow(fld, "ricci", 1e-3, 0.01),
                lambda: integrate_wave(fld, "riemann-wave", 1e-3, 0.01)):
        with pytest.raises(StencilOutOfDomain) as err:
            run()
        assert err.value.point[0] == pytest.approx(1.005)


# ---------------------------------------------------------------------------
# the step loop
# ---------------------------------------------------------------------------


def test_each_state_rhs_evaluated_once(monkeypatch):
    # a record's rhs is the next step's first stage: with every step
    # recorded, N steps cost 4 N + 1 curvature evaluations, not 5 N + 1
    calls = []
    monkeypatch.setattr(flow, "riemann", lambda f: calls.append(1) or riemann(f))
    fld, _ = hyperbolic_field(3)
    traj = integrate_flow(fld, "riemann-induced", 1e-3, 0.02, stride=1)
    assert len(traj.times) == 21
    assert len(calls) == 4 * 20 + 1


def test_step_ends():
    assert flow.step_ends(0.0, 0.3, 0.1) == [0.1, 0.2, 0.3]
    assert flow.step_ends(0.5, 1.0, 0.2) == [0.5 + 0.2, 0.5 + 2 * 0.2, 1.0]
    # a last step shorter than 1e-9 of dt is not taken
    assert flow.step_ends(0.0, 3.0 + 1e-13, 1e-3)[-2:] == [2999 * 1e-3, 3.0 + 1e-13]
    assert flow.step_ends(1.0, 1.0, 0.1) == flow.step_ends(1.0, 0.5, 0.1) == []


def test_flow_records_end_at_t_end_without_drift():
    # steps end at k dt and the last one exactly at t_end: 77 of them, though
    # 7.7 / 0.1 is 77.00000000000001, and none only roundoff long
    fld, _ = sphere_field(3)
    traj = integrate_flow(fld, "riemann-induced", 0.1, 7.7, stride=1)
    assert traj.termination == "t_end"
    assert traj.times == [0.1 * k for k in range(77)] + [7.7]


@pytest.mark.parametrize("make", [hyperbolic_field, torus_field], ids=["analytic", "grid"])
def test_rk4_system_has_no_reference_cycle(make):
    # with the cyclic collector off, a system is freed as soon as it is
    # dropped, so no run's arrays outlive the run
    fld, _ = make(3)
    gc.disable()
    try:
        system = flow._RK4System(fld, resolve_law("riemann-induced", 3, 1))
        system.rhs(system.state0)
        ref = weakref.ref(system)
        del system
        assert ref() is None
    finally:
        gc.enable()


def _assert_states_symmetric(traj):
    for g in traj.states:
        assert np.array_equal(g, np.swapaxes(g, -1, -2))


def test_off_origin_flow_keeps_an_exactly_symmetric_state():
    # away from the origin the frame is not a multiple of I, so only the
    # symmetrized rate keeps g = g^T exactly; an asymmetric state's residual
    # and collapse fit drift by orders of magnitude
    fam = make_family("hyperbolic-poincare", 3)
    chart = AnalyticChart(3, [0.1329, 0.0034, 0.1429], 1e-2)
    fld = MetricField.from_function(chart, fam.metric_function)
    traj = integrate_flow(fld, "riemann-induced", 1e-3, 2.0, stride=10)
    assert traj.termination == "collapse"
    _assert_states_symmetric(traj)
    ratio = traj.diagnostic("eq_residual") / traj.diagnostic("sup_riem_norm")
    assert ratio.max() <= 1e-12
    report = monitor_blow_up(traj)
    assert abs(report.T_est - 1.0) <= 1e-8
    assert abs(report.exponent + 1.0) <= 1e-3


def test_grid_flow_keeps_an_exactly_symmetric_state():
    fld, _ = torus_field(3)
    traj = integrate_flow(fld, "riemann-induced", 1e-2, 0.2, stride=5)
    assert len(traj.states) == 5
    _assert_states_symmetric(traj)


def test_failed_first_stage_is_a_failed_step():
    class Failing:
        def rhs(self, state):
            raise np.linalg.LinAlgError("singular")

    assert flow._rk4_step(Failing(), [np.eye(3)], 1e-3) == (None, None)


def test_failed_step_near_the_cone_boundary_is_a_collapse():
    # the homothetic collapse g(t) = (1 - t) g0: a first step of 1.2 reaches
    # -0.2 g0 at its fourth stage, whose curvature check raises
    # NotPositiveDefinite, so the step fails; bisecting its length reaches a
    # state below the collapse threshold just short of t = 1, and the run
    # ends there without recording that state
    class Stage:
        def __init__(self):
            self.calls = 0

        def rhs(self, state):
            self.calls += 1
            if self.calls == 2:
                raise NotPositiveDefinite(0, -1.0)
            return [np.zeros_like(state[0])], None, None, None

    assert flow._rk4_step(Stage(), [np.eye(3)], 1e-3)[0] is None
    fld, _ = hyperbolic_field(3)
    traj = integrate_flow(fld, "riemann-induced", 1.5, 1.2, stride=1)
    assert traj.termination == "collapse"
    assert traj.times == [0.0]


def test_failed_step_far_from_the_cone_boundary_is_rejected(monkeypatch):
    # every curvature evaluation after the first step fails while the metric
    # stays near g0, so no shorter step reaches the collapse threshold: the
    # run raises StepRejected instead of calling the failure a collapse
    calls = []

    def failing(fld):
        calls.append(1)
        if len(calls) > 5:
            raise FloatingPointError("overflow")
        return riemann(fld)

    monkeypatch.setattr(flow, "riemann", failing)
    fld, _ = hyperbolic_field(3)
    with pytest.raises(StepRejected, match="t=0.001"):
        integrate_flow(fld, "riemann-induced", 1e-3, 0.1, stride=1)


def test_grid_flow_work_per_rhs(monkeypatch):
    # each rhs takes one cofactor pass (riemann's positivity check, which
    # also gives the inverse that record() reuses), except the one rhs at
    # each accepted state, which reuses the pass of the step's check of that
    # state; on top of that a run takes one pass for the initial check.  The
    # only Cholesky and inverse of a run are those of the relative-eigenvalue
    # frame, and eigvalsh runs only for the relative eigenvalues, once per
    # accepted state.
    counts = dict.fromkeys(("pass", "inv", "cholesky", "eigvalsh", "rhs", "rel"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("inv", "cholesky", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(charts, "_cofactor_pass", counting("pass", charts._cofactor_pass))
    monkeypatch.setattr(flow, "riemann", counting("rhs", riemann))
    monkeypatch.setattr(flow, "_relative_eigenvalues",
                        counting("rel", flow._relative_eigenvalues))
    fld, _ = torus_field(3)
    steps = 10
    traj = integrate_flow(fld, "riemann-induced", 1e-3, steps * 1e-3, stride=5)
    assert np.allclose(traj.times, [0.0, 5e-3, 1e-2], rtol=0, atol=1e-15)
    assert counts["rhs"] == 4 * steps + 1
    assert counts["pass"] == (counts["rhs"] - steps) + steps + 1
    assert counts["inv"] == counts["cholesky"] == 1
    assert counts["eigvalsh"] == counts["rel"] == steps + 1


# ---------------------------------------------------------------------------
# pair-product cross-check
# ---------------------------------------------------------------------------


def test_cross_check_refused_for_laws_without_a_pair_rate():
    fld, _ = hyperbolic_field(3)
    for law in ("ricci", "riemann-type", ("general", {"beta": 1.0, "gamma": 0.5, "delta": 2.0})):
        with pytest.raises(ValueError, match="cross_check_stride"):
            integrate_flow(fld, law, 1e-3, 0.1, cross_check_stride=5)
    for law in ("riemann-wave", "ricci-wave", ("general", {"alpha": 1.0, "delta": 2.0})):
        with pytest.raises(ValueError, match="cross_check_stride"):
            integrate_wave(fld, law, 1e-3, 0.5, cross_check_stride=5)


def test_riemann_type_without_trace_term_is_cross_checked():
    # at beta = 0 riemann-type is dG/dt = alpha Riem, so its pair product
    # may be evolved directly; at alpha = -2 it is riemann-induced
    fld, _ = hyperbolic_field(3)
    traj = integrate_flow(fld, ("riemann-type", {"alpha": -1.5, "beta": 0.0}), 1e-3, 0.3,
                          stride=10, cross_check_stride=2)
    cc = traj.diagnostic("cross_check_error")
    assert np.isfinite(cc).sum() >= 10
    assert np.nanmax(cc) < 1e-8
    induced = integrate_flow(fld, "riemann-induced", 1e-3, 0.3, stride=10)
    same = integrate_flow(fld, ("riemann-type", {"alpha": -2.0, "beta": 0.0}), 1e-3, 0.3,
                          stride=10)
    assert np.array_equal(same.states, induced.states)


def test_cross_check_uses_the_law_rate():
    # beta dG/dt + delta Riem = 0 moves G at -(delta/beta) Riem, not -2 Riem;
    # a general wave with alpha = 0 is that flow and may be cross-checked
    fld, _ = hyperbolic_field(3)
    law = ("general", {"beta": 1.3, "delta": 2.0})
    traj = integrate_flow(fld, law, 1e-3, 0.3, stride=10, cross_check_stride=2)
    cc = traj.diagnostic("cross_check_error")
    assert np.isfinite(cc).sum() >= 10
    assert np.nanmax(cc) < 1e-8
    wave_law = ("general", {"alpha": 0.0, "beta": 1.3, "delta": 2.0})
    wave_traj = integrate_wave(fld, wave_law, 1e-3, 0.3, stride=10, cross_check_stride=2)
    assert np.array_equal(wave_traj.diagnostic("cross_check_error"), cc, equal_nan=True)


def test_grid_cross_check_recovers_every_sample():
    # each checked record recovers all 8^3 samples in one stacked call
    fld, _ = torus_field(3, points=8)
    traj = integrate_flow(fld, "riemann-induced", 1e-3, 0.02, stride=5, cross_check_stride=1)
    cc = traj.diagnostic("cross_check_error")
    assert len(cc) == 5
    assert np.all(np.isfinite(cc)) and cc.max() < 1e-12


def test_cross_check_failed_recovery_recorded_as_inf(monkeypatch):
    # a recovery that fails with NotInImage is recorded as inf and the run
    # still ends with "collapse"; the failure is forced at the collapse
    # record, the last of the run's recoveries (one sample, one per record)
    fld, _ = hyperbolic_field(3)

    def run():
        return integrate_flow(fld, "riemann-induced", 2e-3, 2.0, stride=10,
                              cross_check_stride=1)

    last = len(run().times)
    calls = []
    recover = flow.recover_metric

    def failing_at_collapse(G, n):
        calls.append(1)
        if len(calls) == last:
            raise NotInImage(1.0, 1e-10)
        return recover(G, n)

    monkeypatch.setattr(flow, "recover_metric", failing_at_collapse)
    traj = run()
    assert traj.termination == "collapse"
    cc = traj.diagnostic("cross_check_error")
    assert np.isinf(cc).any()
    assert np.all(cc[traj.diagnostic("min_rel_eig") > 1e-2] < 1e-8)


# ---------------------------------------------------------------------------
# per-mode rates of the grid laws
# ---------------------------------------------------------------------------

# growth of the mode g = exp(2 eps sin(k x1)) delta, eps = 1e-6, to t = 0.02
# (see test_grid_law_mode_growth_is_pinned), measured once and frozen
GRID_MODE_GROWTH = {
    "ricci": (1.0403693, 1.1644744, 1.3711290),
    "riemann-induced": (1.0199837, 1.0790304, 1.1702191),
}


def test_grid_law_mode_growth_is_pinned():
    # both grid laws amplify a sin(k x1) mode of log g like backward heat flow,
    # exp(+c k^2 t) up to the stencil's effective k^2, with c = 2 (ricci) and
    # c = 1 (riemann-induced) under the pinned sign convention: growth
    # exceeds 1 and rises with k, so the laws are ill posed on grids.  The
    # mode runs on a 12 x 8 x 8 torus of side 2 pi with dt = 2e-3; the
    # amplitude of 1/2 log g_11 is normalised by its sampled initial maximum
    eps, t_end = 1e-6, 0.02
    chart = GridChart(3, (12, 8, 8), 2.0 * np.pi)
    for law, pinned in GRID_MODE_GROWTH.items():
        growth = []
        for k in (1, 2, 3):
            fld = MetricField.from_function(
                chart, lambda x, k=k: np.exp(2.0 * eps * np.sin(k * x[..., 0]))[..., None, None]
                * np.eye(3))
            traj = integrate_flow(fld, law, 2e-3, t_end, stride=10 ** 9)
            amplitude = [0.5 * np.log(g[:, 0, 0]).max() for g in (traj.states[0], traj.states[-1])]
            growth.append(amplitude[1] / amplitude[0])
        assert 1.0 < growth[0] < growth[1] < growth[2]
        c = 2.0 if law == "ricci" else 1.0
        assert abs(np.log(growth[0]) / t_end / c - 1.0) < 0.02
        assert np.allclose(growth, pinned, rtol=1e-3, atol=0)
