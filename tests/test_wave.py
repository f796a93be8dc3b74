import numpy as np
import pytest
from scipy.interpolate import interp1d

from conftest import (
    UNIT_COLLAPSE_TIME,
    flat_grid_field,
    hyperbolic_field,
    sphere_field,
    torus_field,
)
from riemflow.charts import AnalyticChart, MetricField
from riemflow.errors import (
    CFLViolated,
    DegenerateCoefficients,
    DimensionTooSmall,
    NoSingularity,
    PositivityLost,
)
from riemflow.families import make_family
from riemflow.curvature import riemann
from riemflow.flow import Law, integrate_flow, monitor_blow_up, resolve_law
from riemflow.wave import (
    POSITIVITY_FLOOR,
    conformally_flat_wave_solve,
    constant_curvature_wave_ode,
    integrate_wave,
)


# ---------------------------------------------------------------------------
# accelerations
# ---------------------------------------------------------------------------

def test_flat_acceleration_vanishes():
    fld, _ = flat_grid_field(3)
    k = np.zeros_like(fld.samples)
    assert np.abs(resolve_law("riemann-wave", 3, 2).rate_at(fld, k)).max() == 0.0
    assert np.abs(resolve_law("ricci-wave", 3, 2).rate_at(fld)).max() == 0.0


def test_ricci_wave_residual_scores_the_ricci_wave_law():
    # max |(a + 2 Ric) ^ g| at a = -2 Ric, not the Riemann wave's equation
    fld, _ = hyperbolic_field(3)
    traj = integrate_wave(fld, "ricci-wave", 1e-3, 0.05, stride=10)
    ratio = traj.diagnostic("eq_residual") / traj.diagnostic("sup_riem_norm")
    assert ratio.max() <= 1e-8


def test_ricci_wave_accel_matches_first_order_rhs():
    fld, _ = torus_field(3, points=8, amplitude=0.08)
    assert np.array_equal(resolve_law("ricci-wave", 3, 2).rate_at(fld),
                          resolve_law("ricci", 3, 1).rate_at(fld))


def test_constant_curvature_acceleration_reduces_to_scale_ode():
    # g = f g0, k = f' g0 forces the acceleration f'' g0 with
    # f'' = -(f'^2 + lam f)/f
    fld, fam = hyperbolic_field(3)
    lam = fam.constant_curvature
    f, fp = 0.8, -0.3
    scaled = type(fld).from_function(fld.chart,
                                     lambda x: f * fam.metric_function(x))
    k = fp * fld.samples
    acc = resolve_law("riemann-wave", 3, 2).rate_at(scaled, k)
    fpp = -(fp * fp + lam * f) / f
    assert np.abs(acc - fpp * fld.samples).max() < 1e-6


def test_wave_dimension_guard():
    fld, _ = sphere_field(2)
    with pytest.raises(DimensionTooSmall):
        resolve_law("riemann-wave", fld.dimension, 2).rate_at(fld, np.zeros_like(fld.samples))


# ---------------------------------------------------------------------------
# general family
# ---------------------------------------------------------------------------

def _off_origin_hyperbolic():
    fam = make_family("hyperbolic-poincare", 3)
    chart = AnalyticChart(3, [0.1, -0.2, 0.15], 1e-2)
    return MetricField.from_function(chart, fam.metric_function)


def test_general_form_reduces_to_flow_bitwise():
    # on a grid and on an off-origin analytic chart
    for fld in (torus_field(3, points=8, amplitude=0.08)[0], _off_origin_hyperbolic()):
        t1 = integrate_flow(fld, "riemann-induced", 5e-3, 0.05, stride=2)
        t2 = integrate_wave(fld, ("general", {"alpha": 0.0, "beta": 1.0,
                                              "gamma": 0.0, "delta": 2.0}),
                            5e-3, 0.05, stride=2)
        assert all(np.array_equal(a, b) for a, b in zip(t1.states, t2.states))
        assert t1.times == t2.times


def test_general_form_reduces_to_wave_bitwise():
    fld, _ = torus_field(3, points=8, amplitude=0.08)
    k = 0.1 * fld.samples
    a1 = resolve_law("riemann-wave", 3, 2).rate_at(fld, k)
    a2 = resolve_law(("general", {"alpha": 1.0, "beta": 0.0, "gamma": 0.0, "delta": 2.0}),
                     3, 2).rate_at(fld, k)
    assert np.array_equal(a1, a2)
    # whole trajectories from a nonzero velocity, on both chart kinds
    for fld in (fld, _off_origin_hyperbolic()):
        k = 0.1 * fld.samples
        t1 = integrate_wave(fld, "riemann-wave", 5e-3, 0.05, velocity=k, stride=2)
        t2 = integrate_wave(fld, ("general", {"alpha": 1.0, "delta": 2.0}), 5e-3, 0.05,
                            velocity=k, stride=2)
        assert t1.times == t2.times
        for key in ("states", "velocities"):
            assert all(np.array_equal(a, b)
                       for a, b in zip(getattr(t1, key), getattr(t2, key)))
        assert all(np.array_equal(t1.diagnostic(d), t2.diagnostic(d), equal_nan=True)
                   for d in t1.diagnostics)


def test_general_form_constant_curvature_residual():
    fldS, famS = sphere_field(3)
    lam = famS.constant_curvature
    # the algebraic member gamma G + delta Riem = 0 of the general family
    law = Law("general", 2, 0.0, 0.0, 1.0, -1.0 / lam)
    assert law.residual(fldS.samples, fldS.inverse, None, None, riemann(fldS).block) < 1e-6
    fldT, _ = torus_field(3, points=8, amplitude=0.08)
    assert law.residual(fldT.samples, fldT.inverse, None, None, riemann(fldT).block) > 1e-1


def test_general_form_degenerate_coefficients():
    fld, _ = torus_field(3, points=8)
    with pytest.raises(DegenerateCoefficients):
        resolve_law(("general", {"alpha": 0.0, "beta": 0.0, "gamma": 1.0, "delta": 2.0}),
                    3, 2).rate_at(fld, np.zeros_like(fld.samples))
    with pytest.raises(DegenerateCoefficients):
        integrate_wave(fld, ("general", {"alpha": 0.0, "beta": 0.0,
                                         "gamma": 1.0, "delta": 2.0}), 1e-2, 0.1)


# ---------------------------------------------------------------------------
# scale ODE
# ---------------------------------------------------------------------------

def test_scale_ode_flat_fixed_point():
    res = constant_curvature_wave_ode(0.0, 0.0, 1e-2, 1.0)
    assert np.abs(res.scales - 1.0).max() == 0.0
    assert res.collapse_time is None


def test_scale_ode_polynomial_case():
    # lam = -6, v = 2 satisfies v^2 = -2 lam / 3, so f = (1 + t)^2 exactly
    res = constant_curvature_wave_ode(-6.0, 2.0, 1e-3, 5.0, record_stride=50)
    assert res.polynomial_residual == 0.0
    exact = (1.0 + res.times) ** 2
    assert np.abs(res.scales - exact).max() < 1e-8


def test_scale_ode_polynomial_condition_reported():
    res = constant_curvature_wave_ode(-6.0, 1.0, 1e-3, 1.0, record_stride=50)
    assert abs(res.polynomial_residual - (1.0 + 2.0 * (-6.0) / 3.0)) < 1e-15
    poly = 1.0 + res.times - (-6.0) / 6.0 * res.times ** 2
    assert np.abs(res.scales - poly).max() > 1e-3  # not a solution here


def test_scale_ode_collapse_and_reference():
    coarse = constant_curvature_wave_ode(1.0, 0.0, 1e-3, 3.0)
    assert coarse.collapse_time is not None
    assert coarse.concave
    fine = constant_curvature_wave_ode(1.0, 0.0, 1e-5, 3.0, record_stride=100)
    assert abs(coarse.collapse_time - fine.collapse_time) < 1e-4
    assert 1.0 < coarse.collapse_time < 1.1
    for dt in (1e-3, 5e-4, 2.5e-4):
        res = constant_curvature_wave_ode(1.0, 0.0, dt, 3.0)
        assert abs(res.collapse_time - UNIT_COLLAPSE_TIME) <= 1e-9
        assert res.times[-1] < res.collapse_time


@pytest.mark.parametrize("run", [
    lambda s: integrate_flow(hyperbolic_field(3)[0], "riemann-induced", 1e-2, 0.1, stride=s),
    lambda s: integrate_wave(hyperbolic_field(3)[0], "riemann-wave", 1e-2, 0.1, stride=s),
    lambda s: constant_curvature_wave_ode(1.0, 0.0, 1e-2, 1.0, record_stride=s),
    lambda s: conformally_flat_wave_solve(np.ones(8), np.zeros(8), 0.1, 1.0, stride=s),
], ids=["flow", "wave", "scale-ode", "conformal-wave"])
def test_stride_below_one_is_refused(run):
    with pytest.raises(ValueError, match="at least 1"):
        run(0)


def test_scale_ode_time_reversal():
    fwd = constant_curvature_wave_ode(-2.0, 0.0, 1e-3, 1.0)
    bwd = constant_curvature_wave_ode(-2.0, 0.0, 1e-3, -1.0)
    assert np.abs(fwd.times + bwd.times).max() < 1e-12
    assert np.abs(fwd.scales - bwd.scales).max() < 1e-9


def test_scale_ode_steps_end_at_t_end_without_drift():
    # 3000 steps ending at k dt, the last at 3.0 exactly, and no further
    # step only roundoff long
    res = constant_curvature_wave_ode(-6.0, 2.0, 1e-3, 3.0)
    assert res.times.tolist() == [1e-3 * k for k in range(3000)] + [3.0]


# ---------------------------------------------------------------------------
# tensor wave vs scale ODE
# ---------------------------------------------------------------------------

def test_tensor_wave_matches_ode_collapsing():
    fld, fam = hyperbolic_field(3)
    lam = fam.constant_curvature
    traj = integrate_wave(fld, "riemann-wave", 1e-3, 2.0, stride=10)
    assert traj.termination == "collapse"
    ref = constant_curvature_wave_ode(lam, 0.0, 1e-5, 1.2, record_stride=10)
    T = ref.collapse_time
    fref = interp1d(ref.times, ref.scales, kind="cubic", bounds_error=False)
    t = np.asarray(traj.times)
    f = traj.diagnostic("f_est")
    mask = t <= 0.9 * T
    assert np.abs(f[mask] - fref(t[mask])).max() < 1e-6
    report = monitor_blow_up(traj)
    assert abs(report.T_est - T) < 1e-3
    assert -0.7 < report.exponent < -0.3  # square-root collapse


def test_off_origin_wave_collapse_matches_the_origin():
    # the hyperbolic ball collapses homothetically at every chart point, so
    # off the origin the wave must give the origin's blow-up exponent, no
    # record at or past the exact collapse time, and a T_est within its
    # stated uncertainty of that time
    fam = make_family("hyperbolic-poincare", 3)
    exponents = []
    for point in ([0.0, 0.0, 0.0], [0.1329, 0.0034, 0.1429]):
        fld = MetricField.from_function(AnalyticChart(3, point, 1e-2), fam.metric_function)
        traj = integrate_wave(fld, "riemann-wave", 1e-3, 2.0, stride=10)
        assert traj.termination == "collapse"
        assert max(traj.times) < UNIT_COLLAPSE_TIME
        report = monitor_blow_up(traj)
        assert report.T_est_uncertainty >= abs(report.T_est - UNIT_COLLAPSE_TIME)
        exponents.append(report.exponent)
    assert abs(exponents[1] - exponents[0]) <= 1e-3


def test_tensor_wave_matches_ode_growing():
    fld, fam = sphere_field(3)
    lam = fam.constant_curvature
    traj = integrate_wave(fld, "riemann-wave", 1e-3, 3.0, stride=10)
    assert traj.termination == "t_end"
    ref = constant_curvature_wave_ode(lam, 0.0, 1e-4, 3.0, record_stride=10)
    fref = interp1d(ref.times, ref.scales, kind="cubic", bounds_error=False,
                    fill_value="extrapolate")
    t = np.asarray(traj.times)
    f = traj.diagnostic("f_est")
    assert np.abs(f - fref(t)).max() < 1e-6
    with pytest.raises(NoSingularity):
        monitor_blow_up(traj)


def test_tensor_wave_polynomial_solution():
    # v^2 = -2 lam / 3 needs lam < 0: the sphere chart under the implemented
    # convention; the exact solution is the quadratic 1 + v t - lam t^2 / 6
    fld, fam = sphere_field(3)
    lam = fam.constant_curvature
    v = np.sqrt(-2.0 * lam / 3.0)
    traj = integrate_wave(fld, "riemann-wave", 1e-3, 2.0,
                          velocity=v * fld.samples, stride=10)
    t = np.asarray(traj.times)
    exact = 1.0 + v * t - lam / 6.0 * t ** 2
    assert np.abs(traj.diagnostic("f_est") - exact).max() < 1e-6


def test_integrate_accepts_wave_state():
    from riemflow.wave import WaveState
    fld, _ = flat_grid_field(3)
    state = WaveState(t=0.25, field=fld, velocity=np.zeros_like(fld.samples))
    traj = integrate_wave(state, "riemann-wave", 0.25, 1.0, stride=1)
    assert traj.times[0] == 0.25
    assert len(traj.velocities) == len(traj.states)


def test_flat_wave_is_steady():
    fld, _ = flat_grid_field(3)
    traj = integrate_wave(fld, "riemann-wave", 0.05, 1.0, stride=5)
    drift = max(np.abs(s - traj.states[0]).max() for s in traj.states)
    assert drift < 1e-12
    with pytest.raises(NoSingularity):
        monitor_blow_up(traj)


# ---------------------------------------------------------------------------
# conformally flat 1+1 wave
# ---------------------------------------------------------------------------

def test_conformal_wave_constant_steady():
    N = 64
    res = conformally_flat_wave_solve(np.full(N, 2.5), np.zeros(N),
                                      0.2 / N, 0.5, length=1.0, stride=10)
    assert np.abs(res.u - 2.5).max() == 0.0


def test_conformal_wave_unit_speed():
    N, L, eps = 128, 1.0, 1e-4
    x = np.arange(N) * (L / N)
    u0 = 1.0 + eps * np.sin(2.0 * np.pi * x / L)
    res = conformally_flat_wave_solve(u0, np.zeros(N), 0.25 * L / N, 0.5,
                                      length=L, stride=1)
    # with zero initial rate the mode amplitude follows cos(2 pi c t / L);
    # its first zero crossing at t = L / (4 c) measures the speed c
    prof = np.sin(2.0 * np.pi * x / L)
    amp = (res.u - 1.0) @ prof * 2.0 / N
    tz = None
    for i in range(len(amp) - 1):
        if amp[i] > 0.0 >= amp[i + 1]:
            tz = res.times[i] + (res.times[i + 1] - res.times[i]) * \
                amp[i] / (amp[i] - amp[i + 1])
            break
    assert tz is not None
    speed = L / (4.0 * tz)
    assert abs(speed - 1.0) < 0.02


def test_conformal_wave_self_convergence():
    L, t_end = 1.0, 0.25
    sols = {}
    for N in (64, 128, 256):
        x = np.arange(N) * (L / N)
        u0 = 1.0 + 0.01 * np.sin(2.0 * np.pi * x / L)
        steps = int(round(t_end * N / (0.2 * L)))
        sols[N] = conformally_flat_wave_solve(u0, np.zeros(N), t_end / steps,
                                              t_end, length=L, stride=10 ** 9)
    e1 = np.abs(sols[64].u[-1] - sols[128].u[-1][::2]).max()
    e2 = np.abs(sols[128].u[-1] - sols[256].u[-1][::2]).max()
    assert np.log2(e1 / e2) > 1.7


def test_conformal_wave_positivity_margin():
    N, L = 128, 1.0
    x = np.arange(N) * (L / N)
    u0 = 1.0 + 0.05 * np.sin(2.0 * np.pi * x / L)
    res = conformally_flat_wave_solve(u0, np.zeros(N), 0.2 * L / N, 2.0,
                                      length=L, stride=20)
    assert res.u.min() >= 0.5 * u0.min()


@pytest.mark.parametrize("dt, t_end", [(0.003, 0.5), (0.007, 0.1), (0.01, 0.005)])
def test_conformal_wave_rejects_step_not_dividing_t_end(dt, t_end):
    N = 64
    with pytest.raises(ValueError):
        conformally_flat_wave_solve(np.ones(N), np.zeros(N), dt, t_end, length=1.0)


@pytest.mark.parametrize("dt, t_end, stride", [(0.5 / 70, 0.5, 3), (0.1 / 14, 0.1, 1),
                                               (0.004, 0.5, 10 ** 9)])
def test_conformal_wave_ends_at_t_end(dt, t_end, stride):
    N = 64
    x = np.arange(N) / N
    res = conformally_flat_wave_solve(1.0 + 0.01 * np.sin(2.0 * np.pi * x), np.zeros(N),
                                      dt, t_end, length=1.0, stride=stride)
    assert abs(res.times[-1] - t_end) <= 1e-12
    assert len(res.times) == len(res.u)


def test_conformal_wave_cfl_guard():
    N = 64
    with pytest.raises(CFLViolated):
        conformally_flat_wave_solve(np.ones(N), np.zeros(N), 1.0 / N, 1.0,
                                    length=1.0)


def test_conformal_wave_positivity_lost():
    N = 64
    u0 = np.full(N, 0.05)
    u1 = np.full(N, -10.0)  # crushes the factor within a step or two
    with pytest.raises(PositivityLost):
        conformally_flat_wave_solve(u0, u1, 0.1 / N, 1.0, length=1.0)


def test_conformal_wave_refuses_a_start_at_the_positivity_floor():
    u0 = np.ones(16)
    u0[5] = POSITIVITY_FLOOR
    with pytest.raises(PositivityLost) as err:
        conformally_flat_wave_solve(u0, np.zeros(16), 0.01, 0.1, length=1.0)
    assert (err.value.t, err.value.x_index, err.value.value) == (0.0, 5, POSITIVITY_FLOOR)


def test_conformal_wave_stops_at_a_new_level_at_the_positivity_floor():
    # a uniform factor falling at rate 2.1: every level up to t = 0.2 is
    # above 0.4 and each step's quadratic has a root, but the level at
    # t = 0.25 is below zero
    with pytest.raises(PositivityLost) as err:
        conformally_flat_wave_solve(np.ones(8), np.full(8, -2.1), 0.05, 1.0, length=1.0)
    assert err.value.t == pytest.approx(0.25) and err.value.value <= POSITIVITY_FLOOR
    levels = conformally_flat_wave_solve(np.ones(8), np.full(8, -2.1), 0.05, 0.2, length=1.0)
    assert levels.u.min() > 0.4


def _roll_stepper(u0, u1, dt, t_end, length, stride):
    # the np.roll leapfrog the ghost-cell solver replaced, as an oracle:
    # records and PositivityLost arguments must match it bit for bit
    u_prev = np.asarray(u0, dtype=float).copy()
    rate0 = np.asarray(u1, dtype=float).copy()
    nsteps = round(t_end / dt)
    dx = length / len(u_prev)

    def lap(u):
        return (np.roll(u, -1) + np.roll(u, 1) - 2.0 * u) / (dx * dx)

    def grad(u):
        return (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * dx)

    u_cur = u_prev + dt * rate0 + 0.5 * dt * dt * (
        lap(u_prev) - (rate0 * rate0 + grad(u_prev) ** 2) / u_prev)
    if np.min(u_cur) <= 1e-8:
        raise PositivityLost(dt, int(np.argmin(u_cur)), float(np.min(u_cur)))
    times, history = [0.0, dt], [u_prev.copy(), u_cur.copy()]
    t = dt
    for step_index in range(nsteps - 1):
        C = 2.0 * u_prev - 2.0 * u_cur - dt * dt * (lap(u_cur) - grad(u_cur) ** 2 / u_cur)
        disc = 1.0 - C / u_cur
        if np.min(disc) <= 0.0:
            raise PositivityLost(t, int(np.argmin(disc)), float(np.min(u_cur)))
        u_new = u_prev + 2.0 * u_cur * (np.sqrt(disc) - 1.0)
        if np.min(u_new) <= 1e-8:
            raise PositivityLost(t + dt, int(np.argmin(u_new)), float(np.min(u_new)))
        u_prev, u_cur = u_cur, u_new
        t = (step_index + 2) * dt
        if (step_index + 1) % stride == 0 or step_index == nsteps - 2:
            times.append(t)
            history.append(u_cur.copy())
    return np.asarray(times), np.asarray(history)


def _sine_data(N, L, amplitude, velocity):
    k = 2.0 * np.pi / L
    x = np.arange(N) * (L / N)
    u0 = 1.0 + amplitude * np.sin(k * x)
    u1 = np.zeros(N) if velocity == "zero" else -amplitude * k * np.cos(k * x)
    return u0, u1


@pytest.mark.parametrize("stride", [1, 7, 256])
@pytest.mark.parametrize("velocity", ["zero", "right-mover"])
def test_conformal_wave_matches_the_roll_stepper_bitwise(velocity, stride):
    N, L = 128, 1.0
    u0, u1 = _sine_data(N, L, 0.05, velocity)
    dt = 0.25 * L / N
    t_end = 600 * dt
    res = conformally_flat_wave_solve(u0, u1, dt, t_end, length=L, stride=stride)
    times, history = _roll_stepper(u0, u1, dt, t_end, L, stride)
    assert np.array_equal(res.times, times)
    assert np.array_equal(res.u, history)


def test_conformal_wave_loses_positivity_where_the_roll_stepper_does():
    N, L = 2048, 1.0
    u0, u1 = _sine_data(N, L, 0.2, "right-mover")
    dt = 0.5 * L / N
    with pytest.raises(PositivityLost) as oracle:
        _roll_stepper(u0, u1, dt, 1.0, L, 1)
    with pytest.raises(PositivityLost) as err:
        conformally_flat_wave_solve(u0, u1, dt, 1.0, length=L)
    assert (err.value.t, err.value.x_index, err.value.value) == \
        (oracle.value.t, oracle.value.x_index, oracle.value.value)
    assert abs(err.value.t - 0.529) < 1e-3


def test_conformal_wave_checks_the_floor_on_the_bootstrap_level():
    # a uniform u0 = 1, u1 = -15 bootstraps to 1 - 0.75 - 0.28125 = -0.03125
    # at t = dt: the first level is below the floor before any leapfrog step
    u0, u1 = np.ones(8), np.full(8, -15.0)
    with pytest.raises(PositivityLost) as oracle:
        _roll_stepper(u0, u1, 0.05, 1.0, 1.0, 1)
    with pytest.raises(PositivityLost) as err:
        conformally_flat_wave_solve(u0, u1, 0.05, 1.0, length=1.0)
    assert (err.value.t, err.value.x_index, err.value.value) == \
        (oracle.value.t, oracle.value.x_index, oracle.value.value)
    assert err.value.t == 0.05 and err.value.x_index == 0
    assert err.value.value == pytest.approx(-0.03125, rel=1e-12)


def test_conformal_wave_leaves_its_inputs_and_records_unaliased():
    N = 64
    u0, u1 = _sine_data(N, 1.0, 0.05, "right-mover")
    u0_before, u1_before = u0.copy(), u1.copy()
    res = conformally_flat_wave_solve(u0, u1, 0.25 / N, 0.5, length=1.0, stride=5)
    assert np.array_equal(u0, u0_before) and np.array_equal(u1, u1_before)
    rows = list(res.u)
    for i, row in enumerate(rows):
        assert not np.shares_memory(row, u0) and not np.shares_memory(row, u1)
        for other in rows[i + 1:]:
            assert not np.shares_memory(row, other)
    # a record aliasing a work array would repeat the last level
    assert not np.array_equal(res.u[-2], res.u[-1])


@pytest.mark.parametrize("u0, u1, length", [
    (np.ones((4, 16)), np.zeros((4, 16)), 1.0),
    (np.ones(16), np.zeros(1), 1.0),
    (np.ones(16), np.zeros(15), 1.0),
    (np.where(np.arange(16) == 3, np.nan, 1.0), np.zeros(16), 1.0),
    (np.ones(16), np.where(np.arange(16) == 3, np.inf, 0.0), 1.0),
    (np.ones(16), np.zeros(16), -1.0),
    (np.ones(16), np.zeros(16), 0.0),
    (np.ones(16), np.zeros(16), np.nan),
    (np.ones(2), np.zeros(2), 1.0),
], ids=["2d-u0", "u1-length-1", "u1-short", "nan-u0", "inf-u1", "negative-length",
        "zero-length", "nan-length", "two-points"])
def test_conformal_wave_refuses_inputs_of_another_problem(u0, u1, length):
    with pytest.raises(ValueError):
        conformally_flat_wave_solve(u0, u1, 1e-3, 1e-2, length=length)
