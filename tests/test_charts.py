import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import nan_at, unit_floats, upper_hessian
from riemflow import charts
from riemflow.charts import (
    AnalyticChart,
    GridChart,
    MetricField,
    analytic_scalar_jet,
    analytic_stencil,
    grid_scalar_jet,
    require_spd,
    spd_inverse,
)
from riemflow.errors import NotPositiveDefinite, StencilOutOfDomain
from riemflow.variation import STEP

EPS = np.finfo(float).eps


def test_chart_validation():
    with pytest.raises(ValueError):
        AnalyticChart(1, [0.0])
    with pytest.raises(ValueError):
        AnalyticChart(2, [0.0, 0.0], step=0.0)
    with pytest.raises(ValueError):
        GridChart(2, 4, 1.0)
    with pytest.raises(ValueError):
        GridChart(2, 8, (1.0,))
    chart = GridChart(2, (8, 16), (1.0, 2.0))
    assert chart.sample_count == 128
    assert chart.spacings == (1.0 / 8, 2.0 / 16)


def test_grid_chart_refuses_fractional_point_counts():
    for ppa in (8.5, (8, 9.7, 8)):
        with pytest.raises(ValueError):
            GridChart(3, ppa, 1.0)
    assert GridChart(3, 8.0, 1.0).points_per_axis == (8, 8, 8)
    assert GridChart(3, (8.0, 9, 10.0), 1.0).points_per_axis == (8, 9, 10)


def test_grid_jet_fourth_order():
    # derivative errors of sin products must decay at fourth order
    def f(x):
        return np.sin(x[..., 0]) * np.cos(2.0 * x[..., 1])

    errs = []
    for N in (16, 32):
        chart = GridChart(2, N, 2.0 * np.pi)
        pts = chart.sample_points.reshape(chart.grid_shape + (2,))
        vals = f(pts)
        _, d1, d2 = grid_scalar_jet(vals, chart)
        x = chart.sample_points
        exact_dx = np.cos(x[:, 0]) * np.cos(2.0 * x[:, 1])
        exact_dxy = -2.0 * np.cos(x[:, 0]) * np.sin(2.0 * x[:, 1])
        exact_dyy = -4.0 * np.sin(x[:, 0]) * np.cos(2.0 * x[:, 1])
        e = max(np.abs(d1[:, 0] - exact_dx).max(),
                np.abs(d2[:, 0, 1] - exact_dxy).max(),
                np.abs(d2[:, 1, 1] - exact_dyy).max())
        errs.append(e)
    order = np.log2(errs[0] / errs[1])
    assert order > 3.7


def test_analytic_jet_exact_on_quartics():
    # second-order central differences plus one Richardson step are exact
    # for polynomials of degree <= 4
    def f(x):
        u, v = x[..., 0], x[..., 1]
        return u ** 4 - 2.0 * u ** 2 * v ** 2 + 3.0 * v ** 3 + u * v

    pt = np.array([[0.7, -0.4]])
    val, d1, d2 = analytic_scalar_jet(f, pt, 2, 0.05)
    u, v = pt[0]
    assert abs(d1[0, 0] - (4 * u ** 3 - 4 * u * v ** 2 + v)) < 1e-11
    assert abs(d1[0, 1] - (-4 * u ** 2 * v + 9 * v ** 2 + u)) < 1e-11
    assert abs(d2[0, 0, 0] - (12 * u ** 2 - 4 * v ** 2)) < 1e-9
    assert abs(d2[0, 0, 1] - (-8 * u * v + 1)) < 1e-9
    assert abs(d2[0, 1, 1] - (-4 * u ** 2 + 18 * v)) < 1e-9


def test_analytic_jet_hessian_symmetrised():
    def f(x):
        return np.exp(x[..., 0]) * np.sin(x[..., 1] + 0.3 * x[..., 0])

    _, _, d2 = analytic_scalar_jet(f, np.array([[0.2, 0.1]]), 2, 1e-2)
    assert np.array_equal(d2[0], d2[0].T)


def test_stencil_out_of_domain():
    def g(x):
        x = np.asarray(x)
        r2 = np.sum(x * x, axis=-1)
        phi = 4.0 / (1.0 - r2) ** 2
        out = phi[..., None, None] * np.eye(2)
        return np.where(r2[..., None, None] < 1.0, out, np.nan)

    chart = AnalyticChart(2, [0.999, 0.0], 1e-2)
    fld = MetricField.from_function(chart, g)
    with pytest.raises(StencilOutOfDomain):
        fld.jets()


def test_not_positive_definite_reports_sample():
    chart = GridChart(2, 8, 2.0 * np.pi)

    def g(x):
        x = np.asarray(x)
        out = np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()
        out[..., 1, 1] = np.cos(x[..., 0])  # negative on part of the circle
        return out

    fld = MetricField.from_function(chart, g)
    with pytest.raises(NotPositiveDefinite) as err:
        fld.validate_spd()
    assert err.value.min_eigenvalue < 0
    assert 0 <= err.value.sample_index < chart.sample_count


def test_grid_samples_roundtrip():
    chart = GridChart(2, 8, 2.0 * np.pi)

    def g(x):
        x = np.asarray(x)
        out = np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()
        out[..., 0, 0] = 2.0 + np.sin(x[..., 0])
        return out

    fld = MetricField.from_function(chart, g)
    again = MetricField.from_samples(chart, fld.values)
    assert np.array_equal(fld.samples, again.samples)


@pytest.mark.parametrize("chart", [AnalyticChart(3, [0.1, -0.2, 0.3]), GridChart(3, 8, 2.0 * np.pi)],
                         ids=["analytic", "grid"])
def test_from_function_refuses_a_metric_that_ignores_the_batch_shape(chart):
    # one matrix for a batch of points is refused when the field is made, on
    # both chart kinds, not later inside a jet
    with pytest.raises(ValueError, match="returned shape"):
        MetricField.from_function(chart, lambda x: np.eye(3))


# ---------------------------------------------------------------------------
# the cached Richardson stencil against the loop implementation it replaced
# ---------------------------------------------------------------------------


def _loop_offsets(n, h):
    offsets = [np.zeros(n)]
    for scale in (h, 0.5 * h):
        for k in range(n):
            for s in (+1.0, -1.0):
                off = np.zeros(n)
                off[k] = s * scale
                offsets.append(off)
        for k in range(n):
            for l in range(k + 1, n):
                for sk in (+1.0, -1.0):
                    for sl in (+1.0, -1.0):
                        off = np.zeros(n)
                        off[k] = sk * scale
                        off[l] = sl * scale
                        offsets.append(off)
    return np.array(offsets)


def _loop_jet(func, points, n, h):
    """The per-axis, per-pair loop form of the Richardson jet (the oracle)."""
    stencil = points[:, None, :] + _loop_offsets(n, h)[None, :, :]
    vals = np.asarray(func(stencil), dtype=float)
    tail = vals.shape[2:]
    B = points.shape[0]
    idx = 1
    plus, minus, cross = {}, {}, {}
    for scale_id in range(2):
        for k in range(n):
            plus[(scale_id, k)] = idx
            minus[(scale_id, k)] = idx + 1
            idx += 2
        for k in range(n):
            for l in range(k + 1, n):
                cross[(scale_id, k, l)] = idx
                idx += 4
    g0 = vals[:, 0]
    d1 = np.empty((B,) + tail + (n,))
    d2 = np.empty((B,) + tail + (n, n))
    for k in range(n):
        est, est2 = [], []
        for scale_id, scale in enumerate((h, 0.5 * h)):
            fp = vals[:, plus[(scale_id, k)]]
            fm = vals[:, minus[(scale_id, k)]]
            est.append((fp - fm) / (2.0 * scale))
            est2.append((fp - 2.0 * g0 + fm) / (scale * scale))
        d1[..., k] = (4.0 * est[1] - est[0]) / 3.0
        d2[..., k, k] = (4.0 * est2[1] - est2[0]) / 3.0
    for k in range(n):
        for l in range(k + 1, n):
            est = []
            for scale_id, scale in enumerate((h, 0.5 * h)):
                base = cross[(scale_id, k, l)]
                est.append((vals[:, base] - vals[:, base + 1] - vals[:, base + 2]
                            + vals[:, base + 3]) / (4.0 * scale * scale))
            d2[..., k, l] = d2[..., l, k] = (4.0 * est[1] - est[0]) / 3.0
    return g0, d1, d2


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stencil_jet_bitwise_equals_loop_oracle(n):
    rng = np.random.default_rng(n)
    A = rng.normal(size=(n, n, n))
    c = rng.normal(size=(n, n))
    tails = {(): lambda x: np.sin(x @ A[0, 0]) * np.exp(x @ c[0]),
             (n,): lambda x: np.cos(x @ A[0] + c[0]) + (x @ c[1])[..., None] ** 3,
             (n, n): lambda x: np.exp(0.3 * np.einsum('...k,abk->...ab', x, A)) + np.eye(n)}
    for B in (1, 3):
        points = rng.uniform(-0.4, 0.4, size=(B, n))
        for tail, func in tails.items():
            got = analytic_scalar_jet(func, points, n, 0.03)
            want = _loop_jet(func, points, n, 0.03)
            assert [a.shape for a in got] == [(B,) + tail + (n,) * k for k in range(3)]
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


def test_stencil_is_cached_and_read_only():
    st = analytic_stencil(3, 1e-2)
    assert analytic_stencil(3, 1e-2) is st
    assert np.array_equal(st.offsets, _loop_offsets(3, 1e-2))
    with pytest.raises(ValueError):
        st.offsets[0, 0] = 1.0


def test_function_field_out_of_domain_names_the_stencil_point():
    def g(x):
        x = np.asarray(x)
        r2 = np.sum(x * x, axis=-1)
        return (4.0 / (1.0 + r2) ** 2)[..., None, None] * np.eye(3) + 0.1 * x[..., :, None] * x[..., None, :]

    chart = AnalyticChart(3, [0.3, -0.2, 0.1], 1e-2)
    stencil = analytic_stencil(3, 1e-2)
    with pytest.raises(StencilOutOfDomain) as err:
        MetricField.from_function(chart, nan_at(g, chart.point + stencil.offsets[5])).jets()
    assert np.array_equal(err.value.point, chart.point + stencil.offsets[5])


# ---------------------------------------------------------------------------
# grid jets: padded shifts, symmetric components
# ---------------------------------------------------------------------------


def _roll_jet(values, chart):
    """The np.roll stencils that the padded shifts replaced (the oracle)."""
    def d1(v, axis, h):
        def sh(s):
            return np.roll(v, -s, axis=axis)
        return (-sh(2) + 8.0 * sh(1) - 8.0 * sh(-1) + sh(-2)) / (12.0 * h)

    def d2(v, axis, h):
        def sh(s):
            return np.roll(v, -s, axis=axis)
        return (-sh(2) + 16.0 * sh(1) - 30.0 * v + 16.0 * sh(-1) - sh(-2)) / (12.0 * h * h)

    n = chart.dimension
    hs = chart.spacings
    first = np.stack([d1(values, a, hs[a]) for a in range(n)], axis=-1)
    second = np.empty(values.shape + (n, n))
    for a in range(n):
        second[..., a, a] = d2(values, a, hs[a])
        for b in range(a + 1, n):
            second[..., a, b] = second[..., b, a] = d1(first[..., a], b, hs[b])
    flat = (chart.sample_count,) + values.shape[n:]
    return values.reshape(flat), first.reshape(flat + (n,)), second.reshape(flat + (n, n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_grid_jet_bitwise_equals_roll_oracle(n):
    rng = np.random.default_rng(20 + n)
    chart = GridChart(n, tuple(range(8, 8 + n)), tuple(1.0 + rng.uniform(size=n)))
    for tail in ((), (n,), (n, n)):
        values = rng.normal(size=chart.grid_shape + tail)
        for a, b in zip(grid_scalar_jet(values, chart), _roll_jet(values, chart)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetric_component_jets_equal_full_jets(n):
    # the metric jets differentiate the n(n+1)/2 components g_ij, i <= j, and
    # mirror them; on an exactly symmetric field that is the full jet, bit for bit
    rng = np.random.default_rng(n)
    chart = GridChart(n, 8, 2.0 * np.pi)
    A = rng.normal(size=chart.grid_shape + (n, n))
    fld = MetricField.from_samples(chart, 0.05 * (A + np.swapaxes(A, -1, -2)) + 2.0 * np.eye(n))
    got = fld.jets()
    want = grid_scalar_jet(fld.values, chart)
    want = want[:2] + (upper_hessian(want[2]),)
    assert [a.shape for a in got] == [a.shape for a in want]
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_function_jet_is_the_chart_kind_s_jet():
    # a callable's jet is the grid stencil over a grid chart's points and the
    # Richardson stencil at an analytic chart's point, bit for bit
    def f(x):
        x = np.asarray(x)
        return np.stack([np.sin(x[..., 0]) * np.cos(2.0 * x[..., 1]), np.cos(x[..., 2])], axis=-1)

    grid = GridChart(3, 8, 2.0 * np.pi)
    values = f(grid.sample_points.reshape(grid.grid_shape + (3,)))
    point = AnalyticChart(3, [0.1, -0.2, 0.3], 0.02)
    for got, want in ((grid.jet(f), grid_scalar_jet(values, grid)),
                      (point.jet(f), analytic_scalar_jet(f, point.point, 3, 0.02))):
        assert [a.shape for a in got] == [a.shape for a in want]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# positivity and the cached inverse
# ---------------------------------------------------------------------------


def test_positivity_is_one_cofactor_pass_with_eigenvalues_only_on_failure(monkeypatch):
    calls = []

    def counting(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    monkeypatch.setattr(charts, "_cofactor_pass", counting("pass", charts._cofactor_pass))
    for name in ("cholesky", "inv", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    g = np.stack([np.eye(3), np.diag([1.0, 2.0, 3.0]), np.diag([1.0, -0.5, 2.0]),
                  np.diag([1.0, -2.0, 2.0])])
    require_spd(g[:2])
    assert calls == ["pass"]
    assert np.array_equal(spd_inverse(g[:2]), np.stack([np.eye(3), np.diag([1.0, 0.5, 1.0 / 3.0])]))
    assert calls == ["pass"] * 2
    with pytest.raises(NotPositiveDefinite) as err:
        require_spd(g)
    assert calls == ["pass"] * 3 + ["eigvalsh"]
    assert err.value.sample_index == 3
    assert err.value.min_eigenvalue == -2.0


def test_inverse_is_cached_and_read_only(monkeypatch):
    chart = GridChart(2, 8, 2.0 * np.pi)
    x = chart.sample_points
    g = np.broadcast_to(np.eye(2), (chart.sample_count, 2, 2)).copy()
    g[:, 0, 0] = 2.0 + np.sin(x[:, 0])
    g[:, 0, 1] = g[:, 1, 0] = 0.3 * np.cos(x[:, 1])
    fld = MetricField.from_samples(chart, g.reshape(chart.grid_shape + (2, 2)))
    passes = []
    monkeypatch.setattr(charts, "_cofactor_pass",
                        lambda g, f=charts._cofactor_pass: passes.append(1) or f(g))
    fld.validate_spd()
    ginv = fld.inverse
    assert fld.inverse is ginv
    assert len(passes) == 1
    # adjugate over determinant against LU: condition number below 4 here,
    # so both agree to a few units in the last place
    ref = np.linalg.inv(fld.samples)
    assert np.abs(ginv - ref).max() <= 4.0 * EPS * np.abs(ref).max()
    with pytest.raises(ValueError):
        ginv[0, 0, 0] = 1.0


@st.composite
def symmetric_stacks(draw, max_cond=1e3, signed=False):
    """One to four symmetric n x n matrices, n = 1 .. 4, of condition number
    at most ``max_cond``: c Q diag(s_i max_cond^-t_i) Q^T with t_i in [0, 1],
    Q the orthogonal factor of a drawn matrix, c = 10^[-3, 3] and the signs
    s_i = +1, or drawn when ``signed``."""
    n = draw(st.integers(1, 4))
    S = draw(st.integers(1, 4))
    Q, _ = np.linalg.qr(draw(arrays(float, (S, n, n), elements=unit_floats)))
    lam = 10.0 ** draw(st.floats(-3.0, 3.0)) * max_cond ** -draw(
        arrays(float, (S, n), elements=st.floats(0.0, 1.0)))
    if signed:
        lam = lam * draw(arrays(float, (S, n), elements=st.sampled_from([-1.0, 1.0])))
    g = (Q * lam[:, None, :]) @ np.swapaxes(Q, -1, -2)
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def _cofactor_bound(g):
    """Per sample, 4 n kappa^(n-1) eps: the Leibniz minors of a cofactor pass
    lose about kappa^(n-1) eps (kappa^2 eps at n = 3) where LU loses kappa
    eps; the constant is at least twice the largest ratio seen over 4,000
    draws per n."""
    n = g.shape[-1]
    return 4.0 * n * np.linalg.cond(g) ** (n - 1) * EPS


@settings(derandomize=True, deadline=None, max_examples=150)
@given(symmetric_stacks())
def test_cofactor_inverse_matches_lu_to_a_condition_scaled_bound(g):
    ref = np.linalg.inv(g)
    got = spd_inverse(g)
    assert got.shape == g.shape and got.dtype == np.float64
    err = np.abs(got - ref).max(axis=(-2, -1)) / np.abs(ref).max(axis=(-2, -1))
    assert np.all(err <= _cofactor_bound(g))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(symmetric_stacks(signed=True))
def test_sylvester_verdict_is_choleskys(g):
    # every |eigenvalue| is at least 1e-3 of the largest, far above the
    # roundoff of either test
    def cholesky_ok(a):
        try:
            np.linalg.cholesky(a)
            return True
        except np.linalg.LinAlgError:
            return False

    for a in g:
        try:
            require_spd(a[None])
            ok = True
        except NotPositiveDefinite:
            ok = False
        assert ok == cholesky_ok(a)
    if cholesky_ok(g):
        return
    with pytest.raises(NotPositiveDefinite) as err:
        require_spd(g)
    w = np.linalg.eigvalsh(g)[:, 0]
    assert err.value.sample_index == np.argmin(w)
    assert err.value.min_eigenvalue == w.min()


@settings(derandomize=True, deadline=None, max_examples=150)
@given(symmetric_stacks(), st.data())
def test_complex_step_through_the_inverse_is_its_derivative(g, data):
    # d(g^-1) along h is -g^-1 h g^-1, which Im spd_inverse(g + i STEP h) / STEP
    # gives to the same condition-scaled bound, relative to the derivative's
    # scale |g^-1|^2 |h| (the derivative itself is small where h lies along
    # g's large eigenvalues); entries of h below 1e-3 are zeroed, so that
    # STEP h does not underflow
    h = data.draw(arrays(float, g.shape, elements=unit_floats.map(lambda x: x * (abs(x) > 1e-3))))
    h = h + np.swapaxes(h, -1, -2)
    got = spd_inverse(g + 1j * STEP * h)
    assert got.dtype == np.complex128
    ginv = np.linalg.inv(g)
    scale = np.abs(ginv).max(axis=(-2, -1)) ** 2 * np.abs(h).max(axis=(-2, -1))
    assume(np.all(scale > 0.0))
    err = np.abs(got.imag / STEP + ginv @ h @ ginv).max(axis=(-2, -1)) / scale
    assert np.all(err <= _cofactor_bound(g))
    err_re = np.abs(got.real - ginv).max(axis=(-2, -1)) / np.abs(ginv).max(axis=(-2, -1))
    assert np.all(err_re <= _cofactor_bound(g))


# ---------------------------------------------------------------------------
# complex samples (the complex-step derivatives of riemflow.variation)
# ---------------------------------------------------------------------------


def _sym_field_values(chart, rng, diagonal):
    A = rng.normal(size=chart.grid_shape + (3, 3))
    return 0.05 * (A + np.swapaxes(A, -1, -2)) + diagonal * np.eye(3)


def test_complex_samples_keep_their_imaginary_part():
    # the jets are linear, so the jets of g + i h are those of g plus i times
    # those of h; a cast to float would drop the imaginary part
    rng = np.random.default_rng(7)
    chart = GridChart(3, 8, 2.0 * np.pi)
    g, h = _sym_field_values(chart, rng, 2.0), _sym_field_values(chart, rng, 0.0)
    fld = MetricField.from_samples(chart, g + 1j * h)
    assert fld.samples.dtype == np.complex128
    assert np.array_equal(fld.samples.imag, h.reshape(fld.samples.shape))
    parts = zip(fld.jets(), MetricField.from_samples(chart, g).jets(),
                MetricField.from_samples(chart, h).jets())
    for z, re, im in parts:
        assert z.dtype == np.complex128
        assert np.abs(z.real - re).max() <= 1e-14 * np.abs(re).max()
        assert np.abs(z.imag - im).max() <= 1e-14 * np.abs(im).max()

    def f(x):
        return np.sin(x[..., 0]) * np.exp(x[..., 1]) + x[..., 2] ** 3

    def f2(x):
        return np.cos(x[..., 1] - x[..., 2])

    points = np.array([[0.3, -0.2, 0.1], [0.5, 0.4, -0.6]])
    z = analytic_scalar_jet(lambda x: f(x) + 1j * f2(x), points, 3, 1e-2)
    for a, re, im in zip(z, analytic_scalar_jet(f, points, 3, 1e-2),
                         analytic_scalar_jet(f2, points, 3, 1e-2)):
        assert a.dtype == np.complex128
        assert np.abs(a.real - re).max() <= 1e-14 * np.abs(re).max()
        assert np.abs(a.imag - im).max() <= 1e-14 * np.abs(im).max()


def test_complex_positivity_is_judged_on_the_real_part():
    g = np.stack([2.0 * np.eye(3), np.diag([1.0, -0.5, 1.0]), np.diag([1.0, 1.0, -2.0])])
    with pytest.raises(NotPositiveDefinite) as err:
        require_spd(g - 10j * np.eye(3))
    assert err.value.sample_index == 2
    assert err.value.min_eigenvalue == -2.0
    require_spd(g[:1] - 10j * np.eye(3))      # the real part alone is positive


def test_real_input_stays_float64():
    rng = np.random.default_rng(8)
    chart = GridChart(3, 8, 2.0 * np.pi)
    for values in (_sym_field_values(chart, rng, 2.0),
                   np.broadcast_to(np.eye(3, dtype=int), chart.grid_shape + (3, 3))):
        fld = MetricField.from_samples(chart, values)
        assert all(a.dtype == np.float64 for a in (fld.samples, fld.inverse, *fld.jets()))
    jet = analytic_scalar_jet(lambda x: x[..., 0] * x[..., 1], np.zeros((1, 3)), 3, 1e-2)
    assert all(a.dtype == np.float64 for a in jet)
