import numpy as np
import pytest

from riemflow.charts import (
    AnalyticChart,
    GridChart,
    MetricField,
    analytic_scalar_jet,
    analytic_stencil,
    grid_scalar_jet,
)
from riemflow.errors import NotPositiveDefinite, StencilOutOfDomain


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


def test_jets_at_matches_chart_point():
    def g(x):
        x = np.asarray(x)
        r2 = np.sum(x * x, axis=-1)
        return (4.0 / (1.0 + r2) ** 2)[..., None, None] * np.eye(2)

    chart = AnalyticChart(2, [0.3, -0.2], 1e-2)
    fld = MetricField.from_function(chart, g)
    g0, d1, d2 = fld.jets()
    g0b, d1b, d2b = fld.jets_at(np.array([[0.3, -0.2], [0.0, 0.0]]))
    assert np.array_equal(g0[0], g0b[0])
    assert np.array_equal(d2[0], d2b[0])


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


def test_stencil_values_field_matches_function_field():
    def g(x):
        x = np.asarray(x)
        r2 = np.sum(x * x, axis=-1)
        return (4.0 / (1.0 + r2) ** 2)[..., None, None] * np.eye(3) + 0.1 * x[..., :, None] * x[..., None, :]

    chart = AnalyticChart(3, [0.3, -0.2, 0.1], 1e-2)
    stencil = analytic_stencil(3, 1e-2)
    fld = MetricField.from_function(chart, g)
    sv = MetricField.from_stencil_values(chart, g(chart.point + stencil.offsets))
    assert np.array_equal(sv.samples, sv.values[:1])
    for a, b in zip(fld.jets(), sv.jets()):
        assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        MetricField.from_stencil_values(chart, sv.values[1:])
    bad = sv.values.copy()
    bad[5, 0, 0] = np.nan
    with pytest.raises(StencilOutOfDomain) as err:
        MetricField.from_stencil_values(chart, bad).jets()
    assert np.array_equal(err.value.point, chart.point + stencil.offsets[5])
