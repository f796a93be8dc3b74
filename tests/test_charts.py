import tracemalloc

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
    richardson_jet,
    spd_inverse,
)
from riemflow.curvature import _gather, riemann
from riemflow.errors import NotPositiveDefinite, StencilOutOfDomain
from riemflow.families import make_family
from riemflow.variation import STEP, SolitonData, soliton_residual

EPS = np.finfo(float).eps


def test_chart_validation():
    with pytest.raises(ValueError):
        AnalyticChart(1, [0.0])
    with pytest.raises(ValueError):
        AnalyticChart(2, [0.0, 0.0], step=0.0)
    # NaN and infinity pass ``step <= 0``; neither is a step, nor a coordinate
    for step in (np.nan, np.inf):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            AnalyticChart(2, [0.0, 0.0], step=step)
    # a step whose half squared is not a normal float underflows a stencil
    # denominator; the smallest step kept is about 3e-154
    for step in (1e-300, 2.9e-154):
        with pytest.raises(ValueError, match="half squared is below the smallest normal float"):
            AnalyticChart(2, [0.0, 0.0], step=step)
    AnalyticChart(2, [0.0, 0.0], step=3e-154)
    for point in ([np.nan, 0.0], [0.0, -np.inf]):
        with pytest.raises(ValueError, match="point must be finite"):
            AnalyticChart(2, point)
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


def test_frozen_frame_names_the_stencil_point_where_the_metric_is_singular():
    # g_11 = x1^2 vanishes at x1 = 0, which the stencil reaches from x1 = h:
    # the Cholesky factor fails there, and the error names that point
    fam = make_family("diagonal-lame", 3, {"expressions": ["x1", "1", "1"]})
    chart = AnalyticChart(3, [0.01, 0.0, 0.0], 0.01)
    with pytest.raises(StencilOutOfDomain) as err:
        chart.evolving(MetricField.from_function(chart, fam.metric_function))
    assert np.array_equal(err.value.point, np.zeros(3))


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
    second = np.empty(values.shape + (n, n), values.dtype)
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
        # a complex-step run's samples take the same stencils, in their dtype
        values = values + 1j * rng.normal(size=values.shape)
        for a, b in zip(grid_scalar_jet(values, chart), _roll_jet(values, chart)):
            assert a.dtype == b.dtype == complex
            assert np.array_equal(a, b)


@pytest.mark.parametrize("complex_step", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_grid_build_reads_only_the_upper_hessian_the_kernel_writes(n, complex_step, monkeypatch):
    # the bound jet kernel writes only the Hessian's entries k <= l, and the
    # curvature parts read no other; poisoning the k > l entries with NaN
    # after each kernel call leaves a bound build's parts equal to those of
    # the public jet, which mirrors them and is exactly symmetric
    rng = np.random.default_rng(50 + n)
    chart = GridChart(n, 8, tuple(1.0 + rng.uniform(size=n)))
    A, B = rng.normal(size=(2, chart.sample_count, n, n))
    g = 0.05 * (A + np.swapaxes(A, -1, -2)) + 2.0 * np.eye(n)
    if complex_step:
        g = g + 1j * STEP * (B + np.swapaxes(B, -1, -2))
    want = MetricField.from_samples(chart, g)
    d2g = want.jets()[2]
    assert np.array_equal(d2g, np.swapaxes(d2g, -1, -2))

    index = charts._hessian_index(n)
    assert np.all(index % n ** 2 // n <= index % n)

    kernel, lower = charts._grid_jet_kernel, np.tril_indices(n, -1)

    def poisoned(*args):
        jet = kernel(*args)

        def run(values):
            out = jet(values)
            out[2][..., lower[0], lower[1]] = np.nan
            return out
        return run

    monkeypatch.setattr(charts, "_grid_jet_kernel", poisoned)
    got = chart.evolving(want)(g.copy())
    for a, b in zip(got.curvature_parts(), want.curvature_parts()):
        assert a.dtype == b.dtype == g.dtype and a.tobytes() == b.tobytes()


def test_a_grid_field_takes_its_jet_once(monkeypatch):
    # a field keeps the jet it takes: its jets, the curvature of its parts
    # and its jets again build one stencil kernel, and a soliton residual
    # takes one jet of the metric (and one of the potential)
    fld = MetricField.from_function(GridChart(3, 8, 2.0 * np.pi),
                                    make_family("conformal-torus", 3).metric_function)
    kernel, tails = charts._grid_jet_kernel, []

    def counted(chart, tail, dtype):
        tails.append(tail)
        return kernel(chart, tail, dtype)

    monkeypatch.setattr(charts, "_grid_jet_kernel", counted)
    jets = fld.jets()
    riemann(fld)
    assert fld.jets() is jets and tails == [(6,)]
    assert not any(a.flags.writeable for a in jets[1:])
    tails.clear()
    soliton_residual(MetricField.from_samples(fld.chart, fld.samples),
                     SolitonData(factor=0.0, potential=lambda x: np.cos(np.asarray(x)[..., 0])))
    assert tails == [(6,), ()]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_symmetric_component_jets_equal_full_jets(n):
    # every metric jet differentiates the n(n+1)/2 components g_ij, i <= j,
    # and mirrors them; on an exactly symmetric field that is the full n^2
    # jet, bit for bit: grid samples, function fields on both chart kinds and
    # the frozen frame's basis fields (no grid at n = 5, where the 8^5 full
    # Hessian alone takes 164 MB)
    def check(got, want):
        want = want[:2] + (upper_hessian(want[2]),)
        assert [a.shape for a in got] == [a.shape for a in want]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    rng = np.random.default_rng(n)
    C = rng.integers(-2, 3, size=(n, n, n)).astype(float)
    C = C + C.transpose(1, 0, 2)

    def metric(x):
        # exactly symmetric, 2 pi periodic, with every entry varying
        return 0.05 * np.sin(np.einsum('...k,abk->...ab', np.asarray(x), C)) + 2.0 * np.eye(n)

    point = AnalyticChart(n, rng.uniform(-0.3, 0.3, n), 0.02)
    charts = [point]
    if n < 5:
        grid = GridChart(n, 8, 2.0 * np.pi)
        A = rng.normal(size=grid.grid_shape + (n, n))
        fld = MetricField.from_samples(grid, 0.05 * (A + np.swapaxes(A, -1, -2)) + 2.0 * np.eye(n))
        check(fld.jets(), grid_scalar_jet(fld.values, grid))
        charts.append(grid)
    for chart in charts:
        check(MetricField.from_function(chart, metric).jets(), chart.jet(metric))
    # the frame's field of a basis matrix E is its image M E M^T at the stencil
    stencil = analytic_stencil(n, point.step)
    build = point.evolving(MetricField.from_function(point, metric))
    L = np.linalg.cholesky(metric(point.point + stencil.offsets))
    M = L @ np.linalg.inv(L[0])
    M[0] = np.eye(n)
    for i, j in zip(*np.triu_indices(n)):
        E = np.zeros((1, n, n))
        E[0, i, j] = E[0, j, i] = 1.0
        check(build(E).jets(), richardson_jet(stencil, np.einsum('pab,bc,pdc->pad', M, E[0], M)[None]))


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
    spd_inverse(g[:2])
    assert calls == ["pass"]
    assert np.array_equal(spd_inverse(g[:2]), np.stack([np.eye(3), np.diag([1.0, 0.5, 1.0 / 3.0])]))
    assert calls == ["pass"] * 2
    with pytest.raises(NotPositiveDefinite) as err:
        spd_inverse(g)
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
                        lambda *args, f=charts._cofactor_pass: passes.append(1) or f(*args))
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


def test_cofactor_pass_gathers_in_bounded_chunks():
    # 8,192 5 x 5 matrices: gathered at once, the 873 Leibniz products of 5
    # factors each would take 280 MiB; in chunks of COFACTOR_GATHER factors
    # the pass stays near 32 MiB and its result is unchanged
    rng = np.random.default_rng(5)
    a = rng.normal(size=(8192, 5, 5))
    g = a @ np.swapaxes(a, -1, -2) + np.eye(5)
    tracemalloc.start()
    try:
        got = spd_inverse(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    ref = np.linalg.inv(g)
    assert np.all(np.abs(got - ref).max(axis=(-2, -1)) <= 1e-12 * np.abs(ref).max(axis=(-2, -1)))


@pytest.mark.parametrize("shape", [((1,), (1,)), ((1, 1), (1, 1)), ((), ()), ((5,), (5,)),
                                   ((3, 4), (3, 4)), ((5,), ())])
@pytest.mark.parametrize("dtype", [float, complex])
def test_take_last_is_fancy_indexing_bit_for_bit(shape, dtype):
    # the kernels' gather of the last two axes flattened, bound to stacks of
    # shape ``lead`` (curvature._gather) and given a stack ``a`` of shape
    # ``stack + (3, 3)``: ndarray.take for one sample, fancy indexing for
    # more, also of a single matrix broadcast against a stack (the last
    # case); both copy the values of a[..., index], for 1-D and 2-D indices
    lead, stack = shape
    rng = np.random.default_rng(len(lead) + sum(stack))
    a = rng.normal(size=stack + (3, 3)).astype(dtype)
    if dtype is complex:
        a += 1j * rng.normal(size=a.shape)
    a = np.where(a.real > 2.0, np.nan, a)
    for index in (np.array([8, 0, 3, 3]), rng.integers(0, 9, size=(2, 5))):
        got, ref = _gather(lead, index)(a), a.reshape(stack + (-1,))[..., index]
        assert got.shape[-index.ndim:] == index.shape and got.size == ref.size
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        assert not np.shares_memory(got, a)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_real_cofactor_pass_reads_the_factors_of_the_complex_layout(n):
    # a real stack gathers from its entries and a row of ones, where a complex
    # one reads [a, re a, 1]: the same factor for every slot of every product
    index, real, _ = charts._cofactor_terms(n)
    a = np.random.default_rng(n).normal(size=(n * n, 7))
    full = np.concatenate([a, a, np.ones((1, 7))])
    short = np.concatenate([a, np.ones((1, 7))])
    assert np.array_equal(full.take(index, axis=0), short.take(real, axis=0))


@pytest.mark.parametrize("S", [1, 1728])
@pytest.mark.parametrize("dtype", [float, complex])
def test_spd_inverse_is_c_contiguous(S, dtype):
    # a strided inverse (the transposed cofactor rows) makes the products that
    # read it round differently from the contiguous one
    rng = np.random.default_rng(S)
    a = rng.normal(size=(S, 3, 3))
    g = (a @ np.swapaxes(a, -1, -2) + np.eye(3)).astype(dtype)
    ginv = spd_inverse(g)
    assert ginv.flags.c_contiguous and ginv.dtype == g.dtype


def test_spd_inverse_names_a_sample_that_is_not_finite():
    # one NaN entry in a stack of two SPD matrices fails the check at its
    # sample, with eigenvalue NaN, rather than a LAPACK error from the
    # eigenvalues or the other sample's smallest eigenvalue
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        a = rng.normal(size=(2, n, n))
        g = a @ np.swapaxes(a, -1, -2) + np.eye(n)
        s, i, j = rng.integers(2), rng.integers(n), rng.integers(n)
        g[s, i, j] = np.nan
        with pytest.raises(NotPositiveDefinite) as err:
            spd_inverse(g)
        assert err.value.sample_index == s and np.isnan(err.value.min_eigenvalue)


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


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kappa", [1e2, 1e3, 1e4])
def test_cofactor_inverse_keeps_its_stated_error_on_pancakes(n, kappa):
    # the stated error, kappa^(n-1) eps relative, where it is tightest: n - 1
    # eigenvalues small together, in [1, 1.5] / kappa beside one of 1, as a
    # metric collapsing onto a line.  Over 2,000 draws per cell the worst
    # error over kappa^(n-1) eps was 0.05, 0.008 and 0.001 at n = 3, 4 and 5
    rng = np.random.default_rng(int(n * kappa))
    q, _ = np.linalg.qr(rng.normal(size=(300, n, n)))
    lam = np.concatenate([np.ones((300, 1)), rng.uniform(1.0, 1.5, (300, n - 1)) / kappa], axis=1)
    g = (q * lam[:, None, :]) @ np.swapaxes(q, -1, -2)
    g = 0.5 * (g + np.swapaxes(g, -1, -2))
    ref = np.linalg.inv(g)
    err = np.abs(spd_inverse(g) - ref).max(axis=(-2, -1)) / np.abs(ref).max(axis=(-2, -1))
    assert err.max() <= kappa ** (n - 1) * EPS


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
            spd_inverse(a[None])
            ok = True
        except NotPositiveDefinite:
            ok = False
        assert ok == cholesky_ok(a)
    if cholesky_ok(g):
        return
    with pytest.raises(NotPositiveDefinite) as err:
        spd_inverse(g)
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
        spd_inverse(g - 10j * np.eye(3))
    assert err.value.sample_index == 2
    assert err.value.min_eigenvalue == -2.0
    spd_inverse(g[:1] - 10j * np.eye(3))      # the real part alone is positive


def test_real_input_stays_float64():
    rng = np.random.default_rng(8)
    chart = GridChart(3, 8, 2.0 * np.pi)
    for values in (_sym_field_values(chart, rng, 2.0),
                   np.broadcast_to(np.eye(3, dtype=int), chart.grid_shape + (3, 3))):
        fld = MetricField.from_samples(chart, values)
        assert all(a.dtype == np.float64 for a in (fld.samples, fld.inverse, *fld.jets()))
    jet = analytic_scalar_jet(lambda x: x[..., 0] * x[..., 1], np.zeros((1, 3)), 3, 1e-2)
    assert all(a.dtype == np.float64 for a in jet)
