import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    HYPERBOLIC_FACTOR,
    SPHERE_FACTOR,
    flat_grid_field,
    frames,
    hyperbolic_field,
    rand_spd,
    sphere_field,
    torus_field,
    unit_floats,
    upper_hessian,
)
from riemflow.bialternate import bialternate_product
from riemflow.charts import AnalyticChart, GridChart, MetricField, analytic_scalar_jet
from riemflow.curvature import (
    CurvatureTensor,
    christoffel,
    christoffel_from_jets,
    inverse_metric,
    kn_product,
    orthogonal_metric_curvature,
    pair_product_from_samples,
    pair_trace,
    ricci_and_scalar,
    riemann,
    riemann_from_jets,
    tensor_norm,
    weyl,
)
from riemflow.errors import DimensionTooSmall, NonpositiveLame, NotPositiveDefinite
from riemflow.families import make_family
from riemflow.flow import solve_pair_trace


# ---------------------------------------------------------------------------
# inverse metric
# ---------------------------------------------------------------------------

def test_inverse_identity_and_diagonal():
    assert np.allclose(inverse_metric(np.eye(3)[None]), np.eye(3), atol=1e-15)
    inv = inverse_metric(np.diag([4.0, 1.0])[None])[0]
    assert np.allclose(inv, np.diag([0.25, 1.0]), atol=1e-15)


def test_inverse_random_spd(rng):
    g = rand_spd(3, rng)
    inv = inverse_metric(g[None])[0]
    assert np.abs(g @ inv - np.eye(3)).max() < 1e-12


def test_inverse_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        inverse_metric(np.diag([1.0, -2.0])[None])


# ---------------------------------------------------------------------------
# christoffel
# ---------------------------------------------------------------------------

def test_christoffel_flat_zero():
    fld, _ = flat_grid_field(3)
    gam = christoffel(fld)
    assert np.abs(gam.array).max() == 0.0


def test_christoffel_polar_hand_values():
    def g(x):
        x = np.asarray(x)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = x[..., 0] ** 2
        return out

    fld = MetricField.from_function(AnalyticChart(2, [2.0, 0.5], 1e-3), g)
    gam = christoffel(fld).array[0]
    assert abs(gam[1, 0, 1] - 0.5) < 1e-10
    assert abs(gam[1, 1, 0] - 0.5) < 1e-10
    assert abs(gam[0, 1, 1] + 2.0) < 1e-10


def test_christoffel_conformal_vanishes_at_origin():
    fld, _ = sphere_field(2)
    gam = christoffel(fld).array[0]
    assert np.abs(gam).max() < 1e-10


def test_christoffel_symmetric_lower_indices():
    fld, _ = torus_field(3)
    gam = christoffel(fld).array
    assert np.array_equal(gam, np.swapaxes(gam, -1, -2))


# ---------------------------------------------------------------------------
# curvature values pinned by the symbolic oracle
# ---------------------------------------------------------------------------

def test_flat_torus_curvature_zero():
    fld, _ = flat_grid_field(3)
    assert np.abs(riemann(fld).array).max() < 1e-12


def test_sphere_sectional_factor():
    fld, _ = sphere_field(2)
    R = riemann(fld)
    g = fld.samples[0]
    kappa = R.array[0, 0, 1, 0, 1] / (g[0, 0] * g[1, 1] - g[0, 1] ** 2)
    assert abs(kappa - SPHERE_FACTOR) < 1e-6


def test_poincare_sectional_factor():
    fld, _ = hyperbolic_field(2)
    R = riemann(fld)
    g = fld.samples[0]
    kappa = R.array[0, 0, 1, 0, 1] / (g[0, 0] * g[1, 1] - g[0, 1] ** 2)
    assert abs(kappa - HYPERBOLIC_FACTOR) < 1e-6


def test_sphere_3d_is_constant_curvature():
    fld, _ = sphere_field(3)
    R = riemann(fld)
    G = bialternate_product(fld.samples)
    assert np.abs(R.array - SPHERE_FACTOR * G.array).max() < 1e-6


def test_ricci_and_scalar_model_values():
    # Ric = (n-1) * factor * g and R = n (n-1) * factor on the model charts
    for build, factor in ((sphere_field, SPHERE_FACTOR),
                          (hyperbolic_field, HYPERBOLIC_FACTOR)):
        for n in (2, 3):
            fld, _ = build(n)
            ric, scal = ricci_and_scalar(fld, riemann(fld))
            assert np.abs(ric - (n - 1) * factor * fld.samples).max() < 1e-6
            assert abs(scal[0] - n * (n - 1) * factor) < 1e-5


def test_scaling_homogeneity():
    # Riem(c g) = c Riem(g) to round-off; Ricci unchanged, scalar divided by c
    fam = make_family("conformal-torus", 3, {"amplitude": 0.08, "mode": 1},
                      np.random.default_rng(3))
    chart = GridChart(3, 8, 2.0 * np.pi)
    c = 2.5
    f1 = MetricField.from_function(chart, fam.metric_function)
    f2 = MetricField.from_function(chart, lambda x: c * fam.metric_function(x))
    R1, R2 = riemann(f1).array, riemann(f2).array
    assert np.abs(R2 - c * R1).max() < 1e-13 * np.abs(R1).max() + 1e-15
    ric1, s1 = ricci_and_scalar(f1, riemann(f1))
    ric2, s2 = ricci_and_scalar(f2, riemann(f2))
    assert np.abs(ric2 - ric1).max() < 1e-13
    assert np.abs(s2 - s1 / c).max() < 1e-13


def test_curvature_symmetries_on_raw_evaluation():
    fld, _ = torus_field(3, points=8, amplitude=0.1)
    R = riemann(fld).array
    scale = np.abs(R).max()
    assert np.abs(R + np.swapaxes(R, 1, 2)).max() < 1e-12 * max(scale, 1)
    assert np.abs(R + np.swapaxes(R, 3, 4)).max() < 1e-12 * max(scale, 1)
    pair = np.transpose(R, (0, 3, 4, 1, 2))
    assert np.abs(R - pair).max() < 1e-12 * max(scale, 1)
    bianchi = R + np.transpose(R, (0, 1, 3, 4, 2)) + np.transpose(R, (0, 1, 4, 2, 3))
    assert np.abs(bianchi).max() < 1e-12 * max(scale, 1)


def test_grid_curvature_converges_to_analytic():
    fam = make_family("conformal-torus", 2, {"amplitude": 0.1, "mode": 1},
                      np.random.default_rng(11))
    errs = []
    for N in (16, 32, 64):
        chart = GridChart(2, N, 2.0 * np.pi)
        fld = MetricField.from_function(chart, fam.metric_function)
        Rg = riemann(fld).block
        g0, d1, d2 = analytic_scalar_jet(fam.metric_function, chart.sample_points,
                                         2, 1e-3)
        Rref = riemann_from_jets(g0, d1, upper_hessian(d2), np.linalg.inv(g0))
        errs.append(np.abs(Rg - Rref).max())
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 3.7


# ---------------------------------------------------------------------------
# Weyl
# ---------------------------------------------------------------------------

def test_weyl_flat_zero():
    fld, _ = flat_grid_field(3)
    assert np.abs(weyl(fld, riemann(fld)).array).max() < 1e-14


def test_weyl_vanishes_in_dimension_three():
    # generic (non-conformal) 3-metric
    def g(x):
        x = np.asarray(x)
        base = np.broadcast_to(np.eye(3), x.shape[:-1] + (3, 3)).copy()
        base[..., 0, 0] += 0.3 * np.sin(x[..., 1])
        base[..., 1, 1] += 0.2 * np.cos(x[..., 0] + x[..., 2])
        base[..., 0, 1] = base[..., 1, 0] = 0.1 * np.sin(x[..., 2])
        base[..., 1, 2] = base[..., 2, 1] = 0.08 * np.cos(x[..., 0])
        return base

    fld = MetricField.from_function(GridChart(3, 8, 2.0 * np.pi), g)
    R = riemann(fld)
    assert np.abs(R.array).max() > 1e-3  # genuinely curved
    assert np.abs(weyl(fld, R).array).max() < 1e-10


def test_weyl_vanishes_conformally_flat_4d():
    fam = make_family("conformal-torus", 4, {"amplitude": 0.06, "mode": 1},
                      np.random.default_rng(7))
    fld = MetricField.from_function(GridChart(4, 8, 2.0 * np.pi), fam.metric_function)
    R = riemann(fld)
    assert np.abs(R.array).max() > 1e-3
    assert np.abs(weyl(fld, R).array).max() < 1e-10


def test_weyl_trace_free_generic_4d():
    def g(x):
        x = np.asarray(x)
        base = np.broadcast_to(np.eye(4), x.shape[:-1] + (4, 4)).copy()
        base[..., 0, 0] += 0.3 * np.sin(x[..., 1])
        base[..., 1, 1] += 0.25 * np.cos(x[..., 2])
        base[..., 2, 3] = base[..., 3, 2] = 0.1 * np.sin(x[..., 0])
        base[..., 0, 2] = base[..., 2, 0] = 0.12 * np.cos(x[..., 3])
        return base

    fld = MetricField.from_function(GridChart(4, 8, 2.0 * np.pi), g)
    C = weyl(fld, riemann(fld)).array
    assert np.abs(C).max() > 1e-4  # the generic metric is not conformally flat
    ginv = np.linalg.inv(fld.samples)
    tr24 = np.einsum('sjl,sijkl->sik', ginv, C)
    tr13 = np.einsum('sik,sijkl->sjl', ginv, C)
    assert np.abs(tr24).max() < 1e-11
    assert np.abs(tr13).max() < 1e-11


def test_weyl_dimension_guard():
    fld, _ = sphere_field(2)
    with pytest.raises(DimensionTooSmall):
        weyl(fld, riemann(fld))


# ---------------------------------------------------------------------------
# diagonal (orthogonal) metrics
# ---------------------------------------------------------------------------

def _ones(x):
    return np.ones(np.asarray(x).shape[:-1])


def test_lame_flat():
    chart = AnalyticChart(3, [0.3, 0.1, -0.2], 1e-2)
    R = orthogonal_metric_curvature([_ones, _ones, _ones], chart)
    assert np.abs(R.array).max() < 1e-12


def test_lame_conformal_matches_generic():
    def H(x):
        x = np.asarray(x)
        return np.sqrt(1.0 + 0.3 * np.sin(x[..., 0]))

    chart = AnalyticChart(3, [0.4, 0.1, -0.2], 1e-2)
    R_lame = orthogonal_metric_curvature([H, H, H], chart)

    def g(x):
        x = np.asarray(x)
        u = 1.0 + 0.3 * np.sin(x[..., 0])
        return u[..., None, None] * np.eye(3)

    R_gen = riemann(MetricField.from_function(chart, g))
    scale = np.abs(R_gen.array).max()
    assert np.abs(R_lame.array - R_gen.array).max() < 1e-8 * max(scale, 1)


def test_lame_polar_matches_generic():
    chart = AnalyticChart(2, [2.0, 0.7], 1e-3)
    H2 = lambda x: np.asarray(x)[..., 0]  # noqa: E731
    R_lame = orthogonal_metric_curvature([_ones, H2], chart)

    def g(x):
        x = np.asarray(x)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 1, 1] = x[..., 0] ** 2
        return out

    R_gen = riemann(MetricField.from_function(chart, g))
    assert np.abs(R_lame.array - R_gen.array).max() < 1e-9


def test_lame_generic_diagonal_matches_and_four_distinct_vanish():
    Hs = [
        lambda x: 1.0 + np.asarray(x)[..., 1] ** 2 / 4.0,
        lambda x: 1.0 + np.asarray(x)[..., 0] * np.asarray(x)[..., 2] / 5.0,
        lambda x: 1.0 + np.asarray(x)[..., 0] ** 2 / 7.0 + np.asarray(x)[..., 1] / 9.0,
        lambda x: 1.0 + np.asarray(x)[..., 3] ** 2 / 6.0 + np.asarray(x)[..., 0] / 8.0,
    ]
    chart = AnalyticChart(4, [0.31, 0.23, -0.19, 0.11], 1e-2)
    R_lame = orthogonal_metric_curvature(Hs, chart)

    def g(x):
        x = np.asarray(x)
        out = np.zeros(x.shape[:-1] + (4, 4))
        for k, H in enumerate(Hs):
            out[..., k, k] = H(x) ** 2
        return out

    R_gen = riemann(MetricField.from_function(chart, g))
    scale = np.abs(R_gen.array).max()
    assert np.abs(R_lame.array - R_gen.array).max() < 1e-7 * max(scale, 1)
    for perm in ((0, 1, 2, 3), (2, 0, 3, 1), (3, 1, 0, 2)):
        assert R_lame.array[0][perm] == 0.0


def test_lame_rejects_nonpositive():
    bad = lambda x: np.asarray(x)[..., 0]  # noqa: E731  (vanishes at 0)
    chart = AnalyticChart(2, [0.0, 0.0], 1e-2)
    with pytest.raises(NonpositiveLame):
        orthogonal_metric_curvature([_ones, bad], chart)


# ---------------------------------------------------------------------------
# norms, bounds, storage
# ---------------------------------------------------------------------------

def test_tensor_norm_basics(rng):
    g = rand_spd(3, rng)[None]
    ginv = np.linalg.inv(g)
    assert tensor_norm(CurvatureTensor(np.zeros((1, 3, 3))), ginv)[0] == 0.0
    assert abs(tensor_norm(g, ginv)[0] - np.sqrt(3.0)) < 1e-12
    G = bialternate_product(np.eye(3))
    assert abs(tensor_norm(G, np.eye(3)[None])[0] - np.sqrt(12.0)) < 1e-12
    assert tensor_norm(np.array([-2.5]), ginv)[0] == 2.5  # rank-0 per sample
    with pytest.raises(ValueError):
        tensor_norm(np.zeros((1, 3, 3, 3)), ginv)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_independent_component_count(n):
    assert CurvatureTensor.independent_component_count(n) == n * n * (n * n - 1) // 12
    slots = CurvatureTensor._packed_slots(n)
    assert len(slots) == n * n * (n * n - 1) // 12


@pytest.mark.parametrize("n", [3, 4])
def test_packed_roundtrip(n):
    fld, _ = torus_field(n, points=8, amplitude=0.07)
    R = riemann(fld)
    packed = R.packed()
    assert packed.shape == (fld.chart.sample_count,
                            CurvatureTensor.independent_component_count(n))
    back = CurvatureTensor.from_packed(packed, n)
    assert np.abs(back.array - R.array).max() < 1e-12 * max(np.abs(R.array).max(), 1)


# ---------------------------------------------------------------------------
# batched contractions against the literal component formulas
# ---------------------------------------------------------------------------

def _oracle_riemann(g, dg, d2g):
    """R_ijkl term by term, each contraction a naive einsum."""
    ginv = np.linalg.inv(g)
    # Gamma^i_jk = 1/2 g^{il} (d_k g_lj + d_j g_lk - d_l g_jk), dg[a, b, c] = d_c g_ab
    gam = 0.5 * (np.einsum('...il,...ljk->...ijk', ginv, dg)
                 + np.einsum('...il,...lkj->...ijk', ginv, dg)
                 - np.einsum('...il,...jkl->...ijk', ginv, dg))
    # d2g[a, b, c, d] = d_c d_d g_ab
    bracket = 0.5 * (np.einsum('...ikjl->...ijkl', d2g)
                     + np.einsum('...jlik->...ijkl', d2g)
                     - np.einsum('...jkil->...ijkl', d2g)
                     - np.einsum('...iljk->...ijkl', d2g))
    quad = (np.einsum('...mn,...mjk,...nil->...ijkl', g, gam, gam)
            - np.einsum('...mn,...mjl,...nik->...ijkl', g, gam, gam))
    return bracket - quad


def _oracle_norm(t, ginv):
    if t.ndim == 3:
        sq = np.einsum('...ij,...kl,...ik,...jl->...', t, t, ginv, ginv)
    else:
        sq = np.einsum('...ijkl,...abcd,...ia,...jb,...kc,...ld->...',
                       t, t, ginv, ginv, ginv, ginv)
    return np.sqrt(sq)


def _random_jets(S, n, rng):
    """Per-sample SPD metrics with first and second derivatives of the
    symmetries of metric jets: dg symmetric in (a, b), d2g in (a, b) and (c, d)."""
    g = np.stack([rand_spd(n, rng) for _ in range(S)])
    dg = rng.normal(size=(S, n, n, n))
    dg = dg + np.swapaxes(dg, 1, 2)
    d2g = rng.normal(size=(S, n, n, n, n))
    d2g = d2g + np.swapaxes(d2g, 1, 2)
    d2g = d2g + np.swapaxes(d2g, 3, 4)
    return g, dg, d2g


def _rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def _pair_block(t):
    """The entries t[..., i, j, k, l] with i < j and k < l of stacked n^4
    arrays, as blocks on 2-forms."""
    i, j = np.triu_indices(t.shape[-1], 1)
    return t[..., i, j, :, :][..., i, j]


def _random_blocks(S, n, rng):
    N = n * (n - 1) // 2
    return rng.normal(size=(S, N, N))


@pytest.mark.parametrize("S", [1, 7])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_batched_contractions_match_component_formulas(n, S):
    rng = np.random.default_rng(100 * n + S)
    g, dg, d2g = _random_jets(S, n, rng)
    ginv = np.linalg.inv(g)
    R = CurvatureTensor(riemann_from_jets(g, dg, upper_hessian(d2g), ginv))
    assert _rel_err(R.array, _oracle_riemann(g, dg, d2g)) < 1e-12
    t2 = rng.normal(size=(S, n, n))
    t4 = CurvatureTensor(_random_blocks(S, n, rng))
    assert _rel_err(tensor_norm(t2, ginv), _oracle_norm(t2, ginv)) < 1e-12
    assert _rel_err(tensor_norm(t4, ginv), _oracle_norm(t4.array, ginv)) < 1e-12
    assert _rel_err(pair_trace(ginv, t4.block),
                    np.einsum('...jl,...ijkl->...ik', ginv, t4.array)) < 1e-12
    # one block without a sample axis, and a stack of stacks, one product each
    assert _rel_err(pair_trace(ginv[0], t4.block[0]), pair_trace(ginv, t4.block)[0]) < 1e-14
    stacked = pair_trace(np.stack([ginv, ginv[::-1]]), np.stack([t4.block, t4.block[::-1]]))
    assert np.array_equal(stacked, np.stack([pair_trace(ginv, t4.block),
                                             pair_trace(ginv[::-1], t4.block[::-1])]))


def test_pair_trace_gathers_in_bounded_chunks():
    # an 8^5 grid at n = 5: gathered at once, the 400 terms per sample of
    # block and inverse entries and their products would take 300 MiB; in
    # chunks of COFACTOR_GATHER terms the trace stays near 96 MiB
    rng = np.random.default_rng(6)
    S, n = 8 ** 5, 5
    a = rng.normal(size=(S, n, n))
    ginv = a @ np.swapaxes(a, -1, -2) + np.eye(n)
    t4 = CurvatureTensor(_random_blocks(S, n, rng))
    tracemalloc.start()
    try:
        got = pair_trace(ginv, t4.block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2 ** 20
    every = slice(None, None, 97)
    assert _rel_err(got[every], np.einsum('...jl,...ijkl->...ik', ginv[every],
                                          CurvatureTensor(t4.block[every]).array)) < 1e-12


@pytest.mark.parametrize("S", [1, 7])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_pair_product_of_the_inverse_is_the_inverse(n, S):
    # C_2(g)^-1 = C_2(g^-1), the identity behind the block norm
    g = _random_jets(S, n, np.random.default_rng(200 * n + S))[0]
    ginv = np.linalg.inv(g)
    assert _rel_err(np.linalg.inv(pair_product_from_samples(g)),
                    pair_product_from_samples(ginv)) < 1e-12


def _oracle_kn(a, b):
    """(a ^ b)_ijkl term by term."""
    return (np.einsum('...ik,...jl->...ijkl', a, b) + np.einsum('...jl,...ik->...ijkl', a, b)
            - np.einsum('...il,...jk->...ijkl', a, b) - np.einsum('...jk,...il->...ijkl', a, b))


@pytest.mark.parametrize("S", [1, 7])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_block_kn_product_matches_component_formula(n, S):
    rng = np.random.default_rng(300 * n + S)
    g = _random_jets(S, n, rng)[0]
    a = rng.normal(size=(S, n, n))
    assert _rel_err(CurvatureTensor(kn_product(a, g)).array, _oracle_kn(a, g)) < 1e-12
    assert _rel_err(CurvatureTensor(pair_product_from_samples(g)).array,
                    0.5 * _oracle_kn(g, g)) < 1e-12


@pytest.mark.parametrize("S", [1, 7])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_array_view_round_trip(n, S):
    # the block survives its n^4 view bit for bit, and a curvature tensor's
    # components survive their block to roundoff
    rng = np.random.default_rng(400 * n + S)
    B = _random_blocks(S, n, rng)
    view = CurvatureTensor(B).array
    assert view.shape == (S,) + (n,) * 4
    assert np.array_equal(_pair_block(view), B)
    oracle = _oracle_riemann(*_random_jets(S, n, rng))
    assert _rel_err(CurvatureTensor(_pair_block(oracle)).array, oracle) < 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_array_view_pair_symmetries_are_exact(n):
    # the view's antisymmetry is exact: R_iikl = R_ijkk = 0 and
    # R_ijkl = -R_jikl = -R_ijlk with no roundoff
    fld, _ = torus_field(n, points=8, amplitude=0.1)
    R = riemann(fld).array
    assert np.abs(R).max() > 1e-3
    diag = np.arange(n)
    assert np.all(R[:, diag, diag] == 0.0)
    assert np.all(R[:, :, :, diag, diag] == 0.0)
    assert np.array_equal(R, -np.swapaxes(R, 1, 2))
    assert np.array_equal(R, -np.swapaxes(R, 3, 4))


def _einsum_christoffel(g, dg, ginv):
    """christoffel_from_jets with its axes moved by np.moveaxis (the oracle)."""
    term = dg + np.swapaxes(dg, -2, -1) - np.moveaxis(dg, -1, -3)
    n = g.shape[-1]
    return 0.5 * (ginv @ term.reshape(term.shape[:-2] + (n * n,))).reshape(term.shape)


def _einsum_riemann(g, dg, d2g, ginv):
    """riemann_from_jets with its axes moved by einsum and np.moveaxis (the
    oracle)."""
    gam = _einsum_christoffel(g, dg, ginv)
    riem = 0.5 * (np.einsum('...ikjl->...ijkl', d2g) + np.einsum('...jlik->...ijkl', d2g)
                  - np.einsum('...jkil->...ijkl', d2g) - np.einsum('...iljk->...ijkl', d2g))
    n = g.shape[-1]
    lead = gam.shape[:-3]
    gam_m = gam.reshape(lead + (n, n * n))
    low = 0.5 * (dg + np.swapaxes(dg, -2, -1) - np.moveaxis(dg, -1, -3))
    M = (np.swapaxes(gam_m, -1, -2) @ low.reshape(lead + (n, n * n))).reshape(lead + (n,) * 4)
    first = np.moveaxis(M, -2, -4)
    riem -= first
    riem += np.swapaxes(first, -1, -2)
    return riem


@pytest.mark.parametrize("lead", [(), (1,), (512,), (2, 5)])
@pytest.mark.parametrize("n", [3, 4])
def test_kernel_axis_permutations_match_einsum_bitwise(n, lead):
    # the kernels permute axes with transpose views and gather the block for
    # any leading shape; the arithmetic is the einsum oracle's, so the block
    # equals the oracle's pair entries bit for bit
    rng = np.random.default_rng(10 * n + len(lead))
    S = int(np.prod(lead))
    g, dg, d2g = (a.reshape(lead + a.shape[1:]) for a in _random_jets(S, n, rng))
    ginv = np.linalg.inv(g)
    assert np.array_equal(christoffel_from_jets(g, dg, ginv), _einsum_christoffel(g, dg, ginv))
    assert np.array_equal(riemann_from_jets(g, dg, upper_hessian(d2g), ginv),
                          _pair_block(_einsum_riemann(g, dg, d2g, ginv)))


def _pull_back(t, P):
    """T'_{i...} = P^a_i ... T_{a...}: the components of T in the frame P."""
    if t.ndim == 3:
        return np.einsum('sai,sbj,sab->sij', P, P, t)
    return np.einsum('sai,sbj,sck,sdl,sabcd->sijkl', P, P, P, P, t)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(frames())
def test_tensor_norm_frame_invariant(case):
    # a drawn 4-tensor enters through its pair block, and is pulled back as
    # the n^4 view of that block
    g, P, t = case
    g_new = np.swapaxes(P, -1, -2) @ g @ P
    if t.ndim == 5:
        t = CurvatureTensor(_pair_block(t)).array
        before = tensor_norm(CurvatureTensor(_pair_block(t)), np.linalg.inv(g))
        after = tensor_norm(CurvatureTensor(_pair_block(_pull_back(t, P))),
                            np.linalg.inv(g_new))
    else:
        before = tensor_norm(t, np.linalg.inv(g))
        after = tensor_norm(_pull_back(t, P), np.linalg.inv(g_new))
    assert np.allclose(after, before, rtol=1e-11, atol=1e-13)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(frames(ranks=(2,), min_n=3))
def test_solve_pair_trace_inverts_kn_product(case):
    g, _, a = case
    v = a + np.swapaxes(a, -1, -2)
    back = solve_pair_trace(g, np.linalg.inv(g), kn_product(v, g))
    assert np.abs(back - v).max() <= 1e-12 * max(np.abs(v).max(), 1.0)


@st.composite
def _metric_jets(draw):
    """Three samples of SPD metrics from :func:`frames` with drawn first and
    second derivatives of the symmetries of metric jets."""
    g = draw(frames(ranks=(2,)))[0]
    n = g.shape[-1]
    dg = draw(arrays(float, (3, n, n, n), elements=unit_floats))
    d2g = draw(arrays(float, (3, n, n, n, n), elements=unit_floats))
    dg = dg + np.swapaxes(dg, 1, 2)
    d2g = d2g + np.swapaxes(d2g, 1, 2)
    return g, dg, d2g + np.swapaxes(d2g, 3, 4)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_metric_jets())
def test_riemann_first_bianchi_identity(jets):
    g, dg, d2g = jets
    R = CurvatureTensor(riemann_from_jets(g, dg, upper_hessian(d2g), np.linalg.inv(g))).array
    cyclic = R + np.transpose(R, (0, 1, 3, 4, 2)) + np.transpose(R, (0, 1, 4, 2, 3))
    assert np.abs(cyclic).max() <= 1e-12 * max(np.abs(R).max(), 1.0)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_metric_jets(), st.data())
def test_packed_roundtrips(jets, data):
    # a curvature tensor survives packing, and packed components survive
    # unpacking exactly
    g, dg, d2g = jets
    n = g.shape[-1]
    R = CurvatureTensor(riemann_from_jets(g, dg, upper_hessian(d2g), np.linalg.inv(g)))
    back = CurvatureTensor.from_packed(R.packed(), n).array
    assert np.abs(back - R.array).max() <= 1e-12 * max(np.abs(R.array).max(), 1.0)
    packed = data.draw(arrays(float, (3, CurvatureTensor.independent_component_count(n)),
                              elements=unit_floats))
    assert np.array_equal(CurvatureTensor.from_packed(packed, n).packed(), packed)
