import numpy as np
import pytest
from hypothesis import given, settings

from conftest import SPHERE_FACTOR, conditioned_metrics, rand_spd, sphere_field
from riemflow.bialternate import (
    bialternate_product,
    kulkarni_nomizu,
    recover_metric,
    verify_recovery_identity,
)
from riemflow.curvature import ricci_and_scalar, riemann
from riemflow.errors import DimensionTooSmall, NotInImage


def test_two_dimensional_components(rng):
    g = rand_spd(2, rng)
    G = bialternate_product(g).array[0]
    det = np.linalg.det(g)
    assert abs(G[0, 1, 0, 1] - det) < 1e-14
    assert abs(G[0, 1, 1, 0] + det) < 1e-14
    assert abs(G[1, 0, 0, 1] + det) < 1e-14
    assert abs(G[1, 0, 1, 0] - det) < 1e-14


def test_identity_metric_components():
    G = bialternate_product(np.eye(3)).array[0]
    expected = (np.einsum('ik,jl->ijkl', np.eye(3), np.eye(3))
                - np.einsum('il,jk->ijkl', np.eye(3), np.eye(3)))
    assert np.array_equal(G, expected)


def test_bilinearity(rng):
    g = rand_spd(3, rng)
    c = 1.7
    G1 = bialternate_product(g).array
    G2 = bialternate_product(c * g).array
    assert np.abs(G2 - c * c * G1).max() < 1e-12


def test_curvature_symmetries_exact(rng):
    G = bialternate_product(rand_spd(4, rng)).array
    assert np.array_equal(G, -np.swapaxes(G, 1, 2))
    assert np.array_equal(G, -np.swapaxes(G, 3, 4))
    assert np.array_equal(G, np.transpose(G, (0, 3, 4, 1, 2)))


def test_kulkarni_nomizu_against_pair_product(rng):
    g = rand_spd(3, rng)
    assert np.abs(kulkarni_nomizu(g, g) - 2.0 * bialternate_product(g).array).max() < 1e-13


def test_kulkarni_nomizu_identity_matrices():
    out = kulkarni_nomizu(np.eye(3), np.eye(3))[0]
    expected = 2.0 * (np.einsum('ik,jl->ijkl', np.eye(3), np.eye(3))
                      - np.einsum('il,jk->ijkl', np.eye(3), np.eye(3)))
    assert np.array_equal(out, expected)


def test_kulkarni_nomizu_sphere_ricci():
    # on the unit 3-sphere chart Ric = 2 kappa g, so (Ric ^ g) = 4 kappa G
    fld, _ = sphere_field(3)
    ric, _ = ricci_and_scalar(fld, riemann(fld))
    G = bialternate_product(fld.samples).array
    out = kulkarni_nomizu(ric, fld.samples)
    assert np.abs(out - 4.0 * SPHERE_FACTOR * G).max() < 1e-6


def test_cauchy_schwarz_positivity(rng):
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        g = rand_spd(n, rng)
        G = bialternate_product(g).array[0]
        X = rng.normal(size=n)
        Y = rng.normal(size=n)
        q = np.einsum('ijkl,i,j,k,l->', G, X, Y, X, Y)
        gxx = X @ g @ X
        gyy = Y @ g @ Y
        gxy = X @ g @ Y
        assert q >= -1e-12 * gxx * gyy
        assert abs(q - (gxx * gyy - gxy ** 2)) < 1e-10 * max(gxx * gyy, 1.0)
        # parallel directions annihilate the quadratic form
        qpar = np.einsum('ijkl,i,j,k,l->', G, X, 2.5 * X, X, 2.5 * X)
        assert abs(qpar) < 1e-12 * max((gxx * 2.5) ** 2, 1.0)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_recover_roundtrip(n, rng):
    worst = 0.0
    for _ in range(10):
        g = rand_spd(n, rng)
        rec = recover_metric(bialternate_product(g), n)
        worst = max(worst, float(np.abs(rec - g).max()))
    assert worst < 1e-10


def test_recover_identity_metric():
    rec = recover_metric(bialternate_product(np.eye(3)), 3)
    assert np.abs(rec - np.eye(3)).max() < 1e-12


def test_recover_homogeneity(rng):
    g = rand_spd(3, rng)
    c = 1.9
    G = bialternate_product(g).block[0]
    rec = recover_metric(c * c * G, 3)
    assert np.abs(rec - c * g).max() < 1e-9


def test_recover_rejects_dimension_two(rng):
    g = rand_spd(2, rng)
    with pytest.raises(DimensionTooSmall):
        recover_metric(bialternate_product(g), 2)


def test_recover_not_in_image(rng):
    g = rand_spd(3, rng)
    G = bialternate_product(g).block[0].copy()
    # G_0102 != G_0201: no pair product is an asymmetric block (in n = 3 every
    # SPD block is the pair product of some metric)
    G[0, 1] *= 1.5
    with pytest.raises(NotInImage):
        recover_metric(G, 3)


def test_recover_refusals(rng):
    # broken pair symmetry, an indefinite metric (n = 3, and n = 4 with every
    # principal 3 x 3 block definite) and zero are not pair products of an
    # SPD metric
    G = bialternate_product(rand_spd(4, rng)).block[0].copy()
    G[0, 1] += 1e-6  # G_0102
    indefinite = np.eye(4) - 0.3          # eigenvalues 1, 1, 1, -0.2
    assert np.all(np.linalg.eigvalsh(indefinite[:3, :3]) > 0)
    for bad in (G, bialternate_product(np.diag([1.0, 1.0, -1.0])).block[0],
                bialternate_product(indefinite).block[0], np.zeros((3, 3))):
        with pytest.raises(NotInImage):
            recover_metric(bad)
    with pytest.raises(ValueError, match="dimension 4"):
        recover_metric(bialternate_product(rand_spd(3, rng)), 4)   # a 3 x 3 block is n = 3


def test_recover_negative_definite_gives_spd_root(rng):
    g = rand_spd(4, rng)
    rec = recover_metric(bialternate_product(-g), 4)
    assert np.abs(rec - g).max() < 1e-12 * np.abs(g).max()


def test_recover_near_degenerate_block():
    # a damped iteration from a diagonal start refused this metric
    g = np.array([[1.0, 0.99, 0.0], [0.99, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.abs(recover_metric(bialternate_product(g)) - g).max() < 1e-12


def _conditioned(n, cond, rng):
    """A metric Q diag(lam) Q^T with lam_min = 1, lam_max = cond and the
    others log-uniform between them."""
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = cond ** rng.uniform(0.0, 1.0, n)
    lam[:2] = 1.0, cond
    g = (Q * lam) @ Q.T
    return 0.5 * (g + g.T)


def test_recover_ill_conditioned_batch():
    # no refusal up to condition number 1e4.  With an exact pair product
    # (integer entries, 1000 times the metric rounded) the error is the
    # recovery's own and stays below 1e-10.  A rounded pair product fixes
    # its metric only to about eps cond^2 / (lam_1 lam_2) of max |g| (the
    # exact recovery of it misses g by 4.2e-10 at worst for n = 3,
    # cond = 1e4), so there the error is held to 10 eps cond^2
    rng = np.random.default_rng(9)
    eps = np.finfo(float).eps
    for n in (3, 4, 5):
        for cond in (10.0, 1e2, 1e3, 1e4):
            for _ in range(25):
                g = _conditioned(n, cond, rng)
                rec = recover_metric(bialternate_product(g))
                assert np.abs(rec - g).max() <= 10 * eps * cond ** 2 * np.abs(g).max()
                exact = np.round(1e3 * g)
                rec = recover_metric(bialternate_product(exact))
                assert np.abs(rec - exact).max() <= 1e-10 * np.abs(exact).max()


def test_recover_stacked_equals_per_sample(rng):
    for n in (3, 4, 5):
        g = np.stack([rand_spd(n, rng) for _ in range(6)])
        G = bialternate_product(g).block
        rec = recover_metric(G)
        assert rec.shape == (6, n, n)
        assert all(np.array_equal(rec[s], recover_metric(G[s])) for s in range(6))
        assert np.array_equal(recover_metric(G.reshape((2, 3) + G.shape[1:])),
                              rec.reshape(2, 3, n, n))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(conditioned_metrics())
def test_recover_roundtrip_property(g):
    rec = recover_metric(bialternate_product(g))
    assert np.abs(rec - g).max() <= 1e-10 * np.abs(g).max()


def test_recovery_identity_random(rng):
    for n in (3, 4):
        for _ in range(5):
            g = rand_spd(n, rng)
            assert verify_recovery_identity(g) < 1e-12


def test_recovery_identity_examples(rng):
    assert verify_recovery_identity(np.eye(3)) < 1e-15
    assert verify_recovery_identity(np.diag([1.0, 2.0, 3.0])) < 1e-12
    # subsampled check above n = 4
    g = rand_spd(5, rng)
    assert verify_recovery_identity(g, rng=rng) < 1e-12
