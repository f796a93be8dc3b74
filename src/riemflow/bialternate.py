"""Pair products of symmetric 2-tensors and metric recovery.

The central object is the product metric on 2-forms,

    G_ijkl = g_ik g_jl - g_il g_jk,

which shares all algebraic curvature symmetries.  For ``n >= 3`` it
determines ``g`` up to overall sign; :func:`recover_metric` returns the
positive-definite root via a damped Gauss-Newton iteration.  For ``n = 2``
only ``det g`` survives, so recovery is refused.
"""

import numpy as np

from .charts import MetricField
from .curvature import CurvatureTensor, kn_product, pair_product_from_samples
from .errors import DimensionTooSmall, NotInImage

MAX_ITERATIONS = 50      # Gauss-Newton iterations of recover_metric
IDENTITY_SAMPLES = 10000  # random index tuples of verify_recovery_identity for n > 4


def bialternate_product(g):
    """G = g (.) g with G_ijkl = g_ik g_jl - g_il g_jk.

    Accepts a :class:`MetricField`, stacked samples ``(S, n, n)`` or a single
    matrix ``(n, n)``; returns a :class:`CurvatureTensor` over samples.
    """
    g = _as_samples(g)
    return CurvatureTensor(pair_product_from_samples(g))


def kulkarni_nomizu(a, b):
    """(a ^ b)_ijkl = a_ik b_jl + a_jl b_ik - a_il b_jk - a_jk b_il.

    ``(g ^ g) = 2 * bialternate_product(g)``.
    """
    a = _as_samples(a)
    b = _as_samples(b)
    return kn_product(a, b)


def _as_samples(g):
    if isinstance(g, MetricField):
        return g.samples
    g = np.asarray(g, dtype=float)
    if g.ndim == 2:
        return g[None, :, :]
    return g


def _sym_basis(n):
    basis = []
    for i in range(n):
        for j in range(i, n):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            e[j, i] = 1.0
            basis.append(e)
    return np.array(basis)


def recover_metric(G, n=None, tolerance=1e-10):
    """Recover the SPD metric whose pair product is ``G``.

    Parameters
    ----------
    G : array_like or CurvatureTensor
        Target tensor, shape ``(n, n, n, n)`` (a single sample).
    n : int, optional
        Dimension; inferred from ``G`` when omitted.  Must be >= 3.
    tolerance : float
        Relative max-norm residual accepted for the recovered metric, within
        ``MAX_ITERATIONS`` Gauss-Newton iterations.

    Returns
    -------
    ndarray
        The SPD metric, shape ``(n, n)``.

    Raises
    ------
    DimensionTooSmall
        For ``n = 2``: only ``det g`` is visible in ``G``.
    NotInImage
        When the iteration cannot drive the residual below tolerance or the
        recovered root is not definite.
    """
    if isinstance(G, CurvatureTensor):
        G = G.array
    G = np.asarray(G, dtype=float)
    if G.ndim == 5:
        if G.shape[0] != 1:
            raise ValueError("recover_metric takes a single sample")
        G = G[0]
    if n is None:
        n = G.shape[-1]
    if n < 3:
        raise DimensionTooSmall("recovery needs n >= 3; n = 2 only determines det g")
    scale = np.abs(G).max()
    if scale == 0.0:
        raise NotInImage(np.inf, tolerance)

    # diagonal initialisation: G_ijij ~ g_ii g_jj for a near-diagonal metric,
    # solved in log space (needs n >= 3, which is exactly the solvable regime)
    rows = []
    rhs = []
    for i in range(n):
        for j in range(i + 1, n):
            p = G[i, j, i, j]
            if p <= 0:
                p = scale * 1e-3
            row = np.zeros(n)
            row[i] = 1.0
            row[j] = 1.0
            rows.append(row)
            rhs.append(np.log(p))
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    g = np.diag(np.exp(sol))

    basis = _sym_basis(n)
    target = G.reshape(-1)

    def residual(gm):
        return (pair_product_from_samples(gm[None])[0].reshape(-1) - target)

    r = residual(g)
    best = np.abs(r).max()
    for _ in range(MAX_ITERATIONS):
        if best <= tolerance * scale * 0.01:
            break
        # dF(g)[e] = (e ^ g), assembled column by column
        J = np.stack([kn_product(e[None], g[None])[0].reshape(-1) for e in basis], axis=1)
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        damping = 1.0
        for _ in range(30):
            cand = g + damping * np.einsum('b,bij->ij', step, basis)
            rc = residual(cand)
            if np.abs(rc).max() < best:
                g, r, best = cand, rc, np.abs(rc).max()
                break
            damping *= 0.5
        else:
            break

    if best > tolerance * scale:
        raise NotInImage(best / scale, tolerance)
    eigs = np.linalg.eigvalsh(g)
    if eigs[0] > 0:
        return g
    if eigs[-1] < 0:
        return -g
    raise NotInImage(best / scale, tolerance)


def verify_recovery_identity(g, G=None, rng=None):
    """Max residual of the degree-8 identity tying ``g`` to its pair product.

    Evaluates, over index tuples ``(m, i, j, n, k, l, r, s)``,

        2 g_ij (g_ks G_mlnr + g_kn G_lmsr + g_kr G_mlsn)
          - [ G_mijn G_klrs + G_mijs G_klnr + G_mijr G_klsn
              - G_lijn G_kmrs - G_lijs G_kmnr - G_lijr G_kmsn
              - G_mljs G_kirn - G_mljr G_kins - G_mljn G_kisr ]

    and returns the maximum absolute value.  All tuples are enumerated for
    ``n <= 4``; larger dimensions use ``IDENTITY_SAMPLES`` random tuples.
    """
    g = _as_samples(g)
    if g.shape[0] != 1:
        raise ValueError("identity check takes a single metric sample")
    g = g[0]
    n = g.shape[-1]
    if G is None:
        G = pair_product_from_samples(g[None])[0]
    elif isinstance(G, CurvatureTensor):
        G = G.array[0]

    if n <= 4:
        lhs = (2 * np.einsum('ij,ks,mlnr->mijnklrs', g, g, G)
               + 2 * np.einsum('ij,kn,lmsr->mijnklrs', g, g, G)
               + 2 * np.einsum('ij,kr,mlsn->mijnklrs', g, g, G))
        rhs = (np.einsum('mijn,klrs->mijnklrs', G, G)
               + np.einsum('mijs,klnr->mijnklrs', G, G)
               + np.einsum('mijr,klsn->mijnklrs', G, G)
               - np.einsum('lijn,kmrs->mijnklrs', G, G)
               - np.einsum('lijs,kmnr->mijnklrs', G, G)
               - np.einsum('lijr,kmsn->mijnklrs', G, G)
               - np.einsum('mljs,kirn->mijnklrs', G, G)
               - np.einsum('mljr,kins->mijnklrs', G, G)
               - np.einsum('mljn,kisr->mijnklrs', G, G))
        return float(np.abs(lhs - rhs).max())

    gen = rng if rng is not None else np.random.default_rng(0)
    idx = gen.integers(0, n, size=(IDENTITY_SAMPLES, 8))
    m, i, j, nn, k, l, r, s = (idx[:, c] for c in range(8))
    lhs = 2 * g[i, j] * (g[k, s] * G[m, l, nn, r]
                         + g[k, nn] * G[l, m, s, r]
                         + g[k, r] * G[m, l, s, nn])
    rhs = (G[m, i, j, nn] * G[k, l, r, s]
           + G[m, i, j, s] * G[k, l, nn, r]
           + G[m, i, j, r] * G[k, l, s, nn]
           - G[l, i, j, nn] * G[k, m, r, s]
           - G[l, i, j, s] * G[k, m, nn, r]
           - G[l, i, j, r] * G[k, m, s, nn]
           - G[m, l, j, s] * G[k, i, r, nn]
           - G[m, l, j, r] * G[k, i, nn, s]
           - G[m, l, j, nn] * G[k, i, s, r])
    return float(np.abs(lhs - rhs).max())
