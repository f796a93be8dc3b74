"""Pair products of symmetric 2-tensors and metric recovery.

The central object is the product metric on 2-forms,

    G_ijkl = g_ik g_jl - g_il g_jk,

which shares all algebraic curvature symmetries.  For ``n >= 3`` it
determines ``g`` up to overall sign.  ``G`` is the second compound of
``g``: ``G_ijkl`` is the 2 x 2 minor of ``g`` on rows (i, j) and columns
(k, l).  The signed minors of a principal 3 x 3 block of ``g`` are therefore
its cofactor matrix, and :func:`recover_metric` takes the positive-definite
root in closed form, with no iteration: the first row of ``g`` from the
cofactor matrices of the blocks (0, 1, c), the rest from the Schur identity
``g_00 g_ij - g_0i g_0j = G_0i0j``.  For ``n = 2`` only ``det g`` survives,
so recovery is refused.
"""

from functools import lru_cache

import numpy as np

from .charts import MetricField
from .curvature import CurvatureTensor, kn_product, pair_product_from_samples
from .errors import DimensionTooSmall, NotInImage

RESIDUAL_TOLERANCE = 1e-10  # max |G(g) - G| / max |G| per sample accepted by recover_metric
COFACTOR_SIGN = (-1.0) ** np.add.outer(np.arange(3), np.arange(3))  # (-1)^(p+q)
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


@lru_cache(maxsize=None)
def _pivot_blocks(n):
    """Indices into ``G`` of the minors that make up the cofactor matrices of
    the principal 3 x 3 blocks T = (0, 1, c), c = 2 .. n-1, of ``g``: entry
    (p, q) of block ``c - 2`` is the minor that drops row ``T_p`` and column
    ``T_q``, taken with the sign ``COFACTOR_SIGN[p, q]``.  Shape (4, n-2, 3, 3).
    """
    index = np.empty((4, n - 2, 3, 3), dtype=int)
    for c in range(2, n):
        kept = [(1, c), (0, c), (0, 1)]     # rows of T left when row p is dropped
        for p in range(3):
            for q in range(3):
                index[:, c - 2, p, q] = kept[p] + kept[q]
    index.flags.writeable = False
    return index


def recover_metric(G, n=None):
    """Recover the SPD metrics whose pair products are ``G``, in closed form.

    ``G_ijkl`` is the 2 x 2 minor of ``g`` on rows (i, j) and columns
    (k, l), so the signed minors of a principal 3 x 3 block ``g_T`` form its
    cofactor matrix ``C_T = det(g_T) g_T^-1`` (Horn & Johnson, *Matrix
    Analysis*, 0.8).  The blocks T = (0, 1, c) give the ratios ``h_j =
    g_0j / g_00`` of the first row, which is ``C_T^-1``'s first row over its
    first entry, and T = (0, 1, 2) gives ``g_00 = sqrt(det C_T) (C_T^-1)_00``,
    the positive-definite root since ``det C_T = det(g_T)^2``.  The Schur
    identity ``g_00 g_ij - g_0i g_0j = G_0i0j`` then gives every entry:

        g = G_0.0. / g_00 + g_00 h h^T.

    Every entry then shares one scale and one first row.  Reading each entry
    from its own block instead mixes the blocks' independent roundoff: at
    condition number 1e4 the result then misses a rounded ``G`` by up to
    8e-8 of ``max |G|`` and is refused.

    Parameters
    ----------
    G : array_like or CurvatureTensor
        Target tensors, shape ``lead + (n, n, n, n)``.
    n : int, optional
        Dimension; inferred from ``G`` when omitted.  Must be >= 3.

    Returns
    -------
    ndarray
        The SPD metrics, shape ``lead + (n, n)``; ``G_0i0j`` is read for
        i <= j, so they are exactly symmetric.

    Raises
    ------
    DimensionTooSmall
        For ``n = 2``: only ``det g`` is visible in ``G``.
    NotInImage
        When ``C_T`` of T = (0, 1, 2) or the recovered metric is not positive
        definite (the residual is then reported as infinite), or when the pair
        product of the recovered metric misses ``G`` by more than
        ``RESIDUAL_TOLERANCE`` of ``max |G|`` in some sample.
    """
    if isinstance(G, CurvatureTensor):
        G = G.array
    G = np.asarray(G, dtype=float)
    if n is None:
        n = G.shape[-1]
    if n < 3:
        raise DimensionTooSmall("recovery needs n >= 3; n = 2 only determines det g")
    i, j, k, l = _pivot_blocks(n)
    C = COFACTOR_SIGN * G[..., i, j, k, l]                # (..., n-2, 3, 3)
    A = G[..., 0, :, 0, :]
    A = np.triu(A) + np.swapaxes(np.triu(A, 1), -1, -2)   # G_0i0j read for i <= j
    try:
        root = np.prod(np.diagonal(np.linalg.cholesky(C[..., 0, :, :]), axis1=-2, axis2=-1),
                       axis=-1)
        X = np.linalg.inv(C)
        g00 = (root * X[..., 0, 0, 0])[..., None, None]
        ratios = X[..., 0, :] / X[..., 0, :1]             # (1, h_1, h_c) per block
        h = np.concatenate([ratios[..., 0, :], ratios[..., 1:, 2]], axis=-1)
        g = A / g00 + g00 * h[..., :, None] * h[..., None, :]
        # definite blocks do not make g definite when n >= 4
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise NotInImage(np.inf, RESIDUAL_TOLERANCE) from None
    axes = (-4, -3, -2, -1)
    residual = (np.abs(pair_product_from_samples(g) - G).max(axis=axes)
                / np.abs(G).max(axis=axes))
    worst = float(np.max(residual))
    if not worst <= RESIDUAL_TOLERANCE:
        raise NotInImage(worst, RESIDUAL_TOLERANCE)
    return g


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
