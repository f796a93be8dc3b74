"""Pair products of symmetric 2-tensors and metric recovery.

The central object is the product metric on 2-forms,

    G_ijkl = g_ik g_jl - g_il g_jk,

which shares all algebraic curvature symmetries.  For ``n >= 3`` it
determines ``g`` up to overall sign.  ``G`` is the second compound
``C_2(g)`` on 2-forms (the bialternate product of bifurcation numerics;
Govaerts 2000), stored like the curvature as an N x N block over the pairs
i < j: its entry ((i, j), (k, l)) is the 2 x 2 minor of ``g`` on rows
(i, j) and columns (k, l).  The signed minors of a principal 3 x 3 block of
``g`` are therefore its cofactor matrix, and :func:`recover_metric` reads
them from the block and takes the positive-definite root in closed form,
with no iteration: the first row of ``g`` from the cofactor matrices of the
blocks (0, 1, c), the rest from the Schur identity ``g_00 g_ij - g_0i g_0j
= G_0i0j``.  For ``n = 2`` only ``det g`` survives, so recovery is refused.
"""

from functools import lru_cache

import numpy as np

from .charts import MetricField
from .curvature import (
    CurvatureTensor,
    _dimension_of,
    _pairs,
    kn_product,
    pair_count,
    pair_product_from_samples,
)
from .errors import DimensionTooSmall, NotInImage

RESIDUAL_TOLERANCE = 1e-10  # max |G(g) - G| / max |G| per sample accepted by recover_metric
COFACTOR_SIGN = (-1.0) ** np.add.outer(np.arange(3), np.arange(3))  # (-1)^(p+q)
IDENTITY_SAMPLES = 10000  # random index tuples of verify_recovery_identity for n > 4


def bialternate_product(g):
    """G = g (.) g with G_ijkl = g_ik g_jl - g_il g_jk, the block C_2(g).

    Accepts a :class:`MetricField`, stacked samples ``(S, n, n)`` or a single
    matrix ``(n, n)``; returns a :class:`CurvatureTensor` over samples.
    """
    g = _as_samples(g)
    return CurvatureTensor(pair_product_from_samples(g))


def kulkarni_nomizu(a, b):
    """(a ^ b)_ijkl = a_ik b_jl + a_jl b_ik - a_il b_jk - a_jk b_il.

    Returns the n^4 components, the view of :func:`~riemflow.curvature.kn_product`'s
    block.  ``(g ^ g) = 2 * bialternate_product(g)``.
    """
    return CurvatureTensor(kn_product(_as_samples(a), _as_samples(b))).array


def _as_samples(g):
    if isinstance(g, MetricField):
        return g.samples
    g = np.asarray(g, dtype=float)
    if g.ndim == 2:
        return g[None, :, :]
    return g


@lru_cache(maxsize=None)
def _pivot_blocks(n):
    """Block rows and columns of ``G`` holding the minors that make up the
    cofactor matrices of the principal 3 x 3 blocks T = (0, 1, c),
    c = 2 .. n-1, of ``g``: entry (p, q) of block ``c - 2`` is the minor that
    drops row ``T_p`` and column ``T_q``, taken with the sign
    ``COFACTOR_SIGN[p, q]``.  Shape (2, n-2, 3, 3).
    """
    number, _ = _pairs(n)
    # the pairs of T left when row p is dropped: (1, c), (0, c), (0, 1)
    kept = number[[1, 0, 0], np.array([[c, c, 1] for c in range(2, n)], dtype=int)]
    index = np.array(np.broadcast_arrays(kept[:, :, None], kept[:, None, :]))
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
        Target pair products as blocks on 2-forms, shape ``lead + (N, N)``
        with N = n(n-1)/2.
    n : int, optional
        Dimension; inferred from ``G`` when omitted.  Must be >= 3.

    Returns
    -------
    ndarray
        The SPD metrics, shape ``lead + (n, n)``; ``G_0i0j`` is read for
        i <= j, so they are exactly symmetric.

    Raises
    ------
    ValueError
        When ``G`` is not a block of dimension ``n``.
    DimensionTooSmall
        For ``n = 2``: only ``det g`` is visible in ``G``.
    NotInImage
        When ``C_T`` of T = (0, 1, 2) or the recovered metric is not positive
        definite (the residual is then reported as infinite), or when the pair
        product of the recovered metric misses ``G`` by more than
        ``RESIDUAL_TOLERANCE`` of ``max |G|`` in some sample.
    """
    if isinstance(G, CurvatureTensor):
        G = G.block
    G = np.asarray(G, dtype=float)
    if n is not None and G.shape[-2:] != (pair_count(n),) * 2:
        raise ValueError(f"a {G.shape[-2:]} block is no pair product in dimension {n}")
    n = _dimension_of(G.shape[-1])
    if n < 3:
        raise DimensionTooSmall("recovery needs n >= 3; n = 2 only determines det g")
    rows, cols = _pivot_blocks(n)
    C = COFACTOR_SIGN * G[..., rows, cols]                # (..., n-2, 3, 3)
    # G_0i0j: the entry of the pairs (0, i) and (0, j), the first n - 1 pairs
    A = np.pad(G[..., :n - 1, :n - 1], [(0, 0)] * (G.ndim - 2) + [(1, 0), (1, 0)])
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
    axes = (-2, -1)
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
        G = bialternate_product(g).array[0]
    elif isinstance(G, CurvatureTensor):
        G = G.array[0]

    if n <= 4:
        m, i, j, nn, k, l, r, s = np.indices((n,) * 8).reshape(8, -1)
    else:
        gen = rng if rng is not None else np.random.default_rng(0)
        m, i, j, nn, k, l, r, s = gen.integers(0, n, size=(IDENTITY_SAMPLES, 8)).T
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
