"""Connection and curvature quantities on 2-forms.

An algebraic curvature tensor is antisymmetric in each index pair, so it is
a symmetric matrix on 2-forms (Hamilton's curvature operator, J. Differential
Geom. 24, 1986).  Numbering the N = n(n-1)/2 pairs i < j lexicographically,
:class:`CurvatureTensor` stores the (S, N, N) block ``B[(ij), (kl)] =
R_ijkl``, and every kernel works on it.  The pair product ``G_ijkl = g_ik
g_jl - g_il g_jk`` is the second compound ``C_2(g)`` on the same space.

The block entries are gathered from the component formula

    R_ijkl = 1/2 (d_j d_l g_ik + d_i d_k g_jl - d_i d_l g_jk - d_j d_k g_il)
             - g_mn (Gamma^m_jk Gamma^n_il - Gamma^m_jl Gamma^n_ik),

including its sign convention, through index arrays bound once per n, each
exactly as the full component array computes it.  The kernel reads two
parts linear in the jet (:func:`~riemflow.charts.curvature_parts`): the
Hessian bracket and the lowered Christoffel symbols ``Gamma_{l,jk} = 1/2
(d_k g_lj + d_j g_lk - d_l g_jk)``.  The quadratic term ``g_mn Gamma^m_jk
Gamma^n_il = Gamma^m_jk Gamma_{m,il}`` is one product of the raised symbols
``g^{ml} Gamma_{l,jk}`` with the lowered ones, so the kernel reads the
inverse metric and not g.  It serves both chart kinds: a grid field's parts
come from its stencil jet, and an analytic chart's evolving field carries
them from its frozen frame.  Under this convention the unit sphere has
sectional factor -1 and hyperbolic space +1 (pinned once by a symbolic
differentiation oracle; see ``tools/pin_constants.py`` and the frozen
values in the test suite).  Ricci is the pair trace ``R_ik = g^{jl}
R_ijkl``; the contraction over the first and last slots is its negative.
The pair trace is the one under which the dimension-3 decomposition, the
conformally flat decomposition and the trace-free Weyl tensor all hold.

The products on the block are fixed gathers and batched ``np.matmul``
products: the pair trace sums the (n-1)^2 nonzero terms of each (i, k),
:func:`kn_product` is the bialternate sum ``a (.) b + b (.) a``, and
``|T|^2 = 4 <B, C_2(g^-1) B C_2(g^-1)>`` (:func:`tensor_norm`).  They agree
with the literal component formulas (the test suite's oracle, which reads
the n^4 view :attr:`CurvatureTensor.array`) to roundoff.  The kernels take
the inverse metric, so that a right-hand side inverts its metric once; each
is built once per n and shape of its stacks, with its tables, its gather
(:func:`_gather`) and the form of its product decided then, and the public
functions wrap it.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .charts import (
    COFACTOR_GATHER,
    MetricField,
    _block_index,
    _frozen,
    _unmirrored,
    curvature_parts,
    lowered_christoffel,
    spd_inverse,
)
from .errors import DimensionTooSmall, NonpositiveLame

try:  # the C einsum that np.einsum calls when it does not optimize, without its dispatch
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy older or newer than this layout: the public function
    _einsum = np.einsum


def inverse_metric(field_or_samples):
    """Inverse metric components per sample.

    Accepts a :class:`MetricField`, whose cached :attr:`~MetricField.inverse`
    is returned, or a stacked array ``(..., n, n)``.  Raises
    :class:`NotPositiveDefinite` when the metric is not positive definite
    (one cofactor pass checks and inverts, :func:`~riemflow.charts.spd_inverse`).
    """
    if isinstance(field_or_samples, MetricField):
        return field_or_samples.inverse
    return spd_inverse(np.asarray(field_or_samples, dtype=float))


def pair_count(n):
    """N = n(n-1)/2, the dimension of 2-forms."""
    return n * (n - 1) // 2


def _dimension_of(N):
    """The ``n`` with n(n-1)/2 = N."""
    return int(round((1.0 + math.sqrt(1.0 + 8.0 * N)) / 2.0))


@lru_cache(maxsize=None)
def _pairs(n):
    """(number, sign), (n, n) each: the block row of the pair {i, j}, and +1
    for i < j, -1 for i > j and 0 for i = j."""
    i, j = np.triu_indices(n, 1)
    number, sign = np.zeros((2, n, n), dtype=int)
    number[i, j] = number[j, i] = np.arange(len(i))
    sign[i, j], sign[j, i] = 1, -1
    return _frozen(number, sign)


@lru_cache(maxsize=None)
def _component_index(n):
    """Index of each R_ijkl, row-major over (n, n, n, n), into the flat
    ``[B, -B, 0]``: its signed block entry, or the zero when i = j or k = l."""
    number, sign = _pairs(n)
    N2 = pair_count(n) ** 2
    entry = np.add.outer(number * pair_count(n), number).ravel()
    s = np.multiply.outer(sign, sign).ravel()
    return _frozen(np.where(s == 0, 2 * N2, entry + N2 * (s < 0)))[0]


@lru_cache(maxsize=None)
def _packed_layout(n):
    """Flat indices of the independent block entries, the upper triangle less
    the (ad, bc) of each {a<b<c<d}, and (ad_bc, bc_ad, ac_bd, ab_cd) of those
    dropped, which the first Bianchi identity gives as ac_bd - ab_cd."""
    number, _ = _pairs(n)
    N = pair_count(n)
    a, b, c, d = np.array(list(combinations(range(n), 4)), dtype=int).reshape(-1, 4).T
    bianchi = np.array([number[a, d] * N + number[b, c], number[b, c] * N + number[a, d],
                        number[a, c] * N + number[b, d], number[a, b] * N + number[c, d]])
    P, Q = np.triu_indices(N)
    return _frozen(np.setdiff1d(P * N + Q, bianchi[0]), bianchi)


@dataclass
class ConnectionField:
    """Christoffel symbols ``gamma[..., a, j, k] = Gamma^a_jk`` per sample."""

    array: np.ndarray

    @property
    def dimension(self):
        return self.array.shape[-1]


@dataclass
class CurvatureTensor:
    """Curvature per sample as its block on 2-forms, shape (S, N, N):
    ``block[s, P, Q] = R_ijkl`` for the pairs P = (i<j) and Q = (k<l).

    :attr:`array` is the n^4 view; :meth:`packed` gives the independent
    components, which the first Bianchi identity completes.
    """

    block: np.ndarray

    @property
    def dimension(self):
        return _dimension_of(self.block.shape[-1])

    @property
    def sample_count(self):
        return self.block.shape[0]

    @property
    def array(self):
        """The components R_ijkl, (S, n, n, n, n), built on each access as a
        signed gather of the block: exactly antisymmetric in each pair."""
        n, lead = self.dimension, self.block.shape[:-2]
        flat = self.block.reshape(lead + (-1,))
        signed = np.concatenate([flat, -flat, np.zeros(lead + (1,))], axis=-1)
        return signed[..., _component_index(n)].reshape(lead + (n,) * 4)

    @staticmethod
    def independent_component_count(n):
        return n * n * (n * n - 1) // 12

    @staticmethod
    def _packed_slots(n):
        return _packed_layout(n)[0]

    def packed(self):
        return self.block.reshape(self.sample_count, -1)[:, self._packed_slots(self.dimension)]

    @classmethod
    def from_packed(cls, packed, n):
        packed = np.atleast_2d(np.asarray(packed, dtype=float))
        kept, (ad_bc, bc_ad, ac_bd, ab_cd) = _packed_layout(n)
        if packed.shape[1] != len(kept):
            raise ValueError(f"expected {len(kept)} independent components, got {packed.shape[1]}")
        N = pair_count(n)
        flat = np.zeros((packed.shape[0], N * N))
        flat[:, kept] = flat[:, (kept % N) * N + kept // N] = packed
        flat[:, ad_bc] = flat[:, bc_ad] = flat[:, ac_bd] - flat[:, ab_cd]
        return cls(flat.reshape(-1, N, N))


def christoffel(field: MetricField) -> ConnectionField:
    """Christoffel symbols from first derivatives of the metric."""
    field.validate_spd()
    g, dg, _ = field.jets()
    return ConnectionField(christoffel_from_jets(g, dg, field.inverse))


def christoffel_from_jets(g, dg, ginv):
    """Christoffel symbols ``Gamma^i_jk = g^{il} Gamma_{l,jk}`` from the
    1-jet ``(g, dg)`` and ``ginv``, the inverse of ``g``: one batched product
    with the lowered symbols (:func:`~riemflow.charts.lowered_christoffel`)."""
    low = lowered_christoffel(_unmirrored(dg))
    n = ginv.shape[-1]
    return (ginv @ low.reshape(low.shape[:-2] + (n * n,))).reshape(low.shape)


def riemann(field: MetricField) -> CurvatureTensor:
    """Curvature block from the component formula, after the field's one
    positivity check, with its inverse and its curvature parts."""
    field.validate_spd()
    ginv = field.inverse
    kernel = _riemann_kernel(ginv.shape[-1], len(ginv))
    return CurvatureTensor(kernel(*field.curvature_parts(), ginv))


def riemann_from_jets(g, dg, d2g, ginv):
    """Curvature block, shape ``lead + (N, N)``, from the 2-jet
    ``(g, dg, d2g)`` in the layout of :meth:`MetricField.jets` (``d2g`` over
    the components i <= j) and ``ginv``, the inverse of ``g``; ``g`` itself
    does not enter.  The parts are taken of the components of ``dg``, one
    take, and the upper entries of ``d2g`` (:func:`~riemflow.charts.curvature_parts`)."""
    n, lead = ginv.shape[-1], ginv.shape[:-2]
    d1 = _unmirrored(dg)
    parts = curvature_parts(d1.reshape((-1,) + d1.shape[-2:]), d2g.reshape((-1,) + d2g.shape[-3:]))
    block = _riemann_kernel(n, math.prod(lead))(*parts, ginv.reshape(-1, n, n))
    return block.reshape(lead + block.shape[1:])


def _gather(lead, index):
    """The gather ``a -> a[..., index]`` over the last two axes of ``a``
    flattened, bound to stacks of shape ``lead``: ``ndarray.take`` of the
    whole array, by the index with one axis per axis of ``lead``, when the
    stack holds one sample, which has the lower fixed cost per call, and
    otherwise fancy indexing of the samples, which gathers faster over many.
    Both copy the same values, bit for bit."""
    if math.prod(lead) == 1:
        index = index.reshape((1,) * len(lead) + index.shape)
        return lambda a: a.take(index)
    return lambda a: a.reshape(-1, a.shape[-2] * a.shape[-1])[:, index]


@lru_cache(maxsize=64)
def _riemann_kernel(n, count):
    """The curvature block (count, N, N) from the parts of
    :func:`~riemflow.charts.curvature_parts` and the inverse metric (count, n, n)."""
    full = _block_index(n, ("jkil", "jlik"))
    quadratic = (full // (n * n) - n) * (n * n - n) + full % (n * n)
    shape, gather = (count,) + (pair_count(n),) * 2, _gather((count,), quadratic)

    def riemann(low, bracket, ginv):
        # quadratic term g_mn (Gamma^m_jk Gamma^n_il - Gamma^m_jl Gamma^n_ik): one
        # product of the raised symbols Gamma^m_jk = g^{ml} Gamma_{l,jk} with the
        # lowered ones gives M[(jk),(il)] = Gamma^m_jk Gamma_{m,il}, over the rows
        # j >= 1 and columns i <= n - 2 only, which ``quadratic`` gathers
        m = gather((ginv @ low[..., n:]).swapaxes(-1, -2) @ low[..., :-n])
        riem = bracket - m[..., 0, :]
        riem += m[..., 1, :]
        return riem.reshape(shape)

    return riemann


def ricci_and_scalar(field: MetricField, riem: CurvatureTensor):
    """Pair-trace Ricci tensor ``R_ik = g^{jl} R_ijkl`` and scalar curvature
    ``R = g^{ik} R_ik``."""
    return ricci_scalar_from_arrays(inverse_metric(field), riem.block)


def ricci_scalar_from_arrays(ginv, riem_block):
    ric = pair_trace(ginv, riem_block)
    scal = _einsum('...ik,...ik->...', ginv, ric)
    return ric, scal


def pair_trace(ginv, block):
    """Pair trace ``W_ik = g^{jl} T_ijkl`` of a block (N, N) or stacked
    blocks ``(..., S, N, N)`` (:func:`_pair_trace_kernel`)."""
    lead = np.broadcast_shapes(ginv.shape[:-2], block.shape[:-2])
    return _pair_trace_kernel(ginv.shape[-1], lead)(ginv, block)


@lru_cache(maxsize=None)
def _pair_trace_terms(n):
    """The pair trace's tables: of each term with j != i and l != k, its
    block entry and its ``g^{jl}`` in the flattened stacks, and the signs
    (K, n^2) that sum the terms of each (i, k); and the samples per chunk."""
    i, j, k, l = np.indices((n,) * 4).reshape(4, -1)
    term = (i != j) & (k != l)
    signed = _component_index(n)[term]                    # into [B, -B, 0]
    NN, sums = pair_count(n) ** 2, np.zeros((len(signed), n * n))
    sums[np.arange(len(signed)), (i * n + k)[term]] = np.where(signed < NN, 1.0, -1.0)
    return _frozen(signed % NN, (j * n + l)[term], sums) + (COFACTOR_GATHER // len(signed),)


@lru_cache(maxsize=256)
def _pair_trace_kernel(n, lead):
    """Pair trace of stacks ``lead + (n, n)`` and ``lead + (N, N)``, ``lead``
    (..., S) or (): a gather of the terms with j != i and l != k, summed by one
    product with their signs per stack of S samples, so that the sum of a
    stack does not depend on the stacks beside it, in chunks of samples that
    gather at most :data:`~riemflow.charts.COFACTOR_GATHER` terms, one on
    every shipped grid."""
    entries, inverse, sums, chunk = _pair_trace_terms(n)
    terms_of, inverse_of = _gather(lead, entries), _gather(lead, inverse)
    count, terms_shape, shape = lead[-1] if lead else 1, lead + (-1,), lead + (n, n)
    # one stack's product is ndarray.dot, the BLAS product of matmul with less
    # dispatch; stacks of stacks take matmul's product per stack
    product = np.matmul if len(lead) > 1 else np.ndarray.dot

    def trace(ginv, block):
        terms = terms_of(block) * inverse_of(ginv)
        return product(terms.reshape(terms_shape), sums).reshape(shape)

    if count <= chunk:
        return trace

    def chunked(ginv, block):
        if ginv.shape[:-2] != block.shape[:-2]:
            return trace(ginv, block)
        return np.concatenate([pair_trace(ginv[..., s:s + chunk, :, :],
                                          block[..., s:s + chunk, :, :])
                               for s in range(0, count, chunk)], axis=-3)

    return chunked


def weyl(field: MetricField, riem: CurvatureTensor) -> CurvatureTensor:
    """Trace-free conformal curvature; identically zero for n = 3."""
    n = field.dimension
    if n < 3:
        raise DimensionTooSmall("the conformal curvature tensor needs n >= 3")
    g = field.samples
    ric, scal = ricci_scalar_from_arrays(field.inverse, riem.block)
    return CurvatureTensor(riem.block
                           - kn_product(ric, g) / (n - 2)
                           + scal[..., None, None] * pair_product_from_samples(g)
                           / ((n - 1) * (n - 2)))


@lru_cache(maxsize=256)
def _compound_kernel(n, lead):
    """Block ``lead + (N, N)`` of ``(a (.) b)_ijkl = a_ik b_jl - a_il b_jk``
    for stacks ``lead + (n, n)``, or one of them a single matrix."""
    first, second = _block_index(n, ("ik", "il")), _block_index(n, ("jl", "jk"))
    shape = lead + (pair_count(n),) * 2
    first, second = _gather(lead, first), _gather(lead, second)

    def compound(a, b):
        # the products a_ik b_jl and a_il b_jk of every entry, in one call
        p = first(a) * second(b)
        return (p[..., 0, :] - p[..., 1, :]).reshape(shape)

    return compound


def pair_product_from_samples(g):
    """The pair product on stacked samples: the second compound ``C_2(g)``,
    whose block entries are the minors ``g_ik g_jl - g_il g_jk``."""
    return _compound_kernel(g.shape[-1], g.shape[:-2])(g, g)


def kn_product(a, b):
    """Block of ``(a ^ b)_ijkl = a_ik b_jl + a_jl b_ik - a_il b_jk - a_jk b_il``,
    the bialternate sum ``a (.) b + b (.) a``."""
    compound = _compound_kernel(a.shape[-1], np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))
    return compound(a, b) + compound(b, a)


def orthogonal_metric_curvature(lame_coefficients, chart) -> CurvatureTensor:
    """Curvature of a diagonal metric ``g_ii = H_i^2`` from its coefficients.

    ``lame_coefficients`` is a sequence of ``n`` scalar callables mapping
    point arrays of shape ``(..., n)`` to positive values.  Components with
    four distinct indices vanish; the mixed and sectional components follow
    the closed-form expressions for orthogonal metrics.
    """
    n = chart.dimension
    if len(lame_coefficients) != n:
        raise ValueError("need one coefficient function per axis")
    # H (S, n), dH[:, i, a] = d_a H_i and d2H[:, i, a, b] = d_a d_b H_i
    H, dH, d2H = chart.jet(lambda x: np.stack([f(x) for f in lame_coefficients], axis=-1))
    if np.min(H) <= 0.0:
        raise NonpositiveLame(f"smallest coefficient value {np.min(H):.3e}")

    number, sign = _pairs(n)
    R = np.zeros((H.shape[0],) + (pair_count(n),) * 2)
    for h in range(n):
        for i in range(h):
            # R_hiih = -H_h H_i ( d_h[(d_h H_i)/H_h] + d_i[(d_i H_h)/H_i]
            #                     + sum_{l != h,i} (d_l H_h)(d_l H_i)/H_l^2 )
            term_h = (d2H[:, i, h, h] * H[:, h] - dH[:, i, h] * dH[:, h, h]) / H[:, h] ** 2
            term_i = (d2H[:, h, i, i] * H[:, i] - dH[:, h, i] * dH[:, i, i]) / H[:, i] ** 2
            extra = sum((dH[:, h, l] * dH[:, i, l] / H[:, l] ** 2
                         for l in range(n) if l not in (h, i)), np.zeros_like(H[:, h]))
            val = -H[:, h] * H[:, i] * (term_h + term_i + extra)
            P = number[h, i]
            R[:, P, P] = -val       # R_ihih = -R_hiih
        for i in range(n):
            for k in range(h):
                if i in (h, k):
                    continue
                # R_hiik = -H_i ( d_h d_k H_i - (d_h H_i)(d_k H_h)/H_h
                #                             - (d_k H_i)(d_h H_k)/H_k )
                val = -H[:, i] * (d2H[:, i, h, k]
                                  - dH[:, i, h] * dH[:, h, k] / H[:, h]
                                  - dH[:, i, k] * dH[:, k, h] / H[:, k])
                P, Q = number[h, i], number[i, k]
                R[:, P, Q] = R[:, Q, P] = sign[h, i] * sign[i, k] * val
    return CurvatureTensor(R)


def tensor_norm(tensor, field_or_ginv):
    """Pointwise norm by full contraction with one inverse metric per index,
    shape (S,), of scalars per sample ``(S,)``, 2-tensors with both indices
    lowered ``(S, n, n)`` or a :class:`CurvatureTensor`."""
    if isinstance(field_or_ginv, MetricField):
        ginv = inverse_metric(field_or_ginv)
    else:
        ginv = np.asarray(field_or_ginv, dtype=float)
    # |T|^2 = c <A, K A K>: A = T, K = g^-1 and c = 1 for a 2-tensor; for a curvature
    # tensor A is its block, K = C_2(g^-1) = C_2(g)^-1 and c = 4 orders the pairs
    if isinstance(tensor, CurvatureTensor):
        A, K, c = tensor.block, pair_product_from_samples(ginv), 4.0
    else:
        A = np.asarray(tensor, dtype=float)
        if A.ndim == 1:
            return np.abs(A)
        if A.ndim != 3:
            raise ValueError("tensor_norm handles scalars, 2-tensors and curvature tensors")
        K, c = ginv, 1.0
    sq = c * _einsum('...ij,...ij->...', A, K @ A @ K)
    return np.sqrt(np.maximum(sq, 0.0))
