"""Connection and curvature quantities from metric components.

The fully lowered curvature tensor is assembled verbatim from the component
formula

    R_ijkl = 1/2 (d_j d_l g_ik + d_i d_k g_jl - d_i d_l g_jk - d_j d_k g_il)
             - g_mn (Gamma^m_jk Gamma^n_il - Gamma^m_jl Gamma^n_ik),

including its sign convention.  Under this convention the unit sphere has
sectional factor -1 and hyperbolic space +1 (pinned once by a symbolic
differentiation oracle; see ``tools/pin_constants.py`` and the frozen values
in the test suite).

Ricci is taken as the pair trace ``R_ik = g^{jl} R_ijkl``.  The alternative
contraction over the first and last slots is its negative; the pair trace is
the one under which the dimension-3 decomposition, the conformally flat
decomposition and the trace-free Weyl tensor below all hold exactly.

The contractions of the curvature layer are written as explicit batched
``np.matmul`` products over the sample axis: the Christoffel symbols
``g^{il} term_l(jk)``, the quadratic Christoffel term of the curvature
tensor, the pair trace ``g^{jl} T_ijkl`` (:func:`pair_trace`) and the tensor
norms.  None of them searches for an ``einsum`` contraction
path at call time, which on a single sample would cost more than the
arithmetic.  They agree with the literal component formulas (kept in the test
suite as the oracle) to roundoff, not bit for bit.

The kernels take the inverse metric as an argument: :func:`riemann` checks
the field's positivity once and passes its cached
:attr:`~riemflow.charts.MetricField.inverse`, which the callers of the law
rates reuse, so that a right-hand side inverts its metric once.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .charts import MetricField, analytic_scalar_jet, grid_scalar_jet, require_spd
from .errors import DimensionTooSmall, NonpositiveLame


def inverse_metric(field_or_samples):
    """Inverse metric components per sample.

    Accepts a :class:`MetricField`, whose cached :attr:`~MetricField.inverse`
    is returned, or a stacked array ``(..., n, n)``.  Raises
    :class:`NotPositiveDefinite` before inverting.
    """
    if isinstance(field_or_samples, MetricField):
        field_or_samples.validate_spd()
        return field_or_samples.inverse
    g = np.asarray(field_or_samples, dtype=float)
    require_spd(g)
    return np.linalg.inv(g)


@dataclass
class ConnectionField:
    """Christoffel symbols ``gamma[..., a, j, k] = Gamma^a_jk`` per sample."""

    array: np.ndarray

    @property
    def dimension(self):
        return self.array.shape[-1]


@dataclass
class CurvatureTensor:
    """Fully lowered curvature components per sample, shape (S, n, n, n, n).

    The dense array is kept for vectorised algebra; :meth:`packed` exposes
    the minimal independent-component storage (pair-symmetric slots with one
    slot per four-distinct-index set removed via the first Bianchi identity).
    """

    array: np.ndarray

    @property
    def dimension(self):
        return self.array.shape[-1]

    @property
    def sample_count(self):
        return self.array.shape[0]

    @staticmethod
    def independent_component_count(n):
        return n * n * (n * n - 1) // 12

    @staticmethod
    def _packed_slots(n):
        # pair-symmetric upper triangle over index pairs (i<j) <= (k<l); for
        # every four-distinct-index set {a<b<c<d} the (ad,bc) pairing is
        # recoverable from the first Bianchi identity and is dropped
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        slots = []
        for a, (i, j) in enumerate(pairs):
            for b in range(a, len(pairs)):
                k, l = pairs[b]
                if len({i, j, k, l}) == 4:
                    s0, s1, s2, s3 = sorted((i, j, k, l))
                    if (i, j, k, l) == (s0, s3, s1, s2):
                        continue
                slots.append((i, j, k, l))
        return slots

    def packed(self):
        slots = self._packed_slots(self.dimension)
        out = np.empty((self.sample_count, len(slots)))
        for col, (i, j, k, l) in enumerate(slots):
            out[:, col] = self.array[:, i, j, k, l]
        return out

    @classmethod
    def from_packed(cls, packed, n):
        packed = np.atleast_2d(np.asarray(packed, dtype=float))
        slots = cls._packed_slots(n)
        if packed.shape[1] != len(slots):
            raise ValueError(f"expected {len(slots)} independent components, got {packed.shape[1]}")
        S = packed.shape[0]
        arr = np.zeros((S, n, n, n, n))
        for col, (i, j, k, l) in enumerate(slots):
            _write_orbit(arr, i, j, k, l, packed[:, col])
        # restore the dropped (ad,bc) slots from the first Bianchi identity
        for a in range(n):
            for b in range(a + 1, n):
                for c in range(b + 1, n):
                    for d in range(c + 1, n):
                        val = -arr[:, a, b, c, d] - arr[:, a, c, d, b]
                        # R_adbc = -R_abcd - R_acdb
                        _write_orbit(arr, a, d, b, c, val)
        return cls(arr)


def _write_orbit(arr, i, j, k, l, val):
    arr[:, i, j, k, l] = val
    arr[:, j, i, k, l] = -val
    arr[:, i, j, l, k] = -val
    arr[:, j, i, l, k] = val
    arr[:, k, l, i, j] = val
    arr[:, l, k, i, j] = -val
    arr[:, k, l, j, i] = -val
    arr[:, l, k, j, i] = val


def christoffel(field: MetricField) -> ConnectionField:
    """Christoffel symbols from first derivatives of the metric."""
    field.validate_spd()
    g, dg, _ = field.jets()
    return ConnectionField(christoffel_from_jets(g, dg, field.inverse))


def christoffel_from_jets(g, dg, ginv):
    """Christoffel symbols from the 1-jet ``(g, dg)`` and ``ginv``, the
    inverse of ``g``."""
    # Gamma^i_jk = 1/2 g^{il} (d_k g_lj + d_j g_lk - d_l g_jk)
    # with dg[..., a, b, c] = d_c g_ab:
    #   term[l, j, k] = dg[l, j, k] + dg[l, k, j] - dg[j, k, l]
    # contracted as one batched product g^{il} term[l, (jk)]
    term = dg + np.swapaxes(dg, -2, -1) - _permute_last(dg, (2, 0, 1))
    n = g.shape[-1]
    return 0.5 * (ginv @ term.reshape(term.shape[:-2] + (n * n,))).reshape(term.shape)


@lru_cache(maxsize=None)
def _trailing_axes(ndim, perm):
    lead = ndim - len(perm)
    return tuple(range(lead)) + tuple(lead + p for p in perm)


def _permute_last(a, perm):
    """View of ``a`` with its trailing ``len(perm)`` axes permuted as
    ``ndarray.transpose(perm)`` permutes them, leading axes in place."""
    return a.transpose(_trailing_axes(a.ndim, perm))


def riemann(field: MetricField) -> CurvatureTensor:
    """Fully lowered curvature tensor from the component formula, after one
    positivity check of the field and with its cached inverse."""
    field.validate_spd()
    g, dg, d2g = field.jets()
    return CurvatureTensor(riemann_from_jets(g, dg, d2g, field.inverse))


def riemann_from_jets(g, dg, d2g, ginv):
    """Curvature from the 2-jet ``(g, dg, d2g)`` and ``ginv``, the inverse
    of ``g``."""
    gam = christoffel_from_jets(g, dg, ginv)
    # 1/2 (d_j d_l g_ik + d_i d_k g_jl - d_i d_l g_jk - d_j d_k g_il)
    # d2g[..., a, b, c, d] = d_c d_d g_ab, so that d_j d_l g_ik at [i, j, k, l]
    # is d2g[i, k, j, l], and so on
    t_ik_jl = _permute_last(d2g, (0, 2, 1, 3))
    t_jl_ik = _permute_last(d2g, (2, 0, 3, 1))
    t_jk_il = _permute_last(d2g, (2, 0, 1, 3))
    t_il_jk = _permute_last(d2g, (0, 2, 3, 1))
    riem = 0.5 * (t_ik_jl + t_jl_ik - t_jk_il - t_il_jk)
    # quadratic term g_mn (Gamma^m_jk Gamma^n_il - Gamma^m_jl Gamma^n_ik): with
    # the lowered symbols Gamma_{m,il} = g_mn Gamma^n_il, one product gives
    # M[(jk),(il)] = Gamma^m_jk Gamma_{m,il}; both terms are transposes of M
    n = g.shape[-1]
    lead = gam.shape[:-3]
    gam_m = gam.reshape(lead + (n, n * n))
    M = (np.swapaxes(gam_m, -1, -2) @ (g @ gam_m)).reshape(lead + (n,) * 4)
    first = _permute_last(M, (2, 0, 1, 3))
    riem -= first
    riem += np.swapaxes(first, -1, -2)
    return riem


def ricci_and_scalar(field: MetricField, riem: CurvatureTensor):
    """Pair-trace Ricci tensor and scalar curvature.

    ``R_ik = g^{jl} R_ijkl`` and ``R = g^{ik} R_ik``.
    """
    return ricci_scalar_from_arrays(inverse_metric(field), riem.array)


def ricci_scalar_from_arrays(ginv, riem_array):
    ric = pair_trace(ginv, riem_array)
    scal = np.einsum('...ik,...ik->...', ginv, ric)
    return ric, scal


def pair_trace(ginv, tensor):
    """Pair trace ``W_ik = g^{jl} T_ijkl`` of stacked 4-tensors.

    One batched product of ``T`` laid out as the matrix ``T[(ik), (jl)]``
    with the inverse metric flattened to the column ``g^(jl)``.
    """
    n = tensor.shape[-1]
    lead = tensor.shape[:-4]
    t_ik_jl = np.swapaxes(tensor, -3, -2).reshape(lead + (n * n, n * n))
    col = ginv.reshape(ginv.shape[:-2] + (n * n, 1))
    return (t_ik_jl @ col).reshape(lead + (n, n))


def weyl(field: MetricField, riem: CurvatureTensor) -> CurvatureTensor:
    """Trace-free conformal curvature; identically zero for n = 3."""
    n = field.dimension
    if n < 3:
        raise DimensionTooSmall("the conformal curvature tensor needs n >= 3")
    ric, scal = ricci_scalar_from_arrays(field.inverse, riem.array)
    return CurvatureTensor(weyl_from_arrays(field.samples, riem.array, ric, scal))


def weyl_from_arrays(g, riem_array, ric, scal):
    n = g.shape[-1]
    G = pair_product_from_samples(g)
    return (riem_array
            - kn_product(ric, g) / (n - 2)
            + scal[..., None, None, None, None] * G / ((n - 1) * (n - 2)))


def pair_product_from_samples(g):
    """G_ijkl = g_ik g_jl - g_il g_jk on stacked samples."""
    return (np.einsum('...ik,...jl->...ijkl', g, g)
            - np.einsum('...il,...jk->...ijkl', g, g))


def kn_product(a, b):
    """(a ^ b)_ijkl = a_ik b_jl + a_jl b_ik - a_il b_jk - a_jk b_il."""
    return (np.einsum('...ik,...jl->...ijkl', a, b)
            + np.einsum('...jl,...ik->...ijkl', a, b)
            - np.einsum('...il,...jk->...ijkl', a, b)
            - np.einsum('...jk,...il->...ijkl', a, b))


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
    jets = []
    for Hf in lame_coefficients:
        if chart.kind == "periodic-grid":
            pts = chart.sample_points.reshape(chart.grid_shape + (n,))
            vals = np.asarray(Hf(pts), dtype=float)
            jets.append(grid_scalar_jet(vals, chart))
        else:
            jets.append(analytic_scalar_jet(Hf, chart.point[None, :], n, chart.step))
    H = np.stack([j[0] for j in jets], axis=-1)          # (S, n)
    dH = np.stack([j[1] for j in jets], axis=-2)         # (S, n, n): dH[:, i, a] = d_a H_i
    d2H = np.stack([j[2] for j in jets], axis=-3)        # (S, n, n, n)
    if np.min(H) <= 0.0:
        raise NonpositiveLame(f"smallest coefficient value {np.min(H):.3e}")

    S = H.shape[0]
    R = np.zeros((S, n, n, n, n))
    for h in range(n):
        for i in range(n):
            if i == h:
                continue
            # R_hiih = -H_h H_i ( d_h[(d_h H_i)/H_h] + d_i[(d_i H_h)/H_i]
            #                     + sum_{l != h,i} (d_l H_h)(d_l H_i)/H_l^2 )
            term_h = (d2H[:, i, h, h] * H[:, h] - dH[:, i, h] * dH[:, h, h]) / H[:, h] ** 2
            term_i = (d2H[:, h, i, i] * H[:, i] - dH[:, h, i] * dH[:, i, i]) / H[:, i] ** 2
            extra = np.zeros(S)
            for l in range(n):
                if l in (h, i):
                    continue
                extra += dH[:, h, l] * dH[:, i, l] / H[:, l] ** 2
            val = -H[:, h] * H[:, i] * (term_h + term_i + extra)
            _write_sectional(R, h, i, val)
            for k in range(n):
                if k in (h, i):
                    continue
                # R_hiik = -H_i ( d_h d_k H_i - (d_h H_i)(d_k H_h)/H_h
                #                             - (d_k H_i)(d_h H_k)/H_k )
                val = -H[:, i] * (d2H[:, i, h, k]
                                  - dH[:, i, h] * dH[:, h, k] / H[:, h]
                                  - dH[:, i, k] * dH[:, k, h] / H[:, k])
                _write_mixed(R, h, i, k, val)
    return CurvatureTensor(R)


def _write_sectional(R, h, i, val):
    R[:, h, i, i, h] = val
    R[:, i, h, i, h] = -val
    R[:, h, i, h, i] = -val
    R[:, i, h, h, i] = val


def _write_mixed(R, h, i, k, val):
    R[:, h, i, i, k] = val
    R[:, i, h, i, k] = -val
    R[:, h, i, k, i] = -val
    R[:, i, h, k, i] = val
    R[:, i, k, h, i] = val
    R[:, i, k, i, h] = -val
    R[:, k, i, h, i] = -val
    R[:, k, i, i, h] = val


def tensor_norm(tensor, field_or_ginv):
    """Pointwise norm by full contraction with one inverse metric per index.

    Accepts scalars per sample (rank 0), 2-tensors or 4-tensors with all
    indices lowered.  Returns an array of shape ``(S,)``.
    """
    if isinstance(field_or_ginv, MetricField):
        ginv = inverse_metric(field_or_ginv)
    else:
        ginv = np.asarray(field_or_ginv, dtype=float)
    if isinstance(tensor, CurvatureTensor):
        tensor = tensor.array
    t = np.asarray(tensor, dtype=float)
    rank = t.ndim - 1
    if rank == 0:
        return np.abs(t)
    # |T|^2 = <A, K A K>: for rank 2, A = T and K = g^-1 raise one slot per
    # product; for rank 4, A = T[(ij), (kl)] and K = g^-1 (x) g^-1 raise a
    # slot pair per product
    n = ginv.shape[-1]
    if rank == 2:
        K = ginv
    elif rank == 4:
        K = (ginv[..., :, None, :, None] * ginv[..., None, :, None, :]).reshape(
            ginv.shape[:-2] + (n * n, n * n))
    else:
        raise ValueError("tensor_norm handles ranks 0, 2 and 4")
    A = t.reshape(t.shape[:1] + K.shape[-2:])
    sq = np.einsum('...ij,...ij->...', A, K @ A @ K)
    return np.sqrt(np.maximum(sq, 0.0))
