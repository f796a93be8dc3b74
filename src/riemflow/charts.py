"""Coordinate charts, metric fields and finite-difference jets.

Two chart backends are supported, and they alone know their kind: a chart's
``jet(func)`` is the 2-jet of a callable at its samples, and its
``evolving(field)`` maps an evolution's metric samples to fields.

* :class:`AnalyticChart` -- a single evaluation point together with a
  user-supplied metric function.  Derivatives are taken with second-order
  central differences at steps ``h`` and ``h/2`` followed by one Richardson
  extrapolation, which makes the jet fourth-order accurate.  The stencil is
  built once per ``(n, h)`` and cached (:func:`analytic_stencil`): its
  1 + 4 n^2 offsets and the index arrays of the +/- points per scale and
  axis and of the four corner points per scale and axis pair.  One
  vectorised :func:`richardson_jet` turns stencil values of shape
  ``(B, P) + tail`` into the jet, taking every difference before dividing
  so that equal values cancel exactly.  The jet of an evolving field, in
  the frozen frame ``M g M^T`` of :meth:`AnalyticChart.evolving`, is linear
  in ``g`` and built by applying it once to the images of a basis: each
  basis jet still has its differences taken first, so a derivative that
  cancels exactly on every basis image is exactly zero in the combination
  (a weight matrix over the stencil values would add weights first and
  lose that cancellation).
* :class:`GridChart` -- a periodic grid over a flat torus.  Derivatives are
  taken with fourth-order central stencils and periodic wrap-around, so no
  boundary conditions ever enter.  The +/-1 and +/-2 shifts along an axis
  are slices of one copy padded with two periodic layers per side, shared
  by that axis's first and second derivative.

A :class:`MetricField` couples a chart with metric samples (S, n, n) and
the source of their 2-jet ``(g, dg, d2g)``, which the curvature kernel
consumes: the metric function, the jet itself (an analytic chart's evolving
fields) or, on grids, the samples.  A grid jet of samples differentiates
only the n(n+1)/2 components ``g_ij``, ``i <= j``, and mirrors their first
derivatives.  A field checks positivity and inverts its
metric once, in one cofactor pass vectorised over the samples
(:func:`spd_inverse`, cached as :attr:`MetricField.inverse`): one cached
gather of each matrix's entries gives the adjugate and the leading principal
minors as signed sums of products.  The minors decide positivity by
Sylvester's criterion (eigenvalues only on failure, to name the worst
sample), and the inverse is the adjugate over the determinant.  The minors
lose about kappa^(n-1) eps to roundoff where an LU inverse loses kappa eps,
kappa the condition number.
Index conventions for metric jets: ``dg[..., i, j, k] = d_k g_ij`` and, over
the components ``c = (i <= j)`` in ``np.triu_indices`` order,
``d2g[..., c, k, l] = d_k d_l g_ij`` with the derivative pair symmetrised.
Samples may be complex: fields, jets and inverses keep a complex dtype, so
that a complex-step perturbation ``g + i e h`` keeps its imaginary part, and
positivity is judged on the real part.
"""

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from itertools import permutations

import numpy as np

from .errors import NotPositiveDefinite, StencilOutOfDomain

DEFAULT_ANALYTIC_STEP = 1e-2


def _frozen(*arrays):
    """The arrays, made read-only (the cached index arrays)."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _real_or_complex(a):
    """``a`` as a float64 array, or complex128 if it is complex."""
    a = np.asarray(a)
    return a.astype(np.result_type(a.dtype, float), copy=False)


@dataclass(frozen=True)
class AnalyticChart:
    """Single-point chart for metrics given in closed form.

    Parameters
    ----------
    dimension : int
        Chart dimension ``n >= 2``.
    point : array_like
        Coordinates of the evaluation point, shape ``(n,)``.
    step : float
        Base finite-difference step ``h > 0``.
    """

    dimension: int
    point: np.ndarray
    step: float = DEFAULT_ANALYTIC_STEP

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError("chart dimension must be at least 2")
        if self.step <= 0:
            raise ValueError("finite-difference step must be positive")
        pt = np.asarray(self.point, dtype=float).reshape(self.dimension)
        object.__setattr__(self, "point", pt)

    @property
    def kind(self):
        return "analytic-point"

    @property
    def sample_count(self):
        return 1

    @property
    def sample_points(self):
        return self.point[None, :]

    def jet(self, func):
        """The 2-jet of ``func``, mapping points ``(..., n)`` to ``(...,) +
        tail``, at the point (:func:`analytic_scalar_jet`); a single sample
        cannot be differentiated, so samples raise ``TypeError``."""
        if not callable(func):
            raise TypeError("an analytic chart differentiates callables, not samples")
        return analytic_scalar_jet(func, self.point[None, :], self.dimension, self.step)

    def evolving(self, field):
        """Field builder of the frozen frame: ``build(g)`` is the field
        g(x) = M(x) g M(x)^T with M(x) = L0(x) L0(x0)^-1, ``L0`` the Cholesky
        factor of ``field`` at the points of the stencil and ``x0`` the
        point, where M is set to I exactly.  That is exact for
        congruence-homogeneous evolutions, such as every constant-curvature
        scenario; inhomogeneous dynamics belong on grid charts.

        The jet of that field is linear in the components ``g_ij``, i <= j, of
        the metric sample ``g``, shape (1, n, n), so :func:`richardson_jet` runs
        once, here, on the images ``M E_q M^T`` of the symmetric basis matrices
        ``E_q``; each field's derivatives are then one product of those
        components with the basis jets, and its sample is ``g`` itself.  The
        stencil's values are checked for finiteness here, once.  The frame is
        real, so a complex field (a complex-step run) raises ``ValueError``.
        """
        if np.iscomplexobj(field.samples):
            raise ValueError("the frozen frame is real: complex-step runs need a grid chart")
        n = self.dimension
        stencil = analytic_stencil(n, self.step)
        point = self.point[None, :]
        g0 = np.asarray(field.func(point[:, None, :] + stencil.offsets[None, :, :]), dtype=float)
        require_finite(g0, point, stencil.offsets)
        L = np.linalg.cholesky(g0[0])
        M = L @ np.linalg.inv(L[0])
        M[0] = np.eye(n)
        rows, cols = np.triu_indices(n)
        q = np.arange(len(rows))
        basis = np.zeros((len(q), n, n))
        basis[q, rows, cols] = basis[q, cols, rows] = 1.0
        _, dg, d2g = richardson_jet(stencil, np.einsum('pab,qbc,pdc->qpad', M, basis, M))
        jet_map = np.concatenate([dg.reshape(len(q), -1), compact_hessian(d2g).reshape(len(q), -1)],
                                 axis=1)

        def build(g):
            d = g[0, rows, cols] @ jet_map
            return MetricField(self, g, _jets=(g, d[:n ** 3].reshape((1,) + (n,) * 3),
                                               d[n ** 3:].reshape((1, len(q), n, n))))

        return build


@dataclass(frozen=True)
class GridChart:
    """Periodic grid chart modelling flat-torus topology.

    Parameters
    ----------
    dimension : int
        Chart dimension ``n >= 2`` (the 1+1 conformal wave uses its own
        scalar grid, not this class).
    points_per_axis : int or tuple of int
        Number of samples along each axis, at least 8; a float must be whole
        (8.0 is taken, 8.5 refused).
    lengths : float or tuple of float
        Torus periods per axis.
    """

    dimension: int
    points_per_axis: tuple
    lengths: tuple

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError("chart dimension must be at least 2")
        ppa = self.points_per_axis
        ppa = (ppa,) * self.dimension if np.isscalar(ppa) else tuple(ppa)
        if any(p != int(p) for p in ppa):
            raise ValueError(f"points_per_axis must be whole numbers, got {ppa}")
        ppa = tuple(int(p) for p in ppa)
        if len(ppa) != self.dimension:
            raise ValueError("points_per_axis must match the chart dimension")
        if min(ppa) < 8:
            raise ValueError("grid charts need at least 8 points per axis")
        lengths = self.lengths
        if np.isscalar(lengths):
            lengths = (float(lengths),) * self.dimension
        lengths = tuple(float(L) for L in lengths)
        if len(lengths) != self.dimension:
            raise ValueError("lengths must match the chart dimension")
        if min(lengths) <= 0:
            raise ValueError("torus periods must be positive")
        object.__setattr__(self, "points_per_axis", ppa)
        object.__setattr__(self, "lengths", lengths)

    @property
    def kind(self):
        return "periodic-grid"

    @property
    def grid_shape(self):
        return self.points_per_axis

    @property
    def spacings(self):
        return tuple(L / p for L, p in zip(self.lengths, self.points_per_axis))

    @property
    def sample_count(self):
        return int(np.prod(self.points_per_axis))

    @property
    def sample_points(self):
        axes = [np.arange(p) * h for p, h in zip(self.points_per_axis, self.spacings)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    def jet(self, func):
        """The 2-jet, laid out as by :func:`grid_scalar_jet`, of ``func``
        at the grid points: a callable mapping points ``(..., n)`` to
        ``(...,) + tail``, or its samples ``(S,) + tail``."""
        values = (func(self.sample_points.reshape(self.grid_shape + (self.dimension,)))
                  if callable(func) else np.reshape(func, self.grid_shape + np.shape(func)[1:]))
        return grid_scalar_jet(values, self)

    def evolving(self, field):
        """Field builder of a grid: ``build(g)`` is the field of the samples
        ``g`` (S, n, n)."""
        return lambda g: MetricField(self, g)


# ---------------------------------------------------------------------------
# grid stencils (fourth order, periodic)
# ---------------------------------------------------------------------------


def _periodic_shifts(values, axis):
    """``s -> np.roll(values, -s, axis)`` for ``|s| <= 2``, as views of one
    copy of ``values`` padded with two periodic layers on each side of
    ``axis``."""
    N = values.shape[axis]
    lead = (slice(None),) * axis
    padded = np.concatenate([values[lead + (slice(N - 2, N),)], values,
                             values[lead + (slice(0, 2),)]], axis=axis)
    return lambda s: padded[lead + (slice(2 + s, 2 + s + N),)]


def _grid_d1(sh, h):
    """Fourth-order periodic first derivative from the shifts ``sh`` of
    :func:`_periodic_shifts`."""
    return (-sh(2) + 8.0 * sh(1) - 8.0 * sh(-1) + sh(-2)) / (12.0 * h)


def _grid_d2(sh, h):
    """Fourth-order periodic pure second derivative from the shifts ``sh``."""
    return (-sh(2) + 16.0 * sh(1) - 30.0 * sh(0) + 16.0 * sh(-1) - sh(-2)) / (12.0 * h * h)


def grid_scalar_jet(values, chart):
    """Value, gradient and symmetrised Hessian of grid-sampled components.

    ``values`` has shape ``grid_shape + tail``; the returned derivative arrays
    append one (resp. two) axes of length ``n`` after the tail.  Each axis is
    padded once and shared by its first and second derivative.
    """
    n = chart.dimension
    hs = chart.spacings
    values = _real_or_complex(values)
    tail = values.shape[n:]
    d1 = np.empty(values.shape + (n,), values.dtype)
    d2 = np.empty(values.shape + (n, n), values.dtype)
    for a in range(n):
        sh = _periodic_shifts(values, a)
        d1[..., a] = _grid_d1(sh, hs[a])
        d2[..., a, a] = _grid_d2(sh, hs[a])
        for b in range(a + 1, n):
            mixed = _grid_d1(_periodic_shifts(d1[..., a], b), hs[b])
            d2[..., a, b] = mixed
            d2[..., b, a] = mixed
    flat = (chart.sample_count,) + tail
    return (values.reshape(flat),
            d1.reshape(flat + (n,)),
            d2.reshape(flat + (n, n)))


# ---------------------------------------------------------------------------
# analytic stencils (second order + Richardson)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AnalyticStencil:
    """Richardson stencil of dimension ``n`` and base step ``h``.

    ``offsets`` (P, n), P = 1 + 4 n^2: the centre, then per scale (``h``,
    ``h/2``) the +/- points of each axis and the (+,+), (+,-), (-,+), (-,-)
    corners of each axis pair k < l.  ``plus`` and ``minus`` (2, n) and
    ``corners`` (2, n(n-1)/2, 4) index into it per scale.  The difference
    quotients come in m = 2n + n(n-1)/2 columns per scale (first derivative
    per axis, second derivative per axis, mixed derivative per pair) with the
    denominators ``den`` (2, m); ``hessian`` (n, n) picks each Hessian entry's
    column.
    """

    offsets: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    corners: np.ndarray
    den: np.ndarray
    hessian: np.ndarray


@lru_cache(maxsize=None)
def analytic_stencil(n, h):
    """The cached :class:`AnalyticStencil` of dimension ``n`` and step ``h``."""
    scales = (h, 0.5 * h)
    offsets = [np.zeros(n)]
    for scale in scales:
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
    pairs = n * (n - 1) // 2
    start = 1 + (2 * n + 4 * pairs) * np.arange(2)[:, None]    # first point per scale
    plus = start + 2 * np.arange(n)
    corners = (start + 2 * n + 4 * np.arange(pairs))[..., None] + np.arange(4)
    den = np.array([[2.0 * s] * n + [s * s] * n + [4.0 * s * s] * pairs for s in scales])
    hessian = np.empty((n, n), dtype=int)
    hessian[range(n), range(n)] = n + np.arange(n)
    k, l = np.triu_indices(n, 1)
    hessian[k, l] = hessian[l, k] = 2 * n + np.arange(pairs)
    arrays = [np.array(offsets), plus, plus + 1, corners, den, hessian]
    for a in arrays:
        a.flags.writeable = False
    return AnalyticStencil(*arrays)


def require_finite(vals, points, offsets):
    """Raise :class:`StencilOutOfDomain` at the first stencil point
    ``points[b] + offsets[p]`` whose values ``vals[b, p]`` are not finite."""
    if not np.all(np.isfinite(vals)):
        finite = np.isfinite(vals).reshape(vals.shape[0], vals.shape[1], -1).all(axis=-1)
        b, p = np.argwhere(~finite)[0]
        raise StencilOutOfDomain(points[b] + offsets[p])


def richardson_jet(stencil, vals):
    """Value, gradient and symmetrised Hessian from values of shape
    ``(B, P) + tail`` at the points of ``stencil``.

    Second-order central differences at ``h`` and ``h/2`` followed by one
    Richardson step ``(4 e_2 - e_1) / 3``; the derivative axes come after
    the tail, as in :func:`grid_scalar_jet`.  The differences are taken
    before dividing, so that equal values cancel exactly.
    """
    v = vals.transpose((0,) + tuple(range(2, vals.ndim)) + (1,))   # (B,) + tail + (P,)
    fp = v[..., stencil.plus]                                      # (B,) + tail + (2, n)
    fm = v[..., stencil.minus]
    c = v[..., stencil.corners]                                    # (B,) + tail + (2, pairs, 4)
    est = np.concatenate([fp - fm, fp - 2.0 * v[..., :1, None] + fm,
                          c[..., 0] - c[..., 1] - c[..., 2] + c[..., 3]], axis=-1) / stencil.den
    r = (4.0 * est[..., 1, :] - est[..., 0, :]) / 3.0
    n = fp.shape[-1]
    return (vals[:, 0], np.ascontiguousarray(r[..., :n]),
            np.ascontiguousarray(r[..., stencil.hessian]))


def analytic_scalar_jet(func, points, n, h):
    """Richardson-extrapolated 2-jet of ``func`` at a batch of points.

    ``func`` maps arrays of shape ``(..., n)`` to component arrays of shape
    ``(...,) + tail``; ``points`` has shape ``(B, n)``.  Returns value,
    gradient and symmetrised Hessian with tail-first layout matching
    :func:`grid_scalar_jet`.
    """
    points = np.asarray(points, dtype=float).reshape(-1, n)
    stencil = analytic_stencil(n, h)
    vals = _real_or_complex(func(points[:, None, :] + stencil.offsets[None, :, :]))
    require_finite(vals, points, stencil.offsets)
    return richardson_jet(stencil, vals)


# ---------------------------------------------------------------------------
# metric fields
# ---------------------------------------------------------------------------


def _parity(p):
    """+1 for an even permutation ``p`` of range(len(p)), -1 for an odd one."""
    return (-1) ** sum(a > b for k, a in enumerate(p) for b in p[k + 1:])


@lru_cache(maxsize=None)
def _cofactor_terms(n):
    """The gather and the weights of one cofactor pass over n x n matrices.

    The pass reads the rows of ``[a, re a, 1]``, where ``a`` holds the n^2
    entries of the matrices, and has 1 + n^2 + n outputs, each a determinant
    expanded by Leibniz: ``det a``; the adjugate ``adj[j, i] = (-1)^(i+j)
    M_ij``, M_ij the minor without row i and column j (the (n-1)-th
    compound, signed and transposed); and the leading principal minors of
    order 1 .. n of ``re a``.  ``index`` (n, P) names the n factors of each
    of the P products, a shorter product padded with the row of ones, and
    ``weights`` (1 + n^2 + n, P) the sign each product takes in each output.
    """
    nn = n * n
    every = range(n)
    minors = [(every, every, 1, 0)]
    minors += [([a for a in every if a != i], [b for b in every if b != j], (-1) ** (i + j), 0)
               for j in every for i in every]
    minors += [(range(k), range(k), 1, nn) for k in range(1, n + 1)]
    index, out, signs = [], [], []
    for k, (rows, cols, sign, base) in enumerate(minors):
        for p in permutations(range(len(rows))):
            index.append([base + r * n + cols[q] for r, q in zip(rows, p)]
                         + [2 * nn] * (n - len(rows)))
            out.append(k)
            signs.append(sign * _parity(p))
    weights = np.zeros((len(minors), len(index)))
    weights[out, np.arange(len(index))] = signs
    return _frozen(np.array(index, dtype=int).T.copy(), weights)


def _cofactor_pass(g):
    """One vectorised pass over the stack ``g`` (..., n, n): rows ``det g``,
    the n^2 entries of ``adj g`` and the n leading principal minors of
    ``g.real``, each over the S matrices, shape (1 + n^2 + n, S).  The pass
    is a polynomial in the entries, so a complex ``g`` keeps its dtype and
    the derivative of a complex step through it is exact."""
    n = g.shape[-1]
    nn = n * n
    a = g.reshape(-1, nn).T
    index, weights = _cofactor_terms(n)
    rows = np.empty((2 * nn + 1, a.shape[1]), dtype=a.dtype if a.dtype.kind == "c" else float)
    rows[:nn] = a
    rows[nn:2 * nn] = a.real
    rows[2 * nn] = 1.0
    return weights.dot(np.multiply.reduce(rows.take(index, axis=0), axis=0))


def _require_minors(g, cof):
    """Raise :class:`NotPositiveDefinite` unless every leading principal
    minor in ``cof``, the cofactor pass of ``g``, is positive, which by
    Sylvester's criterion is positivity of ``g.real``.  Only then are the
    eigenvalues computed, to name the sample with the smallest one."""
    n = g.shape[-1]
    if not np.minimum.reduce(cof[1 + n * n:].real, axis=None) > 0.0:
        w = np.linalg.eigvalsh(g.real.reshape(-1, n, n))[:, 0]
        worst = int(np.argmin(w))
        raise NotPositiveDefinite(worst, float(w[worst]))


def spd_inverse(g):
    """The inverse of every matrix of the stack ``g`` (..., n, n), after the
    positivity check of :func:`require_spd`, from one cofactor pass: the
    adjugate over the determinant.  Its relative error is about
    kappa^(n-1) eps, kappa the condition number."""
    cof = _cofactor_pass(g)
    _require_minors(g, cof)
    n = g.shape[-1]
    return np.ascontiguousarray((cof[1:1 + n * n] / cof[0]).T).reshape(g.shape)


def require_spd(g):
    """Raise :class:`NotPositiveDefinite` unless every matrix of the stack
    ``g`` (..., n, n) is positive definite; a complex stack is judged by
    its real part.

    The test is Sylvester's criterion on the leading principal minors of
    one cofactor pass (:func:`spd_inverse` makes the same pass).  Only when
    it fails are the eigenvalues computed, to name the sample with the
    smallest one.  A sample with an entry that is not finite fails.
    """
    _require_minors(g, _cofactor_pass(g))


@lru_cache(maxsize=None)
def _symmetric_components(n):
    """Flat indices ``i n + j`` of the components i <= j of an n x n
    symmetric matrix, and the (n, n) map from each entry to its component."""
    rows, cols = np.triu_indices(n)
    component = np.empty((n, n), dtype=int)
    component[rows, cols] = component[cols, rows] = np.arange(len(rows))
    return _frozen(rows * n + cols, component)


def compact_hessian(d2g):
    """A metric Hessian ``(S, n, n, n, n)`` in the layout of
    :meth:`MetricField.jets`: over the components i <= j, (S, n(n+1)/2, n, n)."""
    n = d2g.shape[-1]
    return np.take(d2g.reshape(d2g.shape[:1] + (n * n, n, n)), _symmetric_components(n)[0], axis=1)


@dataclass
class MetricField:
    """Metric samples (S, n, n) on a chart, and the source of their 2-jet.

    Use :meth:`from_function` for closed-form metrics (both chart kinds) or
    :meth:`from_samples` for component arrays on a grid chart; a chart's
    ``evolving`` builds the fields of an evolution.
    """

    chart: object
    samples: np.ndarray
    func: object = None
    _inverse: np.ndarray = dataclass_field(default=None, repr=False)
    _jets: tuple = dataclass_field(default=None, repr=False)

    @classmethod
    def from_function(cls, chart, func):
        """The field of ``func``, mapping points ``(..., n)`` to ``(..., n,
        n)``; ``ValueError`` for another shape at the chart's points."""
        n = chart.dimension
        samples = _real_or_complex(func(chart.sample_points))
        expected = (chart.sample_count, n, n)
        if samples.shape != expected:
            raise ValueError(f"metric function returned shape {samples.shape}, expected {expected}")
        return cls(chart, samples, func)

    @classmethod
    def from_samples(cls, chart, values):
        """The grid-chart field of ``values``, laid out on the grid,
        ``grid_shape + (n, n)``, or as samples, (S, n, n)."""
        values = _real_or_complex(values)
        if chart.kind != "periodic-grid":
            raise ValueError("analytic charts need a metric function; use from_function")
        n = chart.dimension
        expected = chart.grid_shape + (n, n)
        flat = (chart.sample_count, n, n)
        if values.shape not in (expected, flat):
            raise ValueError(f"samples have shape {values.shape}, expected {expected} or {flat}")
        return cls(chart, values.reshape(-1, n, n))

    @property
    def dimension(self):
        return self.chart.dimension

    @property
    def values(self):
        """The samples laid out on a grid chart, shape ``grid_shape + (n, n)``."""
        return self.samples.reshape(self.chart.grid_shape + self.samples.shape[1:])

    @property
    def inverse(self):
        """Inverse metric at the samples, shape (S, n, n), computed once and
        read-only by :func:`spd_inverse`, whose pass also checks positivity:
        raises :class:`NotPositiveDefinite` at the worst offending sample."""
        if self._inverse is None:
            self._inverse = spd_inverse(self.samples)
            self._inverse.flags.writeable = False
        return self._inverse

    def validate_spd(self):
        """Raise :class:`NotPositiveDefinite` at the worst offending sample
        (see :func:`require_spd`); the same pass gives :attr:`inverse`."""
        self.inverse

    def jets(self):
        """Return ``(g, dg, d2g)`` flattened over samples, ``d2g`` over the
        n(n+1)/2 components ``g_ij``, i <= j: shape (S, n(n+1)/2, n, n).

        The jet is the one the field was made with, else the chart's jet of
        its function, else that of its samples, of which only those
        components are differentiated; their first derivatives are mirrored
        to ``g_ji``.
        """
        if self._jets is not None:
            return self._jets
        if self.func is not None:
            g, dg, d2g = self.chart.jet(self.func)
            return g, dg, compact_hessian(d2g)
        n = self.dimension
        flat, component = _symmetric_components(n)
        _, d1, d2 = self.chart.jet(np.take(self.samples.reshape(-1, n * n), flat, axis=1))
        return self.samples, np.take(d1, component, axis=1), d2
