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
  lose that cancellation).  The curvature's parts linear in the jet
  (:func:`curvature_parts`) are taken of the basis jets too, so that one
  product per field gives both its jet and those parts.
* :class:`GridChart` -- a periodic grid over a flat torus.  Derivatives are
  taken with fourth-order central stencils and periodic wrap-around, so no
  boundary conditions ever enter.  The +/-1 and +/-2 shifts along an axis
  are slices of one copy padded with two periodic layers per side, shared
  by that axis's first and second derivative.  The stencils write into the
  jet's slots in place, in the order of the plain sums, bit for bit, and of
  the Hessian only the entries k <= l; the public jet
  (:func:`grid_scalar_jet`) mirrors them after.  Those slots and the
  stencils' work arrays belong to a kernel (:func:`_grid_jet_kernel`), which
  an evolution binds once per run (:meth:`GridChart.evolving`).

A :class:`MetricField` couples a chart with metric samples (S, n, n) and
the source of their 2-jet ``(g, dg, d2g)``: the metric function, the jet
itself (an analytic chart's evolving fields) or, on grids, the samples.  The
curvature kernel reads the jet's lowered Christoffel symbols and Hessian
bracket (:meth:`MetricField.curvature_parts`), which an evolving analytic
field carries and any other field takes of its jet.  Every metric jet, on
either chart kind and in the frozen frame, differentiates only the n(n+1)/2
components ``g_ij``, ``i <= j``.  The parts read the jet as it is taken:
the first derivatives of the components, not mirrored, and the entries
k <= l of each Hessian, through cached gather tables
(:func:`_christoffel_index`, :func:`_hessian_index`).  :meth:`MetricField.jets`
mirrors the first derivatives to ``g_ji`` once per field, and keeps the jet.
A field checks positivity and inverts its
metric once, in one cofactor pass vectorised over the samples
(:func:`spd_inverse`, cached as :attr:`MetricField.inverse` or given to the
field made with it): one gather of each matrix's entries gives the adjugate
and the leading principal minors as signed sums of products.  Its kernel
(:func:`_inverse_kernel`) is bound to a stack's sample count and dtype, with
the pass's tables, the buffer the entries are copied into and the layout of
the result decided once; an evolution binds it once per run.  The minors
decide positivity by Sylvester's criterion (eigenvalues only on failure, to
name the worst sample), and the inverse is the adjugate over the
determinant.  The minors lose about kappa^(n-1) eps to roundoff where an LU
inverse loses kappa eps, kappa the condition number.  The fixed gathers of
the curvature kernels are chosen when a kernel is bound to its stacks'
shape: ``ndarray.take`` of the flat array for a stack of one sample, where
its fixed cost per call is the lower, and fancy indexing for more, which
gathers faster.
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

# the most factors one chunk of the cofactor pass gathers (32 MiB of float64);
# a 12^3 grid at n = 3 gathers 171k, so every shipped grid is one chunk
COFACTOR_GATHER = 2 ** 22


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
        Coordinates of the evaluation point, shape ``(n,)``, finite.
    step : float
        Base finite-difference step ``h > 0``, finite, with ``(h/2)^2`` a
        normal float, so that no stencil denominator underflows.
    """

    dimension: int
    point: np.ndarray
    step: float = DEFAULT_ANALYTIC_STEP

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError("chart dimension must be at least 2")
        if not (np.isfinite(self.step) and self.step > 0):
            raise ValueError(f"finite-difference step must be positive and finite, got {self.step}")
        if (0.5 * self.step) ** 2 < np.finfo(float).tiny:
            raise ValueError(f"finite-difference step {self.step} is too small: its half squared "
                             "is below the smallest normal float")
        pt = np.asarray(self.point, dtype=float).reshape(self.dimension)
        if not np.all(np.isfinite(pt)):
            raise ValueError(f"evaluation point must be finite, got {pt}")
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
        """Field builder of the frozen frame: ``build(g, inverse=None)`` is
        the field g(x) = M(x) g M(x)^T, made with the ``inverse`` of ``g`` if
        given, where M(x) = L0(x) L0(x0)^-1, ``L0`` the Cholesky factor of
        ``field`` at the points of the stencil and ``x0`` the point, where M
        is set to I exactly.  That is exact for congruence-homogeneous
        evolutions, such as every constant-curvature scenario; inhomogeneous
        dynamics belong on grid charts.

        The jet of that field is linear in the components ``g_ij``, i <= j, of
        the metric sample ``g``, shape (1, n, n), so :func:`richardson_jet` runs
        once, here, on the components of the images ``M E_q M^T`` of the
        symmetric basis matrices ``E_q``, and so does :func:`curvature_parts`,
        on the basis jets.  Each field's jets and curvature parts are then one
        product of those components, gathered from ``g`` by one flat ``take``,
        with the basis images (one of the parts' columns alone rounds
        differently); its jets are cut from it only when read.  The stencil's
        values are checked here, once: :class:`StencilOutOfDomain` names the
        first point where they are not finite, else the least positive
        definite one.  A complex field (a complex-step run) raises ``ValueError``.
        """
        if np.iscomplexobj(field.samples):
            raise ValueError("the frozen frame is real: complex-step runs need a grid chart")
        n = self.dimension
        stencil = analytic_stencil(n, self.step)
        g0 = stencil_values(field.func, self.point[None, :], stencil)[0]
        try:
            L = np.linalg.cholesky(g0)
        except np.linalg.LinAlgError:
            worst = np.argmin(np.linalg.eigvalsh(g0)[:, 0])
            raise StencilOutOfDomain(self.point + stencil.offsets[worst]) from None
        M = L @ np.linalg.inv(L[0])
        M[0] = np.eye(n)
        flat, component = _symmetric_components(n)
        basis = (component == np.arange(len(flat))[:, None, None]).astype(float)
        images = np.einsum('pab,qbc,pdc->qpad', M, basis, M).reshape(len(flat), -1, n * n)
        _, d1, d2g = richardson_jet(stencil, images[..., flat])
        pieces = (np.take(d1, component, axis=1), d2g, *curvature_parts(d1, d2g))
        jet_map = np.concatenate([p.reshape(len(flat), -1) for p in pieces], axis=1)
        ends = np.cumsum([0] + [p[0].size for p in pieces]).tolist()
        (dg, dg_shape), (d2g, d2g_shape), (low, low_shape), (bracket, bracket_shape) = [
            (slice(a, b), (1,) + p.shape[1:]) for a, b, p in zip(ends, ends[1:], pieces)]

        def build(g, inverse=None):
            d = g.take(flat).dot(jet_map)
            return MetricField(self, g, None, inverse,
                               lambda: (g, d[dg].reshape(dg_shape), d[d2g].reshape(d2g_shape)),
                               (d[low].reshape(low_shape), d[bracket].reshape(bracket_shape)))

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
        """Field builder of a grid: ``build(g, inverse=None)`` is the field of
        the samples ``g`` (S, n, n) of ``field``'s dtype, made with their
        ``inverse`` if given and with its curvature parts, taken at once.

        The arrays of the 2-jet are bound here, once per run: the components
        ``g_ij``, i <= j, and the :func:`_grid_jet_kernel` of their jet.  Each
        build copies ``g``'s components in, runs the kernel and reads its
        first derivatives and the k <= l entries of its Hessian, as the kernel
        writes them, into the field's :func:`curvature_parts`.  Each build
        overwrites those arrays, so no field hands them out: its curvature
        parts are fresh arrays, and its :meth:`MetricField.jets` are taken
        again of its samples."""
        n, dtype = self.dimension, field.samples.dtype
        flat = _symmetric_components(n)[0]
        values = np.empty(self.grid_shape + (len(flat),), dtype)
        rows = values.reshape(-1, len(flat))
        jet = _grid_jet_kernel(self, (len(flat),), dtype)

        def build(g, inverse=None):
            # mode 'clip' (the indices are in range) lets take write into
            # ``out`` directly, where 'raise' copies through a temporary
            g.reshape(-1, n * n).take(flat, axis=1, out=rows, mode="clip")
            _, d1, d2 = jet(values)
            return MetricField(self, g, None, inverse, None, curvature_parts(d1, d2))

        return build


def _require_periodic(chart, func, name, symbol):
    """Refuse with ``ValueError`` a function ``func`` of the points, named
    ``name`` and written ``symbol`` in the message, that is not finite on the
    grid ``chart`` or changes by more than 1e-9 of its largest magnitude one
    period further along an axis."""
    shifts = np.vstack([np.zeros(chart.dimension), np.diag(chart.lengths)])
    with np.errstate(all="ignore"):
        values, *images = [np.asarray(func(chart.sample_points + shift), dtype=float)
                           for shift in shifts]
        scale = np.abs(values).max()
        for axis, image in enumerate(images, 1):
            gap = np.abs(image - values).max()
            if not gap <= 1e-9 * scale:   # false where a value is not finite
                raise ValueError(f"the {name} is not finite and periodic on the grid: one "
                                 f"period along axis {axis} changes it by {gap / scale:.3g} of "
                                 f"max |{symbol}|")


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


def _grid_d1(sh, h, out, work):
    """Fourth-order periodic first derivative (-s(2) + 8 s(1) - 8 s(-1) +
    s(-2)) / (12 h) from the shifts ``s = sh`` of :func:`_periodic_shifts`,
    summed in the pair of arrays ``work`` and written to ``out``.  The sum
    starts from 8 s(1) - s(2), which is -s(2) + 8 s(1) exactly, and adds
    the other terms in order, so it is that expression bit for bit."""
    acc, term = work
    np.multiply(sh(1), 8.0, out=acc)
    acc -= sh(2)
    acc -= np.multiply(sh(-1), 8.0, out=term)
    acc += sh(-2)
    np.divide(acc, 12.0 * h, out=out)


def _grid_d2(sh, h, out, work):
    """Fourth-order periodic pure second derivative (-s(2) + 16 s(1) - 30
    s(0) + 16 s(-1) - s(-2)) / (12 h^2) from the shifts ``s = sh``, as
    :func:`_grid_d1` sums and writes it."""
    acc, term = work
    np.multiply(sh(1), 16.0, out=acc)
    acc -= sh(2)
    acc -= np.multiply(sh(0), 30.0, out=term)
    acc += np.multiply(sh(-1), 16.0, out=term)
    acc -= sh(-2)
    np.divide(acc, 12.0 * h * h, out=out)


def grid_scalar_jet(values, chart):
    """Value, gradient and symmetrised Hessian of grid-sampled components.

    ``values`` has shape ``grid_shape + tail``; the returned derivative arrays
    append one (resp. two) axes of length ``n`` after the tail.  The jet is
    that of a fresh :func:`_grid_jet_kernel`, so its arrays are the caller's,
    with the Hessian's k > l entries mirrored from its k < l ones here.
    """
    values = _real_or_complex(values)
    jet = _grid_jet_kernel(chart, values.shape[chart.dimension:], values.dtype)(values)
    lower, upper = np.tril_indices(chart.dimension, -1)
    jet[2][..., lower, upper] = jet[2][..., upper, lower]
    return jet


def _grid_jet_kernel(chart, tail, dtype):
    """:func:`grid_scalar_jet` of values ``grid_shape + tail`` (a tuple) of
    ``dtype``, bound once: the jet's derivative arrays and the pair of work
    arrays the stencils sum in, of the values' dtype, so that a complex-step
    field keeps its imaginary part.  Each axis is padded once and shared by its first and
    second derivative, and the stencils write straight into the jet's slots:
    every first derivative, and of the Hessian only the entries k <= l, which
    is all :func:`curvature_parts` reads; the k > l entries hold whatever the
    arrays held.  The kernel owns those arrays, and each call overwrites the
    jet of the last, so it is made for one run, not cached."""
    n, hs = chart.dimension, chart.spacings
    shape = chart.grid_shape + tail
    d1 = np.empty(shape + (n,), dtype)
    d2 = np.empty(shape + (n, n), dtype)
    work = np.empty(shape, dtype), np.empty(shape, dtype)
    flat = (chart.sample_count,) + tail
    jet = d1.reshape(flat + (n,)), d2.reshape(flat + (n, n))

    def kernel(values):
        for a in range(n):
            sh = _periodic_shifts(values, a)
            _grid_d1(sh, hs[a], d1[..., a], work)
            _grid_d2(sh, hs[a], d2[..., a, a], work)
            for b in range(a + 1, n):
                _grid_d1(_periodic_shifts(d1[..., a], b), hs[b], d2[..., a, b], work)
        return (values.reshape(flat),) + jet

    return kernel


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


def stencil_values(func, points, stencil):
    """``func`` at the points of ``stencil`` around each of ``points`` (B, n),
    shape ``(B, P) + tail``, float64 or complex128; :class:`StencilOutOfDomain`
    at the first stencil point whose values are not finite."""
    vals = _real_or_complex(func(points[:, None, :] + stencil.offsets[None, :, :]))
    if not np.all(np.isfinite(vals)):
        finite = np.isfinite(vals).reshape(vals.shape[0], vals.shape[1], -1).all(axis=-1)
        b, p = np.argwhere(~finite)[0]
        raise StencilOutOfDomain(points[b] + stencil.offsets[p])
    return vals


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
    return richardson_jet(stencil, stencil_values(func, points, stencil))


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
    ``real`` is ``index`` for real ``a``, which is its own real part: it
    reads the rows of ``[a, 1]``.
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
    index = np.array(index, dtype=int).T.copy()
    return _frozen(index, np.where(index == 2 * nn, nn, index % nn), weights)


def _cofactor_pass(rows, index, weights, chunk):
    """One vectorised pass over ``rows`` (R, S), the rows ``[a, re a, 1]`` of
    S matrices ``a`` (``[a, 1]`` for real ones, read by the ``real`` table of
    :func:`_cofactor_terms`): rows ``det a``, the n^2 entries of ``adj a`` and
    the n leading principal minors of ``re a``, (1 + n^2 + n, S), in chunks of
    at most ``chunk`` matrices, :data:`COFACTOR_GATHER` factors.  A
    polynomial in the entries, it keeps a complex ``a``'s dtype and a complex
    step through it exact."""
    if rows.shape[1] > chunk:
        return np.concatenate([_cofactor_pass(rows[:, s:s + chunk], index, weights, chunk)
                               for s in range(0, rows.shape[1], chunk)], axis=1)
    return weights.dot(np.multiply.reduce(rows.take(index, axis=0), axis=0))


def spd_inverse(g):
    """The inverse of every matrix of the stack ``g`` (..., n, n), C-contiguous: the adjugate
    over the determinant of one cofactor pass, which checks positivity (:func:`_inverse_kernel`),
    with a relative error of about kappa^(n-1) eps, kappa the condition number."""
    n = g.shape[-1]
    inverse = _inverse_kernel(n, g.size // (n * n), g.dtype)
    return inverse(g.reshape(-1, n, n)).reshape(g.shape)


def _inverse_kernel(n, count, dtype):
    """:func:`spd_inverse` of stacks (count, n, n) of ``dtype``, bound once:
    the pass's tables, and the buffer its rows are copied into, of a complex
    ``dtype`` or else float64, its row of ones written here.  The kernel owns
    that buffer, so it is made for one run, not cached.  Unless every leading
    principal minor of ``g.real`` is positive (Sylvester), the eigenvalues of
    the finite samples name the first sample that is not finite, else the
    least, in :class:`NotPositiveDefinite`."""
    nn, (index, real, weights) = n * n, _cofactor_terms(n)
    complex_ = np.dtype(dtype).kind == "c"
    dtype = dtype if complex_ else np.dtype(float)
    # the rows [a, re a, 1] of the pass, (R, count), and the stacks (count, n, n)
    # of their first n^2 and next n^2 rows, into which each call copies g
    rows = np.empty(((2 if complex_ else 1) * nn + 1, count), dtype)
    rows[-1] = 1.0
    entries = rows[:nn].T.reshape(count, n, n)
    real_parts = rows[nn:2 * nn].T.reshape(count, n, n) if complex_ else None
    terms = (rows, index if complex_ else real, weights, max(1, COFACTOR_GATHER // index.size))
    shape, single = (count, n, n), count == 1

    def inverse(g):
        entries[...] = g
        if complex_:
            real_parts[...] = g.real
        cof = _cofactor_pass(*terms)
        minors = cof[1 + nn:].real
        # the least minor or the first NaN, where argmin finds it
        if not minors.item(minors.argmin()) > 0.0:
            g = g.real
            finite = np.isfinite(g).all(axis=(1, 2))
            w = np.full(len(g), np.nan)
            w[finite] = np.linalg.eigvalsh(g[finite])[:, 0]
            worst = int(np.argmin(w))
            raise NotPositiveDefinite(worst, float(w[worst]))
        # the adjugate's rows are the samples' columns: one sample's column is
        # already its C-contiguous inverse, more are transposed and copied
        inv = cof[1:1 + nn] / cof[0]
        return inv.reshape(shape) if single else np.ascontiguousarray(inv.T).reshape(shape)

    return inverse


@lru_cache(maxsize=None)
def _symmetric_components(n):
    """Flat indices ``i n + j`` of the components i <= j of an n x n
    symmetric matrix, and the (n, n) map from each entry to its component."""
    rows, cols = np.triu_indices(n)
    component = np.empty((n, n), dtype=int)
    component[rows, cols] = component[cols, rows] = np.arange(len(rows))
    return _frozen(rows * n + cols, component)


@lru_cache(maxsize=None)
def _block_index(n, patterns):
    """Flat indices into ``(n,) * len(pattern)`` arrays: for each pattern and
    each block entry (P, Q) = ((i<j), (k<l)) on 2-forms, the component its
    letters name (``'ikjl'`` names ``a[i, k, j, l]``).  Shape
    (len(patterns), N * N), N = n(n-1)/2."""
    i, j = np.triu_indices(n, 1)
    letters = {"i": i[:, None], "j": j[:, None], "k": i[None, :], "l": j[None, :]}
    return _frozen(np.array([np.ravel_multi_index(np.broadcast_arrays(*(letters[c] for c in p)),
                                                  (n,) * len(p)).ravel() for p in patterns]))[0]


@lru_cache(maxsize=None)
def _christoffel_index(n):
    """Flat indices into first derivatives (n(n+1)/2, n) of the components
    ``g_ij``, i <= j, unmirrored, of the three terms of each lowered symbol
    ``[l, j, k]``: ``d_k g_lj``, ``d_j g_lk`` and ``d_l g_jk``.  Shape
    (3, n^3)."""
    component = _symmetric_components(n)[1]
    l, j, k = np.indices((n, n, n)).reshape(3, -1)
    return _frozen(np.array([component[l, j] * n + k, component[l, k] * n + j,
                             component[j, k] * n + l]))[0]


@lru_cache(maxsize=None)
def _hessian_index(n):
    """Flat indices into a compact Hessian (n(n+1)/2, n, n), the ``d2g`` of
    :meth:`MetricField.jets`, of the four second derivatives in the bracket
    of each block entry: ``d2g[i, k, j, l]``, ``d2g[j, l, i, k]``,
    ``d2g[j, k, i, l]`` and ``d2g[i, l, j, k]`` with the metric pair read as
    its component and the derivative pair as its entry ``c <= d``, so that
    only the upper entries of each Hessian are read.  Shape (4, N * N)."""
    full = _block_index(n, ("ikjl", "jlik", "jkil", "iljk"))
    component = _symmetric_components(n)[1].ravel()
    c, d = full % n ** 2 // n, full % n
    return _frozen(component[full // n ** 2] * n ** 2 + np.minimum(c, d) * n + np.maximum(c, d))[0]


def _unmirrored(dg):
    """The first derivatives (..., n(n+1)/2, n) of the components ``g_ij``, i
    <= j, in ``np.triu_indices`` order, of the mirrored ones ``dg`` (..., n,
    n, n) of :meth:`MetricField.jets`: the layout the jets are taken in."""
    n = dg.shape[-1]
    return np.take(dg.reshape(dg.shape[:-3] + (n * n, n)), _symmetric_components(n)[0], axis=-2)


def _half_sum(a, index):
    """``((a[..., i0] + a[..., i1]) - a[..., i2] - ...) * 0.5`` over the rows
    of ``index``, summed in place in the first gather, a fresh array."""
    out = a[..., index[0]]
    out += a[..., index[1]]
    for i in index[2:]:
        out -= a[..., i]
    out *= 0.5
    return out


def lowered_christoffel(d1):
    """The lowered Christoffel symbols ``low[..., l, j, k] = Gamma_{l,jk} =
    1/2 (d_k g_lj + d_j g_lk - d_l g_jk)``, (..., n, n, n), of the first
    derivatives ``d1`` (..., n(n+1)/2, n) of the components ``g_ij``, i <=
    j, unmirrored, as the chart jets take them (:func:`_unmirrored` of the
    mirrored ones of :meth:`MetricField.jets`)."""
    n, lead = d1.shape[-1], d1.shape[:-2]
    return _half_sum(d1.reshape(lead + (-1,)), _christoffel_index(n)).reshape(lead + (n, n, n))


def curvature_parts(d1, d2g):
    """The parts of the curvature linear in a metric's 2-jet, of stacks (S,
    ...) of the first derivatives ``d1`` (S, n(n+1)/2, n) of the components
    ``g_ij``, i <= j, unmirrored, and their Hessians ``d2g`` (S, n(n+1)/2, n,
    n), of which only the entries k <= l are read: the jet as the chart jets
    take it, before any mirroring.  The parts are fresh arrays laid out as
    the curvature kernel reads them: the lowered Christoffel symbols
    (:func:`lowered_christoffel`), (S, n, n^2), and the Hessian bracket, the
    block on 2-forms, flattened to (S, N^2), of
    1/2 (d_j d_l g_ik + d_i d_k g_jl - d_i d_l g_jk - d_j d_k g_il)."""
    n = d1.shape[-1]
    # d2g[..., (ab), c, d] = d_c d_d g_ab, so that d_j d_l g_ik at [i, j, k, l]
    # is d2g[(ik), j, l], and so on
    bracket = _half_sum(d2g.reshape(len(d2g), -1), _hessian_index(n))
    return lowered_christoffel(d1).reshape(-1, n, n * n), bracket


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
    _parts: tuple = dataclass_field(default=None, repr=False)

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
        """Inverse metric at the samples, shape (S, n, n): the one the field
        was made with, else computed once and read-only by
        :func:`spd_inverse`, whose pass also checks positivity: raises
        :class:`NotPositiveDefinite` at the worst offending sample."""
        if self._inverse is None:
            self._inverse = spd_inverse(self.samples)
            self._inverse.flags.writeable = False
        return self._inverse

    def validate_spd(self):
        """Raise :class:`NotPositiveDefinite` at the worst offending sample
        (see :func:`spd_inverse`); the same pass gives :attr:`inverse`."""
        self.inverse

    def jets(self):
        """Return ``(g, dg, d2g)`` flattened over samples, ``d2g`` over the
        n(n+1)/2 components ``g_ij``, i <= j: shape (S, n(n+1)/2, n, n).

        ``g`` is the samples.  The rest is the jet the field was made with (or
        its maker's, when first read), else the chart's jet of those components
        of its function or, without one, of its samples, mirrored to ``g_ji``
        and kept, read-only, so that the jet is taken once per field.
        """
        if callable(self._jets):
            self._jets = self._jets()
        if self._jets is None:
            n = self.dimension
            flat, component = _symmetric_components(n)
            source = (np.take(self.samples.reshape(-1, n * n), flat, axis=1) if self.func is None
                      else lambda x: np.take(np.reshape(self.func(x), x.shape[:-1] + (n * n,)),
                                             flat, -1))
            _, d1, d2 = self.chart.jet(source)
            self._jets = (self.samples,) + _frozen(np.take(d1, component, axis=1), d2)
        return self._jets

    def curvature_parts(self):
        """The lowered Christoffel symbols and the Hessian bracket of the
        field's 2-jet (:func:`curvature_parts`): those the field was made
        with, else those of :meth:`jets`."""
        if self._parts is not None:
            return self._parts
        _, dg, d2g = self.jets()
        return curvature_parts(_unmirrored(dg), d2g)
