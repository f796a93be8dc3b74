"""First-order metric evolutions driven by curvature, and the law table.

Four first-order laws are integrated on the metric components:

* ``ricci``:             dg/dt = -2 Ric(g)
* ``riemann-induced``:   the unique velocity solving the pair-trace
                         contraction of dG/dt = -2 Riem(g), namely
                         (n-2) v + tr(v) g = g^{jl} (-2 R)_ijkl
* ``riemann-type``:      dG/dt = alpha Riem + beta tr_g(v) G, the general
                         family at (beta, delta, trace) = (1, -alpha, -beta);
                         degenerate at beta = 2/n, where the contracted
                         equation no longer fixes tr_g(v)
* ``general``:           the first-order member of the general family,
                         beta dG/dt + gamma G + delta Riem = 0

Every law, first or second order, is one row of a table, and the table is
the library's only way to evaluate a law.  :func:`resolve_law` turns a name,
or a ``(name, params)`` pair, into a frozen :class:`Law` record once, at
integrator entry, and rejects parameters the law does not take.  The record
gives the rate (velocity or acceleration), ``Law.rate_at(field[, velocity])``
at a field, and the equation residual, ``Law.residual``; one RK4 system
steps flows and waves alike.  Every law but the Ricci ones (which run at
n = 2 too) is a row of the general family: ``riemann-induced`` at (beta=1,
delta=2), ``riemann-wave`` at (alpha=1, delta=2), bit for bit.

The RK4 state is the metric samples, and for a wave the velocity samples
too, on both chart kinds, and while the cross-check runs the pair product
last; each rate is symmetrized, so a symmetric state stays exactly
symmetric.  The chart's ``evolving`` map turns a state's metric samples into
a field.  On periodic grids the field is the samples, and the evolution is
a genuine method-of-lines PDE solve.  On analytic single-point charts the
state is the metric at the evaluation point, and the spatial field is
carried in the frozen frame of the initial metric
(:meth:`~riemflow.charts.AnalyticChart.evolving`), whose jets are taken
once per run; general inhomogeneous dynamics belong on grid charts.  A stage
whose state is not finite fails its positivity check, on both chart kinds;
a metric that is not finite at a stencil point is refused with
:class:`~riemflow.errors.StencilOutOfDomain` when the run starts.

Every law steps at a fixed ``dt``, on the schedule of :func:`step_ends`.  A
failed step whose bisection (:func:`bisect`) reaches a state below the
collapse threshold is a collapse, and any other raises
:class:`~riemflow.errors.StepRejected`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bialternate import recover_metric
from .charts import MetricField
from .curvature import (
    CurvatureTensor,
    kn_product,
    pair_product_from_samples,
    pair_trace,
    ricci_scalar_from_arrays,
    riemann,
    tensor_norm,
)
from .errors import (
    DegenerateCoefficients,
    DimensionTooSmall,
    EmptyTrajectory,
    NotInImage,
    NoSingularity,
    NotPositiveDefinite,
    StepRejected,
)

COLLAPSE_EIG_FRACTION = 1e-6


def bisect(inside, lo, hi):
    """Where ``inside`` turns from true at ``lo`` to false at ``hi`` (either
    may be the larger), to the spacing of floats; ``inside`` may raise to
    end the search early."""
    mid = 0.5 * (lo + hi)
    while lo != mid != hi:
        if inside(mid):
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


# ---------------------------------------------------------------------------
# the law table
# ---------------------------------------------------------------------------


def solve_pair_trace(g, ginv, rhs4, coupling=1.0):
    """Solve (v ^ g)_ijkl + t tr_g(v) G_ijkl = rhs4 for the symmetric
    velocity v, with ``rhs4`` given as its block on 2-forms and the trace
    term given by the contracted coupling ``c = 1 + t (n-1)``.

    Contracting with ``g^{jl}`` gives ``(n-2) v + c tr(v) g = W`` with
    ``W = g^{jl} rhs4_ijkl``; the trace of that equation fixes ``tr v``
    unless ``(n-2) + n c = 0``.
    """
    n = g.shape[-1]
    if n < 3:
        raise DimensionTooSmall("the pair-trace inversion needs n >= 3")
    W = pair_trace(ginv, rhs4)
    trW = np.einsum('...ik,...ik->...', ginv, W)
    trv = trW / ((n - 2) + n * coupling)
    return (W - coupling * trv[..., None, None] * g) / (n - 2)


def _combine(terms, like, lead=1.0):
    """Sum of ``c * term()`` over the ``(c, term)`` pairs with c != 0, added
    in order and divided by ``lead``.

    Zero terms are never built and unit factors never applied; ``1.0 * x``
    and ``x / 1.0`` are exact, so skipping them changes no bit.  With every
    term skipped the sum is zeros shaped like ``like``.
    """
    total = None
    for c, term in terms:
        if c != 0.0:
            x = term() if c == 1.0 else c * term()
            total = x if total is None else total + x
    if total is None:
        return np.zeros_like(like)
    return total if lead == 1.0 else total / lead


@dataclass(frozen=True)
class Law:
    """A resolved evolution law: its name, order (1 flow, 2 wave), kind and
    coefficients.

    ``family``: alpha (a ^ g + 2 k (.) k) + beta (k ^ g) + trace tr_g(k) G
    + gamma G + delta Riem = 0, the G-level general family, solved for the
    acceleration ``a`` (order 2) or the velocity ``k`` (order 1); only a
    first-order law has a ``trace`` term.  ``ricci``: the metric-level
    alpha a + beta k + delta Ric = 0, which also runs at n = 2.
    """

    name: str
    order: int
    kind: str
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    delta: float = 0.0
    trace: float = 0.0

    @property
    def lead(self):
        """The coefficient of the highest time derivative."""
        return self.alpha if self.order == 2 else self.beta

    def coupling(self, n):
        """c in the contracted family equation (n-2) k + c tr_g(k) g = W,
        1 + trace (n-1) / lead (see :func:`solve_pair_trace`)."""
        return 1.0 + self.trace * (n - 1) / self.lead

    @property
    def pair_rate_factor(self):
        """c in dG/dt = c Riem, for first-order family laws with
        gamma = trace = 0; ``None`` for the other laws."""
        if self.kind == "family" and self.order == 1 and self.gamma == self.trace == 0.0:
            return -(self.delta / self.beta)
        return None

    def rate(self, g, ginv, k, riem):
        """Metric velocity (order 1) or acceleration (order 2) at metric
        samples ``g`` with inverse ``ginv``, velocity samples ``k`` (order 2)
        and the curvature block ``riem``."""
        if self.kind == "ricci":
            ric, _ = ricci_scalar_from_arrays(ginv, riem)
            return _combine([(-self.delta, lambda: ric)], ric, self.lead)
        terms = [(-self.gamma, lambda: pair_product_from_samples(g)),
                 (-self.delta, lambda: riem)]
        if self.order == 2:
            terms = [(-2.0 * self.alpha, lambda: pair_product_from_samples(k)),
                     (-self.beta, lambda: kn_product(k, g))] + terms
        return solve_pair_trace(g, ginv, _combine(terms, riem, self.lead),
                                self.coupling(g.shape[-1]))

    def rate_at(self, field, velocity=None):
        """:meth:`rate` at a field's samples and curvature."""
        g = field.samples
        k = None if velocity is None else np.asarray(velocity, dtype=float).reshape(g.shape)
        return self.rate(g, field.inverse, k, riemann(field).block)

    def residual(self, g, ginv, k, rate, riem):
        """Max norm of the law's G-level equation at the ``rate`` that
        :meth:`rate` gave for the same samples."""
        if self.kind == "ricci":
            ric, _ = ricci_scalar_from_arrays(ginv, riem)
            total = kn_product(_combine([(self.lead, lambda: rate), (self.delta, lambda: ric)],
                                        ric), g)
        else:
            v = rate if self.order == 1 else k
            total = _combine([
                (self.alpha, lambda: kn_product(rate, g) + 2.0 * pair_product_from_samples(k)),
                (self.beta, lambda: kn_product(v, g)),
                (self.trace, lambda: np.einsum('...ik,...ik->...', ginv, v)[..., None, None]
                 * pair_product_from_samples(g)),
                (self.gamma, lambda: pair_product_from_samples(g)),
                (self.delta, lambda: riem)], riem)
        return float(np.abs(total).max())


# (name, order) -> (kind, parameter names, defaults[, to_family]); a parameter
# without a default is required, defaults are functions of the dimension n,
# and ``to_family`` maps the law's parameters to the family's coefficients
_LAWS = {
    ("ricci", 1): ("ricci", (), lambda n: {"beta": 1.0, "delta": 2.0}),
    ("riemann-induced", 1): ("family", (), lambda n: {"beta": 1.0, "delta": 2.0}),
    # (k ^ g) = alpha Riem + beta tr_g(k) G
    ("riemann-type", 1): ("family", ("alpha", "beta"),
                          lambda n: {"alpha": -2.0 * (n - 2), "beta": 1.0 / (n - 1)},
                          lambda alpha, beta: {"beta": 1.0, "delta": -alpha, "trace": -beta}),
    ("general", 1): ("family", ("beta", "gamma", "delta"),
                     lambda n: {"gamma": 0.0, "delta": 0.0}),
    ("ricci-wave", 2): ("ricci", (), lambda n: {"alpha": 1.0, "delta": 2.0}),
    ("riemann-wave", 2): ("family", (), lambda n: {"alpha": 1.0, "delta": 2.0}),
    ("general", 2): ("family", ("alpha", "beta", "gamma", "delta"),
                     lambda n: {"alpha": 1.0, "beta": 0.0, "gamma": 0.0, "delta": 2.0}),
}


def resolve_law(law, n, order):
    """The :class:`Law` record of ``law`` (a name, a ``(name, params)`` pair
    or a record) for dimension ``n`` as a law of ``order`` (1 for
    :func:`integrate_flow`, 2 for ``integrate_wave``).

    Raises ``ValueError`` for an unknown name, a parameter the law does not
    take, a missing required one or a non-numeric value;
    :class:`DimensionTooSmall` when a law that inverts the pair trace meets
    ``n < 3``; :class:`DegenerateCoefficients` when the leading coefficient
    vanishes or the contracted equation does not fix the trace of the
    velocity (riemann-type at ``beta = 2/n``).  A general wave with
    ``alpha = 0`` resolves to the first-order flow.
    """
    if isinstance(law, Law):
        if law.order > order:
            raise ValueError(f"law {law.name!r} of order {law.order} given as order {order}")
        return law
    name, params = (law[0], dict(law[1] or {})) if isinstance(law, (tuple, list)) else (law, {})
    if (name, order) not in _LAWS:
        raise ValueError(f"unknown {('flow', 'wave')[order - 1]} law {name!r}")
    kind, names, defaults, *to_family = _LAWS[name, order]
    if kind != "ricci" and n < 3:
        raise DimensionTooSmall(f"law {name!r} needs n >= 3")
    coeffs = defaults(n)
    for key in params:
        if key not in names:
            raise ValueError(f"law {name!r} takes no parameter {key!r}"
                             + (f" (it takes {', '.join(names)})" if names else ""))
        try:
            coeffs[key] = float(params[key])
        except (TypeError, ValueError):
            raise ValueError(f"parameter {key!r} of law {name!r} must be a number") from None
    missing = [key for key in names if key not in coeffs]
    if missing:
        raise ValueError(f"law {name!r} needs parameter {missing[0]!r}")
    if to_family:
        coeffs = to_family[0](**coeffs)
    if kind == "family":
        if order == 2 and coeffs["alpha"] == 0.0:
            order = 1
        if coeffs["alpha" if order == 2 else "beta"] == 0.0:
            raise DegenerateCoefficients(f"law {name!r} needs alpha != 0 or beta != 0")
    law = Law(name, order, kind, **coeffs)
    if kind == "family" and abs((n - 2) + n * law.coupling(n)) < 1e-14:
        raise DegenerateCoefficients(f"law {name!r} is degenerate: its contracted equation "
                                     "does not fix the trace of the velocity")
    return law


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass
class FlowState:
    t: float
    field: MetricField


@dataclass
class HomothetySolution:
    """Exact uniform-scaling solution for constant-curvature data."""

    factor: float          # lam with Riem(g0) = lam * G0
    scale: float           # f(t) = 1 - lam t
    pair_scale: float      # f(t)^2
    collapse_time: float   # 1/lam when lam > 0, else None


def homothety_flow_solution(lam, t):
    f = 1.0 - lam * t
    T = 1.0 / lam if lam > 0 else None
    return HomothetySolution(factor=lam, scale=f, pair_scale=f * f, collapse_time=T)


@dataclass
class Trajectory:
    """Recorded evolution samples plus per-record diagnostics."""

    chart: object
    law: str
    times: list
    states: list                      # metric samples (S, n, n) per record
    velocities: list                  # d(state)/dt samples at records
    diagnostics: dict
    termination: str = "t_end"

    def diagnostic(self, key):
        return np.asarray(self.diagnostics[key], dtype=float)


def _rel_eig_factors(g0_samples):
    return np.linalg.inv(np.linalg.cholesky(g0_samples))


def _relative_eigenvalues(g_samples, L0inv):
    return np.linalg.eigvalsh(L0inv @ g_samples @ np.swapaxes(L0inv, -1, -2))


def step_ends(t0, t_end, dt):
    """The end times of the fixed steps of ``dt`` from ``t0`` to ``t_end``:
    ``t0 + k dt`` for k = 1 .. N-1 and then ``t_end`` itself, with
    N = ceil((t_end - t0) / dt - 1e-9), so that no step shorter than 1e-9 of
    ``dt`` is taken.  Empty when ``t_end`` is not past ``t0``."""
    count = math.ceil((t_end - t0) / dt - 1e-9)
    return [t0 + k * dt for k in range(1, count)] + [t_end] if count > 0 else []


class _RK4System:
    """RK4 state of a law: the metric samples and, for a wave, the velocity
    samples, ``[g]`` or ``[g, k]``, on either chart kind, and with
    ``cross_check`` the pair product ``G = C_2(g)`` last, evolved directly
    at the law's ``pair_rate_factor`` times Riem.  Only the field of a state
    depends on the chart, through its ``evolving`` map.
    """

    def __init__(self, field, law, velocity=None, cross_check=False):
        chart = self.chart = field.chart
        self.law = law
        self.wave = law.order == 2
        self.pair_rate = law.pair_rate_factor if cross_check else None
        if cross_check and self.pair_rate is None:
            raise ValueError(f"cross_check_stride needs a first-order family law with "
                             f"gamma = trace = 0, not {law.name!r}")
        self._last = None
        g = field.samples
        self.state0 = [g.copy()]
        if self.wave:
            self.state0.append(np.asarray(velocity, dtype=float).reshape(g.shape).copy())
        if cross_check:
            self.state0.append(pair_product_from_samples(g).copy())
        # the builder holds the chart, not the system
        self._build = chart.evolving(field)

    def field_of(self, state):
        """The metric field of a state.  The last one made is kept, so that
        the rhs at a state :func:`_rk4_step` accepted reuses that step's
        positivity pass, which also gave the inverse."""
        if self._last is None or self._last[0] is not state[0]:
            self._last = (state[0], self._build(state[0]))
        return self._last[1]

    def rhs(self, state):
        """(d state/dt, curvature block, the law's rate at the samples, the
        inverse metric there).  The rate is symmetrized, so a symmetric
        state stays exactly symmetric.  Raises :class:`NotPositiveDefinite`
        when the state's metric is not positive definite."""
        fld = self.field_of(state)
        riem = riemann(fld).block
        k = state[1] if self.wave else None
        rate = self.law.rate(fld.samples, fld.inverse, k, riem)
        rate = 0.5 * (rate + np.swapaxes(rate, -1, -2))
        d = [rate] if k is None else [k, rate]
        if self.pair_rate is not None:
            d.append(self.pair_rate * riem)
        return d, riem, rate, fld.inverse


def integrate_flow(initial, law, dt, t_end, *, stride=10,
                   collapse_threshold=COLLAPSE_EIG_FRACTION,
                   curvature_cap=None, cross_check_stride=None):
    """Integrate a first-order law with classical RK4.

    Parameters
    ----------
    initial : MetricField or FlowState
        Starting metric (t = 0 unless a state is given).
    law : str, (str, dict) or Law
        ``'ricci'``, ``'riemann-induced'``, ``('riemann-type', {...})`` or
        ``('general', {'beta': .., 'gamma': .., 'delta': ..})``; see
        :func:`resolve_law` for the parameters each law takes.
    dt, t_end : float
        Fixed step and horizon: the steps end at ``t0 + k dt`` and the last
        one exactly at ``t_end`` (:func:`step_ends`).  A ``t_end`` at the
        start time takes no step, and one before it raises ``ValueError``.
    stride : int
        Record every ``stride``-th step (the last step is always recorded).
    collapse_threshold : float
        Relative eigenvalue floor: the run ends with ``collapse`` at a state
        below it, or at a failed step whose bisection reaches such a state
        (a failed step that does not raises :class:`StepRejected`).
    curvature_cap : float, optional
        Stop with ``curvature_cap`` termination when sup |Riem| exceeds it.
    cross_check_stride : int, optional
        Every so many records, also evolve the pair product directly, at
        dG/dt = -(delta/beta) Riem, and record how far the metric recovered
        from it is from the evolved one (``inf`` when the recovery fails).
        Only first-order family laws with gamma = 0 and no trace term
        (``riemann-induced``, such ``general`` laws and ``riemann-type``
        with beta = 0) give the pair product that rate; any other law raises
        ``ValueError``.
    """
    return _rk4_evolve(initial, law, 1, None, dt, t_end, stride, collapse_threshold,
                       curvature_cap, cross_check_stride)


class _Collapsed(Exception):
    """A failed step's bisection reached a state below the threshold."""


def _rk4_evolve(initial, law, order, velocity, dt, t_end, stride, collapse_threshold,
                curvature_cap, cross_check_stride):
    """The trajectory of :func:`integrate_flow` (``order`` 1) or
    ``integrate_wave`` (``order`` 2) from a field or a state; a state's own
    velocity, if it has one, replaces ``velocity``, which defaults to zero."""
    if isinstance(initial, MetricField):
        t0, fld = 0.0, initial
    else:
        t0, fld, velocity = initial.t, initial.field, getattr(initial, "velocity", velocity)
    _check_schedule(t0, t_end, dt)
    if stride < 1:
        raise ValueError("stride must be at least 1")
    fld.validate_spd()
    if order == 2 and velocity is None:
        velocity = np.zeros_like(fld.samples)
    system = _RK4System(fld, resolve_law(law, fld.dimension, order), velocity,
                        bool(cross_check_stride))
    state = system.state0
    g0 = state[0].copy()
    L0inv = _rel_eig_factors(g0)
    det0 = np.linalg.det(g0)
    n = g0.shape[-1]

    traj = Trajectory(chart=system.chart, law=system.law.name, times=[], states=[],
                      velocities=[], diagnostics={k: [] for k in (
                          "f_est", "min_rel_eig", "max_rel_eig", "sup_ric_norm",
                          "sup_riem_norm", "scalar_min", "scalar_max",
                          "eq_residual", "det_g_min", "cross_check_error")})

    def record(t, state, rel):
        """Append a record of ``state``, whose relative eigenvalues are
        ``rel``; returns sup |Riem| and the state's rhs, which the next step
        reuses."""
        g = state[0]
        first = system.rhs(state)
        _, riem, rate, ginv = first
        k = state[1] if system.wave else None
        ric, scal = ricci_scalar_from_arrays(ginv, riem)
        riem_norm = tensor_norm(CurvatureTensor(riem), ginv)
        ric_norm = tensor_norm(ric, ginv)
        traj.times.append(t)
        traj.states.append(g.copy())
        traj.velocities.append((rate if k is None else k).copy())
        d = traj.diagnostics
        det = np.linalg.det(g)
        d["f_est"].append(float(np.mean((det / det0) ** (1.0 / n))))
        d["min_rel_eig"].append(float(rel.min()))
        d["max_rel_eig"].append(float(rel.max()))
        d["sup_ric_norm"].append(float(ric_norm.max()))
        d["sup_riem_norm"].append(float(riem_norm.max()))
        d["scalar_min"].append(float(scal.min()))
        d["scalar_max"].append(float(scal.max()))
        d["eq_residual"].append(system.law.residual(g, ginv, k, rate, riem))
        d["det_g_min"].append(float(det.min()))
        if cross_check_stride and (len(traj.times) - 1) % cross_check_stride == 0:
            try:
                err = float(np.abs(recover_metric(state[-1], n) - g).max())
            except NotInImage:
                err = math.inf
            d["cross_check_error"].append(err)
        else:
            d["cross_check_error"].append(float("nan"))
        return float(riem_norm.max()), first

    # ``first`` is the rhs at ``state`` once known, so that neither a record
    # nor a failed step's bisection evaluates it twice; ``rel`` holds the
    # relative eigenvalues of ``state``
    rel = _relative_eigenvalues(g0, L0inv)
    sup_riem, first = record(t0, state, rel)
    t = t0
    termination = "t_end"
    ends = step_ends(t0, t_end, dt)
    for steps, t_next in enumerate(ends, 1):
        new_state, first = _rk4_step(system, state, t_next - t, first)
        if new_state is None:
            # bisect the failed step's end time, up to the first state below
            # the threshold, which is a collapse and is not recorded
            def inside(T):
                new = _rk4_step(system, state, T - t, first)[0]
                if new and _relative_eigenvalues(new[0], L0inv).min() < collapse_threshold:
                    raise _Collapsed
                return bool(new)
            try:
                bisect(inside, t, t_next)
            except _Collapsed:
                termination = "collapse"
                break
            raise StepRejected(f"the step at t={t:.6g} fails and no shorter one reaches the "
                               "collapse threshold")
        state = new_state
        first = None
        t = t_next
        rel = _relative_eigenvalues(state[0], L0inv)
        min_rel = float(rel.min())
        # keep a dense record of the approach to collapse for the monitors
        near_collapse = min_rel < max(0.1, 1e3 * collapse_threshold)
        if steps % stride == 0 or near_collapse or steps == len(ends):
            sup_riem, first = record(t, state, rel)
        if min_rel < collapse_threshold:
            termination = "collapse"
            break
        if curvature_cap is not None and sup_riem > curvature_cap:
            termination = "curvature_cap"
            break
    if traj.times[-1] != t:
        record(t, state, rel)
    traj.termination = termination
    return traj


def _rk4_step(system, state, dt, first=None):
    """One classical RK4 step with a positivity guard on every stage.

    Each stage's positivity check is the one its rhs makes (a stage that
    raises :class:`NotPositiveDefinite` fails the step); the new state's
    field makes the same check, :meth:`MetricField.validate_spd`.
    ``first`` is ``system.rhs(state)`` when already known.  Returns (new
    state, ``first``): the state is ``None`` when the step fails, and
    ``first`` is ``None`` when computing it failed.
    """
    try:
        if first is None:
            first = system.rhs(state)
        k1 = first[0]
        k2 = system.rhs([y + 0.5 * dt * k for y, k in zip(state, k1)])[0]
        k3 = system.rhs([y + 0.5 * dt * k for y, k in zip(state, k2)])[0]
        k4 = system.rhs([y + dt * k for y, k in zip(state, k3)])[0]
        new = [y + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
               for y, a, b, c, d in zip(state, k1, k2, k3, k4)]
        system.field_of(new).validate_spd()
    except (np.linalg.LinAlgError, FloatingPointError, NotPositiveDefinite):
        return None, first
    if not all(np.all(np.isfinite(a)) for a in new):
        return None, first
    return new, first


def _check_schedule(t0, t_end, dt):
    """Refuse a step ``dt`` that is not positive or a ``t_end`` before the
    start time ``t0`` with ``ValueError``."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < t0:
        raise ValueError(f"t_end = {t_end:g} is before the start time t = {t0:g}")


# ---------------------------------------------------------------------------
# trajectory checks
# ---------------------------------------------------------------------------


@dataclass
class EquivalenceReport:
    passed: bool
    bound: float
    worst_margin: float
    worst_time: float
    worst_sample: int


def check_metric_equivalence(trajectory, m=None, which="ricci"):
    """Check e^{-2mt} g(0) <= g(t) <= e^{2mt} g(0) in the eigenvalue sense.

    ``which='ricci'`` bounds the metric itself with m = sup |Ric|;
    ``which='riemann'`` bounds the pair product, the block C_2(g) on
    2-forms, with m = sup |Riem|.
    Semidefinite ordering is evaluated through generalized eigenvalues
    relative to the initial state; a margin down to -1e-9 passes.
    """
    times = list(getattr(trajectory, "times", []))
    states = list(getattr(trajectory, "states", []))
    if not times or not states:
        raise EmptyTrajectory("equivalence check needs at least one sample")
    t0 = times[0]
    if m is None:
        key = "sup_ric_norm" if which == "ricci" else "sup_riem_norm"
        m = float(np.max(trajectory.diagnostic(key)))

    if which not in ("ricci", "riemann"):
        raise ValueError("which must be 'ricci' or 'riemann'")
    mats = states if which == "ricci" else [pair_product_from_samples(s) for s in states]
    L0inv = _rel_eig_factors(mats[0])
    worst = (math.inf, 0.0, 0)
    for t, mat in zip(times, mats):
        rel = _relative_eigenvalues(mat, L0inv)
        arg = 2.0 * m * (t - t0)
        lo = math.exp(-arg)
        hi = math.exp(arg) if arg < 700.0 else math.inf
        margin = min(float(rel.min() - lo), float(hi - rel.max()))
        if margin < worst[0]:
            worst = (margin, t, int(np.argmin(rel.min(axis=-1))))
    passed = worst[0] >= -1e-9
    return EquivalenceReport(passed=passed, bound=m, worst_margin=worst[0],
                             worst_time=worst[1], worst_sample=worst[2])


# ---------------------------------------------------------------------------
# blow-up monitoring
# ---------------------------------------------------------------------------


@dataclass
class BlowUpReport:
    T_est: float
    T_est_uncertainty: float   # of T_est, from estimate_singular_time
    exponent: float
    curve: tuple   # (T_est - t, sup |Riem|) over the fit window


def estimate_singular_time(times, scales):
    """Singular time from the decay of a positive scale series, and its
    uncertainty.

    Fits ``scale ~ C (T - t)^alpha`` through three late samples, solving for
    ``T`` by bisection; falls back to a Newton step from the last two samples
    when the fit degenerates.  Returns ``(T, uncertainty)``, where the
    uncertainty is the spread between the fit and the same fit without the
    last sample, a practical proxy for the resolution of ``T``.
    """
    t = np.asarray(times, dtype=float)
    f = np.asarray(scales, dtype=float)
    good = f > 0
    t, f = t[good], f[good]
    if len(t) < 3:
        raise ValueError("need at least three positive samples")
    T = _three_point_singular_time(t, f)
    T_alt = _three_point_singular_time(t[:-1], f[:-1]) if len(t) >= 4 else T
    return T, abs(T - T_alt) + 1e-12 * max(1.0, abs(T))


def _three_point_singular_time(t, f):
    i3 = len(t) - 1
    i1 = max(0, i3 - 8)
    i2 = (i1 + i3) // 2
    if i2 == i1 or i2 == i3:
        i1, i2, i3 = len(t) - 3, len(t) - 2, len(t) - 1
    t1, t2, t3 = t[i1], t[i2], t[i3]
    f1, f2, f3 = f[i1], f[i2], f[i3]

    newton = t3 + f3 * (t3 - t2) / max(f2 - f3, 1e-300)

    def mismatch(T):
        a12 = (math.log(f1) - math.log(f2)) / (math.log(T - t1) - math.log(T - t2))
        a23 = (math.log(f2) - math.log(f3)) / (math.log(T - t2) - math.log(T - t3))
        return a12 - a23

    lo = t3 + 1e-15 * max(1.0, abs(t3))
    hi = max(newton * 2.0, t3 + 10.0 * (t3 - t1))
    lo += (hi - lo) * 1e-12
    try:
        mlo = mismatch(lo)
        if mlo * mismatch(hi) <= 0:
            return bisect(lambda T: mismatch(T) * mlo > 0.0, lo, hi)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    return newton


def monitor_blow_up(trajectory):
    """Singular-time estimate, its uncertainty and the curvature growth
    exponent.

    Requires a trajectory that stopped at collapse or the curvature cap;
    raises :class:`NoSingularity` otherwise.  The exponent is the least-squares
    slope of ``log sup|Riem|`` against ``log (T - t)`` over the final decade
    of ``T - t``.
    """
    if trajectory.termination not in ("collapse", "curvature_cap"):
        raise NoSingularity(f"trajectory ended with {trajectory.termination!r}")
    times = np.asarray(trajectory.times, dtype=float)
    scale = trajectory.diagnostic("min_rel_eig")
    T, unc = estimate_singular_time(times, scale)

    norms = trajectory.diagnostic("sup_riem_norm")
    gap = T - times
    # gaps below the resolution of T carry no slope information
    ok = (gap > 100.0 * unc) & (norms > 0)
    gap, norms = gap[ok], norms[ok]
    if len(gap) < 3:
        raise NoSingularity("too few resolved samples near the singular time")
    gmin = gap.min()
    widen = 10.0
    window = gap <= widen * gmin
    while window.sum() < 3 and widen < gap.max() / gmin:
        widen *= 10.0
        window = gap <= widen * gmin
    x = np.log(gap[window])
    y = np.log(norms[window])
    slope = float(np.polyfit(x, y, 1)[0])
    return BlowUpReport(T_est=float(T), T_est_uncertainty=float(unc), exponent=slope,
                        curve=(gap[window], norms[window]))
