"""First-order metric evolutions driven by curvature, and the law table.

Every law, flow or wave, is a row of one G-level equation for its rate
``r``, a flow's velocity or a wave's acceleration (``k`` its velocity):

    lead (r ^ g) + quad (k (.) k) + beta (k ^ g) + trace tr_g(r) G
        + gamma G + delta Riem + ricci (Ric ^ g) = 0,

``lead`` being a wave's alpha or a flow's beta, whose beta term it is.  The
first-order rows are Ricci-Bourguignon flows dg/dt = a (Ric - rho R g) + b g
(Catino, Cremaschi, Djadli, Mantegazza and Mazzieri, Pacific J. Math. 2017):
``ricci`` is -2 Ric (rho = 0); ``riemann-induced``, the pair-trace solution
of dG/dt = -2 Riem, is -2 times the Schouten tensor (Ric - R g/(2(n-1)))
/ (n-2), at their short-time existence bound rho = 1/(2(n-1));
``riemann-type``, dG/dt = alpha Riem + beta tr_g(v) G, has rho = c / ((n-2)
+ n c), c = :meth:`Law.coupling`, so its defaults are Ricci flow and its
refused beta = 2/n is rho = inf; ``general`` is beta dG/dt + gamma G +
delta Riem = 0.  The waves are ``ricci-wave``, d2g/dt2 = -2 Ric,
``riemann-wave`` and the ``general`` wave.  :func:`resolve_law` turns a
name, or a ``(name, params)`` pair, into a frozen :class:`Law` record once,
at integrator entry, and rejects parameters the law does not take.  The
record gives the rate, ``Law.rate_at(field[, velocity])`` at a field, and
the residual, ``Law.residual``, from one term list: the Ricci term is
solved at metric level and the rest through the pair trace, which needs
n >= 3, so only the Ricci rows run at n = 2.  One RK4 system steps them all.

The RK4 state is the metric samples, and for a wave the velocity samples
too, on both chart kinds, and while the cross-check runs the pair product
last; each rate is symmetrized, so a symmetric state stays exactly
symmetric.  The chart's ``evolving`` map turns a state's metric samples into
a field.  Everything fixed for a run is bound once, when the RK4 system is
made: the inverse kernel of the state's sample count and dtype, the law's
rate of its stacks' shape, with the law's row, coupling and sources, and the
kernels those use, so that a right-hand side makes its numpy calls and
little else.  On periodic grids the field is the samples, whose jet is taken
in arrays the chart's ``evolving`` map binds once per run
(:meth:`~riemflow.charts.GridChart.evolving`), and the evolution is a
genuine method-of-lines PDE solve.  On analytic single-point charts the
state is the metric at the evaluation point, and the spatial field is
carried in the frozen frame of the initial metric
(:meth:`~riemflow.charts.AnalyticChart.evolving`), whose jets are taken
once per run; general inhomogeneous dynamics belong on grid charts.  A
metric that is not finite and positive definite at a stencil point is
refused with :class:`~riemflow.errors.StencilOutOfDomain` at the start.

One fixed-step loop, :func:`_march`, steps the laws, the scale ODE
(:mod:`riemflow.wave`) and the linearized flow on the schedule of
:func:`step_ends`, each with its own step function, and passes each state's
right-hand side, evaluated once, on as the next step's first stage; it
bisects a failed step's length (:func:`bisect`) and returns the bracket.  A
law's step fails at a stage or new state that is not finite or not positive
definite.  A failed step whose bisection reaches a state below the collapse
threshold is a collapse, whose bracket the trajectory keeps, and any other
raises :class:`~riemflow.errors.StepRejected`.  The relative eigenvalues of
a state, which only its record reads, are computed for the records alone;
any other accepted state is shown to be far from the record and collapse
thresholds by the trace tr(g^-1 g0), read off the inverse its right-hand
side holds, and one that is not shown so is decomposed.  A record's other
diagnostics are taken in batches of records, one pass over their stack per
column (:data:`RECORD_BATCH_SAMPLES`), each exactly as for the record alone.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .bialternate import recover_metric
from .charts import MetricField, _inverse_kernel
from .curvature import (
    CurvatureTensor,
    _compound_kernel,
    _einsum,
    _pair_trace_kernel,
    pair_product_from_samples,
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

# the queued samples at which a run's records take their diagnostics, in one
# pass over their stack: 8^3, the smallest shipped grid, so that a grid run
# takes one pass per record and a one-sample run one per 512 records
RECORD_BATCH_SAMPLES = 512


def bisect(inside, lo, hi):
    """The bracket ``(lo, hi)``, narrowed to the spacing of floats, of where
    ``inside`` turns from true at ``lo`` to false at ``hi`` (either may be the
    larger); a point where ``inside`` gives None ends the search as ``hi``."""
    while lo != (mid := 0.5 * (lo + hi)) != hi:
        side = inside(mid)
        lo, hi = (mid, hi) if side else (lo, mid)
        if side is None:
            break
    return lo, hi


# ---------------------------------------------------------------------------
# the law table
# ---------------------------------------------------------------------------


def solve_pair_trace(g, ginv, rhs4, coupling=1.0):
    """Solve (v ^ g)_ijkl + t tr_g(v) G_ijkl = rhs4 for the symmetric
    velocity v, with ``rhs4`` given as its block on 2-forms and the trace
    term given by the contracted coupling ``c = 1 + t (n-1)``.

    Contracting with ``g^{jl}`` gives ``(n-2) v + c tr(v) g = W`` with
    ``W = g^{jl} rhs4_ijkl``; the trace of that equation fixes ``tr v``
    unless ``(n-2) + n c = 0``.  ``g`` and ``ginv`` are stacks (S, n, n).
    """
    shape = np.broadcast_shapes(ginv.shape[:-2], rhs4.shape[:-2])
    return _pair_trace_solver(g.shape[-1], coupling, shape)(g, ginv, rhs4)


def _pair_trace_solver(n, coupling, shape):
    """:func:`solve_pair_trace` at ``coupling`` of stacks ``shape + (n, n)``,
    its kernel and denominator bound."""
    if n < 3:
        raise DimensionTooSmall("the pair-trace inversion needs n >= 3")
    trace, den = _pair_trace_kernel(n, shape), (n - 2) + n * coupling

    def solve(g, ginv, rhs4):
        W = trace(ginv, rhs4)
        trv = _einsum('...ik,...ik->...', ginv, W) / den
        # unit factors are skipped, exactly, as :func:`_sum_of` skips them
        v = W - (trv if coupling == 1.0 else coupling * trv)[..., None, None] * g
        return v if n == 3 else v / (n - 2)

    return solve


def _sum_of(terms, divisor=1.0):
    """The function ``args -> (sum of c * term(*args)) / divisor`` over the
    ``(c, term)`` pairs, added in order, or None without terms.

    Unit factors are never applied; ``1.0 * x`` and ``x / 1.0`` are exact,
    so skipping them changes no bit.  Which factors apply is decided here,
    once, and a sum of one term with no factor is that term.
    """
    if not terms:
        return None
    first, *rest = [term if c == 1.0 else partial(_scaled, c, term) for c, term in terms]
    if not rest and divisor == 1.0:
        return first

    def total(*args):
        x = first(*args)
        for term in rest:
            x = x + term(*args)
        return x if divisor == 1.0 else x / divisor

    return total


def _scaled(c, term, *args):
    """``c * term(*args)``."""
    return c * term(*args)


@dataclass(frozen=True)
class Law:
    """A resolved evolution law: its name, order (1 flow, 2 wave) and its
    row of the law equation (see the module docstring); only a first-order
    law has a ``trace`` term."""

    name: str
    order: int
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    delta: float = 0.0
    trace: float = 0.0
    ricci: float = 0.0
    quad: float = 0.0

    @property
    def lead(self):
        """The coefficient of the highest time derivative."""
        return self.alpha if self.order == 2 else self.beta

    def row(self, n, shape):
        """The (coefficient, term) pairs of the law's row, in the module
        docstring's order, each term a function of stacks (g, ginv, k, rate,
        Riem) of shape ``shape + (n, n)`` or ``shape + (N, N)`` with the
        kernels of those stacks bound; a flow's beta is its lead."""
        compound, trace = _compound_kernel(n, shape), _pair_trace_kernel(n, shape)

        def kn(a, b):
            return compound(a, b) + compound(b, a)

        return [(self.lead, lambda g, ginv, k, r, riem: kn(r, g)),
                (self.trace, lambda g, ginv, k, r, riem: (
                    _einsum('...ik,...ik->...', ginv, r)[..., None, None] * compound(g, g))),
                (self.quad, lambda g, ginv, k, r, riem: compound(k, k)),
                (self.beta if self.order == 2 else 0.0, lambda g, ginv, k, r, riem: kn(k, g)),
                (self.gamma, lambda g, ginv, k, r, riem: compound(g, g)),
                (self.delta, lambda g, ginv, k, r, riem: riem),
                (self.ricci, lambda g, ginv, k, r, riem: kn(trace(ginv, riem), g))]

    def coupling(self, n):
        """c in the contracted equation (n-2) r + c tr_g(r) g = W,
        1 + trace (n-1) / lead (see :func:`solve_pair_trace`)."""
        return 1.0 + self.trace * (n - 1) / self.lead

    @property
    def pair_rate_factor(self):
        """c in dG/dt = c Riem, for first-order laws with gamma = trace =
        ricci = 0; ``None`` for the other laws."""
        if self.order == 1 and self.gamma == self.trace == self.ricci == 0.0:
            return -(self.delta / self.beta)
        return None

    def rate(self, g, ginv, k, riem):
        """Metric velocity (order 1) or acceleration (order 2) at metric
        samples ``g`` (S, n, n) with inverse ``ginv``, velocity samples ``k``
        (order 2) and the curvature block ``riem`` (:func:`_rate_kernel`)."""
        return _rate_kernel(self, g.shape[-1], g.shape[:-2])(g, ginv, k, riem)

    def rate_at(self, field, velocity=None):
        """:meth:`rate` at a field's samples and curvature."""
        g = field.samples
        k = None if velocity is None else np.asarray(velocity, dtype=float).reshape(g.shape)
        return self.rate(g, field.inverse, k, riemann(field).block)

    def residual(self, g, ginv, k, rate, riem):
        """Max norm of the law's equation at the ``rate`` that :meth:`rate`
        gave for the same samples, over each stack (S, N, N) of samples: a
        number for one stack, an array of them for stacks (..., S, N, N)."""
        row = self.row(g.shape[-1], g.shape[:-2])
        total = _sum_of([(c, term) for c, term in row if c != 0.0])(g, ginv, k, rate, riem)
        return np.abs(total).max(axis=(-3, -2, -1))


@lru_cache(maxsize=64)
def _rate_kernel(law, n, shape):
    """:meth:`Law.rate` of stacks ``shape + (n, n)``, resolved once:
    -(ricci/lead) Ric plus the pair-trace solve at :meth:`Law.coupling` of
    the sources, the row's terms without the rate or Ric, negated, over the
    lead; each part left out when its coefficients are zero, and zeros
    without either."""
    trace = _pair_trace_kernel(n, shape)
    parts = ([(-law.ricci / law.lead, lambda g, ginv, k, riem: trace(ginv, riem))]
             if law.ricci else [])
    source = _sum_of([(-c, term) for c, term in law.row(n, shape)[2:-1] if c != 0.0], law.lead)
    if source:
        solve = _pair_trace_solver(n, law.coupling(n), shape)
        parts.append((1.0, lambda g, ginv, k, riem: solve(g, ginv, source(g, ginv, k, None, riem))))
    return _sum_of(parts) or (lambda g, ginv, k, riem: np.zeros_like(g))


# (name, order) -> (parameter names, defaults[, to_row]); a parameter
# without a default is required, defaults are functions of the dimension n,
# ``to_row`` maps the law's parameters to the equation's coefficients, and
# ``quad`` defaults to 2 alpha
_LAWS = {
    ("ricci", 1): ((), lambda n: {"beta": 1.0, "ricci": 2.0}),
    ("riemann-induced", 1): ((), lambda n: {"beta": 1.0, "delta": 2.0}),
    # (k ^ g) = alpha Riem + beta tr_g(k) G
    ("riemann-type", 1): (("alpha", "beta"),
                          lambda n: {"alpha": -2.0 * (n - 2), "beta": 1.0 / (n - 1)},
                          lambda alpha, beta: {"beta": 1.0, "delta": -alpha, "trace": -beta}),
    ("general", 1): (("beta", "gamma", "delta"), lambda n: {"gamma": 0.0, "delta": 0.0}),
    ("ricci-wave", 2): ((), lambda n: {"alpha": 1.0, "ricci": 2.0, "quad": 0.0}),
    ("riemann-wave", 2): ((), lambda n: {"alpha": 1.0, "delta": 2.0}),
    ("general", 2): (("alpha", "beta", "gamma", "delta"),
                     lambda n: {"alpha": 1.0, "beta": 0.0, "gamma": 0.0, "delta": 2.0}),
}


def resolve_law(law, n, order):
    """The :class:`Law` record of ``law`` (a name, a ``(name, params)`` pair
    or a record) for dimension ``n`` as a law of ``order`` (1 for
    :func:`integrate_flow`, 2 for ``integrate_wave``).

    Raises ``ValueError`` for an unknown name, a parameter the law does not
    take, a missing required one or a value that is not a finite number;
    :class:`DimensionTooSmall` when a law without a Ricci term, which inverts
    the pair trace, meets ``n < 3``; :class:`DegenerateCoefficients` when the
    leading coefficient vanishes or the contracted equation does not fix the
    trace of the velocity (riemann-type at ``beta = 2/n``).  A general wave
    with ``alpha = 0`` resolves to the first-order flow.
    """
    if isinstance(law, Law):
        if law.order > order:
            raise ValueError(f"law {law.name!r} of order {law.order} given as order {order}")
        return law
    name, params = (law[0], dict(law[1] or {})) if isinstance(law, (tuple, list)) else (law, {})
    if (name, order) not in _LAWS:
        raise ValueError(f"unknown {('flow', 'wave')[order - 1]} law {name!r}")
    names, defaults, *to_row = _LAWS[name, order]
    coeffs = defaults(n)
    if n < 3 and "ricci" not in coeffs:
        raise DimensionTooSmall(f"law {name!r} needs n >= 3")
    for key in params:
        if key not in names:
            raise ValueError(f"law {name!r} takes no parameter {key!r}"
                             + (f" (it takes {', '.join(names)})" if names else ""))
        try:
            coeffs[key] = float(params[key])
        except (TypeError, ValueError):
            coeffs[key] = math.nan
        if not math.isfinite(coeffs[key]):
            raise ValueError(f"parameter {key!r} of law {name!r} must be a finite number")
    missing = [key for key in names if key not in coeffs]
    if missing:
        raise ValueError(f"law {name!r} needs parameter {missing[0]!r}")
    if to_row:
        coeffs = to_row[0](**coeffs)
    coeffs.setdefault("quad", 2.0 * coeffs.get("alpha", 0.0))
    law = Law(name, 2 if coeffs.get("alpha", 0.0) != 0.0 else 1, **coeffs)
    if law.lead == 0.0:
        raise DegenerateCoefficients(f"law {name!r} needs alpha != 0 or beta != 0")
    if abs((n - 2) + n * law.coupling(n)) < 1e-14:
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
    collapse_bracket: tuple = None    # (lo, hi) of a collapse in a failed step

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
    ``dt`` is taken, and at least one step when ``t_end`` is past ``t0``.
    Empty when it is not."""
    count = math.ceil((t_end - t0) / dt - 1e-9)
    return [t0 + k * dt for k in range(1, count)] + [t_end] if t_end > t0 else []


class _RK4System:
    """RK4 state of a law: the metric samples and, for a wave, the velocity
    samples, ``[g]`` or ``[g, k]``, on either chart kind, and with
    ``cross_check`` the pair product ``G = C_2(g)`` last, evolved directly
    at the law's ``pair_rate_factor`` times Riem.  Only the field of a state
    depends on the chart, through its ``evolving`` map.  The inverse kernel,
    for the state's sample count and dtype, and the law's rate, for its
    stacks' shape, are bound here, once per run, so that a right-hand side
    is :func:`riemann`, :attr:`MetricField.inverse` and :meth:`Law.rate` of
    the state's field made with its inverse, bit for bit.
    """

    def __init__(self, field, law, velocity=None, cross_check=False):
        chart = self.chart = field.chart
        self.law = law
        self.wave = law.order == 2
        self.pair_rate = law.pair_rate_factor if cross_check else None
        if cross_check and self.pair_rate is None:
            raise ValueError(f"cross_check_stride needs a first-order law with "
                             f"gamma = trace = ricci = 0, not {law.name!r}")
        g = field.samples
        self.state0 = [g.copy()]
        if self.wave:
            self.state0.append(np.asarray(velocity, dtype=float).reshape(g.shape).copy())
        if cross_check:
            self.state0.append(pair_product_from_samples(g).copy())
        # the builder holds the chart, not the system
        self._build = chart.evolving(field)
        n = field.dimension
        self._inverse = _inverse_kernel(n, len(g), g.dtype)
        self._rate = _rate_kernel(law, n, g.shape[:-2])

    def rhs(self, state):
        """(d state/dt, curvature block, the law's rate at the samples, the
        inverse metric there).  The rate is symmetrized, so a symmetric
        state stays exactly symmetric.  Raises :class:`NotPositiveDefinite`
        when the state's metric is not positive definite."""
        g = state[0]
        ginv = self._inverse(g)
        riem = riemann(self._build(g, ginv)).block
        k = state[1] if self.wave else None
        rate = self._rate(g, ginv, k, riem)
        rate = 0.5 * (rate + rate.swapaxes(-1, -2))
        d = [rate] if k is None else [k, rate]
        if self.pair_rate is not None:
            d.append(self.pair_rate * riem)
        return d, riem, rate, ginv


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
        start time takes no step, and one before it or not finite raises
        ``ValueError``.
    stride : int
        Record every ``stride``-th step (the last step is always recorded).
    collapse_threshold : float
        Relative eigenvalue floor: the run ends with ``collapse`` at a state
        below it, or at a failed step whose bisection reaches such a state
        (a failed step that does not raises :class:`StepRejected`).
    curvature_cap : float, optional
        Stop with ``curvature_cap`` termination at the first step, recorded
        or not, whose state has sup |Riem| above it; that state is recorded.
    cross_check_stride : int, optional
        Every so many records, also evolve the pair product directly, at
        dG/dt = -(delta/beta) Riem, and record how far the metric recovered
        from it is from the evolved one (``inf`` when the recovery fails).
        Only first-order laws with gamma = 0 and no trace or Ricci term
        (``riemann-induced``, such ``general`` laws and ``riemann-type``
        with beta = 0) give the pair product that rate; any other law raises
        ``ValueError``.
    """
    return _rk4_evolve(initial, law, 1, None, dt, t_end, stride, collapse_threshold,
                       curvature_cap, cross_check_stride)


def _rk4_evolve(initial, law, order, velocity, dt, t_end, stride, collapse_threshold,
                curvature_cap, cross_check_stride):
    """The trajectory of :func:`integrate_flow` (``order`` 1) or
    ``integrate_wave`` (``order`` 2) from a field or a state; a state's own
    velocity, if it has one, replaces ``velocity``, which defaults to zero.
    A complex field or velocity, whose diagnostics would be complex, raises
    ``ValueError``."""
    if isinstance(initial, MetricField):
        t0, fld = 0.0, initial
    else:
        t0, fld, velocity = initial.t, initial.field, getattr(initial, "velocity", velocity)
    if np.iscomplexobj(fld.samples) or np.iscomplexobj(velocity):
        raise ValueError("a complex field or velocity is a complex-step run: use "
                         "integrate_linearized_flow")
    _check_schedule(t0, t_end, dt, stride)
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

    def sup_riem(riem, ginv):  # over the samples of each stack
        return tensor_norm(CurvatureTensor(riem), ginv).max(axis=-1)

    # per record not yet flushed, what the trajectory does not keep: its g^-1,
    # Riem, rate and relative eigenvalues
    queue = []

    def record(t, state, rhs, rel):
        """Append a record of ``state``, whose rhs is ``rhs`` and relative
        eigenvalues are ``rel``, and queue its diagnostics for
        :func:`flush`; return ``rhs``."""
        _, riem, rate, ginv = rhs
        traj.times.append(t)
        traj.states.append(state[0].copy())
        traj.velocities.append((state[1] if system.wave else rate).copy())
        err = math.nan
        if cross_check_stride and (len(traj.times) - 1) % cross_check_stride == 0:
            try:
                err = float(np.abs(recover_metric(state[-1], n) - state[0]).max())
            except NotInImage:
                err = math.inf
        traj.diagnostics["cross_check_error"].append(err)
        queue.append((ginv, riem, rate, rel))
        if len(queue) * len(g0) >= RECORD_BATCH_SAMPLES:
            flush()
        return rhs

    def flush():
        """Append the other diagnostics of the queued records, in record
        order, each column taken for all of them in one pass over their
        stack, and empty the queue."""
        ginv, riem, rate, rel = map(np.stack, zip(*queue))
        g = np.stack(traj.states[-len(queue):])
        k = np.stack(traj.velocities[-len(queue):]) if system.wave else None
        queue.clear()
        ric, scal = ricci_scalar_from_arrays(ginv, riem)
        det = np.linalg.det(g)
        columns = {
            "f_est": np.mean((det / det0) ** (1.0 / n), axis=-1),
            "min_rel_eig": rel.min(axis=(-2, -1)),
            "max_rel_eig": rel.max(axis=(-2, -1)),
            "sup_ric_norm": tensor_norm(ric.reshape(-1, n, n), ginv.reshape(-1, n, n)).reshape(
                det.shape).max(axis=-1),
            "sup_riem_norm": sup_riem(riem, ginv),
            "scalar_min": scal.min(axis=-1),
            "scalar_max": scal.max(axis=-1),
            "eq_residual": system.law.residual(g, ginv, k, rate, riem),
            "det_g_min": det.min(axis=-1)}
        for key, column in columns.items():
            traj.diagnostics[key].extend(column.tolist())

    # a state with every relative eigenvalue above ``near`` is recorded only
    # on the stride.  tr(g^-1 g0) < 1/(2 near), read off the inverse the
    # state's rhs holds, shows min_rel > 2 near (so neither a record nor a
    # collapse) without an eigendecomposition, since 1/min_rel, the largest
    # eigenvalue of g^-1 g0, is at most that trace
    near = max(0.1, 1e3 * collapse_threshold)

    g0_real = g0.real

    def far(rhs):
        """Whether the trace test shows every relative eigenvalue of the
        state whose rhs is ``rhs`` above 2 near."""
        return _einsum('...ij,...ji->...', rhs[3].real, g0_real).max() < 0.5 / near

    def accept(t, state, rhs, due):
        """Check and record an accepted state; true when the run ends there."""
        capped = curvature_cap is not None and float(sup_riem(rhs[1], rhs[3])) > curvature_cap
        if not (due or capped) and far(rhs):
            return False
        rel = _relative_eigenvalues(state[0], L0inv)
        min_rel = rel.min()
        if min_rel < collapse_threshold:
            traj.termination = "collapse"
        elif capped:
            traj.termination = "curvature_cap"
        # keep a dense record of the approach to collapse for the monitors
        if due or min_rel < near or traj.termination != "t_end":
            record(t, state, rhs, rel)
        return traj.termination != "t_end"

    # only the loop holds the initial state's rhs, so it is freed after a step
    t, state, rhs, traj.collapse_bracket = _march(
        partial(_rk4_step, system), state,
        record(t0, state, system.rhs(state), _relative_eigenvalues(state[0], L0inv)), t0,
        step_ends(t0, t_end, dt), stride, accept,
        lambda y: _relative_eigenvalues(y[0], L0inv).min() < collapse_threshold)
    traj.termination = "collapse" if traj.collapse_bracket else traj.termination
    if traj.times[-1] != t:  # the last state before a failed step
        record(t, state, rhs, _relative_eigenvalues(state[0], L0inv))
    if queue:
        flush()
    return traj


def _march(step, state, rhs, t, ends, stride=1, accept=None, event=None):
    """Step ``state`` at ``t``, whose rhs is ``rhs`` (or None), to each time
    of ``ends`` by ``step(state, h, rhs)``, which gives the new state and its
    rhs, or None when it fails; ``accept(t, state, rhs, due)``, ``due`` every
    ``stride``-th step and at the last, may end the run by returning true.
    A failed step is bisected up to a trial state where ``event`` holds
    (else :class:`StepRejected`), or without one to the spacing of floats.
    Returns the last ``(t, state, rhs)`` and the failed step's bracket."""
    for steps, t_next in enumerate(ends, 1):
        new = step(state, t_next - t, rhs)
        if new is None:
            reached = []
            def inside(T):
                trial = step(state, T - t, rhs)
                if trial is not None and event and event(trial[0]):
                    reached.append(T)
                    return None
                return trial is not None
            bracket = bisect(inside, t, t_next)
            if event and not reached:
                raise StepRejected(f"the step at t={t:.6g} fails and no shorter one reaches the "
                                   "collapse threshold")
            return t, state, rhs, bracket
        (state, rhs), t = new, t_next
        if accept and accept(t, state, rhs, steps % stride == 0 or steps == len(ends)):
            break
    return t, state, rhs, None


def _rk4_step(system, state, dt, first=None):
    """One classical RK4 step with a positivity guard on every stage.

    Each stage's positivity check is the one its rhs makes (a stage that
    raises :class:`NotPositiveDefinite` fails the step), and so is the new
    state's: its rhs is evaluated here, once, after a check that it is
    finite.  ``first`` is ``system.rhs(state)`` when already known.
    Returns ``None`` when the step fails, else the new state and its rhs.
    """
    rhs, half, sixth = system.rhs, 0.5 * dt, dt / 6.0
    try:
        k1 = (rhs(state) if first is None else first)[0]
        k2 = rhs([y + half * k for y, k in zip(state, k1)])[0]
        k3 = rhs([y + half * k for y, k in zip(state, k2)])[0]
        k4 = rhs([y + dt * k for y, k in zip(state, k3)])[0]
        new = [y + sixth * (a + 2.0 * b + 2.0 * c + d)
               for y, a, b, c, d in zip(state, k1, k2, k3, k4)]
        if all([np.isfinite(y).all() for y in new]):
            return new, rhs(new)
    except (np.linalg.LinAlgError, FloatingPointError, NotPositiveDefinite):
        pass
    return None


def _check_schedule(t0, t_end, dt, stride=1, stride_name="stride"):
    """Refuse with ``ValueError`` a step ``dt`` that is not positive, a
    ``t_end`` that is not finite or is before the start time ``t0`` and a
    record stride below 1."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end!r}")
    if t_end < t0:
        raise ValueError(f"t_end = {t_end:g} is before the start time t = {t0:g}")
    if stride < 1:
        raise ValueError(f"{stride_name} must be at least 1")


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
    ``T`` by bisection between the last sample and past a Newton step from
    the last two; raises :class:`NoSingularity` when the fit has no root
    there, as for a scale that does not decay.  Returns ``(T,
    uncertainty)``, where the uncertainty is the spread between the fit and
    the same fit without the last sample, a practical proxy for the
    resolution of ``T``.
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
    t1, t2, t3 = t[i1], t[i2], t[i3]
    f1, f2, f3 = f[i1], f[i2], f[i3]

    def mismatch(T):
        a12 = (math.log(f1) - math.log(f2)) / (math.log(T - t1) - math.log(T - t2))
        a23 = (math.log(f2) - math.log(f3)) / (math.log(T - t2) - math.log(T - t3))
        return a12 - a23

    lo = t3 + 1e-15 * max(1.0, abs(t3))
    # past twice the Newton step from the last two samples
    hi = max((t3 + f3 * (t3 - t2) / max(f2 - f3, 1e-300)) * 2.0, t3 + 10.0 * (t3 - t1))
    lo += (hi - lo) * 1e-12
    try:
        mlo = mismatch(lo)
        if mlo * mismatch(hi) <= 0:
            lo, hi = bisect(lambda T: mismatch(T) * mlo > 0.0, lo, hi)
            return 0.5 * (lo + hi)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise NoSingularity(f"the scale fit through t = {t1:.6g}, {t2:.6g}, {t3:.6g} has no "
                        "singular time: its mismatch does not change sign, or a logarithm fails")


def monitor_blow_up(trajectory):
    """Singular-time estimate, its uncertainty and the curvature growth
    exponent.

    Requires a trajectory that stopped at collapse or the curvature cap;
    raises :class:`NoSingularity` otherwise, or when :func:`estimate_singular_time`
    finds none.  The exponent is the least-squares slope of ``log sup|Riem|``
    against ``log (T - t)`` over the final decade of ``T - t``.
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
