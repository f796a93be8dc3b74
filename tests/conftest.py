import math

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from riemflow.charts import AnalyticChart, GridChart, MetricField
from riemflow.families import make_family

# Constant-curvature factors of the model charts under the implemented
# component formula, pinned once by a one-time symbolic differentiation
# oracle (tools/pin_constants.py) and frozen here.  The commonly quoted
# values are (n-1) with the opposite sign.
SPHERE_FACTOR = -1.0
HYPERBOLIC_FACTOR = 1.0

# f'^2 + f f'' + f = 0 with f(0) = 1, f'(0) = 0 collapses at (2/3) sqrt(3/8) B(2/3, 1/2)
UNIT_COLLAPSE_TIME = ((2.0 / 3.0) * math.sqrt(3.0 / 8.0)
                      * math.gamma(2.0 / 3.0) * math.gamma(0.5) / math.gamma(2.0 / 3.0 + 0.5))


def rand_spd(n, rng, spread=0.4):
    """Random SPD matrix with eigenvalues of order one."""
    a = rng.normal(size=(n, n)) * spread
    return a @ a.T + np.eye(n)


def sphere_field(n=3, step=1e-2):
    fam = make_family("sphere-stereographic", n)
    chart = AnalyticChart(n, [0.0] * n, step)
    return MetricField.from_function(chart, fam.metric_function), fam


def hyperbolic_field(n=3, step=1e-2):
    fam = make_family("hyperbolic-poincare", n)
    chart = AnalyticChart(n, [0.0] * n, step)
    return MetricField.from_function(chart, fam.metric_function), fam


def torus_field(n=3, points=8, amplitude=0.08, mode=1, seed=3):
    fam = make_family("conformal-torus", n, {"amplitude": amplitude, "mode": mode},
                      np.random.default_rng(seed))
    chart = GridChart(n, points, 2.0 * np.pi)
    return MetricField.from_function(chart, fam.metric_function), fam


def components(dg):
    """A full metric first derivative ``(..., n, n, n)`` in the layout of
    ``MetricField.jets``: its components g_ij, i <= j, in ``np.triu_indices``
    order, ``(..., n(n+1)/2, n)``."""
    rows, cols = np.triu_indices(dg.shape[-1])
    return dg[..., rows, cols, :]


def upper_hessian(d2g):
    """A full metric Hessian ``(..., n, n, n, n)`` in the compact layout of
    ``MetricField.jets``: its components g_ij, i <= j, in ``np.triu_indices``
    order, ``(..., n(n+1)/2, n, n)``."""
    rows, cols = np.triu_indices(d2g.shape[-1])
    return d2g[..., rows, cols, :, :]


def nan_at(metric, point):
    """``metric`` with NaN components at exactly ``point``."""
    def g(x):
        out = np.array(metric(x), dtype=float)
        out[np.all(np.asarray(x) == point, axis=-1)] = np.nan
        return out
    return g


def flat_grid_field(n=3, points=8):
    fam = make_family("flat", n)
    chart = GridChart(n, points, 2.0 * np.pi)
    return MetricField.from_function(chart, fam.metric_function), fam


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

unit_floats = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def frames(draw, ranks=(2, 4), min_n=2):
    """A dimension, SPD metrics g = B B^T + 1, frame changes P = 1 + A/(2n)
    (|A_ij| <= 1, so P is invertible with condition number below 3) and a
    tensor of the drawn rank, for three samples."""
    n = draw(st.integers(min_n, 5))
    rank = draw(st.sampled_from(ranks))
    B = draw(arrays(float, (3, n, n), elements=unit_floats))
    A = draw(arrays(float, (3, n, n), elements=unit_floats))
    t = draw(arrays(float, (3,) + (n,) * rank, elements=unit_floats))
    g = B @ np.swapaxes(B, -1, -2) + np.eye(n)
    return g, np.eye(n) + A / (2.0 * n), t


@st.composite
def conditioned_metrics(draw, max_cond=1e4):
    """An integer SPD metric of dimension 3 to 5 and condition number up to
    ``max_cond`` (to 0.3%): 1000 Q diag(max_cond^t) Q^T rounded, with t_i in
    [0, 1] and Q the orthogonal factor of a drawn matrix.  Its entries stay
    below 2^24, so its pair product is exact in floating point and a
    recovery's error is the recovery's own."""
    n = draw(st.integers(3, 5))
    Q, _ = np.linalg.qr(draw(arrays(float, (n, n), elements=unit_floats)))
    t = draw(arrays(float, (n,), elements=st.floats(0.0, 1.0)))
    m = (Q * (1e3 * max_cond ** t)) @ Q.T
    return np.round(0.5 * (m + m.T))
