"""Exception types shared across the library, and the schema checks of the
whole-number and finite numeric parameters of configurations."""

import math


class RiemflowError(Exception):
    """Base class for all library-specific errors."""


class NotPositiveDefinite(RiemflowError):
    """A metric sample failed the positive-definiteness check."""

    def __init__(self, sample_index, min_eigenvalue):
        self.sample_index = sample_index
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"metric is not positive definite at sample {sample_index} "
            f"(smallest eigenvalue {min_eigenvalue:.6e})"
        )


class StencilOutOfDomain(RiemflowError):
    """An analytic chart stencil point fell outside the metric's domain."""

    def __init__(self, point):
        self.point = point
        super().__init__(f"metric sampler values are not finite, or not positive definite, "
                         f"at the stencil point {point}")


class DimensionTooSmall(RiemflowError):
    """The requested operation needs a higher chart dimension."""


class NonpositiveLame(RiemflowError):
    """A Lame coefficient was non-positive at some sample."""


class NotInImage(RiemflowError):
    """A fourth-order tensor is not the pair product of any SPD metric."""

    def __init__(self, residual, tolerance):
        self.residual = residual
        self.tolerance = tolerance
        super().__init__(
            f"recovery residual {residual:.3e} exceeds tolerance {tolerance:.3e}"
        )


class StepRejected(RiemflowError):
    """A fixed time step failed its positivity or finiteness check and, in a
    flow or wave, no shorter step reached the collapse threshold."""


class EmptyTrajectory(RiemflowError):
    """A trajectory-consuming check received no samples."""


class NoSingularity(RiemflowError):
    """Blow-up monitoring was asked for on a trajectory that ended smoothly."""


class PositivityLost(RiemflowError):
    """The conformal wave amplitude dropped below the positivity floor."""

    def __init__(self, t, x_index, value):
        self.t = t
        self.x_index = x_index
        self.value = value
        super().__init__(
            f"conformal factor lost positivity at t={t:.6g}, grid index {x_index} "
            f"(value {value:.3e})"
        )


class CFLViolated(RiemflowError):
    """Requested time step violates the CFL bound of the 1+1 wave scheme."""


class DegenerateCoefficients(RiemflowError):
    """The general evolution family needs a nonzero leading coefficient."""


class ParseError(RiemflowError):
    """Scenario configuration file could not be parsed."""


class SchemaError(RiemflowError):
    """Scenario configuration violated the documented schema."""

    def __init__(self, message, key=None):
        self.key = key
        super().__init__(message if key is None else f"{message} (key: {key!r})")


def whole_number(value, key, least=None):
    """``value`` as an int; :class:`SchemaError` naming ``key`` unless it is
    a whole number, such as 2, 2.0 or "2" (not 2.5, which ``int`` would
    truncate), and not below ``least`` when that is given."""
    try:
        number = int(value)
        whole = number == float(value)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise SchemaError(f"{key} must be a whole number, got {value!r}", key=key)
    if least is not None and number < least:
        raise SchemaError(f"{key} must be at least {least}", key=key)
    return number


def finite_number(value, key, positive=False):
    """``value`` as a float; :class:`SchemaError` naming ``key`` unless it
    is a finite number, such as 0.5 or "0.5" (not NaN or infinity), and
    above 0 when ``positive`` is set."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise SchemaError(f"{key} must be a finite number, got {value!r}", key=key)
    if positive and number <= 0.0:
        raise SchemaError(f"{key} must be positive", key=key)
    return number


class UnknownFamily(RiemflowError):
    """Requested metric family name is not registered."""
