"""Numerical laboratory for curvature-driven metric flows and waves.

The library evolves Riemannian metrics under first- and second-order laws
formulated on the pair product metric on 2-forms, G = g (.) g, computes the
underlying connection/curvature quantities with finite differences on
analytic or periodic-grid charts, and ships the verification machinery
(exact-solution references, recovery identities, blow-up monitors) used by
the acceptance suite.
"""

from .bialternate import (
    bialternate_product,
    kulkarni_nomizu,
    recover_metric,
    verify_recovery_identity,
)
from .charts import AnalyticChart, GridChart, MetricField
from .curvature import (
    ConnectionField,
    CurvatureTensor,
    christoffel,
    inverse_metric,
    orthogonal_metric_curvature,
    ricci_and_scalar,
    riemann,
    tensor_norm,
    weyl,
)
from .errors import (
    CFLViolated,
    DegenerateCoefficients,
    DimensionTooSmall,
    EmptyTrajectory,
    NonpositiveLame,
    NoSingularity,
    NotInImage,
    NotPositiveDefinite,
    ParseError,
    PositivityLost,
    RiemflowError,
    SchemaError,
    StencilOutOfDomain,
    StepRejected,
    UnknownFamily,
)
from .families import (
    HYPERBOLIC_CURVATURE_FACTOR,
    SPHERE_CURVATURE_FACTOR,
    make_family,
)
from .flow import (
    BlowUpReport,
    EquivalenceReport,
    FlowState,
    HomothetySolution,
    Trajectory,
    check_metric_equivalence,
    homothety_flow_solution,
    integrate_flow,
    monitor_blow_up,
    solve_pair_trace,
)
from .scenarios import ScenarioConfig, config_from_dict, load_config, run_scenario
from .variation import (
    PerturbationField,
    SolitonData,
    classify_soliton,
    directional_curvature_derivative,
    integrate_linearized_flow,
    linearized_flow_rhs,
    soliton_residual,
)
from .wave import (
    WaveState,
    conformally_flat_wave_solve,
    constant_curvature_wave_ode,
    integrate_wave,
)

__version__ = "0.1.0"
