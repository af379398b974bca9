"""Bernstein-Bezier polynomial approximation on D-dimensional simplices.

Library layout:

- geometry: simplices and barycentric coordinate maps
- lattice: multi-index enumeration, multinomials, control points
- bernstein: basis evaluation and the sampling operator (two evaluators)
- exponentials: closed-form images of exp(a.x) and error budgets
- experiments: convergence sweeps, rate fits, bound checks, scaling studies
- csvio: deterministic CSV emission
- cli: the ``bezsimplex`` command
"""

from .bernstein import (
    DE_CASTELJAU,
    DEFAULT_EVALUATOR,
    DIRECT,
    ControlNet,
    apply_de_casteljau,
    apply_direct,
    basis_value,
    basis_vector,
    evaluate_at_weights,
    operator_sup_error,
    read_control_net_csv,
    sample_control_net,
    write_control_net_csv,
)
from .csvio import emit_csv
from .errors import (
    BezSimplexError,
    ConfigError,
    DegenerateSimplexError,
    DimensionMismatchError,
    DomainError,
    EmptyGridError,
    ExpOverflowError,
    FunctionEvaluationError,
    InsufficientDataError,
    InvalidBarycentricError,
    NegativeWeightError,
    SizeOverflowError,
    ZeroError,
)
from .exponentials import (
    ErrorBudget,
    ExpPolynomial,
    ExpTerm,
    RelativeErrorReport,
    bezier_exp_closed_form,
    bezier_of_exp_polynomial,
    closed_form_at_weights,
    error_budget,
    first_order_residual,
    relative_error_at_weights,
    relative_error_report,
    residual_at_weights,
)
from .experiments import (
    BoundCheckResult,
    BoundCheckRow,
    ConvergenceRow,
    ExperimentConfig,
    RateFit,
    ScalingRow,
    TestFunction,
    fit_power_law,
    fit_rate,
    load_config,
    load_simplex,
    make_function,
    run_bound_check,
    run_convergence,
    run_metadata,
    run_scaling_study,
)
from .geometry import COORDINATE_TOL, Simplex, standard_simplex, validate_barycentric
from .lattice import (
    ControlPointSet,
    control_points,
    count_multi_indices,
    default_grid_resolution,
    enumerate_multi_indices,
    grid_weight_blocks,
    grid_weights,
    multinomial_exact,
    multinomial_log,
    multinomial_log_table,
)

__version__ = "0.1.0"
