"""Bernstein-Bezier polynomial approximation on D-dimensional simplices.

Library layout:

- geometry: simplices, barycentric coordinate maps and Frozen, the value types' base
- lattice: multi-index enumeration, multinomials, control points
- bernstein: basis evaluation and the sampling operator (two evaluators)
- exponentials: closed-form images of exp(a.x), observed errors and the first-order prediction
- experiments: convergence sweeps, bound checks, scaling studies
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
    basis_vector,
    evaluate_at_weights,
    sample_control_net,
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
    InvalidBarycentricError,
    NegativeWeightError,
    SizeOverflowError,
)
from .exponentials import (
    ExpPolynomial,
    closed_form_at_weights,
    error_budget,
    relative_error_at_weights,
    relative_error_report,
    residual_at_weights,
    residual_constants,
)
from .experiments import (
    BoundCheckRow,
    ConvergenceRow,
    ExperimentConfig,
    ScalingRow,
    TestFunction,
    load_config,
    load_simplex,
    make_function,
    run_bound_check,
    run_convergence,
    run_metadata,
    run_scaling_study,
)
from .geometry import COORDINATE_TOL, Simplex, standard_simplex
from .lattice import (
    control_points,
    count_multi_indices,
    default_grid_resolution,
    enumerate_multi_indices,
    grid_weight_blocks,
    grid_weights,
    multinomial_log_table,
)

__version__ = "0.1.0"
