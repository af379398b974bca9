"""Experiment runner: convergence sweeps, rate fits, bound checks, scaling.

Everything here reduces to the same loop: sample a function into a control
net, evaluate the net over a barycentric lattice grid, take the sup of the
pointwise error, and tabulate per order. The sup over the lattice is a
lower bound on the true sup norm; that is acceptable for rate measurement
and is recorded in the run metadata.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .bernstein import DEFAULT_EVALUATOR, EVALUATORS, ControlNet, evaluate_at_weights
from .csvio import emit_csv  # re-exported: experiments.emit_csv is public
from .errors import ConfigError, InsufficientDataError, ZeroError
from .exponentials import ExpPolynomial, _vertex_dots, error_budget, relative_error_reports
from .geometry import Simplex
from .lattice import control_points, default_grid_resolution, grid_weight_blocks, grid_weights

# Rows with sup_error below this are floating-point noise, not signal.
NOISE_FLOOR = 1e-13

# The first-order bound is asymptotic; violations are only flagged from here on.
BOUND_CHECK_MIN_ORDER = 40

@dataclass
class TestFunction:
    """A named target function, evaluated on (P, D) batches of points, with
    its exponential terms when it is an exponential polynomial."""

    name: str
    batch: Callable
    exp_terms: ExpPolynomial | None = None

    def __call__(self, x) -> float:
        return float(self.evaluate(np.asarray(x, dtype=float)[None, :])[0])

    def evaluate(self, points) -> np.ndarray:
        return np.asarray(self.batch(np.asarray(points, dtype=float)), dtype=float)

    def single_exponential(self) -> np.ndarray | None:
        """The direction a when this is one exponential c exp(a.x) with c != 0."""
        poly = self.exp_terms
        if poly is not None and len(poly) == 1 and poly.terms[0].coefficient != 0.0:
            return poly.terms[0].direction_array
        return None


def exp_study_direction(function: TestFunction) -> np.ndarray:
    """The direction a of c exp(a.x), c != 0: the one function the exp studies take."""
    direction = function.single_exponential()
    if direction is None:
        raise ConfigError("bound check and scaling need a single-exponential function c exp(a.x), c != 0")
    return direction


def _load_json(spec, what: str):
    # The one reader of a JSON source, and the one check of its type. A dict
    # passes through; text starting with "{" is inline JSON; any other str or
    # os.PathLike is the path of a JSON file. A source inside a config is a spec.
    if isinstance(spec, dict):
        return spec
    if not isinstance(spec, (str, os.PathLike)):
        noun = what if what == "config" else f"{what} spec"
        raise ConfigError(f"{noun} must be a mapping or path, got {type(spec).__name__}")
    text = str(spec).strip()
    inline = text.startswith("{")
    where = what if inline else f"{what} file {text!r}"
    try:
        if inline:
            return json.loads(text)
        with open(text, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{where}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{where}: not UTF-8 text (byte {exc.start})") from exc
    except RecursionError as exc:
        raise ConfigError(f"{where}: JSON nested too deeply") from exc


def _parse_exp_polynomial(spec) -> ExpPolynomial:
    data = _load_json(spec, "function")
    try:
        return ExpPolynomial.from_dict(data)
    except ValueError as exc:
        raise ConfigError(f"function: {exc}") from exc


def make_function(spec, simplex: Simplex) -> TestFunction:
    """Build a test function from a builtin name or exponential-polynomial JSON.

    Builtins: "const1", "affine:v_1,..,v_D,b", "abs" (distance to the
    centroid along a fixed diagonal direction), "runge" (1/(1+25 r^2), r the
    distance to the centroid). Anything else must be an exponential
    polynomial given as a dict, inline JSON, or a path to a .json file.
    """
    dim = simplex.dimension
    centroid = simplex.centroid
    poly: ExpPolynomial | None = None

    if isinstance(spec, ExpPolynomial):
        poly = spec
    elif isinstance(spec, dict):
        poly = _parse_exp_polynomial(spec)
    elif isinstance(spec, str):
        text = spec.strip()
        if text == "const1":
            return TestFunction("const1", lambda pts: np.ones(len(pts)))
        if text == "abs":
            u = np.ones(dim) / math.sqrt(dim)
            return TestFunction("abs", lambda pts: np.abs((pts - centroid) @ u))
        if text == "runge":
            return TestFunction(
                "runge", lambda pts: 1.0 / (1.0 + 25.0 * ((pts - centroid) ** 2).sum(axis=1))
            )
        if text.startswith("affine:"):
            try:
                values = [float(v) for v in text[len("affine:"):].split(",")]
            except ValueError as exc:
                raise ConfigError(f"function {text!r}: non-numeric affine parameter") from exc
            if len(values) != dim + 1:
                raise ConfigError(
                    f"function {text!r}: affine needs {dim} direction entries plus an offset"
                )
            v = np.array(values[:dim])
            b = values[dim]
            return TestFunction(spec, lambda pts: pts @ v + b)
        if not (text.startswith("{") or text.endswith(".json")):
            raise ConfigError(
                f"unknown function spec {text!r}; expected const1, abs, runge, affine:..., "
                "or an exponential polynomial as JSON"
            )
        poly = _parse_exp_polynomial(text)
    else:
        raise ConfigError(f"function spec must be a string or mapping, got {type(spec).__name__}")

    if poly.dimension != dim:
        raise ConfigError(
            f"function dimension {poly.dimension} does not match simplex dimension {dim}"
        )
    return TestFunction("exp-polynomial", poly.evaluate_many, exp_terms=poly)


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int; they are not counts.
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    simplex: Simplex
    function: TestFunction
    n_values: tuple
    grid_resolution: int
    seed: int = 0
    output: str | None = None
    evaluator: str = DEFAULT_EVALUATOR

    def __post_init__(self):
        n_values = self.n_values
        if not (isinstance(n_values, (list, tuple)) and n_values
                and all(_is_int(n) and n >= 1 for n in n_values)):
            raise ConfigError("field 'n_values': need a non-empty list of integers >= 1")
        if any(b <= a for a, b in zip(n_values, n_values[1:])):
            raise ConfigError("field 'n_values': must be strictly increasing")
        object.__setattr__(self, "n_values", tuple(n_values))
        if not _is_int(self.grid_resolution) or self.grid_resolution < 2:
            raise ConfigError("field 'grid_resolution': need an integer >= 2")
        if not _is_int(self.seed):
            raise ConfigError("field 'seed': need an integer")
        if self.output is not None and not isinstance(self.output, str):
            raise ConfigError("field 'output': need a string path")
        if self.evaluator not in EVALUATORS:
            raise ConfigError(f"evaluator must be one of {EVALUATORS}, got {self.evaluator!r}")


def load_simplex(spec) -> Simplex:
    """Simplex from a mapping, inline JSON or a JSON file path."""
    data = _load_json(spec, "simplex")
    try:
        return Simplex.from_dict(data)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid simplex: {exc}") from exc


def load_config(source) -> ExperimentConfig:
    """Parse an experiment config from a dict, a JSON string, or a file path."""
    data = _load_json(source, "config")
    inline = isinstance(source, dict) or str(source).strip().startswith("{")
    origin = "config" if inline else str(source)

    if not isinstance(data, dict):
        raise ConfigError(f"{origin}: top level must be a JSON object")
    known = {field.name for field in fields(ExperimentConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"{origin}: unknown field(s) {sorted(unknown)}; known fields: {sorted(known)}")
    for field in ("simplex", "function", "n_values"):
        if field not in data:
            raise ConfigError(f"{origin}: missing required field {field!r}")

    try:
        simplex = load_simplex(data["simplex"])
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{origin}: field 'simplex': {exc}") from exc

    function = make_function(data["function"], simplex)
    try:
        return ExperimentConfig(**{"grid_resolution": default_grid_resolution(simplex.dimension),
                                   **data, "simplex": simplex, "function": function})
    except ConfigError as exc:
        raise ConfigError(f"{origin}: {exc}") from exc


class ConvergenceRow(NamedTuple):
    n: int
    sup_error: float
    sup_relative_error: float
    predicted_rel_error: float | None
    evaluator: str
    wall_ms: float


class RateFit(NamedTuple):
    slope: float
    intercept: float
    r_squared: float


class BoundCheckRow(NamedTuple):
    n: int
    observed_rel_error: float
    predicted_rel_error: float
    ratio: float
    violation: bool


class BoundCheckResult(NamedTuple):
    rows: tuple
    margin: float

    @property
    def passed(self) -> bool:
        return not any(row.violation for row in self.rows)


class ScalingRow(NamedTuple):
    diameter_scale: float
    magnitude_scale: float
    diameter: float
    direction_norm: float
    n: int
    sup_relative_error: float


# CSV headers: each row type's fields, in order; wall_ms goes to the metadata.
CONVERGENCE_COLUMNS = ConvergenceRow._fields[:-1]
BOUND_CHECK_COLUMNS = BoundCheckRow._fields
SCALING_COLUMNS = ScalingRow._fields


def run_metadata(config: ExperimentConfig) -> dict:
    """Run provenance for sidecar output; not part of the CSV contract."""
    return {
        "function": config.function.name,
        "simplex_dimension": config.simplex.dimension,
        "simplex_diameter": config.simplex.diameter,
        "grid_resolution": config.grid_resolution,
        "n_values": list(config.n_values),
        "seed": config.seed,
        "evaluator": config.evaluator,
        "note": "sup taken over a barycentric lattice; a lower bound on the true sup norm",
    }


def run_convergence(config: ExperimentConfig) -> list:
    """One ConvergenceRow per configured order, sup over the lattice grid."""
    simplex = config.simplex
    function = config.function
    weights = grid_weights(config.grid_resolution, simplex.dimension)
    points = weights @ simplex.vertices
    exact = function.evaluate(points)
    sup_f = float(np.abs(exact).max())

    direction = function.single_exponential()

    rows = []
    for n in config.n_values:
        started = time.perf_counter()
        cps = control_points(simplex, n)
        net = ControlNet(simplex, n, function.evaluate(cps.points))
        values = evaluate_at_weights(net, weights, evaluator=config.evaluator)
        sup_error = float(np.abs(values - exact).max())
        wall_ms = (time.perf_counter() - started) * 1000.0
        predicted = (
            error_budget(simplex, direction, n).predicted_rel_error
            if direction is not None
            else None
        )
        rows.append(
            ConvergenceRow(
                n=n,
                sup_error=sup_error,
                sup_relative_error=sup_error / sup_f if sup_f > 0 else sup_error,
                predicted_rel_error=predicted,
                evaluator=config.evaluator,
                wall_ms=wall_ms,
            )
        )
    return rows


def fit_power_law(orders, errors) -> RateFit:
    """Least-squares fit of log(error) against log(order)."""
    ns = np.asarray(orders, dtype=float)
    errs = np.asarray(errors, dtype=float)
    if ns.shape != errs.shape or ns.ndim != 1 or ns.shape[0] < 3:
        raise InsufficientDataError("rate fit needs at least 3 (order, error) pairs")
    if not np.all(np.isfinite(ns) & (ns > 0) & np.isfinite(errs) & (errs > 0)):
        raise InsufficientDataError("rate fit needs finite, strictly positive orders and errors")
    log_n = np.log(ns)
    log_e = np.log(errs)
    slope, intercept = np.polyfit(log_n, log_e, 1)
    predicted = slope * log_n + intercept
    ss_res = float(((log_e - predicted) ** 2).sum())
    ss_tot = float(((log_e - log_e.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=r_squared)


def fit_rate(rows, noise_floor: float = NOISE_FLOOR) -> RateFit:
    """Fit the decay rate of sup_error across convergence rows.

    Rows at the noise floor are excluded; if nothing remains the
    reproduction was exact and ZeroError is raised instead of a bogus fit.
    """
    if len(rows) < 3:
        raise InsufficientDataError(f"rate fit needs >= 3 rows, got {len(rows)}")
    kept = [(row.n, row.sup_error) for row in rows if row.sup_error > noise_floor]
    if not kept:
        raise ZeroError("all sup errors at the noise floor: reproduction is exact")
    if len(kept) < 3:
        raise InsufficientDataError(
            f"only {len(kept)} rows above the noise floor; rate fit needs >= 3"
        )
    ns, errs = zip(*kept)
    return fit_power_law(ns, errs)


def run_bound_check(config: ExperimentConfig, margin: float = 0.25) -> BoundCheckResult:
    """Compare observed relative error with the first-order prediction per order.

    A row is a violation when the observed/predicted ratio exceeds 1+margin
    at order >= BOUND_CHECK_MIN_ORDER; below that the neglected second-order
    term may legitimately dominate.
    """
    if not (math.isfinite(margin) and margin >= 0):
        raise ConfigError(f"margin must be finite and non-negative, got {margin!r}")
    direction = exp_study_direction(config.function)
    simplex = config.simplex
    cases = [(_vertex_dots(simplex, direction, n), n) for n in config.n_values]
    reports = relative_error_reports(
        cases, grid_weight_blocks(config.grid_resolution, simplex.dimension))

    rows = []
    for n, report in zip(config.n_values, reports):
        violation = n >= BOUND_CHECK_MIN_ORDER and report.ratio > 1.0 + margin
        rows.append(
            BoundCheckRow(
                n=n,
                observed_rel_error=report.max_rel_error,
                predicted_rel_error=report.predicted_rel_error,
                ratio=report.ratio,
                violation=violation,
            )
        )
    return BoundCheckResult(rows=tuple(rows), margin=margin)


def run_scaling_study(simplex: Simplex, direction, order: int, resolution: int,
                      scales) -> list:
    """Sup relative error of exp((m*a).x) on the d-scaled simplex, per (d, m).

    Exposes how the error grows with the diameter-magnitude product; the
    observed growth is roughly quadratic per doubling of either factor.
    The error depends on (d, m) only through the vertex dots d*m*a.x_j: each
    distinct dot vector is one case of the kernel, and pairs such as (1, 2)
    and (2, 1) share its report bit for bit.
    """
    factors = [float(s) for s in scales]
    if not factors or not all(math.isfinite(s) and s > 0 for s in factors):
        raise ConfigError(f"scale factors must be finite and positive, got {factors}")
    base_direction = np.asarray(direction, dtype=float)

    cases = {}  # case index per distinct dots.tobytes(), in first-seen order
    rows = []
    for d_scale in factors:
        scaled = simplex.scaled(d_scale)
        for m_scale in factors:
            a = base_direction * m_scale
            dots = _vertex_dots(scaled, a, order)
            case = cases.setdefault(dots.tobytes(), (len(cases), dots))[0]
            rows.append((d_scale, m_scale, scaled.diameter, float(np.linalg.norm(a)), case))
    # Barycentric weights do not change when the simplex is scaled.
    reports = relative_error_reports([(dots, order) for _, dots in cases.values()],
                                     grid_weight_blocks(resolution, simplex.dimension))
    return [ScalingRow(d_scale, m_scale, diameter, norm, order, reports[case].max_rel_error)
            for d_scale, m_scale, diameter, norm, case in rows]
