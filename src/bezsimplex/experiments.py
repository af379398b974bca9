"""Experiment runner: convergence sweeps, bound checks, scaling.

Everything here reduces to the same loop: sample a function into a control
net, evaluate the net over a barycentric lattice grid, take the sup of the
pointwise error, and tabulate per order. The sup over the lattice is a
lower bound on the true sup norm; that is acceptable for rate measurement
and is recorded in the run metadata.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
import time
from typing import Callable, NamedTuple

import numpy as np

from .bernstein import DEFAULT_EVALUATOR, evaluate_at_weights, rounding_floor, sample_control_net
from .csvio import emit_csv  # re-exported: experiments.emit_csv is public
from .errors import ConfigError, DimensionMismatchError, ExpOverflowError, FunctionEvaluationError
from .exponentials import (ExpPolynomial, error_budget, log_ratio_rounding, sup_relative_errors,
                           vertex_dots)
from .geometry import Frozen, Simplex, power_of_two_scaled
from .lattice import check_order, default_grid_resolution, grid_weight_blocks

# The first-order bound is asymptotic; violations are only flagged from here on,
# where the observation passes the prediction by more than this share of it.
BOUND_CHECK_MIN_ORDER = 40
BOUND_CHECK_MARGIN = 0.25
# Observed relative errors at or below this count as exactly zero in a bound
# check's ratio, since the prediction may be exactly 0 (a zero direction).
ZERO_OBSERVED_FLOOR = 1e-12

class TestFunction(Frozen):
    """A named target function, evaluated on (P, D) batches of points, with
    its exponential terms when it is an exponential polynomial."""

    def __init__(self, name: str, batch: Callable, exp_terms: ExpPolynomial | None = None) -> None:
        self._set(name=name, batch=batch, exp_terms=exp_terms)

    def evaluate(self, points) -> np.ndarray:
        """f on a (P, D) batch, the one owner of f's floating point: overflow gives inf,
        not a warning; a result not of shape (P,), or a value not finite, raises."""
        points = np.asarray(points, dtype=float)
        with np.errstate(all="ignore"):
            values = np.asarray(self.batch(points), dtype=float)
        if values.shape != points.shape[:1]:
            raise FunctionEvaluationError(f"function {self.name} gave shape {values.shape}"
                                          f" at {len(points)} points; need one value a point")
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            i = int(bad[0])
            raise FunctionEvaluationError(f"function {self.name} is {float(values[i])!r} at point"
                                          f" {points[i].tolist()}; values must be finite")
        return values

    def single_exponential(self) -> np.ndarray | None:
        """The direction a when this is one exponential c exp(a.x) with c != 0."""
        poly = self.exp_terms
        if poly is not None and len(poly) == 1 and poly.coefficients[0] != 0.0:
            return poly.directions[0]
        return None


def exp_study_direction(function: TestFunction) -> np.ndarray:
    """The direction a of c exp(a.x), c != 0: the one function the exp studies take."""
    direction = function.single_exponential()
    if direction is None:
        raise ConfigError("bound check and scaling need a single-exponential function c exp(a.x), c != 0")
    return direction


def _load_json(spec, what: str) -> tuple:
    # The one reader of a JSON source, and the one check of its type. A dict
    # passes through; text starting with "{" or "[" is inline JSON; any other str or
    # os.PathLike is the path of a JSON file. A source inside a config is a spec.
    # Returns the data and the source's name for messages.
    if isinstance(spec, dict):
        return spec, what
    if not isinstance(spec, (str, os.PathLike)):
        noun = what if what == "config" else f"{what} spec"
        raise ConfigError(f"{noun} must be a mapping or path, got {type(spec).__name__}")
    text = str(spec).strip()
    inline = text.startswith(("{", "["))
    where = what if inline else f"{what} file {text!r}"
    try:
        if inline:
            return json.loads(text), where
        with open(text, encoding="utf-8") as handle:
            return json.load(handle), where
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{where}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{where}: not UTF-8 text (byte {exc.start})") from exc
    except RecursionError as exc:
        raise ConfigError(f"{where}: JSON nested too deeply") from exc
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"{where}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # a NUL byte in the path, an integer past Python's digit limit
        raise ConfigError(f"{where}: {exc}") from exc


def _fields(data, where: str, known: tuple, required: tuple = ()) -> dict:
    # The one check of a JSON object's keys: none outside known, and every one of required
    # (of known, if none is given) present. The messages name the keys.
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: need a JSON object with {sorted(known)}, got {type(data).__name__}")
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {sorted(unknown)}; known fields: {sorted(known)}")
    for field in required or known:
        if field not in data:
            raise ConfigError(f"{where}: missing {field!r}")
    return data


def _items(value, where: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: need a list, got {type(value).__name__}")
    return list(value)


def _number(value, where: str):
    # numpy reads the string "12" as 12.0 and true as 1.0; a JSON number is neither.
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{where}: need a number, got {type(value).__name__}")
    return value


def _numbers(values, where: str) -> list:
    return [_number(value, f"{where}[{i}]") for i, value in enumerate(_items(values, where))]


def parse_floats(text: str, what: str) -> list:
    """The numbers of a comma-separated list (--point, --scales, affine:), as floats.
    An empty or non-numeric entry raises ConfigError naming what."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{what}: non-numeric entry in {text!r}") from exc


def _parse_exp_polynomial(spec) -> ExpPolynomial:
    # {"terms": [{"c": c, "a": [a_1, .., a_D]}, ...]}; ExpPolynomial checks the values.
    data, _ = _load_json(spec, "function")
    where = "function: malformed exponential polynomial"
    terms = _items(_fields(data, where, ("terms",))["terms"], f"{where}: terms")
    for i, term in enumerate(terms):
        term = _fields(term, f"{where}: terms[{i}]", ("c", "a"))
        terms[i] = (_number(term["c"], f"{where}: terms[{i}].c"),
                    _numbers(term["a"], f"{where}: terms[{i}].a"))
    try:
        return ExpPolynomial(terms)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def make_function(spec, simplex: Simplex) -> TestFunction:
    """Build a test function from a builtin name or exponential-polynomial JSON.

    Builtins: "const1", "affine:v_1,..,v_D,b", "abs" (distance to the
    centroid along a fixed diagonal direction), "runge" (1/(1+25 r^2), r the
    distance to the centroid). Anything else must be an exponential
    polynomial: a dict, inline JSON, a str path ending in .json or any os.PathLike.
    """
    dim = simplex.dimension
    centroid = simplex.centroid

    if isinstance(spec, ExpPolynomial):
        poly = spec
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
            values = parse_floats(text[len("affine:"):], f"function {text!r}")
            if len(values) != dim + 1:
                raise ConfigError(
                    f"function {text!r}: affine needs {dim} direction entries plus an offset"
                )
            v = np.array(values[:dim])
            b = values[dim]
            return TestFunction(text, lambda pts: pts @ v + b)
        if not (text.startswith("{") or text.endswith(".json")):
            raise ConfigError(
                f"unknown function spec {text!r}; expected const1, abs, runge, affine:..., "
                "or an exponential polynomial as JSON"
            )
        poly = _parse_exp_polynomial(text)
    else:
        poly = _parse_exp_polynomial(spec)

    if poly.dimension != dim:
        raise ConfigError(
            f"function dimension {poly.dimension} does not match simplex dimension {dim}"
        )
    return TestFunction("exp-polynomial", poly.evaluate_many, exp_terms=poly)


def _config_orders(field: str, values, least: int, need: str) -> tuple:
    # lattice.check_order on every value of a config field, re-raised as a
    # ConfigError naming the field; the values come back as plain ints.
    try:
        for value in values:
            check_order(value, least)
    except DimensionMismatchError as exc:
        raise ConfigError(f"field {field!r}: need {need}") from exc
    return tuple(int(value) for value in values)


class ExperimentConfig(Frozen):
    """A run's configuration; FIELDS lists its attributes, which are the config's keys."""

    FIELDS = ("simplex", "function", "n_values", "grid_resolution", "seed")

    def __init__(self, simplex: Simplex, function: TestFunction, n_values, grid_resolution,
                 seed=0) -> None:
        need = "a non-empty list of integers >= 1"
        if not (isinstance(n_values, (list, tuple)) and n_values):
            raise ConfigError(f"field 'n_values': need {need}")
        n_values = _config_orders("n_values", n_values, 1, need)
        if any(b <= a for a, b in zip(n_values, n_values[1:])):
            raise ConfigError("field 'n_values': must be strictly increasing")
        (resolution,) = _config_orders("grid_resolution", [grid_resolution], 2, "an integer >= 2")
        if isinstance(seed, bool) or not isinstance(seed, int):  # JSON true is an int
            raise ConfigError("field 'seed': need an integer")
        self._set(simplex=simplex, function=function, n_values=n_values,
                  grid_resolution=resolution, seed=seed)


def load_simplex(spec) -> Simplex:
    """Simplex {"vertices": [[x_1, .., x_D], ...]} from a mapping, inline JSON or a JSON file path."""
    data, _ = _load_json(spec, "simplex")
    where = "invalid simplex"
    vertices = _items(_fields(data, where, ("vertices",))["vertices"], f"{where}: vertices")
    vertices = [_numbers(vertex, f"{where}: vertices[{j}]") for j, vertex in enumerate(vertices)]
    try:
        return Simplex(vertices)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(source) -> ExperimentConfig:
    """Parse an experiment config from a dict, a JSON string, or a file path."""
    data, origin = _load_json(source, "config")
    _fields(data, origin, ExperimentConfig.FIELDS, ("simplex", "function", "n_values"))

    try:
        simplex = load_simplex(data["simplex"])
    except ValueError as exc:
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


class BoundCheckRow(NamedTuple):
    n: int
    observed_rel_error: float
    predicted_rel_error: float
    ratio: float
    violation: bool


class ScalingRow(NamedTuple):
    diameter_scale: float
    magnitude_scale: float
    diameter: float
    direction_norm: float
    n: int
    sup_relative_error: float


# CSV headers: each row type's fields, in order.
CONVERGENCE_COLUMNS = ConvergenceRow._fields
BOUND_CHECK_COLUMNS = BoundCheckRow._fields
SCALING_COLUMNS = ScalingRow._fields


def run_metadata(config: ExperimentConfig) -> dict:
    """Run provenance, the first keys of every study's metadata; not part of the CSV contract."""
    return {
        "function": config.function.name,
        "simplex_dimension": config.simplex.dimension,
        "simplex_diameter": config.simplex.diameter,
        "grid_resolution": config.grid_resolution,
        "n_values": list(config.n_values),
        "seed": config.seed,
        "note": "sup taken over a barycentric lattice; a lower bound on the true sup norm",
    }


def _exp_study_errors(config: ExperimentConfig, cases: list) -> tuple:
    # The exp studies' grid pass: per (vertex dots, order) case, the sup relative error over the
    # grid, each row holding 2C doubles beside it for C cases, and log_ratio_rounding's floor.
    blocks = grid_weight_blocks(config.grid_resolution, config.simplex.dimension, 2 * len(cases))
    return (sup_relative_errors(cases, blocks),
            [math.expm1(log_ratio_rounding(dots, order)) for dots, order in cases])


def run_convergence(config: ExperimentConfig, evaluator: str = DEFAULT_EVALUATOR) -> tuple:
    """One ConvergenceRow per configured order, sup over the lattice grid, in one
    pass over grid_weight_blocks: per block, f once, then each order's net (sampled
    on the first block, after f), keeping the running max of |f| and each order's of
    |net - f|. So on a grid of more than one block a net's errors (f at a control point,
    an order past the de Casteljau cap) come before f's on later blocks. The metadata adds
    the evaluator and, per order, wall_ms (its sampling plus its evaluations on all blocks)
    and bernstein.rounding_floor, the most the evaluator's own rounding moves a value."""
    simplex, function, orders = config.simplex, config.function, config.n_values
    nets, sup_errors, seconds, sup_f = [], np.zeros(len(orders)), np.zeros(len(orders)), 0.0
    # Beside its weights a row holds its point (D doubles), f, a net's values and |values - f|.
    for weights in grid_weight_blocks(config.grid_resolution, simplex.dimension,
                                      simplex.dimension + 3):
        exact = function.evaluate(weights @ simplex.vertices)
        sup_f = max(sup_f, float(np.abs(exact).max()))
        for i, n in enumerate(orders):
            started = time.perf_counter()
            if i == len(nets):
                nets.append(sample_control_net(simplex, n, function))
            values = evaluate_at_weights(nets[i], weights, evaluator=evaluator)
            sup_errors[i] = np.maximum(sup_errors[i], np.abs(values - exact).max())  # keeps a NaN
            seconds[i] += time.perf_counter() - started
        del weights, exact, values  # free this block before the next one is built

    direction = function.single_exponential()
    rows = []
    for n, sup_error in zip(orders, sup_errors.tolist()):
        predicted = None
        if direction is not None:
            with contextlib.suppress(ExpOverflowError):  # a budget past a double: no prediction
                predicted = error_budget(simplex, direction, n)
        rows.append(ConvergenceRow(n, sup_error, sup_error / sup_f if sup_f > 0 else sup_error,
                                   predicted, evaluator))
    # The grid's smallest nonzero weight is fl(1 / m), which sets direct's largest |log w_j|.
    floors = [rounding_floor(net, evaluator, 1.0 / config.grid_resolution) for net in nets]
    return rows, {**run_metadata(config), "evaluator": evaluator, "rounding_floor": floors,
                  "wall_ms": [round(wall_s * 1000.0, 3) for wall_s in seconds.tolist()]}


def run_bound_check(config: ExperimentConfig) -> tuple:
    """One BoundCheckRow per configured order: the observed sup relative error
    over the lattice grid, the first-order prediction of error_budget (the one
    converge prints) and their ratio, which is 0 for an observation at or
    below ZERO_OBSERVED_FLOOR even when the prediction is exactly 0. The
    metadata adds the margin, passed, true when no row is a violation, and per row
    rounding_floor, the relative error the log ratio's rounding alone can produce.

    A row is a violation when the ratio exceeds 1 + BOUND_CHECK_MARGIN at
    order >= BOUND_CHECK_MIN_ORDER; below that the neglected second-order term
    may legitimately dominate. A budget past a double raises ExpOverflowError.
    """
    direction = exp_study_direction(config.function)
    simplex = config.simplex
    cases = [(vertex_dots(simplex, direction, n), n) for n in config.n_values]
    observed, floors = _exp_study_errors(config, cases)

    rows = []
    for n, error in zip(config.n_values, observed):
        predicted = error_budget(simplex, direction, n)
        if predicted > 0.0:
            ratio = error / predicted
        else:
            ratio = 0.0 if error <= ZERO_OBSERVED_FLOOR else math.inf
        rows.append(BoundCheckRow(n, error, predicted, ratio,
                                  n >= BOUND_CHECK_MIN_ORDER and ratio > 1.0 + BOUND_CHECK_MARGIN))
    return rows, {**run_metadata(config), "margin": BOUND_CHECK_MARGIN, "rounding_floor": floors,
                  "passed": not any(row.violation for row in rows)}


def run_scaling_study(config: ExperimentConfig, scales) -> tuple:
    """Sup relative error of the config's exp((m*a).x) on the d-scaled simplex at its top
    order, per (d, m) of the scales: numbers, or the comma list of --scales, read after
    the function is checked. The metadata adds the scales, the order and rounding_floor.

    Exposes how the error grows with the diameter-magnitude product; the
    observed growth is roughly quadratic per doubling of either factor.
    The error depends on (d, m) only through the vertex dots d*m*a.x_j: each
    distinct dot vector is one case of the kernel, and pairs such as (1, 2)
    and (2, 1) share its error bit for bit. No prediction is formed, so an
    error budget past a double does not stop the study.
    """
    base_direction = exp_study_direction(config.function)
    factors = parse_floats(scales, "--scales") if isinstance(scales, str) else [float(s) for s in scales]
    if not factors or not all(math.isfinite(s) and s > 0 for s in factors):
        raise ConfigError(f"scale factors must be finite and positive, got {factors}")
    simplex, order = config.simplex, max(config.n_values)

    # m*a and |m*a| for each magnitude scale m, formed once: they do not depend on d
    directions = [power_of_two_scaled(base_direction, lambda u: u * m, f"scaling by {m!r}")[0]
                  for m in factors]
    norms = [float(power_of_two_scaled(a, np.linalg.norm, "direction norm")[0]) for a in directions]
    cases = {}  # case index per distinct dots.tobytes(), in first-seen order
    rows = []
    for d_scale in factors:
        scaled = simplex.scaled(d_scale)
        for m_scale, a, norm in zip(factors, directions, norms):
            dots = vertex_dots(scaled, a, order)
            case = cases.setdefault(dots.tobytes(), (len(cases), dots))[0]
            rows.append((d_scale, m_scale, scaled.diameter, norm, case))
    # Barycentric weights do not change when the simplex is scaled.
    errors, floors = _exp_study_errors(config, [(dots, order) for _, dots in cases.values()])
    return ([ScalingRow(d_scale, m_scale, diameter, norm, order, errors[case])
             for d_scale, m_scale, diameter, norm, case in rows],
            {**run_metadata(config), "scales": factors, "order": order,
             "rounding_floor": [floors[case] for *_, case in rows]})
