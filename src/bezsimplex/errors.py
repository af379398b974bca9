"""Exception hierarchy for bezsimplex."""


class BezSimplexError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(BezSimplexError, ValueError):
    """Input has the wrong number of vertices, coordinates or weights."""


class DegenerateSimplexError(BezSimplexError, ValueError):
    """Simplex vertices are affinely dependent (zero volume up to tolerance)."""


class DomainError(BezSimplexError, ValueError):
    """A non-finite coordinate (of a vertex or a point) or exponential-polynomial entry."""


class InvalidBarycentricError(BezSimplexError, ValueError):
    """Barycentric weights are non-finite, negative beyond tolerance or do not sum to one."""


class NegativeWeightError(InvalidBarycentricError):
    """Evaluation point lies outside the closed simplex beyond tolerance."""


class SizeOverflowError(BezSimplexError, OverflowError):
    """A lattice past SIZE_CAP entries, an order past an evaluator's limit, or a number
    past the largest double."""


class ExpOverflowError(BezSimplexError, OverflowError):
    """Exponent argument would overflow double precision."""


class EmptyGridError(BezSimplexError, ValueError):
    """A sup-norm estimate was requested over an empty point set."""


class FunctionEvaluationError(BezSimplexError, RuntimeError, ValueError):
    """A user-supplied function failed at, or gave a non-finite value at, a control point."""


class ConfigError(BezSimplexError, ValueError):
    """Experiment configuration is malformed."""
