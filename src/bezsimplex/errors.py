"""Exception hierarchy for bezsimplex."""


class BezSimplexError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(BezSimplexError, ValueError):
    """Input has the wrong number of vertices, coordinates or weights."""


class DegenerateSimplexError(BezSimplexError, ValueError):
    """Simplex vertices are affinely dependent (zero volume up to tolerance)."""


class DomainError(BezSimplexError, ValueError):
    """A non-finite coordinate or coefficient, or a negative tolerance."""


class InvalidBarycentricError(BezSimplexError, ValueError):
    """Barycentric weights are non-finite, negative beyond tolerance or do not sum to one."""


class NegativeWeightError(InvalidBarycentricError):
    """Evaluation point lies outside the closed simplex beyond tolerance."""


class SizeOverflowError(BezSimplexError, OverflowError):
    """Requested lattice or exact coefficient exceeds the configured cap."""


class ExpOverflowError(BezSimplexError, OverflowError):
    """Exponent argument would overflow double precision."""


class EmptyGridError(BezSimplexError, ValueError):
    """A sup-norm estimate was requested over an empty point set."""


class InsufficientDataError(BezSimplexError, ValueError):
    """Too few usable rows for a rate fit."""


class ZeroError(BezSimplexError, ValueError):
    """All residuals sit at the noise floor: reproduction is exact, no rate to fit."""


class FunctionEvaluationError(BezSimplexError, RuntimeError, ValueError):
    """A user-supplied function failed at, or gave a non-finite value at, a control point."""


class ConfigError(BezSimplexError, ValueError):
    """Experiment configuration is malformed."""
