"""Exception hierarchy for the corrugation engine.

EngineError covers failures of the numerics on valid input (CLI exit code
1); ConfigError covers bad user input, a value its file's own domain forbids
included, caught before any output is written (exit code 2).
"""


class EngineError(Exception):
    """Base class for domain failures detected during computation."""


class ConfigError(Exception):
    """Invalid configuration or command-line input."""


class DegeneratePlane(EngineError):
    """Tangent plane is not spacelike enough to carry a timelike normal."""


class NotLong(EngineError):
    """Embedding pullback minus target metric is not positive semidefinite."""


class GridMismatch(EngineError):
    """Fields defined on incompatible grids were combined."""


class SingularMetric(EngineError):
    """Metric field is singular or indefinite where definiteness is required."""


class NotPSD(EngineError):
    """Symmetric field expected to be positive semidefinite is not."""


class ConeViolation(EngineError):
    """Field leaves the nonnegative cone of the primitive dictionary."""


class NotRiemannian(EngineError):
    """Intermediate metric mu = f*h - eta dl (x) dl fails to be Riemannian."""


class LostSpacelike(EngineError):
    """Corrugated embedding stopped being spacelike."""


class BudgetExceeded(EngineError):
    """No ladder number met a step's budgets, or a doubled stage budget missed its bound."""


class DomainError(EngineError):
    """Scalar function evaluated outside its domain."""


class UnknownScenario(EngineError):
    """Requested scenario name is not registered."""
