"""Shared exception types."""

__all__ = [
    "ConservationError",
    "ContractError",
    "ConvergenceError",
    "DegenerateStateError",
    "DimensionError",
    "InvariantViolationError",
    "NumericalConsistencyError",
    "StockwaveError",
]


class StockwaveError(Exception):
    """Base class for all library errors."""


class DimensionError(StockwaveError):
    """Operands live on lattices of different sizes."""


class DegenerateStateError(StockwaveError):
    """A zero-norm function cannot be normalized."""


class ContractError(StockwaveError):
    """An argument violates an operator contract (e.g. hermiticity)."""


class ConvergenceError(StockwaveError):
    """An iterative solver exhausted its iteration budget."""


class NumericalConsistencyError(StockwaveError):
    """A computed quantity failed an internal numerical sanity bound."""


class InvariantViolationError(StockwaveError):
    """A mathematical invariant failed beyond tolerance; signals a bug."""


class ConservationError(StockwaveError):
    """Norm conservation was violated during time evolution."""
