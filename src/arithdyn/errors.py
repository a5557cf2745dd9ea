"""Exception types shared across the toolkit."""


class ArithDynError(Exception):
    """Base class for all toolkit errors."""


class ContractViolation(ArithDynError, ValueError):
    """An operation was called with arguments violating its preconditions."""


class DegreeMismatch(ContractViolation):
    """Polynomials of incompatible degree or variable count were combined."""


class NotAPoint(ContractViolation):
    """All coordinates of a would-be projective point are zero."""


class NotOnTorus(ContractViolation):
    """A torus point was given a zero coordinate."""


class IndeterminatePoint(ArithDynError):
    """A rational map was evaluated where all defining polynomials vanish."""

    def __init__(self, point):
        super().__init__("map is undefined at this point")
        self.point = point


class ConeNotPreserved(ContractViolation):
    """A matrix with negative entries was passed to a cone-based routine."""


class UnsupportedDimension(ContractViolation):
    """The operation is only implemented for a specific ambient dimension."""


class NonMorphism(ContractViolation):
    """A certified-mode routine needs a morphism but the map is not one."""


class ResourceCapExceeded(ArithDynError):
    """An exact computation outgrew its configured size limits."""
