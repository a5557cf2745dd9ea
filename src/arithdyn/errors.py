"""Exception types and the read-only record base of the toolkit."""


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


class NonMorphism(ContractViolation):
    """A certified-mode routine needs a morphism but the map is not one."""


class ResourceCapExceeded(ArithDynError):
    """An exact computation outgrew its configured size limits."""


class Record:
    """Base of the read-only classes that check their input.

    A subclass lists its fields in __slots__ and sets each once in
    __init__ with object.__setattr__.  From __slots__ follow the rest:
    assignment and deletion raise AttributeError, == compares the fields
    of two objects of the same class, hash is the hash of the field tuple
    and repr is Name(field=value, ...).
    """

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "{}({})".format(type(self).__name__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__))
