"""Projective points over Q in coprime normal form and their Weil heights.

A point is stored as a tuple of integers with gcd 1 whose first nonzero
entry is positive.  With that normalization only the archimedean place
contributes, so the absolute logarithmic Weil height is ``log max_i |x_i|``
and the integer ``max_i |x_i|`` is carried alongside the float so tests can
compare heights exactly.

Coordinates are rational only: extending to number fields would replace
the gcd normalization with an ideal norm and add non-archimedean place
sums.  The extension point is this module's normalize/weil_height pair;
nothing else in the toolkit assumes more than the two invariants above.

The coordinate gcd dominates long exact orbits.  On a morphism of P^1
evaluated at a coprime point it divides the resultant of the two
coordinate forms (a Bezout identity in each affine chart; see
projmaps._gcd_bound), so projmaps.orbit passes that bound to normalize
and coordinate_gcd reduces modulo it.  Maps of P^N with N >= 2, and
points not known to be coprime, keep the exact gcd.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _intgcd
from typing import NamedTuple

from .errors import NotAPoint, ContractViolation


@dataclass(frozen=True)
class ProjPointQ:
    """A normalized rational projective point."""

    coords: tuple

    def __post_init__(self):
        if not isinstance(self.coords, tuple):
            object.__setattr__(self, "coords", tuple(self.coords))

    def __str__(self):
        return format_point(self)


class HeightValue(NamedTuple):
    """A Weil height as (float log value, exact integer argument)."""

    value: float
    exact_arg: int


def coordinate_gcd(values, bound=0):
    """The gcd of integer coordinates, not all zero.

    bound, when nonzero, must be a multiple of that gcd, and then the gcd
    is gcd(bound, v_0 mod bound, ...), which costs one reduction of each
    coordinate.  Without a bound the exact gcd is taken in ascending |v|
    order and stops at 1, so one small coordinate decides it.
    """
    if bound:
        return _intgcd(bound, *(v % bound for v in values))
    g = 0
    for v in sorted(values, key=abs):
        g = _intgcd(g, v)
        if g == 1:
            break
    return g


def normalize(raw, *, _bound=0) -> ProjPointQ:
    """Clear denominators, divide by the coordinate gcd and fix the sign.

    Idempotent; raises NotAPoint when every coordinate is zero.  _bound is
    private to ``projmaps.orbit``: a multiple of the gcd of the integer
    coordinates (see coordinate_gcd) that the caller has proved.
    """
    ints = list(raw)
    if not all(type(x) is int for x in ints):
        fracs = [Fraction(x) for x in ints]
        denom_lcm = 1
        for f in fracs:
            d = f.denominator
            denom_lcm = denom_lcm // _intgcd(denom_lcm, d) * d
        ints = [int(f * denom_lcm) for f in fracs]
    if not any(ints):
        raise NotAPoint("all coordinates are zero")
    g = coordinate_gcd(ints, _bound)
    if g != 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-w for w in ints]
            break
    return ProjPointQ(tuple(ints))


def weil_height(point: ProjPointQ) -> HeightValue:
    """log of the largest absolute coordinate of a normalized point."""
    arg = max(abs(c) for c in point.coords)
    return HeightValue(math.log(arg), arg)


def parse_point(text):
    """Parse comma-separated rationals like ``2,1`` or ``1/2,3,-4``."""
    s = text.replace("−", "-").strip()
    if not s:
        raise ContractViolation("empty point text")
    try:
        return [Fraction(part.strip()) for part in s.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise ContractViolation(f"bad point text {text!r}: {exc}") from None


def format_point(point: ProjPointQ) -> str:
    return "[" + " : ".join(str(c) for c in point.coords) + "]"
