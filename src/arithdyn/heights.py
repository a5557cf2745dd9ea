"""Projective points over Q in coprime normal form and their Weil heights.

A point is stored as a tuple of integers with gcd 1 whose first nonzero
entry is positive.  With that normalization only the archimedean place
contributes, so the absolute logarithmic Weil height is ``log max_i |x_i|``
and the integer ``max_i |x_i|`` is carried alongside the float so tests can
compare heights exactly.

The heights h(f^n P) of one orbit form a HeightSequence, whatever
computed them: the exact or the heights-only orbit of projmaps, the
exponent-space orbit of monomial, or the float walk of degrees.  Both
invariants of a point are read off that one sequence, the arithmetic
degree as the limit of h(f^n P)^(1/n) and the canonical height as that
of beta^-n h(f^n P).

Coordinates are rational only: extending to number fields would replace
the gcd normalization with an ideal norm and add non-archimedean place
sums.  The extension point is this module's normalize/weil_height pair;
nothing else in the toolkit assumes more than the two invariants above.

On a morphism of P^N evaluated at a coprime point the coordinate gcd
divides the integer R of the identities R x_i^D = sum_j G_ij F_j (the
resultant on P^1), lifted and checked once per map from the Macaulay
matrix by projmaps.map_certificate, so projmaps.orbit passes that bound
to normalize and coordinate_gcd reduces modulo it.  Maps without R, and
points not known to be coprime, keep the exact gcd.  What is left of a
long exact orbit's cost is evaluating the forms at wide points, which
projmaps.orbit_heights avoids where only the heights are read.
"""

import math
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from math import gcd as _intgcd
from typing import NamedTuple

from .errors import ContractViolation, NotAPoint, Record


class ProjPointQ(Record):
    """A normalized rational projective point: read-only coords, compared
    and hashed by value."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        if not isinstance(coords, tuple):
            coords = tuple(coords)
        object.__setattr__(self, "coords", coords)

    def __str__(self):
        return format_point(self)


class HeightValue(NamedTuple):
    """A Weil height as (float log value, exact integer argument)."""

    value: float
    exact_arg: int


class HeightSequence(Record):
    """Heights h(f^n P) of an orbit, n = 0..nmax.

    hplus_values, derived once from heights, clamps each below by 1 for
    the estimators (a field, not a property: they index it in loops).
    cycle = (preperiod, period) is set when the orbit was certified finite
    by exact point repetition, in which case the arithmetic degree is
    exactly 1.  undefined_at is the step n at which the orbit stopped
    because the map is undefined at f^n P.  Read-only, compared and hashed
    by all four.
    """

    __slots__ = ("heights", "cycle", "undefined_at", "hplus_values")

    def __init__(self, heights, cycle=None, undefined_at=None):
        object.__setattr__(self, "heights", heights)
        object.__setattr__(self, "cycle", cycle)
        object.__setattr__(self, "undefined_at", undefined_at)
        object.__setattr__(self, "hplus_values",
                           tuple(max(v, 1.0) for v in heights))

    def __len__(self):
        return len(self.heights)


def heights_from_values(values, cycle=None,
                        undefined_at=None) -> HeightSequence:
    return HeightSequence(tuple(float(v) for v in values), cycle,
                          undefined_at)


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
        denom_lcm = math.lcm(*(f.denominator for f in fracs))
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


def format_float(x) -> str:
    """Fixed 9-significant-digit rendering used in every report."""
    return f"{float(x):.9g}"


def _format_rounded(x, rounding):
    # a 9-digit decimal survives the round trip through a float
    return f"{float(Context(prec=9, rounding=rounding).plus(x)):.9g}"


def format_up(x) -> str:
    """format_float's digits rounded up: the printed number is >= x, the
    rendering of a certified upper bound."""
    return _format_rounded(Decimal(x), ROUND_CEILING)


def format_down(x) -> str:
    """format_float's digits rounded down: the printed number is <= x."""
    return _format_rounded(Decimal(x), ROUND_FLOOR)


def format_radius(value, radius) -> str:
    """The radius to print beside format_float(value): radius plus the
    printing error |format_float(value) - value|, rounded up, so that the
    printed ball holds the ball value +- radius."""
    shown = Fraction(format_float(value))
    err = Fraction(radius) + abs(shown - Fraction(value))
    return format_up(Context(prec=9, rounding=ROUND_CEILING).divide(
        err.numerator, err.denominator))
