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

    @property
    def dim(self):
        return len(self.coords) - 1

    def __str__(self):
        return format_point(self)


class HeightValue(NamedTuple):
    """A Weil height as (float log value, exact integer argument)."""

    value: float
    exact_arg: int


def normalize(raw) -> ProjPointQ:
    """Clear denominators, divide by the coordinate gcd and fix the sign.

    Idempotent; raises NotAPoint when every coordinate is zero.
    """
    fracs = [Fraction(x) for x in raw]
    if all(f == 0 for f in fracs):
        raise NotAPoint("all coordinates are zero")
    denom_lcm = 1
    for f in fracs:
        d = f.denominator
        denom_lcm = denom_lcm // _intgcd(denom_lcm, d) * d
    ints = [int(f * denom_lcm) for f in fracs]
    g = 0
    for v in ints:
        g = _intgcd(g, abs(v))
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


def hplus(point: ProjPointQ) -> float:
    """The height clamped below by 1, max(h, 1)."""
    return max(weil_height(point).value, 1.0)


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
