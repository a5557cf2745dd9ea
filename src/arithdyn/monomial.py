"""Monomial self-maps of the N-torus in exponent-matrix form.

A monomial map sends (x_1, ..., x_N) to coordinates prod_j x_j^(a_ij), so
on prime-factored points the whole orbit lives in the integer matrix world:
one step is E -> A E on the exponent matrix.  Heights of the embedded
points [1 : x_1 : ... : x_N] are read off the exponents directly, which
keeps n around 40-60 feasible while the rational coordinates themselves
would need doubly exponential digits.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractViolation, NotOnTorus, ResourceCapExceeded
from .degrees import heights_from_values
from .spectral import (IntMat, SpectralEstimate, as_matrix, determinant,
                       format_matrix, spectral_radius)
from .polynomials import MultiPoly
from .projmaps import RationalMapPN


@dataclass(frozen=True)
class MonomialMap:
    """Integer exponent matrix A with det(A) != 0 (dominance)."""

    A: IntMat

    def __post_init__(self):
        a = as_matrix(self.A)
        object.__setattr__(self, "A", a)
        if determinant(a) == 0:
            raise ContractViolation("exponent matrix is singular")


@dataclass(frozen=True)
class FactoredTorusPoint:
    """A torus point stored as signs and prime exponent vectors.

    coordinate i = signs[i] * prod_p p^(E[i][col(p)]).
    """

    primes: tuple
    E: tuple
    signs: tuple

    def __post_init__(self):
        if any(s not in (1, -1) for s in self.signs):
            raise ContractViolation("signs must be +1 or -1")
        if list(self.primes) != sorted(set(self.primes)):
            raise ContractViolation("primes must be sorted and distinct")
        for row in self.E:
            if len(row) != len(self.primes):
                raise ContractViolation("exponent row width mismatch")

    @property
    def dim(self):
        return len(self.E)


# trial division covers every integer below _TRIAL_BOUND ** 2 without sympy
_TRIAL_BOUND = 1 << 12


def _factor_int(n):
    """{prime: exponent} of an integer n >= 1.

    Trial division by 2 and the odd numbers below _TRIAL_BOUND; only a
    cofactor that is then still possibly composite goes to sympy.
    """
    expo = {}
    d = 2
    while d * d <= n:
        if d >= _TRIAL_BOUND:
            import sympy

            expo.update((int(p), int(e)) for p, e in
                        sympy.factorint(n).items())
            return expo
        while n % d == 0:
            expo[d] = expo.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        expo[n] = 1
    return expo


def factor_point(coords) -> FactoredTorusPoint:
    """Fully factor nonzero rational coordinates into a FactoredTorusPoint."""
    fracs = [Fraction(c) for c in coords]
    if any(f == 0 for f in fracs):
        raise NotOnTorus("torus points have nonzero coordinates")
    factored = []
    primeset = set()
    signs = []
    for f in fracs:
        signs.append(1 if f > 0 else -1)
        # numerator and denominator are coprime: no prime is in both
        expo = _factor_int(abs(f.numerator))
        for p, e in _factor_int(f.denominator).items():
            expo[p] = -e
        primeset.update(expo)
        factored.append(expo)
    primes = tuple(sorted(primeset))
    E = tuple(tuple(expo.get(p, 0) for p in primes) for expo in factored)
    return FactoredTorusPoint(primes=primes, E=E, signs=tuple(signs))


def reconstruct(pt: FactoredTorusPoint):
    """The exact rational coordinates (feasible only for small exponents)."""
    out = []
    for sign, row in zip(pt.signs, pt.E):
        val = Fraction(sign)
        for p, e in zip(pt.primes, row):
            val *= Fraction(p) ** e
        out.append(val)
    return tuple(out)


def monomial_step(m: MonomialMap, pt: FactoredTorusPoint) -> FactoredTorusPoint:
    """One application: exponent matrix E becomes A E, signs follow parity."""
    a = m.A
    if a.r != pt.dim:
        raise ContractViolation("map and point dimensions differ")
    rows = a.entries
    E = pt.E
    newE = tuple(
        tuple(sum(rows[i][j] * E[j][k] for j in range(a.r))
              for k in range(len(pt.primes)))
        for i in range(a.r))
    newsigns = []
    for i in range(a.r):
        s = 1
        for j in range(a.r):
            if rows[i][j] % 2 and pt.signs[j] < 0:
                s = -s
        newsigns.append(s)
    return FactoredTorusPoint(primes=pt.primes, E=newE, signs=tuple(newsigns))


def torus_height(pt: FactoredTorusPoint) -> float:
    """Weil height of [1 : x_1 : ... : x_N] computed from exponents only.

    Finite places contribute log p times the worst denominator exponent,
    the archimedean place the log of the largest coordinate when it
    exceeds 1; signs never matter.
    """
    try:
        h = 0.0
        for k, p in enumerate(pt.primes):
            worst = max(0, max((-row[k] for row in pt.E), default=0))
            if worst:
                h += math.log(p) * worst
        arch = 0.0
        for row in pt.E:
            val = sum(e * math.log(p) for p, e in zip(pt.primes, row))
            arch = max(arch, val)
    except OverflowError:
        raise ResourceCapExceeded(
            "exponents exceed the float range of heights") from None
    return h + max(0.0, arch)


def monomial_orbit(m: MonomialMap, pt: FactoredTorusPoint, nmax):
    """Exponent-space orbit with exact cycle detection.

    Returns (points, cycle) where cycle is None or (preperiod, period).
    """
    if nmax < 0:
        raise ContractViolation("nmax must be >= 0")
    if m.A.r != pt.dim:
        raise ContractViolation("point and map dimensions differ")
    pts = [pt]
    seen = {(pt.E, pt.signs): 0}
    cycle = None
    for _ in range(nmax):
        nxt = monomial_step(m, pts[-1])
        key = (nxt.E, nxt.signs)
        if key in seen:
            cycle = (seen[key], len(pts) - seen[key])
            break
        seen[key] = len(pts)
        pts.append(nxt)
    return pts, cycle


def monomial_arithdeg(m: MonomialMap, coords, nmax):
    """Height sequence of the orbit of the torus point with the given
    nonzero rational coordinates, computed in exponent space.

    Returns a degrees.HeightSequence ready for the estimators.
    """
    pts, cycle = monomial_orbit(m, factor_point(coords), nmax)
    return heights_from_values([torus_height(q) for q in pts], cycle=cycle)


def mon_dyndeg(m: MonomialMap) -> SpectralEstimate:
    """The dynamical degree of a monomial map: the spectral radius of its
    exponent matrix, with its certificate."""
    return spectral_radius(m.A)


def monomial_to_projective(m: MonomialMap) -> RationalMapPN:
    """Realize the monomial map as a rational self-map of P^N.

    Affine coordinates x_j = X_j / X_0 are substituted and denominators
    cleared with the smallest monomial multiplier; the constructor then
    reduces to coprime normal form.
    """
    a = m.A.entries
    n = m.A.r
    nv = n + 1
    row_sums = [sum(row) for row in a]
    u = [max(0, max(-a[i][j] for i in range(n))) for j in range(n)]
    t = max(0, max(row_sums))
    polys = []
    exps0 = [t] + u
    polys.append(MultiPoly.monomial(nv, 1, exps0))
    for i in range(n):
        exps = [t - row_sums[i]] + [a[i][j] + u[j] for j in range(n)]
        polys.append(MultiPoly.monomial(nv, 1, exps))
    return RationalMapPN(polys, name=f"monomial[{format_matrix(m.A)}]")
