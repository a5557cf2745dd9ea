"""Monomial self-maps of the N-torus in exponent-matrix form.

A monomial map sends (x_1, ..., x_N) to coordinates prod_j x_j^(a_ij), so
on points written over a pairwise coprime base (found by gcds alone, no
factoring) the whole orbit lives in the integer matrix world: one step is
E -> A E on the exponent matrix.  Heights of the embedded
points [1 : x_1 : ... : x_N] are read off the exponents directly, which
keeps n around 40-60 feasible while the rational coordinates themselves
would need doubly exponential digits.
"""

import math
from fractions import Fraction
from operator import mul

from .errors import (ContractViolation, NotOnTorus, Record,
                     ResourceCapExceeded)
from .heights import heights_from_values
from .spectral import (IntMat, SpectralEstimate, as_matrix, determinant,
                       format_matrix, product, spectral_radius)
from .polynomials import MultiPoly
from .projmaps import RationalMapPN


class MonomialMap(Record):
    """Integer exponent matrix A with det(A) != 0 (dominance); read-only,
    compared and hashed by A."""

    __slots__ = ("A",)

    def __init__(self, A):
        a = as_matrix(A)
        if determinant(a) == 0:
            raise ContractViolation("exponent matrix is singular")
        object.__setattr__(self, "A", a)


class FactoredTorusPoint(Record):
    """A torus point stored as signs and exponent vectors over a base.

    coordinate i = signs[i] * prod_j base[j]^(E[i][j]).  The base entries
    are sorted, above 1 and pairwise coprime, so each coordinate has
    exactly one exponent vector.  Read-only, compared and hashed by
    (base, E, signs).
    """

    __slots__ = ("base", "E", "signs")

    def __init__(self, base, E, signs):
        if any(s not in (1, -1) for s in signs):
            raise ContractViolation("signs must be +1 or -1")
        if len(signs) != len(E) or any(len(row) != len(base) for row in E):
            raise ContractViolation("E, signs and base shapes differ")
        if [q for q in sorted(base) if q > 1] != list(base):
            raise ContractViolation("base must be sorted and above 1")
        if math.lcm(*base) != math.prod(base):
            raise ContractViolation("base must be pairwise coprime")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "signs", signs)

    @property
    def dim(self):
        return len(self.E)


def _coprime_base(nums):
    """Sorted pairwise coprime integers above 1 over which each of nums is
    a product of powers: any two entries q, n sharing a factor g > 1 are
    split into g, q / g and n / g, which divides their product by g, until
    none do (the naive form of Bernstein's refinement, J. Algorithms 2005).
    """
    base, todo = [], [n for n in nums if n > 1]
    while todo:
        n = todo.pop()
        for i, q in enumerate(base):
            g = math.gcd(n, q)
            if g > 1:
                del base[i]
                todo += [m for m in (g, q // g, n // g) if m > 1]
                break
        else:
            base.append(n)
    return tuple(sorted(base))


def _valuation(n, q):
    """The exponent of q in n, by repeated division."""
    e = 0
    while n % q == 0:
        n //= q
        e += 1
    return e


def factor_point(coords) -> FactoredTorusPoint:
    """Write nonzero rational coordinates over a coprime base."""
    fracs = [Fraction(c) for c in coords]
    if any(f == 0 for f in fracs):
        raise NotOnTorus("torus points have nonzero coordinates")
    base = _coprime_base([abs(f.numerator) for f in fracs] +
                         [f.denominator for f in fracs])
    # numerator and denominator are coprime: no base entry divides both
    E = tuple(tuple(_valuation(f.numerator, q) - _valuation(f.denominator, q)
                    for q in base) for f in fracs)
    signs = tuple(1 if f > 0 else -1 for f in fracs)
    return FactoredTorusPoint(base=base, E=E, signs=signs)


def reconstruct(pt: FactoredTorusPoint):
    """The exact rational coordinates (feasible only for small exponents)."""
    out = []
    for sign, row in zip(pt.signs, pt.E):
        val = Fraction(sign)
        for q, e in zip(pt.base, row):
            val *= Fraction(q) ** e
        out.append(val)
    return tuple(out)


def _columns(pt: FactoredTorusPoint):
    """The orbit state of pt: the columns of E, then the 0/1 column that
    marks its negative coordinates."""
    return (*zip(*pt.E), tuple(int(s < 0) for s in pt.signs))


def _step(rows, cols):
    """One application on columns: each column c of E becomes A c, and the
    sign column n becomes A n mod 2 (a coordinate is negative where A n
    is odd)."""
    *exps, signs = map(tuple, product(cols, rows))
    return (*exps, tuple([x & 1 for x in signs]))


def _height(cols, logs) -> float:
    """Weil height of [1 : x_1 : ... : x_N] from the columns of a point
    whose base entries have logarithms logs; the sign column, past the
    last log, is never read.

    The finite places dividing a base entry q contribute log q times the
    worst denominator exponent of q (its primes share that exponent, since
    the base is coprime), the archimedean place the log of the largest
    coordinate when it exceeds 1; signs never matter.  A height past the
    float range raises ResourceCapExceeded.
    """
    try:
        h = 0.0
        for lq, col in zip(logs, cols):
            worst = -min(col)
            if worst > 0:
                h += lq * worst
        arch = 0.0
        for row in zip(*cols):
            arch = max(arch, sum(map(mul, row, logs)))
        h += arch
    except OverflowError:
        h = math.inf
    if not math.isfinite(h):
        raise ResourceCapExceeded(
            "exponents exceed the float range of heights")
    return h


def monomial_step(m: MonomialMap, pt: FactoredTorusPoint) -> FactoredTorusPoint:
    """One application: E becomes A E, and the signs follow A n mod 2
    (see _step); the FactoredTorusPoint constructor checks the result."""
    if m.A.r != pt.dim:
        raise ContractViolation("map and point dimensions differ")
    rows = [*zip(*_step(m.A.entries, _columns(pt)))]
    return FactoredTorusPoint(pt.base, tuple(r[:-1] for r in rows),
                              tuple(-1 if r[-1] else 1 for r in rows))


def torus_height(pt: FactoredTorusPoint) -> float:
    """Weil height of [1 : x_1 : ... : x_N] computed from exponents only
    (see _height)."""
    return _height(_columns(pt), [math.log(q) for q in pt.base])


def _orbit(m: MonomialMap, pt: FactoredTorusPoint, nmax):
    """(heights, cycle) of the exponent-space orbit of pt, with cycle None
    or (preperiod, period) from exact repetition of (E, signs).

    The orbit runs on plain columns (_columns): _step maps them, _height
    takes each height, and the columns are the cycle key; no
    FactoredTorusPoint is built.  Each height is taken as its point is
    made: the first out of the float range stops the orbit."""
    if nmax < 0:
        raise ContractViolation("nmax must be >= 0")
    if m.A.r != pt.dim:
        raise ContractViolation("point and map dimensions differ")
    # every point of the orbit has the start point's base
    logs = [math.log(q) for q in pt.base]
    rows = m.A.entries
    cols = _columns(pt)
    heights = [_height(cols, logs)]
    seen = {cols: 0}
    cycle = None
    for _ in range(nmax):
        cols = _step(rows, cols)
        first = seen.setdefault(cols, len(heights))
        if first < len(heights):
            cycle = (first, len(heights) - first)
            break
        heights.append(_height(cols, logs))
    return heights, cycle


def monomial_arithdeg(m: MonomialMap, coords, nmax):
    """Height sequence of the orbit of the torus point with the given
    nonzero rational coordinates, computed in exponent space.

    Returns a heights.HeightSequence ready for the estimators of degrees.
    """
    heights, cycle = _orbit(m, factor_point(coords), nmax)
    return heights_from_values(heights, cycle=cycle)


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
