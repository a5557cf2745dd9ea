"""Exact integer-matrix norm growth and certified spectral radii.

The spectral radius of an integer matrix is bracketed exactly: the
characteristic polynomial is computed over the integers, and the largest
root modulus is isolated on a dyadic grid where each test decides "all
roots strictly inside the circle of radius r" with a Schur-Cohn (Jury)
test run in integers.  The test is exact for repeated roots, so the
polynomial is used as it is.  A float estimate of the roots only says
where to test first.  Both bracket ends are therefore certified, which
matters because these values serve as oracles for slower degree-sequence
and orbit-height estimates.

Norm-based quantities (sup norms of powers, submultiplicativity checks)
are computed exactly over the integers, and every n-th root is rounded
up.
"""

import cmath
import math
import operator
import sys
from fractions import Fraction
from typing import NamedTuple

from .errors import (ConeNotPreserved, ContractViolation, Record,
                     ResourceCapExceeded)


class IntMat(Record):
    """A square matrix of exact integers: read-only entries, compared and
    hashed by value."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = []
        for row in entries:
            out = []
            for x in row:
                v = int(x)
                if v != x and not isinstance(x, str):
                    raise ContractViolation(f"non-integer entry {x!r}")
                out.append(v)
            rows.append(tuple(out))
        rows = tuple(rows)
        if not rows or any(len(r) != len(rows) for r in rows):
            raise ContractViolation("matrix must be square and nonempty")
        object.__setattr__(self, "entries", rows)

    @property
    def r(self):
        return len(self.entries)

    def __matmul__(self, other):
        other = as_matrix(other)
        if other.r != self.r:
            raise ContractViolation("matrix size mismatch")
        return IntMat(product(self.entries, tuple(zip(*other.entries))))

    def mat_vec(self, v):
        if len(v) != self.r:
            raise ContractViolation("vector size mismatch")
        return product([v], self.entries)[0]

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n))
                         for i in range(n)))


def product(rows, cols):
    """[[row . col for col in cols] for row in rows] in exact integers."""
    return [[sum(map(operator.mul, row, col)) for col in cols]
            for row in rows]


def as_matrix(a) -> IntMat:
    return a if isinstance(a, IntMat) else IntMat(tuple(tuple(r) for r in a))


def parse_matrix(text) -> IntMat:
    """Parse the shared text form, rows split by ';', entries by ','."""
    s = text.replace("−", "-").strip()
    try:
        rows = [[int(x) for x in row.split(",")] for row in s.split(";")]
    except ValueError as exc:
        raise ContractViolation(f"bad matrix text {text!r}: {exc}") from None
    return IntMat(tuple(tuple(r) for r in rows))


def format_matrix(a) -> str:
    a = as_matrix(a)
    return ";".join(",".join(str(x) for x in row) for row in a.entries)


def supnorm(a) -> int:
    """max |a_ij|, exact."""
    a = as_matrix(a)
    return max(abs(x) for row in a.entries for x in row)


_MAX_NORM_BITS = 5_000_000


def power_norms(a, nmax):
    """[||A^1||, ..., ||A^nmax||] by exact repeated multiplication, capped
    at norms of _MAX_NORM_BITS bits."""
    if nmax < 1:
        raise ContractViolation("nmax must be >= 1")
    a = as_matrix(a)
    out = []
    cur = a
    for _ in range(nmax):
        norm = supnorm(cur)
        if norm.bit_length() > _MAX_NORM_BITS:
            raise ResourceCapExceeded("power norms exceed the bit cap")
        out.append(norm)
        cur = cur @ a
    return out


def bareiss(rows, rhs=()):
    """Fraction-free elimination of a square integer matrix M with optional
    right-hand sides b (Bareiss, Math. Comp. 22, 1968).

    Returns det M and, when it is nonzero, y = det M * M^-1 b for each b,
    an integer vector by Cramer's rule.  Step k replaces entry (i, j) by
    a 2 x 2 minor on pivot k divided exactly by the previous pivot, so
    each row stays a rational combination of the rows of (M | b) and back
    substitution divides exactly by its pivot.
    """
    n = len(rows)
    m = [list(r) + [b[i] for b in rhs] for i, r in enumerate(rows)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0, []
        for i in range(k + 1, n):
            for j in range(k + 1, len(m[i])):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    det = sign * m[n - 1][n - 1]
    if not det:
        return 0, []
    sols = []
    for c in range(n, len(m[0])):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            tail = sum(m[i][j] * y[j] for j in range(i + 1, n))
            y[i] = (det * m[i][c] - tail) // m[i][i]
        sols.append(y)
    return det, sols


def determinant(a) -> int:
    """Exact determinant of an IntMat or integer rows, by bareiss."""
    return bareiss(as_matrix(a).entries)[0]


def char_poly(a):
    """Coefficients [c_0, ..., c_{r-1}, 1] of det(lambda I - A), exact.

    Faddeev-LeVerrier over Z: with M_1 = I, c_{r-k} = -tr(A M_k) / k and
    M_{k+1} = A M_k + c_{r-k} I, where every division by k is exact.
    """
    a = as_matrix(a)
    r = a.r
    coeffs = [0] * r + [1]
    m = IntMat.identity(r)
    for k in range(1, r + 1):
        am = (a @ m).entries
        ck, rem = divmod(-sum(am[i][i] for i in range(r)), k)
        if rem:
            raise AssertionError("characteristic polynomial not integral")
        coeffs[r - k] = ck
        m = IntMat(tuple(tuple(x + ck if i == j else x
                               for j, x in enumerate(row))
                         for i, row in enumerate(am)))
    return coeffs


def strip(coeffs):
    """Drop trailing zero coefficients of a list in place and return it."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _all_roots_inside_radius(coeffs, radius: Fraction):
    """Exact Schur-Cohn (Jury) test: every root of the nonzero integer
    polynomial coeffs (lowest power first) lies in |z| < radius, radius > 0.

    For radius = num/den the test runs on den^n p(num z / den), whose
    coefficients c_k num^k den^(n-k) are integers.  Each step replaces p by
    (a_n p(z) - a_0 p*(z)) / z, where p* has reversed coefficients; its lead
    a_n^2 - a_0^2 is positive, so dividing out the content keeps the
    integers small without changing any decision.  The criterion is exact
    for repeated roots too.  Constants have no roots and count as inside.
    """
    num, den = radius.numerator, radius.denominator
    c = strip(list(coeffs))
    n = len(c) - 1
    c = [x * num ** k * den ** (n - k) for k, x in enumerate(c)]
    while n:
        a0, an = c[0], c[n]
        if abs(a0) >= abs(an):
            return False
        c = [an * c[k] - a0 * c[n - k] for k in range(1, n + 1)]
        n -= 1
        g = math.gcd(*c)
        if g > 1:
            c = [x // g for x in c]
    return True


class SpectralEstimate(NamedTuple):
    """A spectral radius with a certified enclosing bracket.

    bracket = (lower, upper) always contains the true value; the floats are
    rounded outward so the containment survives the float conversion.
    """

    value: float
    method: str
    bracket: tuple

    @property
    def width(self):
        return self.bracket[1] - self.bracket[0]


def _outward(lo: Fraction, hi: Fraction):
    lo_f = float(lo)
    if lo_f > lo:
        lo_f = math.nextafter(lo_f, -math.inf)
    hi_f = float(hi)
    if hi_f < hi:
        hi_f = math.nextafter(hi_f, math.inf)
    return lo_f, hi_f


# Aberth sweeps of the float seed: simple roots settle in about ten,
# repeated ones only linearly, so the cap bounds the seed's cost
_SEED_STEPS = 60


def _radius_seed(coeffs):
    """(g, delta): a float estimate g of the largest root modulus of the
    monic integer polynomial coeffs, believed to be within delta of it, or
    None when the coefficients leave the float range or the estimate is
    not finite.

    Aberth-Ehrlich sweeps in complex floats from a circle that encloses
    every root.  delta comes from the Weierstrass inclusion disks
    (Braess and Hadeler, 1973): the disks of radius n |p(z_i)| /
    |prod_(j != i) (z_i - z_j)| cover all roots, with |p(z_i)| raised by
    a bound on Horner's rounding error.  Only the cost of spectral_radius
    depends on the seed, never its result.
    """
    try:
        c = [float(x) for x in coeffs]
    except OverflowError:
        return None
    n = len(c) - 1
    rest = c[-2::-1]                     # c_(n-1), ..., c_0
    big = max(abs(x) ** (1 / k) for k, x in enumerate(rest, 1))
    if big == 0:                         # p = z^n
        return 0.0, 0.0
    zs = [cmath.rect(2 * big, 0.4 + 2 * math.pi * k / n) for k in range(n)]
    tiny = 1e-15 * big                   # a step that no longer moves g
    try:
        for _ in range(_SEED_STEPS):
            moved = False
            for i, z in enumerate(zs):
                pv, dv = 1.0, 0.0
                for x in rest:
                    dv = dv * z + pv
                    pv = pv * z + x
                if not pv:
                    continue
                ratio = pv / dv
                pull = sum(1 / (z - w) for j, w in enumerate(zs) if j != i)
                step = ratio / (1 - ratio * pull)
                zs[i] = z - step
                if abs(step) > tiny:
                    moved = True
            if not moved:
                break
        bounds = []
        for i, z in enumerate(zs):
            pv, err, r = 1.0, 1.0, abs(z)
            for x in rest:
                pv = pv * z + x
                err = err * r + abs(x)
            gap = math.prod(abs(z - w) for j, w in enumerate(zs) if j != i)
            radius = n * (abs(pv) + 4 * n * sys.float_info.epsilon * err)
            bounds.append((r, radius / gap))
    except (ZeroDivisionError, OverflowError):
        return None
    if not all(math.isfinite(r + x) for r, x in bounds):
        return None
    g, rad = max(bounds)
    return g, max(rad, max(r + x for r, x in bounds) - g)


def spectral_radius(a, tol=1e-9) -> SpectralEstimate:
    """Certified bracket of width <= tol around the spectral radius.

    The bracket is the cell [k w, (k + 1) w] of the dyadic grid that
    bisecting [0, H] defines, H = 2 + max |c_i| over the exact
    characteristic polynomial (above the Cauchy bound) and w = H / 2^m
    for the first m with w <= tol.  The exact Schur-Cohn test "every root
    is inside |z| < r" is monotone in r, so that cell is the unique one
    where the test fails at k w (or k = 0) and holds at (k + 1) w; no root
    of any modulus is ever missed.  It is found on integer grid indices:
    a float seed g +- delta (at least one cell) is probed first, and the
    bisection runs on what is left, so a seed changes the number of
    tests, at most two more than the plain bisection, and never the
    bracket.  ResourceCapExceeded is raised when the bracket leaves the
    float range.
    """
    try:
        tol_f = Fraction(tol)
    except (ValueError, OverflowError):  # nan, inf
        tol_f = 0
    if tol_f <= 0:
        raise ContractViolation(f"tol must be positive and finite, got {tol}")
    p = char_poly(a)
    # every root of the monic p has modulus below the Cauchy bound
    # 1 + max |c_k|; the grid starts one above it
    top = 2 + max(abs(c) for c in p[:-1])
    # the first m with top / 2^m <= tol, from the bit lengths of both sides
    need, num = top * tol_f.denominator, tol_f.numerator
    m = max(0, need.bit_length() - num.bit_length())
    if num << m < need:
        m += 1

    def inside(k):
        return _all_roots_inside_radius(p, Fraction(k * top, 1 << m))

    lo, hi = 0, 1 << m
    seed = _radius_seed(p) if m else None
    if seed is not None:
        # probe g - delta and g + delta rounded out to multiples of the
        # least power of two 2^s cells spanning delta (at least one cell)
        g, delta = seed
        x = Fraction(g) * hi / top
        d = max(Fraction(delta) * hi / top, 1)
        s = (math.ceil(d) - 1).bit_length()
        below = math.floor((x - d) / (1 << s)) << s
        above = math.ceil((x + d) / (1 << s)) << s
        for k in (below, above):
            if lo < k < hi:
                if inside(k):
                    hi = k
                else:
                    lo = k
    while hi - lo > 1:
        # the grid point of (lo, hi) with the most trailing zero bits: the
        # radius with the smallest denominator, and the midpoint wherever
        # lo and hi are aligned as in a plain bisection
        t = max(((lo + 1) ^ (hi - 1)).bit_length() - 1, 0)
        mid = (hi - 1) >> t << t
        if inside(mid):
            hi = mid
        else:
            lo = mid
    lo, hi = Fraction(lo * top, 1 << m), Fraction(hi * top, 1 << m)
    if hi >= 2 ** 1024:
        raise ResourceCapExceeded("spectral bracket leaves the float range")
    value = float((lo + hi) / 2)
    # snap to an exact integer root modulus when one sits in the bracket
    cand = round(value)
    if lo <= cand <= hi:
        tails = [sum(c * cand ** k for k, c in enumerate(p)),
                 sum(c * (-cand) ** k for k, c in enumerate(p))]
        if 0 in tails:
            value = float(cand)
    lo_f, hi_f = _outward(lo, hi)
    return SpectralEstimate(value=value, method="char_poly_root",
                            bracket=(lo_f, hi_f))


# power iteration stops at a relative residual of _CONE_TOL, or gives up
# after _CONE_MAX_ITER steps
_CONE_TOL = 1e-8
_CONE_MAX_ITER = 200_000


def birkhoff_cone_eigvec(a):
    """Nonnegative eigenvector for the spectral radius of a nonnegative
    matrix, normalized to sum 1.

    Power iteration with exact integer iterates started from the all-ones
    vector; the iteration matrix is A + I, which has the same eigenvectors
    and shifts the dominant eigenvalue by one, so periodic cone maps (for
    example coordinate swaps) still converge.  Convergence is tested in
    floats against the residual ||A v - lambda v||_inf.
    """
    a = as_matrix(a)
    if any(x < 0 for row in a.entries for x in row):
        raise ConeNotPreserved("matrix has a negative entry")
    r = a.r
    v = [1] * r
    for _ in range(_CONE_MAX_ITER):
        av = a.mat_vec(v)
        s = sum(v)
        lam = sum(av) / s
        vf = [x / s for x in v]
        resid = max(abs(num / s - lam * x) for num, x in zip(av, vf))
        if resid <= _CONE_TOL * max(1.0, abs(lam)):
            return tuple(vf), lam
        w = [x + y for x, y in zip(av, v)]  # (A + I) v, all positive
        g = math.gcd(*w)
        v = [x // g for x in w]
    raise ResourceCapExceeded("power iteration did not converge")


def submult_check(norms, c) -> bool:
    """True iff norms[m+n] <= c * norms[m] * norms[n] whenever recorded.

    norms is indexed from 1 (norms[0] is the n = 1 entry).  Comparison is
    exact: c and the norms (ints, floats or Fractions) are read as integer
    ratios and scaled to one common denominator L, so x_(m+n) <= c x_m x_n
    becomes v_(m+n) L den <= num v_m v_n in integers, v = x L.
    """
    num, den = c.as_integer_ratio()
    ratios = [x.as_integer_ratio() for x in norms]
    scale = math.lcm(*(q for _, q in ratios))
    vals = [p * (scale // q) for p, q in ratios]
    lhs = [v * scale * den for v in vals]
    top = len(vals)
    for m in range(1, top + 1):
        for n in range(m, top - m + 1):
            if lhs[m + n - 1] > num * vals[m - 1] * vals[n - 1]:
                return False
    return True


def root_up(d, n):
    """The least float b with b ** n >= d, compared exactly in integers:
    b ** n < d is p^n den < num q^n for b = p / q and d = num / den; d may
    exceed the float range."""
    num, den = d.as_integer_ratio()

    def below(x):
        p, q = x.as_integer_ratio()
        return p ** n * den < num * q ** n

    b = math.exp(math.log(d) / n)
    while below(b):
        b = math.nextafter(b, math.inf)
    while not below(math.nextafter(b, 0.0)):
        b = math.nextafter(b, 0.0)
    return b
