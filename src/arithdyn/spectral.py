"""Exact integer-matrix norm growth and certified spectral radii.

The spectral radius of an integer matrix is bracketed exactly: the
characteristic polynomial is computed over the integers, and the largest
root modulus is isolated by bisection where each step decides "all roots
strictly inside the circle of radius m" with a Schur-Cohn (Jury) test run
in integers.  The test is exact for repeated roots, so the polynomial is
used as it is.  Both bracket ends are therefore certified, which matters
because these values serve as oracles for slower degree-sequence and
orbit-height estimates.

Norm-based quantities (sup norms of powers, submultiplicativity checks)
are computed exactly over the integers, and every n-th root is rounded
up.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConeNotPreserved, ContractViolation, ResourceCapExceeded
from .polynomials import strip


@dataclass(frozen=True)
class IntMat:
    """A square matrix of exact integers."""

    entries: tuple

    def __post_init__(self):
        rows = []
        for row in self.entries:
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
        n = self.r
        if other.r != n:
            raise ContractViolation("matrix size mismatch")
        bt = tuple(zip(*other.entries))
        return IntMat(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
            for row in self.entries))

    def mat_vec(self, v):
        if len(v) != self.r:
            raise ContractViolation("vector size mismatch")
        return [sum(a * b for a, b in zip(row, v)) for row in self.entries]

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n))
                         for i in range(n)))


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


def determinant(a) -> int:
    """Exact determinant of an IntMat or integer rows, by Bareiss."""
    m = [list(r) for r in as_matrix(a).entries]
    n = len(m)
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
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


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


def _all_roots_inside_radius(coeffs, radius: Fraction):
    """Exact Schur-Cohn (Jury) test: every root of the integer polynomial
    coeffs (lowest power first) lies in |z| < radius.

    For radius = num/den the test runs on den^n p(num z / den), whose
    coefficients c_k num^k den^(n-k) are integers.  Each step replaces p by
    (a_n p(z) - a_0 p*(z)) / z, where p* has reversed coefficients; its lead
    a_n^2 - a_0^2 is positive, so dividing out the content keeps the
    integers small without changing any decision.  The criterion is exact
    for repeated roots too.  Constants have no roots and count as inside.
    """
    if radius <= 0:
        return False
    num, den = radius.numerator, radius.denominator
    c = strip(list(coeffs))
    if not c:
        raise ContractViolation("zero polynomial")
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


@dataclass(frozen=True)
class SpectralEstimate:
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


def spectral_radius(a, tol=1e-9) -> SpectralEstimate:
    """Certified bracket of width <= tol around the spectral radius.

    Bisection on the circle radius; each test is the exact Schur-Cohn
    criterion applied to the exact characteristic polynomial, so no root
    of any modulus is ever missed.
    """
    try:
        tol_f = Fraction(tol)
    except (ValueError, OverflowError):  # nan, inf
        tol_f = 0
    if tol_f <= 0:
        raise ContractViolation(f"tol must be positive and finite, got {tol}")
    p = char_poly(a)
    # every root of the monic p has modulus below the Cauchy bound
    # 1 + max |c_k|; the bisection starts one above it
    lo, hi = Fraction(0), Fraction(2 + max(abs(c) for c in p[:-1]))
    while hi - lo > tol_f:
        mid = (lo + hi) / 2
        if _all_roots_inside_radius(p, mid):
            hi = mid
        else:
            lo = mid
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
        w = [x + y for x, y in zip(av, v)]  # (A + I) v
        g = 0
        for x in w:
            g = math.gcd(g, x)
        v = [x // g for x in w]
    raise ResourceCapExceeded("power iteration did not converge")


def submult_check(norms, c) -> bool:
    """True iff norms[m+n] <= c * norms[m] * norms[n] whenever recorded.

    norms is indexed from 1 (norms[0] is the n = 1 entry).  Comparison is
    exact: integer inputs and float c are promoted to Fractions.
    """
    cf = Fraction(c)
    vals = [Fraction(x) for x in norms]
    top = len(vals)
    for m in range(1, top + 1):
        for n in range(m, top - m + 1):
            if vals[m + n - 1] > cf * vals[m - 1] * vals[n - 1]:
                return False
    return True


def root_up(d, n):
    """The least float b with b ** n >= d, compared exactly; d may exceed
    the float range."""
    b = math.exp(math.log(d) / n)
    while Fraction(b) ** n < d:
        b = math.nextafter(b, math.inf)
    while Fraction(math.nextafter(b, 0.0)) ** n >= d:
        b = math.nextafter(b, 0.0)
    return b
