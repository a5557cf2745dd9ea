"""Rational self-maps of projective space P^N over Q.

A map is N+1 homogeneous integer polynomials of one common degree with no
common factor; the constructor divides out any polynomial gcd and integer
content and fixes a sign, so each rational map has one canonical
representation.  Composition substitutes one map into another and again
divides out the common factor; the degree of the result may drop below the
product of the degrees, and the recorded drops form the degree sequence
used for dynamical-degree upper bounds.

A morphism (coordinates with no common zero over the algebraic closure)
has deg f^n = d^n for every n: its iterates are morphisms, so no common
factor ever appears.  map_certificate decides this for every N, on a
power map from its shape and on any other by one elimination of the
Macaulay matrix of the forms (on P^1 the Sylvester matrix).  A map with
indeterminacy points can keep deg f^n = d^n too (it is algebraically
stable, as the Henon maps are), which polynomials.line_certificate
decides on one line mod p.  degree_sequence composes no iterate of a map
that either certifies, and the iterates of the others up to a cap or the
first that map_certificate finds linear and invertible.

Orbits evaluate at normalized points only.  For a certified morphism the
gcd of the evaluated coordinates then divides the integer R of the
identities R x_i^D = sum_j G_ij F_j of map_certificate (on P^1 the
resultant, on power maps 1), so each orbit step takes that gcd modulo R; maps
without R and map_evaluate on arbitrary points take the exact gcd.

Estimators that read heights alone take them from orbit_heights, which
gives the heights of orbit bit for bit without its wide points.  On a
certified morphism a point with H^(d-1) > E, the Northcott integer of
map_certificate, wanders; once such a point is wide, the orbit goes on
as a ball of P-bit integers, a power-of-two scale and an integer radius,
and takes the gcd from residues modulo R^k.  A height is recorded only
where the ball decides math.log of the exact coordinate; an undecided
step reruns orbit.  orbit itself, and so preperiodic_detect and the CLI
orbit, keeps every exact point.
"""

import functools
import itertools
import math
import sys
from math import comb, gcd as _intgcd
from typing import NamedTuple, Optional

from .errors import (ContractViolation, IndeterminatePoint, Record,
                     ResourceCapExceeded)
from .heights import ProjPointQ, coordinate_gcd, normalize, weil_height
from .polynomials import (_MASK, _SHIFT, MultiPoly, _divide, format_poly,
                          gcd_many, line_certificate, parse_poly,
                          pivots_mod_p, poly_compose, poly_content,
                          poly_divmod_exact, poly_eval_int)
from . import spectral


class RationalMapPN:
    """A dominant rational self-map of P^N in canonical coprime form; the
    constructor stores its degree, the degree of every nonzero coordinate."""

    __slots__ = ("dim", "polys", "name", "degree")

    def __init__(self, polys, name=None):
        polys = tuple(polys)
        if len(polys) < 2:
            raise ContractViolation("need at least two coordinate polynomials")
        nv = polys[0].nvars
        if nv != len(polys):
            raise ContractViolation(
                f"{len(polys)} coordinates need polynomials in {len(polys)}"
                f" variables, got {nv}")
        if all(p.is_zero() for p in polys):
            raise ContractViolation("all coordinate polynomials are zero")
        degs = {p.degree for p in polys if not p.is_zero()}
        if len(degs) != 1:
            raise ContractViolation(
                f"coordinates have mixed degrees {sorted(degs)}")
        g = gcd_many(polys)
        if not g.is_constant():
            polys = tuple(poly_divmod_exact(p, g) for p in polys)
        # strip the common integer content and fix a global sign
        lead = next(p for p in polys if not p.is_zero())
        scale = _intgcd(*(poly_content(p) for p in polys if not p.is_zero()))
        if lead.leading_coeff() < 0:
            scale = -scale
        polys = tuple(_divide(p, scale) for p in polys)
        if lead.degree < 1:
            raise ContractViolation(
                "map reduces to a constant map (degree 0)")
        object.__setattr__(self, "dim", len(polys) - 1)
        object.__setattr__(self, "polys", polys)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "degree", lead.degree)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMapPN is immutable")

    def max_abs_coeff(self):
        return max(p.max_abs_coeff() for p in self.polys)

    def __eq__(self, other):
        if not isinstance(other, RationalMapPN):
            return NotImplemented
        return self.dim == other.dim and self.polys == other.polys

    def __hash__(self):
        return hash((self.dim, self.polys))

    def __repr__(self):
        names = default_varnames(self.dim)
        body = " : ".join(format_poly(p, names) for p in self.polys)
        label = self.name or "map"
        return f"<{label} [{body}]>"

    @classmethod
    def from_strings(cls, poly_texts, varnames=None, name=None):
        if varnames is None:
            varnames = default_varnames(len(poly_texts) - 1)
        return cls([parse_poly(t, varnames) for t in poly_texts], name=name)


def default_varnames(dim):
    base = ["x", "y", "z", "w"]
    if dim + 1 <= len(base):
        return base[:dim + 1]
    return [f"x{i}" for i in range(dim + 1)]


def map_evaluate(f: RationalMapPN, point: ProjPointQ) -> ProjPointQ:
    """Evaluate exactly and renormalize.

    Raises IndeterminatePoint when every coordinate polynomial vanishes,
    which is precisely membership in the indeterminacy locus.  The point
    need not be normalized: the full coordinate gcd is removed.
    """
    _check_dim(f, point)
    return _step(f, point, 0)


def _check_dim(f: RationalMapPN, point: ProjPointQ):
    if len(point.coords) != f.dim + 1:
        raise ContractViolation("point and map dimensions differ")


def _step(f: RationalMapPN, point: ProjPointQ, bound) -> ProjPointQ:
    """f(point) in normal form; bound is 0 or a multiple of the gcd of the
    coordinates of f at point, as in heights.coordinate_gcd."""
    values = [poly_eval_int(p, point.coords) for p in f.polys]
    if not any(values):
        raise IndeterminatePoint(point)
    return normalize(values, _bound=bound)


class MapCertificate(NamedTuple):
    """The exact integers behind every height bound of one map.

    power: each coordinate is +-(one variable)^d and the variables form a
    permutation, so the map multiplies heights exactly by d.  res: |R| for
    integer cofactors G_ij with R x_i^D = sum_j G_ij F_j, i = 0..N: 1 on
    power maps, else from the Macaulay matrix (|Res| on P^1), or 0 when
    no identity was lifted (0 means "take the exact gcd").  When res != 0,
    up = C(d+N, N) max|coeff| and low = (N+1) C(D-d+N, N) maxcof, where
    maxcof is the largest |coefficient| of the G_ij, and
    |h(f Q) - d h(Q)| <= log max(up, low) on every Q; on P^1 they are
    (d + 1) max|coeff| and 2 d maxcof.  Both are 0 when res is.
    northcott: an integer E with (d - 1) |hhat - h| <= log E on every
    point, or None: for degree d >= 2, 1 on power maps (hhat = h) and
    max(up, low) on the other maps with res != 0, by telescoping.
    morphism: True only when the coordinates have no common zero over the
    algebraic closure: every power map and every map whose Macaulay matrix
    has full rank (res != 0, or over the lift cap full rank mod p in
    pivots_mod_p).  False means "not certified", never "not a morphism".
    """

    power: bool
    res: int
    up: int
    low: int
    northcott: Optional[int]
    morphism: bool


@functools.lru_cache(maxsize=256)
def map_certificate(f: RationalMapPN) -> MapCertificate:
    """The certificate of f, memoized per map content: on a power map,
    F_j = +-x_i^d, from the shape x_i^D = x_i^(D-d) (+-F_j), so R = 1,
    every cofactor is +-1 and D - d = N(d-1); on any other map from one
    Macaulay elimination."""
    n, d = f.dim, f.degree
    # a homogeneous monomial of degree d with d among its exponents is
    # one variable to the d-th power
    monos = [next(iter(p.items())) for p in f.polys if len(p.terms) == 1]
    hot = sorted(e.index(d) for e, c in monos if abs(c) == 1 and d in e)
    if hot == list(range(n + 1)):
        return MapCertificate(True, 1, comb(d + n, n),
                              (n + 1) * comb(n * d, n),
                              1 if d > 1 else None, True)
    morphism, res, low = _macaulay(f)
    up = comb(d + n, n) * f.max_abs_coeff() if res else 0
    northcott = max(up, low) if d > 1 and res else None
    return MapCertificate(False, res, up, low, northcott, morphism)


# the Macaulay rank test runs on at most this many matrix entries, about a
# second on a 2-core VM (a quartic of P^3 gives 880 x 560); a larger
# matrix leaves the map uncertified, and its iterates are composed
_MAX_MACAULAY_ENTRIES = 1 << 19
# the integer lift runs while n^3 (2^20 + H^2) <= this, for n columns and
# H the log2 of Hadamard's bound on the pivot minor: n^3 / 3 steps on
# entries of up to H bits, where 2^10 bits cost about one step's
# interpreter work.  At the cap, 0.2-0.45 s on a 2-core VM; above it res
# stays 0
_MAX_LIFT_COST = 1 << 42


def _macaulay(f: RationalMapPN):
    """(morphism, |R|, low) for the forms F_0..F_N of f, from one
    elimination of their Macaulay matrix; (False, 0, 0) if not certified.

    With D = (N+1)(d-1)+1, the matrix has a row for each product m F_j,
    m a monomial of degree D - d, and a column for each monomial of
    degree D (Cox-Little-O'Shea, Using Algebraic Geometry, ch. 3).  On P^1
    it is the Sylvester matrix and for d = 1 the coefficient matrix: both
    square, so every row is a pivot.  Otherwise polynomials.pivots_mod_p
    picks n rows, n the number of columns, whose minor is nonzero modulo
    a prime, hence nonzero over Q.  A fraction-free elimination of
    the transposed pivot rows solves for R, the minor, and integer
    cofactors G_ij with R x_i^D = sum_j G_ij F_j for i = 0..N
    (Hindry-Silverman, Diophantine Geometry, Thm B.2.5), and every
    identity is checked exactly.  R != 0 puts every monomial of degree D
    in the ideal (F_0..F_N), so no nonzero point of the algebraic closure
    is a common zero.  At a coprime integer point a, the gcd of the F_j(a)
    divides R a_i^D for every i, hence R; and with |a_i| = max |a|,
    |R| |a|^D <= (rows) maxcof |a|^(D-d) max |F_j(a)|, so
    max |F_j(a)| >= |R| |a|^d / low with low = (rows) maxcof.  A morphism
    has full rank over Q, so an unlucky prime only returns False.
    """
    nv, d = f.dim + 1, f.degree
    top = nv * (d - 1) + 1
    ncols = comb(top + nv - 1, nv - 1)
    nrows = nv * comb(top - d + nv - 1, nv - 1)
    if nrows * ncols > _MAX_MACAULAY_ENTRIES:
        return False, 0, 0
    shifts = itertools.combinations_with_replacement(
        [1 << (_SHIFT * i) for i in range(nv)], top - d)
    cols = {}  # packed monomial key -> column, in order of appearance
    rows = [{cols.setdefault(m + k, len(cols)): c
             for k, c in p.terms.items()}
            for m in map(sum, shifts) for p in f.polys]
    if len(cols) < ncols:
        return False, 0, 0  # a monomial of degree D lies in no row
    square = nrows == ncols
    pivots = range(nrows) if square else pivots_mod_p(rows, ncols)
    if pivots is None:
        return False, 0, 0
    # log2 of Hadamard's bound on the minor, which bounds every entry
    bits = sum((sum(c * c for c in rows[r].values()).bit_length() + 1) // 2
               for r in pivots)
    if ncols ** 3 * ((1 << 20) + bits ** 2) > _MAX_LIFT_COST:
        # no lift: a full rank mod p alone certifies the morphism
        return not square or pivots_mod_p(rows, ncols) is not None, 0, 0
    cells = [[rows[r].get(c, 0) for r in pivots] for c in range(ncols)]
    units = [[int(c == cols[top << (_SHIFT * i)]) for c in range(ncols)]
             for i in range(nv)]
    det, sols = spectral.bareiss(cells, units)
    if not det:
        return False, 0, 0
    # verify every identity exactly before trusting the bounds
    if spectral.product(sols, cells) != [[det * e for e in unit]
                                         for unit in units]:
        raise AssertionError("Macaulay cofactor identity failed"
                             " verification")
    return True, abs(det), nrows * max(abs(c) for y in sols for c in y)


def compose_raw(g: RationalMapPN, f: RationalMapPN):
    """Coordinate polynomials of g o f before gcd normalization."""
    if g.dim != f.dim:
        raise ContractViolation("composition of maps of different dimension")
    return poly_compose(g.polys, f.polys)


def compose_normalized(g: RationalMapPN, f: RationalMapPN) -> RationalMapPN:
    """g o f with the common polynomial factor divided out.

    The constructor performs the gcd division, so the result is canonical;
    its degree is at most deg(g) * deg(f) and drops exactly when the raw
    composition acquires a common factor.
    """
    return RationalMapPN(compose_raw(g, f))


# size limits for iterates: terms per coordinate, bits per coefficient
_MAX_TERMS = 200_000
_MAX_COEFF_BITS = 1_000_000
# the most terms of a degree sequence, and the largest canonical_height nmax
_MAX_NMAX = 500
# an exact orbit stops with ResourceCapExceeded once a coordinate outgrows
# this many bits.  Coordinates of [x^2+y^2 : x*y] double in size every
# step, 1.31 Mbit at n = 20 and 2.62 Mbit at n = 21, so n = 20 still runs;
# the step that trips the cap computes at most about d times the cap on a
# map of degree d
_MAX_COORD_BITS = 1 << 21


class DegreeSequence(Record):
    """Degrees of the normalized iterates f^n for n = 1..nmax; read-only,
    compared and hashed by (degs, truncated)."""

    __slots__ = ("degs", "truncated")

    def __init__(self, degs, truncated=False):
        object.__setattr__(self, "degs", degs)
        object.__setattr__(self, "truncated", truncated)

    def __len__(self):
        return len(self.degs)


def _composed_degrees(f: RationalMapPN, nmax):
    """deg f^n for n = 1..nmax from the iterates f^k = f o f^(k-1).

    The list stops short at the first iterate with more than _MAX_TERMS
    terms in a coordinate or a coefficient wider than _MAX_COEFF_BITS
    bits, or whose composition passes a cap of its own; a cap never
    yields a wrong degree.  An iterate that is constant or has all-zero
    forms raises ContractViolation naming it: the map is not dominant.
    Once an iterate f^k is linear and invertible, composing ends: each
    later f^(qk + r) = (f^k)^q o f^r has the degree of f^r, as an
    invertible linear map takes coprime forms to coprime forms; for d = 1
    the Macaulay matrix of map_certificate is the coefficient matrix.
    """
    degs, g = [f.degree], f
    for k in range(1, nmax):
        if g.degree == 1 and map_certificate(g).morphism:
            return [degs[i % k] for i in range(nmax)]
        try:
            g = compose_normalized(f, g)
        except ResourceCapExceeded:
            break
        except ContractViolation:
            # the constructor refuses a constant map and all-zero forms
            what = ("has all-zero forms" if all(
                p.is_zero() for p in compose_raw(f, g))
                else "reduces to a constant map")
            raise ContractViolation(
                f"map {what} at f^{k + 1}: the map is not dominant"
            ) from None
        if any(len(p.terms) > _MAX_TERMS or
               p.max_abs_coeff().bit_length() > _MAX_COEFF_BITS
               for p in g.polys):
            break
        degs.append(g.degree)
    return degs


def degree_sequence(f: RationalMapPN, nmax) -> DegreeSequence:
    """deg(f^n) for n = 1..nmax.

    A certified morphism (map_certificate(f).morphism) keeps degree d^n
    under composition, and so does a map of degree d >= 2 that
    line_certificate certifies on the same steps: the sequence is d^n up
    to the last that fits a packed exponent field, where composition
    stops too, no iterate is composed and no cap of iterates cuts it.
    The rest compose their iterates in _composed_degrees.

    At most _MAX_NMAX terms are computed, the bound canonical_height puts
    on nmax, and a longer request comes back truncated.  Maps of bounded
    degree reach it: degree 1, or degrees that repeat once an iterate is
    linear.  d^n passes the exponent limit by n = 24 for d >= 2, and
    dyndeg_estimate takes time quadratic in the length of a sequence.
    """
    if nmax < 1:
        raise ContractViolation("nmax must be >= 1")
    terms = min(nmax, _MAX_NMAX)
    d = f.degree
    powers = [d]
    while len(powers) < terms and powers[-1] * d <= _MASK:
        powers.append(powers[-1] * d)
    if map_certificate(f).morphism or (
            d > 1 and line_certificate(f.polys, len(powers))):
        degs = powers
    else:
        degs = _composed_degrees(f, terms)
    return DegreeSequence(degs=tuple(degs), truncated=len(degs) < nmax)


class DynDegEstimate(NamedTuple):
    """Certified upper bounds for the dynamical degree from a degree sequence.

    upper_bounds[n-1] is the least float b with b^n >= degs[n], so the
    float never undercuts the exact n-th root.  When the recorded degrees are
    submultiplicative with constant 1 (they always are on P^N), the minimum
    is a certified upper bound for the limit; the last-ratio column is a
    labeled heuristic only, never a bound.
    """

    upper_bounds: tuple
    certified_upper: float
    certified: bool
    ratio_estimate: Optional[float]


def dyndeg_estimate(seq: DegreeSequence) -> DynDegEstimate:
    if len(seq) < 1:
        raise ContractViolation("empty degree sequence")
    degs = seq.degs
    if min(degs) < 1:
        raise ContractViolation("degrees must be >= 1")
    bounds = tuple(spectral.root_up(d, n)
                   for n, d in enumerate(degs, start=1))
    certified = spectral.submult_check(degs, 1.0)
    ratio = None
    if len(degs) >= 2:
        ratio = degs[-1] / degs[-2]
    return DynDegEstimate(upper_bounds=bounds,
                          certified_upper=min(bounds),
                          certified=certified,
                          ratio_estimate=ratio)


class OrbitTermination(NamedTuple):
    """Why orbit iteration stopped.

    kind is one of ``reached_nmax``, ``hit_indeterminacy`` (step records
    where the map was undefined) and ``cycle_detected`` (with exact period
    and preperiod from normalized-point equality).
    """

    kind: str
    step: Optional[int] = None
    period: Optional[int] = None
    preperiod: Optional[int] = None


class OrbitRecord(NamedTuple):
    """Exact orbit points P, f(P), ... with their heights."""

    points: tuple
    heights: tuple
    terminated_by: OrbitTermination


def orbit(f: RationalMapPN, start: ProjPointQ, nmax,
          max_coord_bits=_MAX_COORD_BITS, *, _until=None) -> OrbitRecord:
    """Iterate map_evaluate from start, recording exact points and heights.

    Stops early on indeterminacy or on exact repetition of a normalized
    point (cycle detection cannot give false positives since the normal
    form is canonical).  Raises ResourceCapExceeded once a coordinate
    outgrows max_coord_bits bits, by default _MAX_COORD_BITS.

    Every point evaluated is normalized, hence coprime, so on a certified
    morphism the gcd removed at each step is taken modulo res, the
    integer R of map_certificate, lifted once per map on any P^N; maps
    with res = 0 take the exact gcd, smallest coordinate first.

    _until is private to orbit_heights: a test on (last point, steps
    left) that ends the record there, before the next step, when true.
    """
    if nmax < 0:
        raise ContractViolation("nmax must be >= 0")
    pt = normalize(start.coords)
    _check_dim(f, pt)
    points = [pt]
    heights = [weil_height(pt)]
    seen = {pt.coords: 0}
    term = OrbitTermination(kind="reached_nmax")
    bound = map_certificate(f).res
    for step in range(nmax):
        if _until is not None and _until(points[-1], nmax - step):
            break
        try:
            nxt = _step(f, points[-1], bound)
        except IndeterminatePoint:
            term = OrbitTermination(kind="hit_indeterminacy", step=step)
            break
        if max(c.bit_length() for c in nxt.coords) > max_coord_bits:
            raise ResourceCapExceeded(
                f"orbit coordinates exceed {max_coord_bits} bits at"
                f" step {step + 1}")
        prev = seen.get(nxt.coords)
        if prev is not None:
            term = OrbitTermination(kind="cycle_detected",
                                    period=len(points) - prev,
                                    preperiod=prev)
            break
        seen[nxt.coords] = len(points)
        points.append(nxt)
        heights.append(weil_height(nxt))
    return OrbitRecord(points=tuple(points), heights=tuple(heights),
                       terminated_by=term)


def _residue_step(f: RationalMapPN, residues, modulus, res):
    """One orbit step on the coordinates of a coprime point a known only
    modulo modulus = res^k, k >= 1, with res the |R| of map_certificate.

    The gcd g of the F_j(a) divides R, so g = gcd(R, F_j(a) mod R), and
    g divides res^k too: the residues of F_j(a) / g are known modulo
    res^(k-1).  Returns (g, those residues, res^(k-1)).
    """
    values = [poly_eval_int(p, residues) % modulus for p in f.polys]
    g = coordinate_gcd(values, res)
    modulus //= res
    return g, [v // g % modulus for v in values], modulus


def _ball_bits(steps, loss):
    """The integer bits a ball keeps with steps still to go, for a map
    whose steps each lose at most loss bits of relative precision."""
    return 64 + steps * loss


def orbit_heights(f: RationalMapPN, start: ProjPointQ, nmax,
                  max_coord_bits=_MAX_COORD_BITS):
    """(heights, terminated_by) of orbit(f, start, nmax, max_coord_bits),
    the float heights bit for bit, without the wide exact points.

    The orbit runs exact steps until a point with H^(d-1) > E, the
    Northcott integer of map_certificate, has coordinates of more than 2P
    bits, P = _ball_bits(steps left, loss) below the float range and
    loss = bitlen(S d) + bitlen(max(up, low)), S the largest coefficient
    1-norm.  That point wanders (hhat > 0), so no cycle follows, and a
    morphism meets no indeterminacy.  From there each coordinate is
    2^T (X_i + xi_i), |xi_i| <= r, X_i an integer of about P bits: a step
    evaluates F exactly at X, which is within S((M+r)^d - M^d) of F at
    X + xi, M = max |X_i|; takes the gcd g from residues modulo R^k
    (_residue_step); and divides by g 2^t with t keeping P bits.

    math.log of an int depends only on its round-half-even 53-bit value,
    which is monotone in the int.  So with lo = max |X_i| - r and
    hi = max |X_i| + r, lo > 0 and float(lo) == float(hi) decide the
    height: it is math.log(lo << T).  The coordinate cap is decided by
    the bit lengths of lo 2^T and hi 2^T.  A step left undecided, and a
    map without res or E, return the exact orbit's heights instead.
    """
    def exact():
        rec = orbit(f, start, nmax, max_coord_bits)
        return tuple(h.value for h in rec.heights), rec.terminated_by

    cert = map_certificate(f)
    bound, d = cert.northcott, f.degree
    if not cert.res or bound is None:
        return exact()
    norm = max(sum(map(abs, p.terms.values())) for p in f.polys)
    loss = (norm * d).bit_length() + max(cert.up, cert.low).bit_length()

    def wide(point, left):
        bits = max(map(abs, point.coords)).bit_length()
        prec = _ball_bits(left, loss)
        # H >= 2^(bits-1), so H^(d-1) > E once (bits-1)(d-1) >= bitlen(E)
        return (bits > 2 * prec and prec + 2 < sys.float_info.max_exp
                and (bits - 1) * (d - 1) >= bound.bit_length())

    rec = orbit(f, start, nmax, max_coord_bits, _until=wide)
    heights = [h.value for h in rec.heights]
    left = nmax + 1 - len(heights)
    if not left or rec.terminated_by.kind != "reached_nmax":
        return tuple(heights), rec.terminated_by
    coords = rec.points[-1].coords
    shift = (max(map(abs, coords)).bit_length() - _ball_bits(left, loss))
    ball = [c >> shift for c in coords]
    radius, modulus = 1, cert.res ** left
    residues = [c % modulus for c in coords]
    while left:
        left -= 1
        top = max(map(abs, ball))
        error = norm * ((top + radius) ** d - top ** d)
        values = [poly_eval_int(p, ball) for p in f.polys]
        g, residues, modulus = _residue_step(f, residues, modulus, cert.res)
        t = max(0, max(map(abs, values)).bit_length() - g.bit_length()
                - _ball_bits(left, loss))
        div = g << t
        ball = [v // div for v in values]
        radius = 1 - (-error // div)
        shift = d * shift + t
        lo = max(map(abs, ball)) - radius
        hi = lo + 2 * radius
        if lo > 0 and lo.bit_length() + shift > max_coord_bits:
            raise ResourceCapExceeded(
                f"orbit coordinates exceed {max_coord_bits} bits at"
                f" step {nmax - left}")
        if (lo <= 0 or hi.bit_length() + shift > max_coord_bits
                or float(lo) != float(hi)):
            return exact()
        heights.append(math.log(lo << shift))
    return tuple(heights), rec.terminated_by


def sylvester_resultant(F0: MultiPoly, F1: MultiPoly) -> int:
    """Signed resultant of two binary forms of one degree d >= 1: the
    determinant of their 2d x 2d Sylvester rows, built here, so it is an
    independent signed oracle for map_certificate(f).res on P^1."""
    if F0.nvars != 2 or F1.nvars != 2:
        raise ContractViolation("Sylvester matrix needs binary forms")
    if F0.is_zero() or F1.is_zero():
        raise ContractViolation("zero form is degenerate")
    d = F0.degree
    if F1.degree != d or d < 1:
        raise ContractViolation("forms must share one degree d >= 1")
    rows = [[0] * (2 * d) for _ in range(2 * d)]
    for first, F in ((0, F0), (d, F1)):
        for (_, k), c in F.items():
            for s in range(d):
                rows[first + s][s + k] = c  # c multiplies x^(d-k) y^k
    return spectral.determinant(rows)


# ---------------------------------------------------------------------------
# map-spec files


def serialize_map_spec(f: RationalMapPN) -> dict:
    """Canonical JSON-ready dict for a projective map.

    Coefficients are decimal strings so arbitrarily wide integers survive
    any JSON reader; terms are listed in descending graded-lex order so the
    file round-trips byte-identically.
    """
    polys = []
    for p in f.polys:
        polys.append([{"c": str(c), "e": list(e)} for e, c in p.items()])
    return {"name": f.name or "", "dim": f.dim,
            "vars": default_varnames(f.dim), "polys": polys}


def parse_map_spec(data: dict) -> RationalMapPN:
    if "polys" not in data:
        raise ContractViolation("map spec lacks a 'polys' field")
    dim = int(data["dim"])
    nv = dim + 1
    polys = []
    for plist in data["polys"]:
        terms = [(int(t["c"]), tuple(int(x) for x in t["e"])) for t in plist]
        if terms:
            polys.append(MultiPoly.from_terms(nv, terms))
        else:
            polys.append(MultiPoly.zero(nv))
    return RationalMapPN(polys, name=data.get("name") or None)


def write_map_spec(f: RationalMapPN, path):
    from .corpus import write_spec

    write_spec(serialize_map_spec(f), path)
