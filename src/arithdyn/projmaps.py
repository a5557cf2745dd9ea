"""Rational self-maps of projective space P^N over Q.

A map is N+1 homogeneous integer polynomials of one common degree with no
common factor; the constructor divides out any polynomial gcd and integer
content and fixes a sign, so each rational map has one canonical
representation.  Composition substitutes one map into another and again
divides out the common factor; the degree of the result may drop below the
product of the degrees, and the recorded drops form the degree sequence
used for dynamical-degree upper bounds.

Orbits evaluate at normalized points only.  For a morphism of P^1 the gcd
of the evaluated coordinates then divides the resultant of the two
coordinate forms (Bezout in both affine charts), so each orbit step takes
that gcd modulo the resultant; maps of P^N with N >= 2 and map_evaluate
on arbitrary points take the exact gcd.
"""

import json
from dataclasses import dataclass
from math import gcd as _intgcd
from typing import Optional

from .errors import (ContractViolation, IndeterminatePoint,
                     ResourceCapExceeded, UnsupportedDimension)
from .heights import ProjPointQ, normalize, weil_height
from .polynomials import (MultiPoly, binary_coeffs, format_poly, gcd_many,
                          parse_poly, poly_compose, poly_divmod_exact,
                          poly_eval_int, sylvester_rows)
from . import spectral


class RationalMapPN:
    """A dominant rational self-map of P^N in canonical coprime form."""

    __slots__ = ("dim", "polys", "name")

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
            polys = tuple(MultiPoly.zero(nv) if p.is_zero()
                          else poly_divmod_exact(p, g) for p in polys)
        # strip the common integer content and fix a global sign
        content = 0
        for p in polys:
            for c in p.terms.values():
                content = _intgcd(content, abs(c))
                if content == 1:
                    break
            if content == 1:
                break
        lead_sign = 1
        for p in polys:
            if not p.is_zero():
                lead_sign = 1 if p.leading_coeff() > 0 else -1
                break
        scale = lead_sign * content
        if scale != 1:
            polys = tuple(MultiPoly(p.nvars,
                                    {k: c // scale for k, c in p.terms.items()},
                                    p.degree) for p in polys)
        deg = next(p.degree for p in polys if not p.is_zero())
        if deg < 1:
            raise ContractViolation(
                "map reduces to a constant map (degree 0)")
        object.__setattr__(self, "dim", len(polys) - 1)
        object.__setattr__(self, "polys", polys)
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMapPN is immutable")

    @property
    def degree(self):
        return next(p.degree for p in self.polys if not p.is_zero())

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
    return _step(f, point, 0)


def _step(f: RationalMapPN, point: ProjPointQ, bound) -> ProjPointQ:
    """f(point) in normal form; bound is 0 or a multiple of the gcd of the
    coordinates of f at point, as in heights.coordinate_gcd."""
    if len(point.coords) != f.dim + 1:
        raise ContractViolation("point and map dimensions differ")
    values = [poly_eval_int(p, point.coords) for p in f.polys]
    if not any(values):
        raise IndeterminatePoint(point)
    return normalize(values, _bound=bound)


def _gcd_bound(f: RationalMapPN) -> int:
    """|Res(F0, F1)| for a map of P^1, else 0 (no bound).

    By Bezout, U F0 + V F1 = Res x^(2d-1) and U' F0 + V' F1 = Res y^(2d-1)
    with integer forms U, V, U', V' of degree d - 1 (one per affine chart),
    so for coprime (a, b) the gcd of F0(a,b) and F1(a,b) divides both
    Res a^(2d-1) and Res b^(2d-1), hence divides Res.  Res is nonzero:
    the constructor divides out any common factor of F0 and F1.
    """
    if f.dim != 1:
        return 0
    return abs(sylvester_resultant(f.polys[0], f.polys[1]))


def compose_raw(g: RationalMapPN, f: RationalMapPN):
    """Coordinate polynomials of g o f before gcd normalization."""
    if g.dim != f.dim:
        raise ContractViolation("composition of maps of different dimension")
    return [poly_compose(p, f.polys) for p in g.polys]


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


@dataclass(frozen=True)
class DegreeSequence:
    """Degrees of the normalized iterates f^n for n = 1..nmax."""

    degs: tuple
    truncated: bool = False

    def __len__(self):
        return len(self.degs)


def iterates(f: RationalMapPN, nmax):
    """[f, f^2, ..., f^nmax] computed by left-composing f.

    Stops early, returning the completed prefix, at the first iterate with
    more than _MAX_TERMS terms in a coordinate or a coefficient wider than
    _MAX_COEFF_BITS bits; a cap never yields a wrong map.
    """
    if nmax < 1:
        raise ContractViolation("nmax must be >= 1")
    chain = [f]
    for _ in range(nmax - 1):
        try:
            nxt = compose_normalized(f, chain[-1])
        except ResourceCapExceeded:
            break
        if any(len(p.terms) > _MAX_TERMS or
               p.max_abs_coeff().bit_length() > _MAX_COEFF_BITS
               for p in nxt.polys):
            break
        chain.append(nxt)
    return chain


def degree_sequence(f: RationalMapPN, nmax) -> DegreeSequence:
    """deg(f^n) for n = 1..nmax via normalized composition."""
    chain = iterates(f, nmax)
    return DegreeSequence(degs=tuple(m.degree for m in chain),
                          truncated=len(chain) < nmax)


@dataclass(frozen=True)
class DynDegEstimate:
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


@dataclass(frozen=True)
class OrbitTermination:
    """Why orbit iteration stopped.

    kind is one of ``reached_nmax``, ``hit_indeterminacy`` (step records
    where the map was undefined) and ``cycle_detected`` (with exact period
    and preperiod from normalized-point equality).
    """

    kind: str
    step: Optional[int] = None
    period: Optional[int] = None
    preperiod: Optional[int] = None


@dataclass(frozen=True)
class OrbitRecord:
    """Exact orbit points P, f(P), ... with their heights."""

    points: tuple
    heights: tuple
    terminated_by: OrbitTermination


def orbit(f: RationalMapPN, start: ProjPointQ, nmax,
          max_coord_bits=None) -> OrbitRecord:
    """Iterate map_evaluate from start, recording exact points and heights.

    Stops early on indeterminacy or on exact repetition of a normalized
    point (cycle detection cannot give false positives since the normal
    form is canonical).  max_coord_bits, when set, raises
    ResourceCapExceeded if coordinates outgrow the budget.

    Every point evaluated is normalized, hence coprime, so on P^1 the gcd
    removed at each step is taken modulo the resultant (_gcd_bound); maps
    of P^N with N >= 2 take the exact gcd, smallest coordinate first.
    """
    if nmax < 0:
        raise ContractViolation("nmax must be >= 0")
    pt = normalize(start.coords)
    points = [pt]
    heights = [weil_height(pt)]
    seen = {pt.coords: 0}
    term = OrbitTermination(kind="reached_nmax")
    bound = _gcd_bound(f)
    for step in range(nmax):
        try:
            nxt = _step(f, points[-1], bound)
        except IndeterminatePoint:
            term = OrbitTermination(kind="hit_indeterminacy", step=step)
            break
        if max_coord_bits is not None:
            if max(abs(c).bit_length() for c in nxt.coords) > max_coord_bits:
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


def sylvester_resultant(F0: MultiPoly, F1: MultiPoly) -> int:
    """Exact resultant of two binary forms of one degree d >= 1: the
    determinant of their 2d x 2d Sylvester matrix, coefficients listed
    from the highest power of the first variable."""
    if F0.nvars != 2 or F1.nvars != 2:
        raise ContractViolation("Sylvester matrix needs binary forms")
    if F0.is_zero() or F1.is_zero():
        raise ContractViolation("zero form is degenerate")
    d = F0.degree
    if F1.degree != d or d < 1:
        raise ContractViolation("forms must share one degree d >= 1")
    return spectral.determinant(
        sylvester_rows(binary_coeffs(F0)[::-1], binary_coeffs(F1)[::-1]))


def is_morphism_p1(f: RationalMapPN) -> bool:
    """True iff the two coordinates of a self-map of P^1 share no root.

    This holds for every constructed map of P^1: the constructor divides
    out the gcd of the coordinates, and two coprime binary forms of one
    degree have a nonzero resultant.
    """
    if f.dim != 1:
        raise UnsupportedDimension(
            "morphism certification is implemented for P^1 only")
    return sylvester_resultant(f.polys[0], f.polys[1]) != 0


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize_map_spec(f), fh, sort_keys=True,
                  separators=(",", ": "), indent=1)
        fh.write("\n")
