import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arithdyn.errors import ContractViolation, DegreeMismatch
from arithdyn.polynomials import (MultiPoly, format_poly, parse_poly,
                                  poly_compose, poly_content,
                                  poly_divmod_exact, poly_gcd, poly_mul,
                                  poly_pow, poly_primitive_part)

XY = ["x", "y"]


def P(text, names=XY):
    return parse_poly(text, names)


# --- construction -----------------------------------------------------------

def test_homogeneity_enforced():
    with pytest.raises(DegreeMismatch):
        MultiPoly.from_terms(2, [(1, (2, 0)), (1, (1, 0))])


def test_zero_representation():
    z = MultiPoly.zero(2)
    assert z.is_zero() and z.degree == -1 and len(z) == 0


# --- multiplication ---------------------------------------------------------

def test_mul_difference_of_squares():
    assert poly_mul(P("x+y"), P("x-y")) == P("x^2-y^2")


def test_mul_identity():
    p = P("3*x^2-2*x*y+y^2")
    assert poly_mul(p, MultiPoly.constant(2, 1)) == p


def test_square_binomial():
    assert poly_pow(P("x+y"), 2) == P("x^2+2*x*y+y^2")


# --- composition ------------------------------------------------------------

def test_compose_swap():
    assert poly_compose(P("x*y"), [P("y"), P("x")]) == P("x*y")


def test_compose_binomial():
    assert poly_compose(P("x^2"), [P("x+y"), P("y")]) == P("x^2+2*x*y+y^2")


def test_compose_powers():
    assert poly_compose(P("x^2+y^2"), [P("x^2"), P("y^2")]) == P("x^4+y^4")


def test_compose_mixed_degrees_rejected():
    with pytest.raises(DegreeMismatch):
        poly_compose(P("x+y"), [P("x^2"), P("y")])


# --- content / primitive ----------------------------------------------------

def test_content_primitive():
    p = P("6*x^2+4*y^2")
    assert poly_content(p) == 2
    assert poly_primitive_part(p) == P("3*x^2+2*y^2")


def test_content_one():
    assert poly_content(P("x^2")) == 1


def test_primitive_sign_convention():
    # leading coefficient (graded-lex) comes out positive
    assert poly_primitive_part(P("-2*x^2")) == P("x^2")
    assert poly_content(P("-2*x^2")) == 2


# --- evaluation -------------------------------------------------------------

def poly_eval(p, point):
    """Exact evaluation at a vector of rationals (or ints): the oracle
    these tests check composition against."""
    vals = [Fraction(x) for x in point]
    total = Fraction(0)
    for exps, coeff in p.items():
        term = Fraction(coeff)
        for v, e in zip(vals, exps):
            if e:
                term *= v ** e
        total += term
    return total


def test_eval_pythagorean():
    assert poly_eval(P("x^2+y^2"), [3, 4]) == 25


def test_eval_fractions():
    assert poly_eval(P("x*y"), [Fraction(1, 2), Fraction(2, 3)]) \
        == Fraction(1, 3)


def test_eval_homogeneous_scaling():
    p = P("x^2*y+3*y^3", XY)
    lam = Fraction(3, 7)
    v = [Fraction(2, 5), Fraction(-1, 3)]
    assert poly_eval(p, [lam * c for c in v]) == lam ** 3 * poly_eval(p, v)


# --- gcd --------------------------------------------------------------------

def test_gcd_monomials():
    assert poly_gcd(P("x^2*y"), P("x*y^2")) == P("x*y")


def test_gcd_coprime():
    assert poly_gcd(P("x^2"), P("y^2")) == MultiPoly.constant(2, 1)


def test_gcd_with_zero():
    assert poly_gcd(P("-2*x^2"), MultiPoly.zero(2)) == P("x^2")
    with pytest.raises(ContractViolation):
        poly_gcd(MultiPoly.zero(2), MultiPoly.zero(2))


def brute_force_linear_divisors(p):
    """All primitive degree-1 binary forms dividing p, by trial division."""
    found = []
    for a, b in itertools.product(range(-3, 4), repeat=2):
        if (a, b) <= (0, 0):
            continue
        cand = MultiPoly.from_terms(2, [(a, (1, 0)), (b, (0, 1))])
        if cand.is_zero():
            continue
        cand = poly_primitive_part(cand)
        if poly_divmod_exact(p, cand) is not None and cand not in found:
            found.append(cand)
    return found


def test_gcd_difference_vs_square_oracle():
    # oracle: factor both by brute-force trial division over linear factors
    p = P("x^2-y^2")
    q = P("x^2+2*x*y+y^2")
    common = [d for d in brute_force_linear_divisors(p)
              if poly_divmod_exact(q, d) is not None]
    assert common == [P("x+y")]
    g = poly_gcd(p, q)
    assert g == P("x+y")
    assert poly_divmod_exact(p, g) is not None
    assert poly_divmod_exact(q, g) is not None


def test_gcd_three_variable_monomial_content():
    names = ["x", "y", "z"]
    p = parse_poly("x^2*y*z", names)
    q = parse_poly("x*y^2*z", names)
    assert poly_gcd(p, q) == parse_poly("x*y*z", names)


# --- text form --------------------------------------------------------------

def test_parse_format_roundtrip():
    p = P("2*x^2 - x*y + 3*y^2")
    assert parse_poly(format_poly(p, XY), XY) == p


def test_parse_unicode_minus():
    assert P("x^2−y^2") == P("x^2-y^2")


def test_format_zero():
    assert format_poly(MultiPoly.zero(2), XY) == "0"


# --- properties -------------------------------------------------------------

@st.composite
def homogeneous(draw, nvars=2, max_degree=3, max_terms=3):
    degree = draw(st.integers(0, max_degree))
    nterms = draw(st.integers(1, max_terms))
    terms = []
    for _ in range(nterms):
        picks = draw(st.lists(st.integers(0, nvars - 1), min_size=degree,
                              max_size=degree))
        exps = [picks.count(i) for i in range(nvars)]
        coeff = draw(st.integers(-5, 5).filter(bool))
        terms.append((coeff, exps))
    return MultiPoly.from_terms(nvars, terms)


@settings(max_examples=60, deadline=None)
@given(homogeneous(), homogeneous())
def test_mul_preserves_homogeneity(p, q):
    r = poly_mul(p, q)
    if p.is_zero() or q.is_zero():
        assert r.is_zero()
    else:
        assert r.is_zero() or r.degree == p.degree + q.degree
        for exps, _ in r.items():
            assert sum(exps) == r.degree


@settings(max_examples=40, deadline=None)
@given(homogeneous(),
       homogeneous(max_degree=2).filter(lambda p: not p.is_zero()),
       homogeneous(max_degree=2).filter(lambda p: not p.is_zero()))
def test_compose_matches_eval(p, s0, s1):
    if s0.degree != s1.degree:
        return
    v = [Fraction(2, 3), Fraction(-1, 2)]
    composed = poly_compose(p, [s0, s1])
    assert poly_eval(composed, v) == \
        poly_eval(p, [poly_eval(s0, v), poly_eval(s1, v)])


@settings(max_examples=40, deadline=None)
@given(homogeneous(max_degree=2), homogeneous(max_degree=2),
       homogeneous(max_degree=1).filter(lambda p: not p.is_zero()))
def test_gcd_detects_planted_factor(a, b, g):
    if a.is_zero() and b.is_zero():
        return
    ag, bg = poly_mul(a, g), poly_mul(b, g)
    if ag.is_zero() and bg.is_zero():
        return
    d = poly_gcd(ag, bg)
    # the planted factor divides the gcd, and the gcd divides both inputs
    assert poly_divmod_exact(d, poly_primitive_part(g)) is not None
    for h in (ag, bg):
        if not h.is_zero():
            assert poly_divmod_exact(h, d) is not None


@settings(max_examples=40, deadline=None)
@given(homogeneous(), homogeneous(max_degree=2).filter(lambda p: not p.is_zero()),
       homogeneous(max_degree=2).filter(lambda p: not p.is_zero()),
       homogeneous(max_degree=2).filter(lambda p: not p.is_zero()),
       homogeneous(max_degree=2).filter(lambda p: not p.is_zero()))
def test_compose_associativity(p, f0, f1, g0, g1):
    if f0.degree != f1.degree or g0.degree != g1.degree:
        return
    inner = [poly_compose(f0, [g0, g1]), poly_compose(f1, [g0, g1])]
    left = poly_compose(poly_compose(p, [f0, f1]), [g0, g1])
    right = poly_compose(p, inner)
    assert left == right
