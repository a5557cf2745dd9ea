import collections
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arithdyn import polynomials
from arithdyn.errors import (ArithDynError, ContractViolation,
                             DegreeMismatch, ResourceCapExceeded)
from arithdyn.polynomials import (MultiPoly, format_poly, parse_poly,
                                  poly_compose, poly_content,
                                  poly_divmod_exact, poly_gcd, poly_mul,
                                  poly_primitive_part)
from arithdyn.projmaps import RationalMapPN, compose_normalized, compose_raw

XY = ["x", "y"]


def iterates(f, nmax):
    """[f, f^2, ..., f^nmax], each iterate left-composed with f."""
    chain = [f]
    while len(chain) < nmax:
        chain.append(compose_normalized(f, chain[-1]))
    return chain


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


def schoolbook_mul(p, q):
    """Test-local oracle: every term pair, summed by exponent vector."""
    acc = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            acc[e] = acc.get(e, 0) + ca * cb
    return MultiPoly.from_terms(p.nvars, [(c, e) for e, c in acc.items()])


def all_monomials(nvars, degree):
    return [e for e in itertools.product(range(degree + 1), repeat=nvars)
            if sum(e) == degree]


def packed(p, q):
    """Whether p q is dense: it has no more monomials in a base
    degree + 1 layout than term pairs."""
    degree = p.degree + q.degree
    return (degree + 1) ** (p.nvars - 1) <= len(p.terms) * len(q.terms)


def test_mul_matches_schoolbook_oracle():
    rng = random.Random(1214)
    drawn = {True: 0, False: 0}
    for _ in range(300):
        nvars = rng.randint(1, 4)
        factors = []
        for _ in range(2):
            monos = all_monomials(nvars, rng.randint(0, 8))
            count = rng.choice([1, 2, rng.randint(1, len(monos)), len(monos)])
            bits = rng.randint(2, 300)
            factors.append(MultiPoly.from_terms(nvars, [
                (rng.choice((-1, 1)) * rng.randrange(1, 1 << bits), e)
                for e in rng.sample(monos, min(count, len(monos)))]))
        p, q = factors
        drawn[packed(p, q)] += 1
        assert poly_mul(p, q) == schoolbook_mul(p, q)
    assert min(drawn.values()) >= 50


def test_mul_attains_the_slot_bound():
    # every coefficient of p q is a sum of at most len(p) products, and
    # here the middle one is exactly len(p) M^2, 127 bits wide
    m = (1 << 61) - 1
    k = 31
    p = MultiPoly.from_terms(2, [(m, e) for e in all_monomials(2, k)])
    minus_p = MultiPoly.from_terms(2, [(-c, e) for e, c in p.items()])
    for q in (p, minus_p):
        assert packed(p, q)
        r = poly_mul(p, q)
        assert r == schoolbook_mul(p, q)
        assert r.max_abs_coeff() == len(p) * m * m
        assert r.max_abs_coeff().bit_length() == 127
    xyz = all_monomials(3, 6)
    p3 = MultiPoly.from_terms(3, [(m, e) for e in xyz])
    assert poly_mul(p3, p3) == schoolbook_mul(p3, p3)


def test_mul_mixed_signs_leave_zero_slots():
    # (x - y)(x^k + x^(k-1) y + ... + y^k) = x^(k+1) - y^(k+1): every
    # inner coefficient cancels to zero
    for k in (1, 5, 40):
        s = MultiPoly.from_terms(2, [(1, e) for e in all_monomials(2, k)])
        assert packed(P("x-y"), s)
        assert poly_mul(P("x-y"), s) == P(f"x^{k + 1}-y^{k + 1}")
        assert poly_mul(s, P("y-x")) == P(f"y^{k + 1}-x^{k + 1}")


def test_mul_and_compose_refuse_an_exponent_overflow():
    big = MultiPoly.monomial(2, 1, (1 << 23, 0))
    with pytest.raises(ResourceCapExceeded):
        poly_mul(big, big)
    with pytest.raises(ResourceCapExceeded):
        poly_compose([P("x^2")], [big, MultiPoly.monomial(2, 1, (0, 1 << 23))])


def test_sparse_high_degree_product_stays_small():
    # a packed product of these would need 2^22 + 1 slots
    x = MultiPoly.monomial(2, 1, (1 << 22, 0))
    y = MultiPoly.monomial(2, 1, (0, 1 << 22))
    tracemalloc.start()
    try:
        r = poly_mul(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r == MultiPoly.monomial(2, 1, (1 << 22, 1 << 22))
    assert peak < 1 << 20


def test_leading_term_breaks_ties_field_by_field():
    xyz = ["x", "y", "z"]
    p = P("x*z^2 - 2*x*y^2 + 3*x*y*z + y^3", xyz)
    assert p.leading_term() == ((1, 2, 0), -2)
    assert [e for e, _ in p.items()][0] == (1, 2, 0)


def seeded_exponents(rng, nvars, degree):
    cuts = sorted(rng.randint(0, degree) for _ in range(nvars - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))


def test_key_order_is_the_term_order():
    rng = random.Random(1919)
    for trial in range(2000):
        nvars = 1 + trial % 5
        # small degrees tie often; the largest fill a field to the brim
        degree = rng.choice([rng.randint(0, 6), rng.randint(0, (1 << 24) - 1)])
        a = seeded_exponents(rng, nvars, degree)
        b = seeded_exponents(rng, nvars, degree)
        ka, kb = polynomials._pack(a), polynomials._pack(b)
        assert polynomials._unpack(ka, nvars) == a
        assert (ka < kb) == (a < b) and (ka == kb) == (a == b)
    for trial in range(200):
        nvars = 1 + trial % 4
        p, q = (seeded_poly(rng, nvars, rng.randint(0, 4), rng.random() < 0.5)
                for _ in range(2))
        subs = [seeded_poly(rng, nvars, 2, rng.random() < 0.5)
                for _ in range(nvars)]
        prod = poly_mul(p, q)
        quo = poly_divmod_exact(prod, q)
        assert quo == p
        for r in (prod, poly_compose([p], subs)[0], quo):
            exps = [e for e, _ in r.items()]
            assert exps == sorted(set(exps), reverse=True)
            lead, c = r.leading_term()
            assert lead == max(exps) and c == dict(r.items())[lead]


# --- composition ------------------------------------------------------------

def test_compose_swap():
    assert poly_compose([P("x*y")], [P("y"), P("x")]) == [P("x*y")]


def test_compose_binomial():
    assert poly_compose([P("x^2")], [P("x+y"), P("y")]) == \
        [P("x^2+2*x*y+y^2")]


def test_compose_powers():
    assert poly_compose([P("x^2+y^2")], [P("x^2"), P("y^2")]) == \
        [P("x^4+y^4")]


def test_compose_mixed_degrees_rejected():
    with pytest.raises(DegreeMismatch):
        poly_compose([P("x+y")], [P("x^2"), P("y")])


def count_compose_products(monkeypatch, g, f):
    """poly_mul calls made by compose_raw(g, f), after checking the
    composition against evaluation at a rational point."""
    calls = []
    real_mul = polynomials.poly_mul

    def counting_mul(p, q):
        calls.append((p, q))
        return real_mul(p, q)

    monkeypatch.setattr(polynomials, "poly_mul", counting_mul)
    raw = compose_raw(g, f)
    v = [Fraction(2, 3), Fraction(-1, 2), Fraction(5, 7)]
    fv = [poly_eval(p, v) for p in f.polys]
    assert [poly_eval(p, v) for p in raw] == [poly_eval(p, fv) for p in g.polys]
    return len(calls)


XYZ = ["x", "y", "z"]
SIX_MONOMIAL_G = ["x^2+y*z", "y^2+x*z", "z^2+x*y+x^2"]


def test_compose_forms_each_monomial_once(monkeypatch):
    # g needs six distinct quadratic monomials: one product each, none
    # formed again for another coordinate and none a product with 1
    g = RationalMapPN.from_strings(SIX_MONOMIAL_G, XYZ)
    f = RationalMapPN.from_strings(["x^2-y*z", "x*y+2*z^2", "y^2+x*z-z^2"],
                                   XYZ)
    assert count_compose_products(monkeypatch, g, f) == 6


def test_compose_packs_each_monomial_once(monkeypatch):
    # the dense twin of the test above: with all six quadratic terms in
    # each coordinate of f, still one product per monomial of g
    g = RationalMapPN.from_strings(SIX_MONOMIAL_G, XYZ)
    f = RationalMapPN.from_strings(
        ["x^2-y*z+x*y-z^2+y^2+x*z", "x*y+2*z^2-x^2+y*z+3*y^2+x*z",
         "y^2+x*z-z^2+x^2-x*y+y*z"], XYZ)
    assert packed_compose(g.polys, f.polys)
    assert count_compose_products(monkeypatch, g, f) == 6


def packed_compose(polys, subs):
    """Whether this call is dense: the top power of the longest
    substitution has more term pairs than a layout in base D + 1, D the
    composed degree, has slots."""
    degree = max([0] + [p.degree for p in polys])
    top = degree * max([1] + [s.degree for s in subs])
    return max(map(len, subs)) ** degree > (top + 1) ** (subs[0].nvars - 1)


def term_pair_compose(p, subs):
    """Test-local oracle: p(subs) with each substituted monomial formed by
    schoolbook products, one term pair at a time."""
    nv = subs[0].nvars
    acc = {}
    for exps, coeff in p.items():
        m = MultiPoly.constant(nv, 1)
        for s, e in zip(subs, exps):
            for _ in range(e):
                m = schoolbook_mul(m, s)
        for e, c in m.items():
            acc[e] = acc.get(e, 0) + coeff * c
    return MultiPoly.from_terms(nv, [(c, e) for e, c in acc.items()])


# magnitudes 2^k - 1 just below, at and above the byte boundaries
BYTE_EDGES = [(1 << k) - 1 for k in (7, 8, 9, 15, 16, 17, 31, 32, 33, 63,
                                     64, 65)]


def seeded_poly(rng, nvars, degree, dense):
    monos = all_monomials(nvars, degree)
    count = len(monos) if dense else rng.choice([1, 2, rng.randint(1, 3)])
    return MultiPoly.from_terms(nvars, [
        (rng.choice((-1, 1)) * rng.choice(BYTE_EDGES + [1, 2, 3]), e)
        for e in rng.sample(monos, min(count, len(monos)))])


def test_compose_matches_term_pair_oracle():
    rng = random.Random(1515)
    drawn = collections.Counter()
    for trial in range(160):
        nvars = 1 + trial % 4
        d = rng.randint(1, 3 if nvars <= 2 else 2)
        dense = rng.random() < 0.5
        subs = [seeded_poly(rng, nvars, d, dense) for _ in range(nvars)]
        if rng.random() < 0.2:
            subs[rng.randrange(nvars)] = MultiPoly.zero(nvars)
        polys = [seeded_poly(rng, nvars, rng.randint(0, 3), rng.random() < 0.5)
                 for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.2:
            polys.append(MultiPoly.zero(nvars))
        drawn[nvars, packed_compose(polys, subs)] += 1
        assert poly_compose(polys, subs) == \
            [term_pair_compose(p, subs) for p in polys]
    # one variable has one monomial per degree, so it is never dense
    assert drawn[1, False] == 40
    assert min(drawn[n, packed] for n in (2, 3, 4)
               for packed in (True, False)) >= 5


@pytest.mark.parametrize("bits", [63, 64])
def test_compose_attains_the_slot_bound(bits):
    # the one coefficient of (a x^3)(c x, x + y) is a c^3: |p|_1 times the
    # cube of the largest coefficient 1-norm of subs, the most a
    # coefficient of p(subs) can reach, here 63 and 64 bits wide
    c = (1 << 21) - 1
    a = ((1 << bits) - 1) // c ** 3
    assert (a * c ** 3).bit_length() == bits
    subs = [MultiPoly.monomial(2, c, (1, 0)), P("x+y")]
    for sign in (1, -1):
        p = MultiPoly.monomial(2, sign * a, (3, 0))
        assert packed_compose([p], subs)
        assert poly_compose([p], subs) == \
            [MultiPoly.monomial(2, sign * a * c ** 3, (3, 0))]


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


def test_gcd_three_variable_monomial_content(monkeypatch):
    """The shared monomial is put back on a gcd the certificate decides."""
    def refuse(p, q):
        raise AssertionError("poly_gcd fell through to sympy")

    monkeypatch.setattr(polynomials, "_sympy_gcd", refuse)
    names = ["x", "y", "z"]
    for p, q, want in [
            ("x^2*y*z", "x*y^2*z", "x*y*z"),
            ("-6*x^3*z^2 + 4*x^2*y*z^2", "9*x*y^2*z^2 - 3*x*z^4", "x*z^2")]:
        assert poly_gcd(parse_poly(p, names), parse_poly(q, names)) == \
            parse_poly(want, names)


def sympy_gcd_oracle(p, q):
    """Primitive, sign-fixed gcd of p and q by sympy's own gcd, with both
    rebuilt as sympy expressions one term at a time and parsed back: a
    route independent of the term maps that poly_gcd hands sympy."""
    import sympy

    syms = sympy.symbols(f"t0:{p.nvars}")

    def to_expr(poly):
        e = sympy.Integer(0)
        for exps, c in poly.items():
            term = sympy.Integer(c)
            for s, k in zip(syms, exps):
                if k:
                    term *= s ** k
            e += term
        return e

    g = sympy.gcd(sympy.Poly(to_expr(p), *syms, domain="ZZ"),
                  sympy.Poly(to_expr(q), *syms, domain="ZZ"))
    return poly_primitive_part(MultiPoly.from_terms(
        p.nvars, [(int(c), tuple(int(e) for e in m)) for m, c in g.terms()]))


def _signed_form(rng, nvars, degree):
    """A nonzero seeded form with coefficients of both signs."""
    while True:
        f = MultiPoly.from_terms(nvars, [
            (rng.choice([-1, 1]) * rng.randint(1, 5), exps)
            for exps in itertools.product(range(degree + 1), repeat=nvars)
            if sum(exps) == degree and rng.random() < 0.5])
        if not f.is_zero():
            return f


@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_gcd_matches_the_expression_oracle_on_planted_factors(
        monkeypatch, nvars):
    """poly_gcd equals the expression-built sympy gcd on seeded pairs
    a*g*m, b*g*m' with a planted factor g and monomials m, m' that share
    a factor on some pairs.  A planted g of degree 0, or a monomial g, is
    decided by the certificate; three or more pairs reach sympy."""
    fallback = []
    sympy_gcd = polynomials._sympy_gcd

    def counting(p, q):
        fallback.append(1)
        return sympy_gcd(p, q)

    monkeypatch.setattr(polynomials, "_sympy_gcd", counting)
    rng = random.Random(2700 + nvars)
    shared = 0
    for _ in range(10):
        g = _signed_form(rng, nvars, rng.randint(0, 2))
        p, q = (poly_mul(_signed_form(rng, nvars, rng.randint(1, 2)), g)
                for _ in range(2))
        if rng.random() < 0.5:
            m = [rng.randint(0, 2) for _ in range(nvars)]
            p = poly_mul(p, MultiPoly.monomial(nvars, 1, m))
            q = poly_mul(q, MultiPoly.monomial(nvars, 1, [
                e + rng.randint(0, 1) for e in m]))
            shared += any(m)
        d = poly_gcd(p, q)
        assert d == sympy_gcd_oracle(p, q)
        assert poly_divmod_exact(d, poly_primitive_part(g)) is not None
    assert shared and len(fallback) >= 3


def test_sympy_gcd_builds_no_expression(monkeypatch):
    """_sympy_gcd hands sympy term maps: not one sympy sum is flattened,
    even with sympy's cache cleared."""
    import sympy
    from sympy.core.add import Add

    names = ["x", "y", "z"]
    common = parse_poly("x^2 - 3*y*z + z^2", names)
    p = poly_mul(common, parse_poly("x + 2*y", names))
    q = poly_mul(common, parse_poly("y - z", names))
    flatten = Add.flatten.__func__
    calls = []

    def spy(cls, seq):
        calls.append(len(seq))
        return flatten(cls, seq)

    sympy.core.cache.clear_cache()
    monkeypatch.setattr(Add, "flatten", classmethod(spy))
    g = polynomials._sympy_gcd(p, q)
    assert calls == []
    assert poly_primitive_part(g) == common


def _form_in(rng, nvars, degree, variables):
    """A seeded form of the given degree in two or more given variables,
    with pure powers of the first and the last of them, so it involves
    both and no variable divides it."""
    combos = list(itertools.combinations_with_replacement(variables, degree))
    terms = [(rng.choice([-2, -1, 1, 2]),
              [picks.count(i) for i in range(nvars)])
             for picks in (combos[0], combos[-1])]
    for picks in combos[1:-1]:
        if rng.random() < 0.5:
            terms.append((rng.randint(-3, 3),
                          [picks.count(i) for i in range(nvars)]))
    return MultiPoly.from_terms(nvars, terms)


@pytest.mark.parametrize("nvars", [3, 4])
def test_gcd_planted_factors_next_to_the_last_variable(nvars):
    """The coprime certificate checks every variable but the last; a
    common factor in one other variable and the last one, such as
    x_2 + 2 x_3 in 4 variables, must still be found."""
    rng = random.Random(1300 + nvars)
    last = nvars - 1
    everything = list(range(nvars))
    for i in range(last):
        for _ in range(3):
            g = _form_in(rng, nvars, rng.randint(1, 2), [i, last])
            if rng.random() < 0.5:
                g = poly_mul(g, _form_in(rng, nvars, 1, [last, i]))
            a = _form_in(rng, nvars, rng.randint(1, 2), everything)
            b = _form_in(rng, nvars, rng.randint(1, 2), everything[::-1])
            p, q = poly_mul(a, g), poly_mul(b, g)
            d = poly_gcd(p, q)
            assert d == sympy_gcd_oracle(p, q)
            assert poly_divmod_exact(d, poly_primitive_part(g)) is not None


@pytest.mark.parametrize("nvars", [3, 4])
def test_gcd_of_forms_sharing_only_the_last_variable(nvars):
    """Forms whose only shared variable is the last one are coprime, up to
    a common pure power of the last variable, which is monomial content."""
    rng = random.Random(1400 + nvars)
    last = nvars - 1
    one = MultiPoly.constant(nvars, 1)
    for _ in range(12):
        left = rng.sample(range(last), rng.randint(1, last - 1))
        right = [v for v in range(last) if v not in left]
        p = _form_in(rng, nvars, rng.randint(1, 3), left + [last])
        q = _form_in(rng, nvars, rng.randint(1, 3), right + [last])
        assert poly_gcd(p, q) == one == sympy_gcd_oracle(p, q)
        j, k = rng.randint(1, 3), rng.randint(1, 3)
        pj = poly_mul(p, MultiPoly.monomial(nvars, 1, [0] * last + [j]))
        qk = poly_mul(q, MultiPoly.monomial(nvars, 1, [0] * last + [k]))
        power = MultiPoly.monomial(nvars, 1, [0] * last + [min(j, k)])
        assert poly_gcd(pj, qk) == power == sympy_gcd_oracle(pj, qk)


def schoolbook_fp_gcd(a, b, prime):
    """Test-local oracle: a gcd over F_prime of two coefficient lists
    (lowest power first), by schoolbook Euclid, as a list with a nonzero
    last entry; empty when both vanish."""
    def trim(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    a = trim([x % prime for x in a])
    b = trim([x % prime for x in b])
    while b:
        while len(a) >= len(b):
            f = a[-1] * pow(b[-1], prime - 2, prime) % prime
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - f * c) % prime
            trim(a)
        a, b = b, a
    return a


def schoolbook_fp_gcd_degree(a, b, prime):
    """The degree of schoolbook_fp_gcd; -1 when both vanish."""
    return len(schoolbook_fp_gcd(a, b, prime)) - 1


def list_product(a, b, modulus=None):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % modulus for c in out] if modulus else out


def test_certificate_euclid_matches_schoolbook_fp_gcd():
    """On binary forms the certificate's one Euclid runs on the
    coefficients mod the prime (the last variable is set to 1), so its
    verdict is exactly: the lead survives and the F_p gcd is constant."""
    prime = polynomials._CERT_PRIME
    rng = random.Random(1717)
    verdicts = collections.Counter()
    for trial in range(300):
        kind = trial % 3
        da, db = rng.randint(1, 8), rng.randint(1, 8)
        if kind == 0:
            # random residues and big integers
            a = [rng.randrange(-prime, 3 * prime) for _ in range(da + 1)]
            b = [rng.randrange(-(1 << 80), 1 << 80) for _ in range(db + 1)]
        else:
            # a common factor planted mod the prime (kind 1) or over Z
            modulus = prime if kind == 1 else None
            low, high = (0, prime - 1) if modulus else (-3, 3)

            def digits(k):
                return [rng.randint(low, high) for _ in range(k)]
            g = digits(rng.randint(2, 4))
            a = list_product(digits(da), g, modulus)
            b = list_product(digits(db), g, modulus)
        if a[0] == 0 or a[-1] == 0 or b[0] == 0 or b[-1] == 0:
            continue  # a variable would divide the form
        p = MultiPoly.from_terms(2, [(c, (k, len(a) - 1 - k))
                                     for k, c in enumerate(a)])
        q = MultiPoly.from_terms(2, [(c, (k, len(b) - 1 - k))
                                     for k, c in enumerate(b)])
        want = a[-1] % prime != 0 and \
            schoolbook_fp_gcd_degree(a, b, prime) == 0
        got = polynomials._coprime_certificate(p, q)
        assert got == want
        verdicts[kind, got] += 1
    assert verdicts[0, True] >= 50 and verdicts[1, False] >= 50
    assert verdicts[2, False] >= 30


def packed_residues(residues, rng):
    """The residues as a packed form mod the certificate prime, each slot
    any value below 2^32 with its residue: r, r + p or r + 2p."""
    prime = polynomials._CERT_PRIME
    size = polynomials._SLOT // 8
    return int.from_bytes(b"".join(
        (r + prime * rng.randint(0, ((1 << 32) - 1 - r) // prime)).to_bytes(
            size, "little") for r in residues), "little")


def monic_residues(coeffs):
    """A coefficient list mod the prime, trimmed and scaled to lead 1."""
    prime = polynomials._CERT_PRIME
    coeffs = [c % prime for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    inv = pow(coeffs[-1], -1, prime) if coeffs else 0
    return [c * inv % prime for c in coeffs]


def unpacked(v):
    """The slots of a packed form, lowest first."""
    size = polynomials._SLOT // 8
    raw = v.to_bytes((v.bit_length() // (8 * size) + 1) * size, "little")
    return [int.from_bytes(raw[i:i + size], "little")
            for i in range(0, len(raw), size)]


def test_packed_fp_gcd_matches_schoolbook():
    """fp_gcd on packed forms finds the gcd of the list Euclid, up to a
    unit: on random residues, on planted common factors of small and of
    nearly full degree up to D = 2^12, and with slots that read exactly
    p, 2p or p + r, top slots among them."""
    prime = polynomials._CERT_PRIME
    rng = random.Random(3131)
    degrees = collections.Counter()

    def digits(k):
        out = [rng.randrange(prime) for _ in range(k)]
        return out + [rng.randrange(1, prime)]

    for trial in range(150):
        kind = trial % 5
        if kind == 0:
            a, b = digits(rng.randint(0, 96)), digits(rng.randint(0, 96))
        elif kind in (1, 2):
            g = digits(rng.randint(1, 12) if kind == 1 else
                       rng.randint(40, 120))
            a = list_product(digits(rng.randint(0, 40)), g, prime)
            b = list_product(digits(rng.randint(0, 40)), g, prime)
        elif kind == 3:
            g = digits(rng.choice([64, 512, 4096]) - rng.randint(0, 8))
            a = list_product(digits(rng.randint(0, 6)), g, prime)
            b = list_product(digits(rng.randint(0, 6)), g, prime)
        else:
            # zero residues inside and on top, and zero forms
            a, b = digits(rng.randint(0, 30)), digits(rng.randint(0, 30))
            for c in (a, b):
                for i in rng.sample(range(len(c)), len(c) // 3):
                    c[i] = 0
                c += [0] * rng.randint(0, 3)
            if trial % 15 == 4:
                a = [0] * rng.randint(0, 3)
        want = schoolbook_fp_gcd(a, b, prime)
        got = polynomials.fp_gcd(packed_residues(a, rng),
                                 packed_residues(b, rng))
        assert got < 1 << (polynomials._SLOT * len(want))
        assert monic_residues(unpacked(got)) == monic_residues(want)
        degrees[kind, len(want) > 1] += 1
    assert degrees[0, False] >= 25 and degrees[4, False] >= 20
    assert degrees[1, True] == degrees[2, True] == degrees[3, True] == 30
    assert polynomials.fp_gcd(0, 0) == 0


def binary_coeffs(p):
    """Coefficients [a_0, ..., a_d] of a binary form of degree d, where a_k
    multiplies x^k y^(d-k): the dehomogenization p(t, 1), lowest power
    first."""
    out = [0] * (p.degree + 1)
    for key, c in p.terms.items():
        out[key >> polynomials._SHIFT] = c
    return out


def composing_line_oracle(forms, nmax):
    """Test-local oracle of line_certificate's verdicts at n = 1..nmax, by
    the composing path: G_n = F(G_(n-1)) by poly_compose on the line
    s a + t b, coefficients taken mod the prime in term maps, and the
    gcd of their coefficient lists by schoolbook Euclid."""
    prime = polynomials._CERT_PRIME
    d = max(p.degree for p in forms)
    line = [MultiPoly.from_terms(2, [(x, (1, 0)), (y, (0, 1))])
            for x, y in zip(*polynomials._cert_points(len(forms)))]
    verdicts, ok = [], True
    for n in range(1, nmax + 1):
        line = [MultiPoly.from_terms(2, [(c % prime, e) for e, c in g.items()])
                for g in poly_compose(forms, line)]
        if n > 1 and ok:
            coeffs = [binary_coeffs(g) or [0] * (d ** n + 1)
                      for g in line]
            j = next((j for j, c in enumerate(coeffs) if c[-1]), None)
            ok = j is not None
            if ok:
                gcd = coeffs[j]
                for other in coeffs[:j] + coeffs[j + 1:]:
                    if len(gcd) == 1:
                        break
                    gcd = schoolbook_fp_gcd(gcd, other, prime)
                ok = len(gcd) == 1
        verdicts.append(ok)
    return verdicts


def _sparse_forms(rng, nv, d, nterms):
    """nv random forms of degree d in nv variables, each with a number of
    terms drawn from the closed range nterms."""
    monos = [m for m in itertools.product(range(d + 1), repeat=nv)
             if sum(m) == d]
    return [MultiPoly.from_terms(nv, [
        (rng.choice([-3, -2, -1, 1, 2, 3]), m)
        for m in rng.sample(monos, rng.randint(*nterms))])
        for _ in range(nv)]


def _power_of(nv, d, k, c):
    """c x_k^d in nv variables."""
    return MultiPoly.from_terms(nv, [(c, [d * (i == k) for i in range(nv)])])


def test_line_certificate_matches_the_composing_oracle(monkeypatch):
    """On random sparse maps of P^2 (degree 2 and 3) and P^3 (degree 2)
    the packed line certificate gives the verdict of the composing path
    at every depth, also at depths past _LINE_CHECK_DEGREE, where it
    checks every n, and below them, where it checks n = 2 and nmax.

    Maps with a coordinate F_j = c x_j^d (P^2 of degree 2-4, P^3 of
    degree 2-3, j in every position) take the point path, which composes
    no form, and get the same verdicts.  Near misses compose: c x_k^d in
    position j != k, and c a multiple of the prime."""
    composed = []
    fp_compose = polynomials._fp_compose

    def counting(forms, line, nslots):
        composed.append(nslots)
        return fp_compose(forms, line, nslots)

    monkeypatch.setattr(polynomials, "_fp_compose", counting)
    rng = random.Random(4141)
    cases = []  # (forms, nmax, path): path None when either may run
    plans = [(3, 2, 5)] * 40 + [(3, 3, 3)] * 25 + [(4, 2, 4)] * 60
    plans += [(3, 3, 6)] * 5 + [(3, 2, 9)] * 3
    for nv, d, nmax in plans:
        cases.append((_sparse_forms(rng, nv, d, (1, 2)), nmax, None))
    rng = random.Random(4242)
    plans = [(3, 2, 5), (3, 3, 4), (3, 4, 3), (4, 2, 4), (4, 3, 3)] * 12
    prime = polynomials._CERT_PRIME
    for i, (nv, d, nmax) in enumerate(plans):
        j, c = i % nv, rng.choice([-3, -2, -1, 1, 2, 3])
        forms = _sparse_forms(rng, nv, d, (1, 2))
        forms[j] = _power_of(nv, d, j, c)
        cases.append((forms, nmax, "point"))
        if i % 3 == 0:
            forms = _sparse_forms(rng, nv, d, (2, 3))
            forms[j] = _power_of(nv, d, (j + 1 + i % (nv - 1)) % nv, c)
            cases.append((forms, nmax, "compose"))
            forms = _sparse_forms(rng, nv, d, (2, 3))
            forms[j] = _power_of(nv, d, j, c * prime)
            cases.append((forms, nmax, "compose"))
    verdicts, deep = collections.Counter(), collections.Counter()
    paths = collections.Counter()
    for forms, nmax, path in cases:
        try:
            f = RationalMapPN(forms)
        except ArithDynError:
            continue  # a constant map
        if f.degree < 2:
            continue
        want = composing_line_oracle(f.polys, nmax)
        for n in range(2, nmax + 1):
            composed.clear()
            got = polynomials.line_certificate(f.polys, n)
            assert got == want[n - 1], (f, n)
            if path is None:
                verdicts[f.dim + 1, got] += 1
                if composed and f.degree ** n >= \
                        polynomials._LINE_CHECK_DEGREE:
                    deep[got] += 1
            else:
                assert (composed == []) is (path == "point"), (f, n)
                paths[path, got] += 1
    assert sum(verdicts.values()) >= 300
    assert len(verdicts) == 4 and min(verdicts.values()) >= 30, verdicts
    assert len(deep) == 2 and min(deep.values()) >= 3, deep
    assert len(paths) == 4 and min(paths.values()) >= 10, paths


@pytest.mark.parametrize("nvars", [3, 4])
def test_certificate_refuses_planted_factors_next_to_the_last_variable(
        nvars):
    """A common factor in one variable and the last one, such as
    x_1 + 2 x_2 in 3 variables, is never certified away."""
    rng = random.Random(1800 + nvars)
    last = nvars - 1
    everything = list(range(nvars))
    for i in range(last):
        for _ in range(4):
            g = _form_in(rng, nvars, rng.randint(1, 3), [i, last])
            a = _form_in(rng, nvars, rng.randint(1, 2), everything)
            b = _form_in(rng, nvars, rng.randint(1, 2), everything[::-1])
            assert polynomials._coprime_certificate(poly_mul(a, g),
                                                    poly_mul(b, g)) is False


def test_certificate_refuses_a_lead_that_vanishes_mod_the_prime():
    """A lead in x that is a multiple of the prime vanishes over F_p, so
    the certificate answers unknown; poly_gcd still returns the exact gcd,
    with a coprime partner and with a planted common factor."""
    lead = parse_poly(f"{polynomials._CERT_PRIME}*x^2 + y^2", XY)
    g = parse_poly("x + 2*y", XY)
    for p, q, want in [
            (lead, parse_poly("x^2 - y^2", XY), "1"),
            (poly_mul(lead, g), poly_mul(parse_poly("x - 3*y", XY), g),
             "x + 2*y")]:
        assert polynomials._coprime_certificate(p, q) is False
        assert poly_gcd(p, q) == parse_poly(want, XY)


def test_degseq_maps_are_all_decided_by_the_certificate(monkeypatch):
    """Every gcd in the iterates of the maps whose degree sequences the
    benchmark times (20 random quadratic maps of P^2 from Random(2024),
    Cremona, two Henon maps and the power maps) is decided without sympy.
    The iterates are composed directly: degree_sequence composes none of
    the maps it certifies as morphisms."""
    def refuse(p, q):
        raise AssertionError("poly_gcd fell through to sympy")

    calls = []
    certificate = polynomials._coprime_certificate

    def counting(p, q):
        calls.append(len(p) + len(q))
        return certificate(p, q)

    monkeypatch.setattr(polynomials, "_sympy_gcd", refuse)
    monkeypatch.setattr(polynomials, "_coprime_certificate", counting)
    rng = random.Random(2024)
    quad_monos = [(2, 0, 0), (0, 2, 0), (0, 0, 2),
                  (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    maps = []
    while len(maps) < 20:
        polys = []
        for _ in range(3):
            monos = rng.sample(quad_monos, rng.randint(2, 4))
            polys.append(MultiPoly.from_terms(3, [
                (rng.choice([-3, -2, -1, 1, 2, 3]), m) for m in monos]))
        try:
            f = RationalMapPN(polys)
        except Exception:
            continue
        if f.degree == 2:
            maps.append((f, 5))
    xyz = ["x", "y", "z"]
    for polys in (["y*z", "x*z", "x*y"], ["y*z", "y^2+z^2-x*z", "z^2"],
                  ["y*z", "y^2-z^2-2*x*z", "z^2"]):
        maps.append((RationalMapPN.from_strings(polys, xyz), 6))
    for d in range(2, 10):
        maps.append((RationalMapPN.from_strings([f"x^{d}", f"y^{d}"], XY),
                     6))
    for f, n in maps:
        assert len(iterates(f, n)) == n
    assert len(calls) >= 100


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
    [composed] = poly_compose([p], [s0, s1])
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
    inner = poly_compose([f0, f1], [g0, g1])
    left = poly_compose(poly_compose([p], [f0, f1]), [g0, g1])
    right = poly_compose([p], inner)
    assert left == right


def _seeded_form(rng, nvars, degree):
    return MultiPoly.from_terms(nvars, [
        (rng.randint(-3, 3), exps)
        for exps in itertools.product(range(degree + 1), repeat=nvars)
        if sum(exps) == degree and rng.random() < 0.6])


def test_compose_of_polys_sharing_monomials_matches_eval():
    rng = random.Random(1010)
    points = [[Fraction(2, 3), Fraction(-1, 2), Fraction(5, 7)],
              [Fraction(-3, 4), Fraction(1, 5), Fraction(2)]]
    for trial in range(40):
        nv = rng.choice([2, 3])
        d = rng.randint(1, 2)
        subs = [_seeded_form(rng, nv, d) for _ in range(nv)]
        if trial % 4 == 0:
            subs[rng.randrange(nv)] = MultiPoly.zero(nv)
        polys = [MultiPoly.zero(nv)]
        for degree in rng.sample(range(5), 3):
            # two polys of one degree that share the terms of `common`
            common = list(_seeded_form(rng, nv, degree).items())
            for _ in range(2):
                extra = list(_seeded_form(rng, nv, degree).items())
                polys.append(MultiPoly.from_terms(
                    nv, [(c, e) for e, c in common + extra]))
        out = poly_compose(polys, subs)
        assert len(out) == len(polys)
        for p, composed in zip(polys, out):
            assert composed.is_zero() or composed.degree == p.degree * d
            for v in points:
                sv = [poly_eval(s, v[:nv]) for s in subs]
                assert poly_eval(composed, v[:nv]) == poly_eval(p, sv)
