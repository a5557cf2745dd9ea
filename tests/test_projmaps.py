import collections
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from arithdyn import cli, polynomials, projmaps, spectral
from arithdyn.degrees import canonical_height, p1_height_walk
from arithdyn.errors import (ArithDynError, ContractViolation,
                             IndeterminatePoint, NotAPoint,
                             ResourceCapExceeded)
from arithdyn.heights import (ProjPointQ, coordinate_gcd, normalize,
                              weil_height)
from arithdyn.polynomials import MultiPoly, parse_poly, poly_eval_int, poly_mul
from arithdyn.projmaps import (DegreeSequence, RationalMapPN,
                               compose_normalized, compose_raw,
                               degree_sequence, dyndeg_estimate,
                               map_certificate, map_evaluate, orbit,
                               parse_map_spec, serialize_map_spec,
                               sylvester_resultant)
from arithdyn.spectral import IntMat, bareiss, determinant


def M(polys, names=None, name=None):
    return RationalMapPN.from_strings(polys, names, name=name)


SQUARE = M(["x^2", "y^2"], ["x", "y"], name="square")
CREMONA = M(["y*z", "x*z", "x*y"], ["x", "y", "z"], name="cremona")
HENON = M(["y*z", "y^2+z^2-x*z", "z^2"], ["x", "y", "z"], name="henon")
# not algebraically stable: deg f^n < 2^n from n = 3 on
UNSTABLE = M(["x*z-z^2", "-2*y*z", "x*y-2*x*z"], ["x", "y", "z"])


def iterates(f, nmax):
    """[f, f^2, ..., f^nmax], each iterate left-composed with f: the
    oracle that degree_sequence's degrees are checked against."""
    chain = [f]
    while len(chain) < nmax:
        chain.append(compose_normalized(f, chain[-1]))
    return chain


# --- construction -----------------------------------------------------------

def test_constructor_reduces_common_factor():
    f = M(["x*y", "y^2"], ["x", "y"])
    assert f.polys == M(["x", "y"], ["x", "y"]).polys
    assert f.degree == 1


def test_constructor_rejects_constant_map():
    with pytest.raises(ContractViolation):
        M(["x^2", "x^2"], ["x", "y"])


def test_constructor_strips_content_and_sign():
    f = M(["-2*x^2", "-2*y^2"], ["x", "y"])
    assert f == SQUARE


# --- evaluation -------------------------------------------------------------

def test_evaluate_power_map():
    assert map_evaluate(SQUARE, normalize([2, 1])).coords == (4, 1)


def test_evaluate_cremona_indeterminate():
    with pytest.raises(IndeterminatePoint):
        map_evaluate(CREMONA, normalize([1, 0, 0]))


def test_evaluate_cremona_generic():
    assert map_evaluate(CREMONA, normalize([1, 2, 3])).coords == (6, 3, 2)


# --- composition ------------------------------------------------------------

def test_compose_powers_no_drop():
    ff = compose_normalized(SQUARE, SQUARE)
    assert ff == M(["x^4", "y^4"], ["x", "y"])
    assert ff.degree == 4


def test_compose_cremona_is_involution():
    raw = compose_raw(CREMONA, CREMONA)
    names = ["x", "y", "z"]
    assert raw[0] == parse_poly("x^2*y*z", names)
    sq = compose_normalized(CREMONA, CREMONA)
    assert sq == M(["x", "y", "z"], ["x", "y", "z"])
    assert sq.degree == 1


def test_left_right_composition_agree():
    rng = random.Random(11)
    monos = [(2, 0), (1, 1), (0, 2)]
    for _ in range(10):
        polys = []
        for _ in range(2):
            terms = [(rng.randint(-3, 3), m) for m in monos]
            p = MultiPoly.from_terms(2, terms)
            polys.append(p)
        try:
            f = RationalMapPN(polys)
        except (ContractViolation, ZeroDivisionError):
            continue
        f2 = compose_normalized(f, f)
        left = compose_normalized(f, f2)
        right = compose_normalized(f2, f)
        assert left == right


def test_evaluation_composition_compatibility():
    rng = random.Random(5)
    monos = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    tested = 0
    while tested < 12:
        polys = []
        for _ in range(3):
            sel = rng.sample(monos, rng.randint(2, 4))
            polys.append(MultiPoly.from_terms(
                3, [(rng.choice([-2, -1, 1, 2]), m) for m in sel]))
        try:
            f = RationalMapPN(polys)
            g = RationalMapPN([p for p in reversed(polys)])
        except ContractViolation:
            continue
        pt = normalize([rng.randint(1, 5), rng.randint(1, 5),
                        rng.randint(1, 5)])
        raw = compose_raw(g, f)
        from arithdyn.polynomials import gcd_many
        dropped = gcd_many(raw)
        if poly_eval_int(dropped, pt.coords) == 0:
            continue  # only the non-vanishing-gcd branch is claimed
        try:
            via_compose = map_evaluate(compose_normalized(g, f), pt)
            via_steps = map_evaluate(g, map_evaluate(f, pt))
        except IndeterminatePoint:
            continue
        assert via_compose == via_steps
        tested += 1


# --- degree sequences -------------------------------------------------------

def test_degree_sequence_power_map():
    assert degree_sequence(SQUARE, 5).degs == (2, 4, 8, 16, 32)


def test_degree_sequence_cremona():
    assert degree_sequence(CREMONA, 4).degs == (2, 1, 2, 1)


def test_degree_sequence_henon():
    assert degree_sequence(HENON, 4).degs == (2, 4, 8, 16)


def test_degree_sequence_truncates_at_cap(monkeypatch):
    monkeypatch.setattr(projmaps, "_MAX_TERMS", 3)
    seq = degree_sequence(UNSTABLE, 6)
    assert seq.truncated and len(seq.degs) < 6


def test_submultiplicativity_small_random_sample():
    rng = random.Random(77)
    monos = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    built = 0
    while built < 5:
        polys = []
        for _ in range(3):
            sel = rng.sample(monos, rng.randint(2, 4))
            polys.append(MultiPoly.from_terms(
                3, [(rng.choice([-2, -1, 1, 2]), m) for m in sel]))
        try:
            f = RationalMapPN(polys)
        except ContractViolation:
            continue
        if f.degree != 2:
            continue
        degs = degree_sequence(f, 4).degs
        for m in range(1, len(degs) + 1):
            for n in range(m, len(degs) - m + 1):
                assert degs[m + n - 1] <= degs[m - 1] * degs[n - 1]
        built += 1


# --- dynamical degree estimates ---------------------------------------------

def test_dyndeg_power_map():
    est = dyndeg_estimate(degree_sequence(SQUARE, 4))
    assert est.upper_bounds == (2.0, 2.0, 2.0, 2.0)
    assert est.ratio_estimate == 2.0
    assert est.certified and est.certified_upper == 2.0


def test_dyndeg_cremona_certified_one():
    est = dyndeg_estimate(degree_sequence(CREMONA, 4))
    assert est.certified and est.certified_upper == 1.0
    assert est.upper_bounds[0] == 2.0 and est.upper_bounds[1] == 1.0


@pytest.mark.parametrize("d", range(2, 10))
def test_dyndeg_bounds_never_undercut_the_degree(d):
    # d^n ** (1/n) rounds to nearest and fell below d for d = 4..9
    f = M([f"x^{d}", f"y^{d}"], ["x", "y"])
    est = dyndeg_estimate(degree_sequence(f, 7))
    assert est.upper_bounds == (float(d),) * 7
    assert est.certified_upper == d


def test_dyndeg_bounds_are_least_floats_above_the_roots():
    est = dyndeg_estimate(DegreeSequence((3, 7, 20, 50, 130)))
    for n, (b, d) in enumerate(zip(est.upper_bounds, (3, 7, 20, 50, 130)),
                               start=1):
        assert Fraction(b) ** n >= d
        assert Fraction(math.nextafter(b, 0.0)) ** n < d


def test_degree_sequence_truncates_before_exponent_overflow():
    # exponents are packed into 24-bit fields; f^24 of the square map
    # would need 2^24 and used to wrap around to a wrong map
    seq = degree_sequence(SQUARE, 30)
    assert seq.truncated
    assert seq.degs == tuple(2 ** n for n in range(1, 24))


def _certified_maps():
    """Random(22): 20 maps of P^1 of degree 2-4 with coefficients up to
    10^40, and the power maps of P^1-P^3 of degree 2-4 with random signs
    and a random permutation of the variables."""
    rng = random.Random(22)
    p1 = []
    while len(p1) < 20:
        d = rng.randint(2, 4)
        top = 10 ** rng.randint(1, 40)
        forms = [MultiPoly.from_terms(2, [(rng.randint(-top, top), (i, d - i))
                                          for i in range(d + 1)])
                 for _ in range(2)]
        try:
            f = RationalMapPN(forms)
        except ArithDynError:
            continue
        if f.degree == d:
            p1.append(f)
    powers = []
    for dim in (1, 2, 3):
        for d in (2, 3, 4):
            targets = rng.sample(range(dim + 1), dim + 1)
            powers.append(RationalMapPN([
                MultiPoly.monomial(dim + 1, rng.choice((1, -1)),
                                   [d * (j == t) for j in range(dim + 1)])
                for t in targets]))
    return p1, powers


def test_dyndeg_takes_certified_degrees_without_composing(capsys, monkeypatch,
                                                          tmp_path):
    def refuse(g, f):
        raise AssertionError("a map with a certificate was composed")

    def no_elimination(f):
        raise AssertionError("a power map went through the elimination")

    monkeypatch.setattr(projmaps, "compose_normalized", refuse)
    p1, powers = _certified_maps()
    pn = _pn_morphisms()
    macaulay, cap = projmaps._macaulay, projmaps._MAX_LIFT_COST
    # a power map takes its identity R x_i^D = sum_j G_ij F_j from its
    # shape: R = 1, with every cofactor +-1
    monkeypatch.setattr(projmaps, "_macaulay", no_elimination)
    map_certificate.cache_clear()
    try:
        for f in powers:
            n, d = f.dim, f.degree
            cert = map_certificate(f)
            assert cert.power and cert.morphism and cert.res == 1
            assert cert.up == math.comb(d + n, n)
            assert cert.low == (n + 1) * math.comb(n * d, n)
            # the elimination lifts the same record, except on the power
            # maps of P^3 of degree 3 and 4, which are over the lift cap
            if (n, d) not in ((3, 3), (3, 4)):
                assert macaulay(f) == (True, cert.res, cert.low)
        # over the lift cap the other maps still lift no identity
        monkeypatch.setattr(projmaps, "_macaulay", macaulay)
        monkeypatch.setattr(projmaps, "_MAX_LIFT_COST", 0)
        for f in (p1[0], pn[0]):
            assert map_certificate(f).morphism
            assert map_certificate(f).res == 0
    finally:
        monkeypatch.setattr(projmaps, "_MAX_LIFT_COST", cap)
        map_certificate.cache_clear()
    spec = tmp_path / "map.json"
    for f in p1 + powers + pn:
        cert = map_certificate(f)
        # every morphism here carries an identity
        assert cert.morphism and cert.res != 0
        assert cert.northcott == (1 if cert.power else max(cert.up, cert.low))
        projmaps.write_map_spec(f, spec)
        assert cli.main(["dyndeg", "--map", str(spec), "--n", "40"]) == 3
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split(",") for line in lines[1:]
                if not line.startswith("#")]
        d = f.degree
        want = list(itertools.takewhile(lambda e: e <= 2 ** 24 - 1,
                                        (d ** n for n in range(1, 41))))
        assert [(int(r[0]), int(r[1])) for r in rows] == \
            list(enumerate(want, start=1))
        assert "# sequence truncated by resource caps" in lines


def test_certified_degrees_match_composed_iterates(monkeypatch):
    calls = []

    def counting(g, f):
        calls.append(g)
        return compose_normalized(g, f)

    p1, powers = _certified_maps()
    henon2 = M(["y*z", "y^2-z^2-2*x*z", "z^2"], ["x", "y", "z"])
    # iterates of degree at most 81 keep the composed side short
    cases = [(f, {2: 6, 3: 4, 4: 3}[f.degree], 0) for f in p1 + powers]
    # Cremona stops at f^2, the identity; the Henon maps take d^n from
    # the line certificate
    cases += [(CREMONA, 6, 1), (HENON, 6, 0), (henon2, 6, 0)]
    wants = [tuple(g.degree for g in iterates(f, n)) for f, n, _ in cases]
    monkeypatch.setattr(projmaps, "compose_normalized", counting)
    for (f, n, composed), want in zip(cases, wants):
        calls.clear()
        assert degree_sequence(f, n).degs == want
        assert len(calls) == composed


def _pn_morphisms():
    """Random(23): morphisms of P^2 of degree 2-4 and of P^3 of degree 2
    with coefficients up to 10^40, each F_j = c_j x_j^d + (a form in the
    later variables) with c_j != 0, so F = 0 forces x = 0, composed with a
    unimodular change of variables; and [x^2+y^2 : y^2+z^2 : z^2+x^2]."""
    rng = random.Random(23)
    maps = [M(["x^2+y^2", "y^2+z^2", "z^2+x^2"], ["x", "y", "z"])]
    for nv, d in ((3, 2), (3, 3), (3, 4), (4, 2)):
        polys = []
        for j in range(nv):
            top = 10 ** rng.randint(1, 40)
            terms = [(rng.randint(1, top) * rng.choice((1, -1)),
                      [d * (i == j) for i in range(nv)])]
            for exps in itertools.product(range(d + 1), repeat=nv - j - 1):
                if sum(exps) == d:
                    terms.append((rng.randint(-top, top), (0,) * (j + 1) +
                                  exps))
            polys.append(MultiPoly.from_terms(nv, terms))
        units = [[int(i == j) for i in range(nv)] for j in range(nv)]
        rows = [list(u) for u in units]
        for _ in range(3):
            i, j = rng.sample(range(nv), 2)
            k = rng.choice((1, -1, 2))
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        subs = RationalMapPN([MultiPoly.from_terms(nv, zip(row, units))
                              for row in rows])
        maps.append(RationalMapPN(compose_raw(RationalMapPN(polys), subs)))
    return maps


def groebner_morphism_oracle(f):
    """The coordinates have no common zero but 0 exactly when the ideal
    they span contains a power of every variable, that is, when a grevlex
    Groebner basis has a pure power of each variable as a leading
    monomial.  sympy computes the basis over Q."""
    import sympy

    syms = sympy.symbols(f"t0:{f.dim + 1}")
    forms = [sympy.Add(*(c * sympy.Mul(*(s ** e for s, e in zip(syms, exps)))
                         for exps, c in p.items()))
             for p in f.polys if not p.is_zero()]
    basis = sympy.groebner(forms, *syms, order="grevlex")
    leads = [sympy.Poly(g, *syms).monoms(order="grevlex")[0]
             for g in basis.exprs]
    return all(any(m[i] == sum(m) > 0 for m in leads)
               for i in range(len(syms)))


def _random_pn_maps():
    """Random(24): eight maps for each of P^2 of degree 2, 3 and 4 and P^3
    of degree 2, each form a sum of 2-6 random monomials with coefficients
    in [-3, 3]; the sparse forms make both verdicts common."""
    rng = random.Random(24)
    maps = []
    for nv, d in ((3, 2), (3, 3), (3, 4), (4, 2)):
        monos = [e for e in itertools.product(range(d + 1), repeat=nv)
                 if sum(e) == d]
        built = 0
        while built < 8:
            forms = [MultiPoly.from_terms(nv, [
                (rng.randint(-3, 3), m)
                for m in rng.sample(monos, min(len(monos),
                                               rng.randint(2, 6)))])
                for _ in range(nv)]
            try:
                f = RationalMapPN(forms)
            except ArithDynError:
                continue
            if f.degree == d:
                maps.append(f)
                built += 1
    return maps


def test_pn_morphisms_take_d_to_the_n_without_composing(monkeypatch):
    calls = []

    def counting(g, f):
        calls.append(g)
        return compose_normalized(g, f)

    # the other maps compose in degree_sequence as in iterates, and a few
    # of them take seconds there, so only the morphisms are composed here
    cases = [(f, 4 if (f.dim, f.degree) == (2, 2) else 3)
             for f in _random_pn_maps() if map_certificate(f).morphism]
    wants = [tuple(g.degree for g in iterates(f, n)) for f, n in cases]
    monkeypatch.setattr(projmaps, "compose_normalized", counting)
    for (f, n), want in zip(cases, wants):
        assert degree_sequence(f, n).degs == want == tuple(
            f.degree ** k for k in range(1, n + 1))
    assert calls == [] and len(cases) >= 10
    assert {(f.dim, f.degree) for f, _ in cases} == {(2, 2), (2, 3), (2, 4),
                                                     (3, 2)}


def test_morphism_flag_matches_groebner_oracle():
    seen = collections.Counter()
    for f in _random_pn_maps():
        morphism = map_certificate(f).morphism
        assert morphism is groebner_morphism_oracle(f)
        seen[f.dim, f.degree, morphism] += 1
    # each dimension and degree meets both verdicts
    assert {(n, d, v) for n, d in ((2, 2), (2, 3), (2, 4), (3, 2))
            for v in (False, True)} <= set(seen)


def test_pn_orbit_gcds_divide_the_lifted_resultant():
    # Random(27): orbits of 4 steps from 6 seeded start points on each
    # certified morphism of _pn_morphisms and _random_pn_maps
    rng = random.Random(27)
    steps = 0
    gcds = collections.Counter()
    for f in _pn_morphisms() + _random_pn_maps():
        if not map_certificate(f).morphism:
            continue
        res = map_certificate(f).res
        assert res != 0
        for _ in range(6):
            start = normalize([rng.randint(-20, 20) for _ in range(f.dim)] +
                              [rng.randint(1, 20)])
            rec = orbit(f, start, 4)
            chain = [start]
            for q in rec.points[1:]:
                values = [poly_eval_int(p, chain[-1].coords) for p in f.polys]
                g = math.gcd(*values)
                assert res % g == 0
                gcds[g > 1] += 1
                chain.append(map_evaluate(f, chain[-1]))
                steps += 1
            assert rec.points == tuple(chain)
    # 408 steps, 85 of them with a gcd above 1
    assert steps >= 400 and gcds[True] >= 50


def test_planted_common_zeros_are_not_certified():
    rng = random.Random(25)
    xyz = ["x", "y", "z"]
    planted = [M(["x^2+y^2", "0", "z^2"], xyz)]
    for d in (2, 3, 4):
        monos = [(i, j, d - i - j) for i in range(d + 1)
                 for j in range(d + 1 - i)]
        forms = [[(rng.randint(-9, 9), m) for m in monos] for _ in range(3)]
        base = RationalMapPN([MultiPoly.from_terms(3, t) for t in forms])
        assert map_certificate(base).morphism  # generic forms: a morphism
        zd = (0, 0, d)
        # subtract F_j(1,1,1) z^d: a common zero at (1:1:1)
        at_one = [t + [(-sum(c for c, _ in t), zd)] for t in forms]
        # drop the z^d terms: a common zero at (0:0:1)
        at_pole = [[(c, m) for c, m in t if m != zd] for t in forms]
        planted += [RationalMapPN([MultiPoly.from_terms(3, t) for t in ts])
                    for ts in (at_one, at_pole)]
    for f in planted:
        assert f.dim == 2 and not map_certificate(f).morphism
        assert not groebner_morphism_oracle(f)


def test_macaulay_matrix_over_the_cap_is_not_tried(monkeypatch):
    # the Macaulay matrix of a quadratic map of P^2 is 18 x 15
    f = M(["x^2+y^2", "y^2+z^2", "z^2+x^2"], ["x", "y", "z"])
    try:
        for cap, morphism in ((18 * 15 - 1, False), (18 * 15, True)):
            monkeypatch.setattr(projmaps, "_MAX_MACAULAY_ENTRIES", cap)
            map_certificate.cache_clear()
            assert map_certificate(f).morphism is morphism
        # over the lift cap the rank pass alone certifies the morphism,
        # on the square matrix of P^1 too, and no identity is lifted
        monkeypatch.setattr(projmaps, "_MAX_LIFT_COST", 0)
        sumsq = M(["x^2+y^2", "x*y"])
        for g in (f, sumsq):
            map_certificate.cache_clear()
            cert = map_certificate(g)
            assert cert.morphism and (cert.res, cert.up, cert.low) == (0,) * 3
        assert map_certificate(f).northcott is None
        assert [q.coords for q in orbit(f, normalize([2, 1, 1]), 3).points] \
            == [(2, 1, 1), (5, 2, 5), (29, 29, 50), (1682, 3341, 3341)]
        with pytest.raises(ResourceCapExceeded):
            canonical_height(sumsq, normalize([2, 1]), 2)
        with pytest.raises(ResourceCapExceeded):
            p1_height_walk(sumsq, normalize([2, 1]), 2)
    finally:
        map_certificate.cache_clear()


def _random_non_morphisms():
    """Random(26): eight maps each of P^2 of degree 2 and 3 and of P^3 of
    degree 2 that map_certificate does not certify as morphisms, forms of
    2-6 random monomials with coefficients in [-3, 3]; and Henon maps
    [y z^(d-1) : y^d + c z^d - a x z^(d-1) : z^d] of degree 2 and 3."""
    rng = random.Random(26)
    maps = []
    for nv, d in ((3, 2), (3, 3), (4, 2)):
        monos = [e for e in itertools.product(range(d + 1), repeat=nv)
                 if sum(e) == d]
        built = 0
        while built < 8:
            forms = [MultiPoly.from_terms(nv, [
                (rng.randint(-3, 3), m)
                for m in rng.sample(monos, rng.randint(2, 6))])
                for _ in range(nv)]
            try:
                f = RationalMapPN(forms)
            except ArithDynError:
                continue
            if f.degree == d and not map_certificate(f).morphism:
                maps.append(f)
                built += 1
    for d in (2, 3):
        for a, c in ((1, 1), (2, -1), (-5, 7)):
            maps.append(M([f"y*z^{d - 1}", f"y^{d}+{c}*z^{d}-{a}*x*z^{d - 1}",
                           f"z^{d}"], ["x", "y", "z"]))
    return maps


def _counting_spy(monkeypatch):
    calls = []

    def counting(g, f):
        calls.append(g)
        return compose_normalized(g, f)

    monkeypatch.setattr(projmaps, "compose_normalized", counting)
    return calls


def test_stable_maps_take_d_to_the_n_from_a_line(monkeypatch):
    # depths keep d^n at most 64 and the composed side short
    cases = [(f, {(2, 2): 4, (2, 3): 3, (3, 2): 3}[f.dim, f.degree])
             for f in _random_non_morphisms()]
    wants = [tuple(g.degree for g in iterates(f, n)) for f, n in cases]
    calls = _counting_spy(monkeypatch)
    stable = collections.Counter()
    for (f, n), want in zip(cases, wants):
        calls.clear()
        assert degree_sequence(f, n).degs == want
        full = want == tuple(f.degree ** k for k in range(1, n + 1))
        # every map without a drop is certified, and none composes
        assert (calls == []) is full
        stable[f.dim, f.degree] += full
    assert stable == {(2, 2): 11, (2, 3): 9, (3, 2): 8}


def test_maps_that_are_not_stable_fall_back_to_composing(monkeypatch):
    xyz = ["x", "y", "z"]
    cases = [(CREMONA, (2, 1, 2, 1)),
             (UNSTABLE, (2, 4, 7, 12, 21)),
             (M(["2*x*z+2*z^2", "x^2", "2*x*y+2*y*z"], xyz),
              (2, 3, 5, 8, 12))]
    for f, want in cases:
        assert not polynomials.line_certificate(f.polys, len(want))
        assert tuple(g.degree for g in iterates(f, len(want))) == want
        assert degree_sequence(f, len(want)).degs == want


@pytest.mark.parametrize("f, n, want, planted", [
    # f^2 = (x + z) [...]: a = (r, s, -r) vanishes on x + z
    (M(["2*x*z+2*z^2", "x^2", "2*x*y+2*y*z"], ["x", "y", "z"]), 2, (2, 3),
     lambda r, s: (r, s, -r)),
    # f^3 = z [...]: a = (r, s, 0) vanishes on z
    (UNSTABLE, 3, (2, 4, 7), lambda r, s: (r, s, 0)),
], ids=["x+z", "z"])
def test_line_through_a_common_zero_is_not_certified(monkeypatch, f, n, want,
                                                     planted):
    # with a on the common factor H, H(s a + t b) = t H(b) is constant in
    # s, and only the lost s^D coefficient shows the factor
    a, b = polynomials._cert_points(3)
    a = [c % polynomials._CERT_PRIME for c in planted(*a[:2])]
    monkeypatch.setattr(polynomials, "_cert_points", lambda nv: (a, b))
    assert not polynomials.line_certificate(f.polys, n)
    assert degree_sequence(f, n).degs == want


def test_line_certificate_runs_to_the_exponent_limit(monkeypatch):
    # the Henon map passes d^n = 2^10 at n = 11 and still composes nothing
    calls = _counting_spy(monkeypatch)
    assert degree_sequence(HENON, 10).degs == tuple(2 ** n
                                                    for n in range(1, 11))
    assert calls == []

    def no_composition(g, f):
        raise AssertionError("an iterate was composed")

    monkeypatch.setattr(projmaps, "compose_normalized", no_composition)
    seq = degree_sequence(HENON, 11)
    assert seq.degs == tuple(2 ** n for n in range(1, 12))
    assert not seq.truncated
    # the line stops where the exponent fields stop: 2^5 > 2^5 - 1
    monkeypatch.setattr(projmaps, "_MASK", 2 ** 5 - 1)
    seq = degree_sequence(HENON, 40)
    assert seq.degs == (2, 4, 8, 16) and seq.truncated
    # deg f^3 = 7 < 8: the line fails at n = 3 whatever nmax asks for
    composed = []
    fp_compose = polynomials._fp_compose

    def counting(forms, line, nslots):
        composed.append(nslots)
        return fp_compose(forms, line, nslots)

    monkeypatch.setattr(polynomials, "_fp_compose", counting)
    assert not polynomials.line_certificate(UNSTABLE.polys, 20)
    assert len(composed) <= 3


def test_a_linear_iterate_ends_composition(monkeypatch):
    # Cremona and a conjugate of it are involutions: f^2 is linear and
    # invertible, so deg f^n alternates and f is composed once
    swap = M(["x+y", "y", "z"], ["x", "y", "z"])
    back = M(["x-y", "y", "z"], ["x", "y", "z"])
    conj = RationalMapPN(compose_raw(back, RationalMapPN(
        compose_raw(CREMONA, swap))))
    calls = _counting_spy(monkeypatch)
    for f in (CREMONA, conj):
        calls.clear()
        assert degree_sequence(f, 50).degs == (2, 1) * 25
        assert len(calls) == 1


def test_degree_sequences_stop_at_500_terms():
    # bounded degrees would run to any length, and the bounds of
    # dyndeg_estimate cost time quadratic in it
    t0 = time.perf_counter()
    seq = degree_sequence(CREMONA, 10 ** 5)
    assert time.perf_counter() - t0 < 1
    assert seq.truncated and seq.degs == (2, 1) * 250
    linear = M(["x+y", "y"], ["x", "y"])
    assert degree_sequence(linear, 500) == DegreeSequence((1,) * 500)
    assert degree_sequence(linear, 501) == DegreeSequence((1,) * 500, True)


def test_composed_sequence_stops_at_the_exponent_limit(monkeypatch):
    # [x^2 : yz : xy] realizes the exponent matrix [[1, 1], [1, 0]]: no
    # certificate applies, every iterate is composed, and deg f^n is the
    # Fibonacci number F_(n+2).  f o f^33 has raw degree 2 F_35 =
    # 18454930 > 2^24 - 1, past a packed exponent field, so composing it
    # raises and the sequence stops at f^33
    from arithdyn.monomial import (MonomialMap, mon_dyndeg,
                                   monomial_to_projective)

    m = MonomialMap(IntMat(((1, 1), (1, 0))))
    f = monomial_to_projective(m)
    assert f == M(["x^2", "y*z", "x*y"], ["x", "y", "z"])
    raised = []

    def spy(g, h):
        try:
            return compose_normalized(g, h)
        except ResourceCapExceeded:
            raised.append(h.degree)
            raise

    monkeypatch.setattr(projmaps, "compose_normalized", spy)
    fib = [1, 1]
    while len(fib) < 35:
        fib.append(fib[-2] + fib[-1])
    seq = degree_sequence(f, 60)
    assert seq.truncated and seq.degs == tuple(fib[2:])
    assert raised == [fib[34]]
    est = dyndeg_estimate(seq)
    assert est.certified
    assert mon_dyndeg(m).bracket[1] < est.certified_upper < 1.626


def test_constant_iterate_names_the_iterate():
    xyz = ["x", "y", "z"]
    with pytest.raises(ContractViolation,
                       match=r"constant map at f\^2: the map is not"
                             r" dominant"):
        degree_sequence(M(["x^2", "x^2", "y^2"], xyz), 3)
    # f maps P^3 into the line x0 = x1 = 0, where F2 and F3 vanish
    f = M(["0", "0", "x0*x2+x1*x3", "x0*x3-x1*x2"],
          ["x0", "x1", "x2", "x3"])
    with pytest.raises(ContractViolation,
                       match=r"all-zero forms at f\^2: the map is not"
                             r" dominant"):
        degree_sequence(f, 2)


def test_dyndeg_ratio_unavailable():
    est = dyndeg_estimate(degree_sequence(SQUARE, 1))
    assert est.ratio_estimate is None


def test_dyndeg_monomial_realization():
    # the P^2 realization of the exponent matrix [[2,1],[1,1]]
    from arithdyn.monomial import MonomialMap, monomial_to_projective
    from arithdyn.spectral import IntMat, spectral_radius

    f = monomial_to_projective(MonomialMap(IntMat(((2, 1), (1, 1)))))
    seq = degree_sequence(f, 4)
    assert seq.degs == (3, 8, 21, 55)
    est = dyndeg_estimate(seq)
    rho = spectral_radius([[2, 1], [1, 1]]).bracket
    bounds = est.upper_bounds
    assert all(bounds[i] > bounds[i + 1] for i in range(len(bounds) - 1))
    assert est.certified and est.certified_upper >= rho[0]


# --- orbits -----------------------------------------------------------------

def test_orbit_power_heights():
    rec = orbit(SQUARE, normalize([2, 1]), 4)
    got = [h.value for h in rec.heights]
    expect = [2 ** n * math.log(2) for n in range(5)]
    assert got == pytest.approx(expect, rel=1e-12)
    assert rec.terminated_by.kind == "reached_nmax"


def test_orbit_indeterminacy():
    rec = orbit(CREMONA, normalize([1, 0, 0]), 5)
    assert rec.terminated_by.kind == "hit_indeterminacy"
    assert rec.terminated_by.step == 0
    assert len(rec.points) == 1
    # the defining property: all coordinates vanish there
    with pytest.raises(IndeterminatePoint):
        map_evaluate(CREMONA, rec.points[-1])


def test_orbit_cycle_detection():
    swap = M(["y", "x"], ["x", "y"])
    rec = orbit(swap, normalize([2, 1]), 10)
    t = rec.terminated_by
    assert t.kind == "cycle_detected" and t.period == 2 and t.preperiod == 0


# --- orbit steps against a full-gcd oracle ----------------------------------

def normalize_oracle(raw):
    """Fraction coordinates divided by the gcd of all of them: no bound,
    no fast path."""
    fracs = [Fraction(x) for x in raw]
    if all(f == 0 for f in fracs):
        raise NotAPoint("all coordinates are zero")
    lcm = 1
    for f in fracs:
        lcm = lcm * f.denominator // math.gcd(lcm, f.denominator)
    ints = [int(f * lcm) for f in fracs]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    ints = [v // g for v in ints]
    sign = next(1 if v > 0 else -1 for v in ints if v)
    return tuple(sign * v for v in ints)


def orbit_oracle(f, start, nmax):
    """(points, termination, gcds removed) of the orbit with the full gcd
    taken at every step."""
    pts = [normalize_oracle(start)]
    gcds = []
    for step in range(nmax):
        values = [poly_eval_int(p, pts[-1]) for p in f.polys]
        if not any(values):
            return pts, ("hit_indeterminacy", step, None, None), gcds
        nxt = normalize_oracle(values)
        gcds.append(math.gcd(*values))
        if nxt in pts:
            k = pts.index(nxt)
            return pts, ("cycle_detected", None, len(pts) - k, k), gcds
        pts.append(nxt)
    return pts, ("reached_nmax", None, None, None), gcds


def assert_orbit_matches_oracle(f, start, nmax):
    rec = orbit(f, normalize(start), nmax)
    pts, term, gcds = orbit_oracle(f, start, nmax)
    t = rec.terminated_by
    assert [p.coords for p in rec.points] == pts
    assert (t.kind, t.step, t.period, t.preperiod) == term
    return gcds


def linear(rng):
    """A random integer linear map of P^1, never singular."""
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c:
            return M([f"{a}*x+{b}*y", f"{c}*x+{d}*y"], ["x", "y"])


def unimodular(rng):
    """A random product of elementary integer matrices (det +-1)."""
    m = M(["x", "y"], ["x", "y"])
    for _ in range(3):
        k = rng.randint(-2, 2)
        e = rng.choice([[f"x+{k}*y", "y"], ["x", f"{k}*x+y"], ["y", "x"]])
        m = compose_normalized(M(e, ["x", "y"]), m)
    return m


def random_form(rng, d, names):
    terms = []
    for _ in range(rng.randint(1, 3)):
        exps = [0] * len(names)
        for _ in range(d):
            exps[rng.randrange(len(names))] += 1
        terms.append(f"{rng.randint(-4, 4)}*" + "*".join(
            f"{v}^{e}" for v, e in zip(names, exps)))
    return "+".join(terms)


def random_starts(rng, dim, count):
    starts = []
    while len(starts) < count:
        pt = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
              for _ in range(dim + 1)]
        if any(pt):
            starts.append(pt)
    return starts


def test_orbit_p1_unit_resultant_matches_oracle():
    rng = random.Random(41)
    for _ in range(12):
        base = rng.choice([SQUARE, M(["x^2+y^2", "x*y"], ["x", "y"]),
                           M(["x^3", "y^3"], ["x", "y"])])
        f = compose_normalized(unimodular(rng),
                               compose_normalized(base, unimodular(rng)))
        assert abs(sylvester_resultant(*f.polys)) == 1
        for start in random_starts(rng, 1, 3):
            gcds = assert_orbit_matches_oracle(f, start, 6)
            assert set(gcds) <= {1}


def test_orbit_p1_resultant_above_one_matches_oracle():
    # [x^2 : 4y^2] from (2, 1) removes 4 at the first step
    f = M(["x^2", "4*y^2"], ["x", "y"])
    assert assert_orbit_matches_oracle(f, [2, 1], 5)[0] == 4
    rng = random.Random(42)
    nontrivial = 0
    for _ in range(40):
        d = rng.randint(1, 3)
        try:
            f = compose_normalized(
                linear(rng),
                M([random_form(rng, d, "xy"), random_form(rng, d, "xy")],
                  ["x", "y"]))
        except ContractViolation:
            continue
        assert sylvester_resultant(*f.polys) != 0
        for start in random_starts(rng, 1, 3):
            gcds = assert_orbit_matches_oracle(f, start, 5)
            nontrivial += sum(g > 1 for g in gcds)
    assert nontrivial > 20


def test_orbit_p1_raw_resultant_zero_matches_oracle():
    # coordinates sharing a factor have resultant 0; the constructor
    # divides the factor out, so orbit sees a morphism
    rng = random.Random(43)
    tested = 0
    while tested < 10:
        common = parse_poly(random_form(rng, 1, "xy"), ["x", "y"])
        polys = [poly_mul(common, parse_poly(random_form(rng, 2, "xy"),
                                             ["x", "y"])) for _ in range(2)]
        if common.is_zero() or any(p.is_zero() for p in polys):
            continue
        assert sylvester_resultant(*polys) == 0
        try:
            f = RationalMapPN(polys)
        except ContractViolation:
            continue
        assert sylvester_resultant(*f.polys) != 0
        for start in random_starts(rng, 1, 3):
            assert_orbit_matches_oracle(f, start, 5)
        tested += 1


def test_orbit_p2_matches_oracle():
    rng = random.Random(44)
    for _ in range(6):
        a, c = rng.randint(-3, 3), rng.randint(-3, 3)
        henon = M(["y*z", f"y^2+{c}*z^2-{a}*x*z", "z^2"], ["x", "y", "z"])
        for start in random_starts(rng, 2, 3) + [[1, 2, 0], [3, 0, 0]]:
            assert_orbit_matches_oracle(henon, start, 7)
    for _ in range(20):
        d = rng.randint(1, 2)
        try:
            f = M([random_form(rng, d, "xyz") for _ in range(3)],
                  ["x", "y", "z"])
        except ContractViolation:
            continue
        for start in random_starts(rng, 2, 3):
            assert_orbit_matches_oracle(f, start, 5)


# --- heights-only orbits -----------------------------------------------------

def random_orbit_cases():
    """Random(35): 330 (map, start, nmax, cap) cases on P^1 to P^3.

    Every fifth map is a permutation-power map of degree 2-4 with random
    signs; the rest have coefficients in [-9, 9] on a random set of
    monomials, so some are certified morphisms and some are not.  Their
    degrees are 2-4 on P^1 and P^2 and 2 on P^3: the certificate of a
    dense cubic of P^3 takes about 25 ms, and of a quartic 0.35 s, and
    both are over the lift cap, so uncertified.  Starts have 1-30
    digits, with zero and negative coordinates, and every tenth is made
    of 0s and +-1s, a preperiodic point on the power maps.  nmax keeps
    the exact orbit within about 40 kbit, and the coordinate cap is the
    default or 100-40000 bits, so that some orbits stop at it."""
    rng = random.Random(35)
    cases = []
    while len(cases) < 330:
        n, d = rng.choice([(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4),
                           (3, 2)])
        if len(cases) % 5 == 0:
            n, d = rng.randint(1, 3), rng.randint(2, 4)
            f = RationalMapPN([MultiPoly.from_terms(n + 1, [(
                rng.choice([-1, 1]),
                tuple(d if j == t else 0 for j in range(n + 1)))])
                for t in rng.sample(range(n + 1), n + 1)])
        else:
            monos = [e for e in itertools.product(range(d + 1),
                                                  repeat=n + 1)
                     if sum(e) == d]
            try:
                f = RationalMapPN([MultiPoly.from_terms(n + 1, [
                    (rng.randint(-9, 9), m) for m in rng.sample(
                        monos, rng.randint(1, len(monos)))])
                    for _ in range(n + 1)])
            except ArithDynError:
                continue
            if f.degree < 2:
                continue
        digits = rng.randint(1, 30)
        if len(cases) % 10 == 5:
            digits = 1
            coords = [rng.choice([0, 1, -1]) for _ in range(n + 1)]
        else:
            coords = [rng.choice([0, 1, -1, -1, 1, 1]) *
                      rng.randint(1, 10 ** digits) for _ in range(n + 1)]
        if not any(coords):
            continue
        nmax = 1
        while f.degree ** (nmax + 1) * (4 * digits + 10) < 40000:
            nmax += 1
        cap = rng.choice([projmaps._MAX_COORD_BITS, rng.randint(100, 40000)])
        cases.append((f, normalize(coords), nmax, cap))
    for f in (SQUARE, M(["x^3", "-y^3"], ["x", "y"]),
              M(["y^4", "x^4"], ["x", "y"])):
        for coords in ((1, 1), (1, 0), (0, 1), (1, -1)):
            cases.append((f, normalize(coords), 6, projmaps._MAX_COORD_BITS))
    return cases


def exact_heights(f, start, nmax, cap):
    rec = orbit(f, start, nmax, cap)
    return tuple(h.value for h in rec.heights), rec.terminated_by


def heights_or_cap(run, case):
    """run(*case), or the message of the ResourceCapExceeded it raised."""
    try:
        return run(*case)
    except ResourceCapExceeded as exc:
        return str(exc)


def count_calls(monkeypatch, name):
    """The keyword arguments of every later call of projmaps.<name>."""
    calls = []
    fn = getattr(projmaps, name)

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return fn(*args, **kwargs)
    monkeypatch.setattr(projmaps, name, counting)
    return calls


def test_orbit_heights_equal_the_exact_orbit(monkeypatch):
    ball_steps = count_calls(monkeypatch, "_residue_step")
    seen = collections.Counter()
    for case in random_orbit_cases():
        want = heights_or_cap(exact_heights, case)
        before = len(ball_steps)
        assert heights_or_cap(projmaps.orbit_heights, case) == want
        cert = map_certificate(case[0])
        end = "cap" if isinstance(want, str) else want[1].kind
        seen[bool(cert.res and cert.northcott), len(ball_steps) > before,
             end] += 1
    # the ball runs to nmax and to the cap; exact steps find the cycles
    # of the preperiodic starts, and uncertified maps reach every end
    assert seen[True, True, "reached_nmax"] >= 100
    assert seen[True, True, "cap"] >= 20
    assert seen[True, False, "cycle_detected"] >= 20
    for end in ("reached_nmax", "cap", "cycle_detected",
                "hit_indeterminacy"):
        assert seen[False, False, end] >= 1
    assert len(ball_steps) >= 500


def test_orbit_heights_fall_back_to_the_exact_orbit(monkeypatch):
    # a ball of 8 bits decides no height, so every orbit that reaches the
    # ball either stops at a cap it decides or reruns the exact orbit
    monkeypatch.setattr(projmaps, "_ball_bits", lambda steps, loss: 8)
    ball_steps = count_calls(monkeypatch, "_residue_step")
    exact_runs = count_calls(monkeypatch, "orbit")
    fell_back = 0
    for case in random_orbit_cases():
        want = heights_or_cap(exact_heights, case)
        before, runs = len(ball_steps), len(exact_runs)
        assert heights_or_cap(projmaps.orbit_heights, case) == want
        if len(ball_steps) > before and not isinstance(want, str):
            assert len(ball_steps) == before + 1
            assert exact_runs[runs:] == [{"_until": exact_runs[runs][
                "_until"]}, {}]
            fell_back += 1
    assert fell_back >= 100


def test_normalize_fast_path_matches_fraction_path():
    rng = random.Random(45)
    cases = [[0, 0, 3], [0, -4, 6], [-6, 4], [-3, 0, 0], [5, -10, 15],
             [0, -7], [12, 18, -30]]
    cases += [[rng.randint(-20, 20) for _ in range(rng.randint(2, 4))]
              for _ in range(60)]
    for ints in cases:
        if not any(ints):
            continue
        want = normalize_oracle(ints)
        fracs = [Fraction(v) for v in ints]
        mixed = [Fraction(v) if i % 2 else v for i, v in enumerate(ints)]
        halves = [Fraction(v, 2) for v in ints]
        for raw in (ints, tuple(ints), fracs, mixed, halves):
            assert normalize(raw).coords == want
            assert all(type(c) is int for c in normalize(raw).coords)
    for zero in ([0, 0], (0, 0, 0), [Fraction(0), 0], [Fraction(0)] * 2):
        with pytest.raises(NotAPoint):
            normalize(zero)


def test_coordinate_gcd_with_and_without_bound():
    rng = random.Random(46)
    for _ in range(200):
        g = rng.randint(1, 30)
        values = [g * rng.randint(-10 ** 6, 10 ** 6) for _ in range(3)]
        if not any(values):
            continue
        full = math.gcd(*values)
        assert coordinate_gcd(values) == full
        assert coordinate_gcd(values, full * rng.randint(1, 50)) == full


def test_map_evaluate_takes_the_full_gcd_of_any_point():
    # (3, 6) is not coprime: f = (9, 144) has gcd 9, which does not divide
    # Res = 16, so a resultant-bounded gcd would be wrong here
    f = M(["x^2", "4*y^2"], ["x", "y"])
    assert sylvester_resultant(*f.polys) == 16
    for coords in [(2, 4), (3, 6), (-5, 15), (6, 4), (0, 7), (7, 0)]:
        values = [poly_eval_int(p, coords) for p in f.polys]
        assert map_evaluate(f, ProjPointQ(coords)).coords == \
            normalize_oracle(values)
    assert map_evaluate(f, ProjPointQ((3, 6))).coords == (1, 16)
    assert map_evaluate(HENON, ProjPointQ((2, 4, 2))).coords == \
        normalize_oracle([poly_eval_int(p, (2, 4, 2)) for p in HENON.polys])


# --- resultants -------------------------------------------------------------

def binary_coeffs(p):
    """Coefficients [a_0, ..., a_d] of a binary form of degree d, where a_k
    multiplies x^k y^(d-k): the dehomogenization p(t, 1), lowest power
    first."""
    out = [0] * (p.degree + 1)
    for key, c in p.terms.items():
        out[key >> polynomials._SHIFT] = c
    return out


def sylvester_rows(a, b):
    """Sylvester matrix of two coefficient lists of one length d + 1:
    d shifted copies of a, then d shifted copies of b, each 2d wide."""
    d = len(a) - 1
    return [[0] * s + c + [0] * (d - 1 - s) for c in (a, b) for s in range(d)]


def brute_force_det(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


@pytest.mark.parametrize("f0,f1,expected", [
    ("x^2", "y^2", 1),
    ("x^2", "x*y", 0),
    ("x^2+y^2", "x*y", 1),
])
def test_sylvester_resultant_vs_bruteforce(f0, f1, expected):
    F0 = parse_poly(f0, ["x", "y"])
    F1 = parse_poly(f1, ["x", "y"])
    rows = sylvester_rows(binary_coeffs(F0)[::-1], binary_coeffs(F1)[::-1])
    assert brute_force_det(rows) == expected
    assert sylvester_resultant(F0, F1) == expected


def test_sylvester_resultant_keeps_its_sign():
    """The signed resultant equals the determinant of the dense Sylvester
    rows on random pairs of forms of degree 1-8, with zero and missing
    coefficients of both signs."""
    rng = random.Random(3301)
    signs = collections.Counter()
    degrees = set()
    for _ in range(200):
        d = rng.randint(1, 8)
        pair = []
        while len(pair) < 2:
            F = MultiPoly.from_terms(2, [
                (rng.randint(-20, 20), (d - k, k)) for k in range(d + 1)
                if rng.random() < 0.7])
            if not F.is_zero():
                pair.append(F)
        rows = sylvester_rows(*(binary_coeffs(F)[::-1] for F in pair))
        res = sylvester_resultant(*pair)
        assert res == determinant(rows)
        signs[(res > 0) - (res < 0)] += 1
        degrees.add(d)
    assert min(signs[1], signs[-1], signs[0]) >= 20
    assert degrees == set(range(1, 9))


def test_morphism_certification():
    assert map_certificate(SQUARE).morphism
    reduced = M(["x^2", "x*y"], ["x", "y"])  # constructor divides out x
    assert reduced.degree == 1 and map_certificate(reduced).morphism
    assert not map_certificate(CREMONA).morphism
    with pytest.raises(ContractViolation):
        M(["x^2-y^2", "x^2-y^2"], ["x", "y"])


# --- the P^1 certificate -----------------------------------------------------

def cramer_cofactors(pc, qc):
    """(u, v) with u p + v q = det M, for M the transposed Sylvester matrix,
    by Cramer's rule: x_j is the signed minor of M without row 0 and
    column j.  This is the reference the one elimination replaced."""
    rows = [list(col) for col in zip(*sylvester_rows(pc, qc))]
    return [(-1) ** j * determinant([r[:j] + r[j + 1:] for r in rows[1:]])
            for j in range(len(rows))]


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_p1_certificate_matches_resultant_and_cramer_oracle():
    rng = random.Random(1968)
    degrees = set()
    for _ in range(120):
        while True:
            d = rng.randint(1, 8)
            try:
                f = RationalMapPN([MultiPoly.from_terms(
                    2, [(rng.randint(-9, 9), (k, d - k))
                        for k in range(d + 1)]) for _ in range(2)])
                break
            except ArithDynError:
                pass  # a zero or constant map
        d = f.degree
        degrees.add(d)
        cert = map_certificate(f)
        res = cert.res
        assert res == abs(sylvester_resultant(*f.polys)) != 0
        assert cert.up == (d + 1) * f.max_abs_coeff()
        pc, qc = (binary_coeffs(p) for p in f.polys)
        n = 2 * d
        # one elimination, both charts: U F0 + V F1 = det y^(2d-1) and
        # U' F0 + V' F1 = det x^(2d-1), checked by convolution
        rows = [list(col) for col in zip(*sylvester_rows(pc, qc))]
        det, sols = bareiss(rows, [[int(i == k) for i in range(n)]
                                   for k in (0, n - 1)])
        assert abs(det) == res
        for y, k in zip(sols, (0, n - 1)):
            total = [a + b for a, b in zip(convolve(y[:d], pc),
                                           convolve(y[d:], qc))]
            assert total == [det * (i == k) for i in range(n)]
        oracle = cramer_cofactors(pc, qc) + \
            cramer_cofactors(pc[::-1], qc[::-1])
        assert cert.low == 2 * d * max(map(abs, oracle)) == \
            2 * d * max(abs(c) for y in sols for c in y)
    assert degrees == set(range(1, 9))


def test_square_matrices_take_no_prime():
    # Res(x^2, (x - p y)^2) = p^4 is 0 mod p: the Sylvester matrix is
    # square, so it is eliminated over Z with no rank pass mod p
    p = polynomials._CERT_PRIME
    f = RationalMapPN([MultiPoly.from_terms(2, [(1, (2, 0))]),
                       MultiPoly.from_terms(2, [(1, (2, 0)), (-2 * p, (1, 1)),
                                                (p * p, (0, 2))])])
    cert = map_certificate(f)
    pc, qc = (binary_coeffs(g) for g in f.polys)
    oracle = cramer_cofactors(pc, qc) + cramer_cofactors(pc[::-1], qc[::-1])
    assert cert.res == abs(sylvester_resultant(*f.polys)) == p ** 4
    assert (cert.up, cert.low) == (3 * p * p, 4 * max(map(abs, oracle)))
    assert cert.morphism and cert.northcott == max(cert.up, cert.low)
    ht = canonical_height(f, normalize([1, 1]), 2, nmax=20)
    assert ht.mode == "certified_p1" and ht.step_constant == math.log(
        cert.northcott)
    assert ht.heights[:4] == pytest.approx([h.value for h in orbit(
        f, normalize([1, 1]), 3).heights], rel=1e-12)
    # a linear map of P^2 of determinant p: its 3 x 3 matrix is singular
    # mod p and nonsingular over Z
    g = M(["x", "y", f"{p}*z+x"], ["x", "y", "z"])
    assert spectral.determinant([[1, 0, 0], [0, 1, 0], [1, 0, p]]) == p
    cert = map_certificate(g)
    assert cert.morphism and cert.res == p and cert.northcott is None
    assert degree_sequence(g, 5).degs == (1,) * 5


def power_oracle(f):
    """Every coordinate is +-(one variable)^d, the variables a permutation."""
    targets = []
    for p in f.polys:
        terms = list(p.items())
        if len(terms) != 1:
            return False
        (exps, coeff), = terms
        hot = [i for i, e in enumerate(exps) if e]
        if abs(coeff) != 1 or len(hot) != 1 or exps[hot[0]] != f.degree:
            return False
        targets.append(hot[0])
    return sorted(targets) == list(range(f.dim + 1))


def random_power_like_map(rng):
    """A permutation-power map of P^1 to P^3 with random signs, or one
    spoiled by a coefficient 2, a repeated target or an extra term."""
    n, d = rng.randint(1, 3), rng.randint(1, 4)
    targets = rng.sample(range(n + 1), n + 1)
    spoil = rng.choice(["none", "none", "coeff", "target", "term"])
    if spoil == "target":
        targets[0] = targets[1]
    polys = []
    for i, t in enumerate(targets):
        exps = tuple(d if j == t else 0 for j in range(n + 1))
        terms = [(rng.choice([-1, 1]) * (2 if spoil == "coeff" and i == n
                                         else 1), exps)]
        if spoil == "term" and i == 0:
            terms.append((1, tuple(d if j == targets[1] else 0
                                   for j in range(n + 1))))
        polys.append(MultiPoly.from_terms(n + 1, terms))
    return RationalMapPN(polys)


def test_map_certificate_matches_oracles_on_random_maps():
    rng = random.Random(2112)
    maps = []
    while len(maps) < 200:
        d = rng.randint(1, 4)
        try:
            maps.append(random_power_like_map(rng) if len(maps) % 5 > 1
                        else RationalMapPN([MultiPoly.from_terms(
                            2, [(rng.randint(-4, 4), (k, d - k))
                                for k in range(d + 1)]) for _ in range(2)]))
        except ArithDynError:
            pass  # a zero or constant map
    seen = collections.Counter()
    for f in maps:
        cert = map_certificate(f)
        d = f.degree
        assert cert.power is power_oracle(f)
        if f.dim == 1:
            assert cert.res == abs(sylvester_resultant(*f.polys)) != 0
            assert cert.up == (d + 1) * f.max_abs_coeff() and cert.low > 0
        elif cert.res:
            assert cert.morphism and cert.low > 0
            assert cert.up == math.comb(d + f.dim, f.dim) * f.max_abs_coeff()
        else:
            # not a morphism, or a map of P^3 of degree 3 or 4 that is not
            # a power map, whose Macaulay matrix passes the lift cap
            assert (cert.res, cert.up, cert.low) == (0, 0, 0)
            assert not cert.morphism or (f.dim, d) in ((3, 3), (3, 4))
        if d >= 2 and cert.power:
            assert cert.northcott == 1
        elif d >= 2 and cert.res:
            assert cert.northcott == max(cert.up, cert.low)
        else:
            assert cert.northcott is None
        if cert.power or f.dim == 1:
            assert cert.morphism is True
        else:
            assert cert.morphism is groebner_morphism_oracle(f)
        seen["morphism", cert.morphism] += 1
        seen[f.dim, cert.power, d >= 2] += 1
    # every dimension meets power maps and others, of degree 1 and above
    assert {(n, power, big) for n in (1, 2, 3) for power in (False, True)
            for big in (False, True)} <= set(seen)
    assert seen["morphism", False] and seen["morphism", True]


# --- height inequalities ----------------------------------------------------

def test_morphism_height_upper_bound():
    rng = random.Random(3)
    maps = [SQUARE, M(["x^2+y^2", "x*y"], ["x", "y"]),
            M(["x^2-y^2", "2*x*y"], ["x", "y"]),
            M(["x^3+2*y^3", "x*y^2"], ["x", "y"])]
    for f in maps:
        assert map_certificate(f).morphism
        d = f.degree
        bound_const = math.log((d + 1) * f.max_abs_coeff())
        for _ in range(25):
            pt = normalize([rng.randint(-50, 50), rng.randint(1, 50)])
            img = map_evaluate(f, pt)
            assert weil_height(img).value <= \
                d * weil_height(pt).value + bound_const + 1e-9


def test_power_map_exact_height_multiplication():
    for a in (2, 3, 7):
        pt = normalize([a, 1])
        h0 = weil_height(pt).value
        cur = pt
        for n in range(1, 6):
            cur = map_evaluate(SQUARE, cur)
            assert weil_height(cur).value == pytest.approx(2 ** n * h0,
                                                           rel=1e-12)
            assert weil_height(cur).exact_arg == a ** (2 ** n)


# --- iterate cache and spec files -------------------------------------------

def test_iterates_chain_consistency():
    chain = iterates(HENON, 3)
    assert [m.degree for m in chain] == [2, 4, 8]
    assert chain[1] == compose_normalized(HENON, HENON)


def test_map_spec_roundtrip(tmp_path):
    spec = serialize_map_spec(HENON)
    blob = json.dumps(spec, sort_keys=True)
    back = parse_map_spec(json.loads(blob))
    assert back == HENON
    assert json.dumps(serialize_map_spec(back), sort_keys=True) == blob
