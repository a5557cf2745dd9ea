import itertools
import json
import math
import random

import pytest

from arithdyn.errors import (ContractViolation, IndeterminatePoint,
                             UnsupportedDimension)
from arithdyn.heights import normalize, weil_height
from arithdyn.polynomials import MultiPoly, parse_poly
from arithdyn.projmaps import (RationalMapPN, ResourceCaps, compose_normalized,
                               compose_raw, degree_sequence, dyndeg_estimate,
                               is_morphism_p1, iterates, map_evaluate, orbit,
                               parse_map_spec, serialize_map_spec,
                               sylvester_matrix, sylvester_resultant)
from arithdyn.polynomials import poly_eval_int


def M(polys, names=None, name=None):
    return RationalMapPN.from_strings(polys, names, name=name)


SQUARE = M(["x^2", "y^2"], ["x", "y"], name="square")
CREMONA = M(["y*z", "x*z", "x*y"], ["x", "y", "z"], name="cremona")
HENON = M(["y*z", "y^2+z^2-x*z", "z^2"], ["x", "y", "z"], name="henon")


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
    assert sq == RationalMapPN.identity(2)
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


def test_degree_sequence_truncates_at_cap():
    caps = ResourceCaps(max_terms=3)
    seq = degree_sequence(HENON, 6, caps)
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
    from fractions import Fraction

    from arithdyn.projmaps import DegreeSequence

    est = dyndeg_estimate(DegreeSequence("odd", (3, 7, 20, 50, 130)))
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


# --- resultants -------------------------------------------------------------

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
    rows = sylvester_matrix(F0, F1)
    assert brute_force_det(rows) == expected
    assert sylvester_resultant(F0, F1) == expected


def test_morphism_certification():
    assert is_morphism_p1(SQUARE)
    reduced = M(["x^2", "x*y"], ["x", "y"])  # constructor divides out x
    assert reduced.degree == 1 and is_morphism_p1(reduced)
    with pytest.raises(UnsupportedDimension):
        is_morphism_p1(CREMONA)
    with pytest.raises(ContractViolation):
        M(["x^2-y^2", "x^2-y^2"], ["x", "y"])


# --- height inequalities ----------------------------------------------------

def test_morphism_height_upper_bound():
    rng = random.Random(3)
    maps = [SQUARE, M(["x^2+y^2", "x*y"], ["x", "y"]),
            M(["x^2-y^2", "2*x*y"], ["x", "y"]),
            M(["x^3+2*y^3", "x*y^2"], ["x", "y"])]
    for f in maps:
        assert is_morphism_p1(f)
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
