import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from arithdyn import projmaps
from arithdyn.errors import (ContractViolation, IndeterminatePoint,
                             NotAPoint, UnsupportedDimension)
from arithdyn.heights import (ProjPointQ, coordinate_gcd, normalize,
                              weil_height)
from arithdyn.polynomials import (MultiPoly, binary_coeffs, parse_poly,
                                  poly_eval_int, poly_mul, sylvester_rows)
from arithdyn.projmaps import (RationalMapPN, compose_normalized, compose_raw,
                               degree_sequence, dyndeg_estimate,
                               is_morphism_p1, iterates, map_evaluate, orbit,
                               parse_map_spec, serialize_map_spec,
                               sylvester_resultant)


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
    seq = degree_sequence(HENON, 6)
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
