import math
import random

import pytest

from arithdyn.degrees import (ArithDegreeEstimate, arithdeg_estimate,
                              canht_functional_checks, canonical_height,
                              counting_function, fundamental_inequality_check,
                              growth_fit, growth_profile_nondiverging,
                              heights_from_orbit, heights_from_values,
                              p1_height_walk, p1_step_constant,
                              preperiodic_detect, recursion_bound_check)
from arithdyn.errors import ArithDynError, ContractViolation, NonMorphism
from arithdyn.heights import normalize, weil_height
from arithdyn.monomial import MonomialMap, monomial_arithdeg
from arithdyn.polynomials import MultiPoly
from arithdyn.projmaps import (RationalMapPN, map_evaluate, orbit,
                               sylvester_resultant)
from arithdyn.spectral import IntMat

SQUARE = RationalMapPN.from_strings(["x^2", "y^2"], ["x", "y"], name="square")
SUMSQ = RationalMapPN.from_strings(["x^2+y^2", "x*y"], ["x", "y"],
                                   name="sumsq")
HENON = RationalMapPN.from_strings(["y*z", "y^2+z^2-x*z", "z^2"],
                                   ["x", "y", "z"], name="henon")
DOUBLER = MonomialMap(IntMat(((2,),)))
FIB2 = MonomialMap(IntMat(((2, 1), (1, 1))))
RHO = (3 + math.sqrt(5)) / 2


def power_heights(nmax):
    """h(f^n [2:1]) = 2^n log 2 for the coordinate squaring map."""
    return monomial_arithdeg(DOUBLER, (2,), nmax)


# --- arithmetic degree -------------------------------------------------------

def test_arithdeg_power_map_matches_closed_form():
    hs = power_heights(30)
    est = arithdeg_estimate(hs)
    # exact oracle: a_n = 2 (log 2)^(1/n), increasing toward 2 from below
    oracle = 2 * math.log(2) ** (1 / 30)
    assert est.upper_est == pytest.approx(oracle, rel=1e-12)
    assert est.lower_est < est.upper_est < 2.0
    assert abs(est.upper_est - 2.0) < 0.03


def test_arithdeg_power_map_tight_with_long_tail():
    hs = power_heights(1023)
    est = arithdeg_estimate(hs, tail_fraction=0.25)
    assert abs(est.upper_est - 2.0) < 1e-3
    assert abs(est.lower_est - 2.0) < 1e-3


def test_arithdeg_periodic_exact_one():
    rec = orbit(SQUARE, normalize([1, 1]), 10)
    est = arithdeg_estimate(heights_from_orbit(rec))
    assert est.exact and est.upper_est == 1.0 and est.lower_est == 1.0


def test_arithdeg_short_sequence_rejected():
    with pytest.raises(ContractViolation):
        arithdeg_estimate(heights_from_values([1.0, 1.5, 2.0]))


def test_arithdeg_monomial_oracle():
    est = arithdeg_estimate(monomial_arithdeg(FIB2, (2, 3), 40))
    assert abs(est.upper_est - RHO) < 1e-3
    assert abs(est.lower_est - RHO) < 1e-3


# --- fundamental inequality --------------------------------------------------

def test_inequality_consistent_power_map():
    est = arithdeg_estimate(power_heights(200), tail_fraction=0.25)
    report = fundamental_inequality_check(est, 2.0)
    assert report.consistent and report.margin >= 0


def test_inequality_detects_synthetic_violation():
    fake = ArithDegreeEstimate(upper_est=3.0, lower_est=3.0, tail_start=1,
                               converged=True)
    report = fundamental_inequality_check(fake, 2.0)
    assert not report.consistent


def test_inequality_cremona_orbit():
    sigma = RationalMapPN.from_strings(["y*z", "x*z", "x*y"],
                                       ["x", "y", "z"])
    est = arithdeg_estimate(heights_from_orbit(orbit(sigma,
                                                     normalize([1, 2, 3]),
                                                     8)))
    report = fundamental_inequality_check(est, 1.0)
    assert est.exact and report.consistent


# --- growth fitting ----------------------------------------------------------

def test_growth_fit_power_map_constant_one():
    fit = growth_fit(power_heights(30), 2.0, 0.1)
    assert fit.C_fit == 1.0
    assert growth_profile_nondiverging(fit.profile)


def test_growth_fit_monomial_bounded():
    fit = growth_fit(monomial_arithdeg(FIB2, (2, 3), 40), RHO + 1e-9, 0.1)
    assert fit.C_fit <= 2.0
    assert growth_profile_nondiverging(fit.profile)


def test_growth_fit_flags_synthetic_divergence():
    delta, eps = 2.0, 0.1
    vals = [(delta + 2 * eps) ** n for n in range(41)]
    fit = growth_fit(heights_from_values(vals), delta, eps)
    assert not growth_profile_nondiverging(fit.profile)
    assert fit.C_fit > 2 * fit.profile[len(fit.profile) // 2]


# --- canonical heights -------------------------------------------------------

def test_canht_power_map_exact():
    res = canonical_height(SQUARE, normalize([2, 1]), 2)
    assert res.mode == "certified_power"
    assert res.value == math.log(2)
    assert res.error_radius == 0.0


def test_canht_power_fixed_point_is_zero():
    res = canonical_height(SQUARE, normalize([1, 1]), 2)
    assert res.value == 0.0 and res.error_radius == 0.0
    rep = preperiodic_detect(SQUARE, normalize([1, 1]))
    assert rep.kind == "preperiodic" and rep.period == 1 and rep.preperiod == 0


def test_canht_certified_p1_radius_and_transform():
    p = normalize([2, 1])
    res = canonical_height(SUMSQ, p, 2, nmax=22)
    assert res.mode == "certified_p1"
    assert res.error_radius <= 1e-6
    res_f = canonical_height(SUMSQ, map_evaluate(SUMSQ, p), 2, nmax=22)
    gap = abs(res_f.value - 2 * res.value)
    assert gap <= res.error_radius + res_f.error_radius


def test_canht_value_stable_across_depth():
    p = normalize([3, 1])
    shallow = canonical_height(SUMSQ, p, 2, nmax=14)
    deep = canonical_height(SUMSQ, p, 2, nmax=30)
    assert abs(shallow.value - deep.value) <= \
        shallow.error_radius + deep.error_radius


def test_canht_rejects_bad_beta_and_modes():
    with pytest.raises(ContractViolation):
        canonical_height(SQUARE, normalize([2, 1]), 1)
    with pytest.raises(ContractViolation):
        canonical_height(SUMSQ, normalize([2, 1]), 3)  # beta != deg f
    with pytest.raises(NonMorphism):
        canonical_height(HENON, normalize([0, 1, 1]), 2)  # no certificate


def test_canht_heuristic_mode_labeled():
    res = canonical_height(HENON, normalize([0, 1, 1]), 2, nmax=10,
                           mode="heuristic")
    assert res.mode == "heuristic"
    assert res.error_radius > 0


def test_canht_heuristic_periodic_point_continues_cycle():
    swap = RationalMapPN.from_strings(["y", "x"], ["x", "y"])
    res = canonical_height(swap, normalize([2, 3]), 2, nmax=20,
                           mode="heuristic")
    assert res.n_used == 20
    # the limit of beta^-n h is 0 for a bounded orbit, and the estimate
    # with its sampled radius must be consistent with that
    assert abs(res.value) <= res.error_radius + 1e-12


def test_canht_nmax_capped():
    with pytest.raises(ContractViolation):
        canonical_height(SUMSQ, normalize([2, 1]), 2, nmax=501)


def random_p1_maps(seed, count):
    """Seeded maps of P^1 of degree 1-4 with coefficients in [-4, 4]."""
    rng = random.Random(seed)
    maps = []
    while len(maps) < count:
        d = rng.randint(1, 4)
        polys = [MultiPoly.from_terms(2, [(rng.randint(-4, 4), (k, d - k))
                                          for k in range(d + 1)])
                 for _ in range(2)]
        try:
            maps.append(RationalMapPN(polys))
        except ArithDynError:
            pass  # a zero or constant map
    return maps


RANDOM_P1 = random_p1_maps(29, 16)


def test_step_constant_bounds_observed_errors():
    assert {f.degree for f in RANDOM_P1} == {1, 2, 3, 4}
    assert sum(abs(sylvester_resultant(*f.polys)) > 1 for f in RANDOM_P1) > 8
    rng = random.Random(23)
    for f in (SUMSQ,
              RationalMapPN.from_strings(["x^2-y^2", "2*x*y"], ["x", "y"]),
              RationalMapPN.from_strings(["x^3+2*y^3", "x*y^2"], ["x", "y"]),
              *RANDOM_P1):
        c_step, c_up, c_low, res = p1_step_constant(f)
        assert res == abs(sylvester_resultant(*f.polys)) and res != 0
        assert c_step >= 0
        d = f.degree
        for _ in range(30):
            q = normalize([rng.randint(-60, 60), rng.randint(1, 60)])
            hq = weil_height(q).value
            hfq = weil_height(map_evaluate(f, q)).value
            assert abs(hfq - d * hq) <= c_step + 1e-9


def test_height_walk_matches_exact_orbit():
    for f, pt in [(SUMSQ, [2, 1]), (SUMSQ, [1, 2]),
                  (RationalMapPN.from_strings(["x^2-y^2", "2*x*y"],
                                              ["x", "y"]), [2, 1]),
                  (RationalMapPN.from_strings(["x^3+2*y^3", "x*y^2"],
                                              ["x", "y"]), [2, 1])]:
        walk = p1_height_walk(f, normalize(pt), 10)
        rec = orbit(f, normalize(pt), 10)
        exact = [h.value for h in rec.heights]
        assert walk == pytest.approx(exact, abs=1e-9)
    for f in RANDOM_P1:
        for pt in ([2, 1], [-3, 5]):
            rec = orbit(f, normalize(pt), 6)
            if rec.terminated_by.kind != "reached_nmax":
                continue  # the walk does not stop at a cycle
            walk = p1_height_walk(f, normalize(pt), 6)
            exact = [h.value for h in rec.heights]
            assert walk == pytest.approx(exact, rel=1e-9, abs=1e-9)


def test_canht_functional_checks_power_map():
    checks = canht_functional_checks(SQUARE, normalize([2, 1]))
    assert checks.passed
    assert checks.transform_gap == 0.0
    assert checks.compare_gap == 0.0


def test_canht_functional_checks_fixed_point_skips_alpha():
    checks = canht_functional_checks(SQUARE, normalize([1, 1]))
    assert checks.passed and checks.alpha_ok is None


def test_canht_functional_checks_generic_morphism():
    checks = canht_functional_checks(SUMSQ, normalize([2, 1]))
    assert checks.passed and checks.alpha_ok is True


def test_canht_telescoping_differences_within_step_bound():
    res = canonical_height(SUMSQ, normalize([2, 1]), 2, nmax=20)
    beta, c = res.beta, res.step_constant
    partial = [h * beta ** (-n) for n, h in enumerate(res.heights)]
    for n in range(len(partial) - 1):
        assert abs(partial[n + 1] - partial[n]) <= \
            c * beta ** (-(n + 1)) + 1e-9


def test_canht_nonnegative_in_certified_modes():
    for f, pts in [(SQUARE, [(2, 1), (1, 1), (5, 3)]),
                   (SUMSQ, [(2, 1), (1, 1), (0, 1)])]:
        for coords in pts:
            res = canonical_height(f, normalize(coords), 2)
            assert res.value >= -res.error_radius


def test_alpha_estimate_independent_of_height_coordinates():
    # an integer coordinate change gives another ample height; the
    # orbit heights shift by O(1) and the growth exponent is unchanged
    change = ((1, 1, 0), (1, -1, 0), (0, 0, 1))

    def changed_heights(rec):
        vals = []
        for pt in rec.points:
            image = [sum(m * c for m, c in zip(row, pt.coords))
                     for row in change]
            vals.append(weil_height(normalize(image)).value)
        return vals

    rec = orbit(HENON, normalize([1, 2, 1]), 12)
    base = arithdeg_estimate(heights_from_orbit(rec))
    alt = arithdeg_estimate(heights_from_values(changed_heights(rec)))
    assert abs(base.upper_est - alt.upper_est) < 0.05
    assert abs(base.lower_est - alt.lower_est) < 0.05


# --- preperiodic detection ---------------------------------------------------

def test_preperiodic_detect_wandering():
    rep = preperiodic_detect(SQUARE, normalize([2, 1]))
    assert rep.kind == "wandering"


def test_preperiodic_detect_involution():
    swap = RationalMapPN.from_strings(["y", "x"], ["x", "y"])
    rep = preperiodic_detect(swap, normalize([2, 3]))
    assert rep.kind == "preperiodic" and rep.period == 2 and rep.preperiod == 0


def test_preperiodic_detect_undecided_without_certificate():
    rep = preperiodic_detect(HENON, normalize([1, 2, 1]), nmax=10)
    assert rep.kind == "undecided"


# --- counting function -------------------------------------------------------

def test_counting_power_map_closed_form():
    hs = power_heights(60)
    bs = [hs.heights[j] for j in range(49, 59)]
    report = counting_function(hs, bs)
    assert report.warning is None
    log2 = math.log(2)
    for row in report.rows:
        expect = math.floor(math.log2(row.B / log2)) + 1
        assert row.count == expect
    last = report.rows[-1]
    assert abs(last.ratio - 1 / log2) / (1 / log2) < 0.10


def test_counting_warns_on_periodic():
    swap = MonomialMap(IntMat(((0, 1), (1, 0))))
    hs = monomial_arithdeg(swap, (2, 3), 10)
    report = counting_function(hs, [5.0])
    assert report.warning is not None


def test_counting_monomial_within_ten_percent():
    hs = monomial_arithdeg(FIB2, (2, 3), 46)
    report = counting_function(hs, [math.exp(40)])
    row = report.rows[-1]
    target = 1 / math.log(RHO)
    assert abs(row.ratio - target) / target < 0.10


# --- recursion bound ---------------------------------------------------------

def test_recursion_bound_pure_geometric():
    h = [5.0 * 2 ** n for n in range(20)]
    rep = recursion_bound_check(2, 3, h)
    assert rep.applicable and rep.holds


def test_recursion_bound_worst_case():
    h = [1.0]
    for _ in range(50):
        h.append(2 * h[-1] + 3 * math.sqrt(h[-1]))
    rep = recursion_bound_check(2, 3, h)
    assert rep.applicable and rep.holds


def test_recursion_bound_inapplicable():
    rep = recursion_bound_check(2, 3, [1.0, 100.0])
    assert not rep.applicable and rep.holds is None


def test_recursion_bound_random_triples():
    rng = random.Random(99)
    for _ in range(40):
        a = 1 + 3 * rng.random()
        c = 1 + 4 * rng.random()
        h = [10 * rng.random()]
        for _ in range(30):
            h.append(a * h[-1] + c * math.sqrt(h[-1]) * rng.random())
        rep = recursion_bound_check(a, c, h)
        assert rep.applicable and rep.holds
