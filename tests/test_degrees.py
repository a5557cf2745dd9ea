import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest

from arithdyn import degrees, heights, polynomials
from arithdyn.degrees import (ArithDegreeEstimate, arithdeg_estimate,
                              canht_functional_checks, canonical_height,
                              counting_function, fundamental_inequality_check,
                              growth_fit, growth_profile_nondiverging,
                              heights_from_orbit, heights_from_values,
                              p1_height_walk, p1_step_constant,
                              preperiodic_detect, recursion_bound_check)
from arithdyn.corpus import build_corpus
from arithdyn.errors import (ArithDynError, ContractViolation, NonMorphism,
                             ResourceCapExceeded)
from arithdyn.heights import normalize, weil_height
from arithdyn.monomial import MonomialMap, monomial_arithdeg
from arithdyn.polynomials import MultiPoly
from arithdyn.projmaps import (RationalMapPN, map_certificate, map_evaluate,
                               orbit, sylvester_resultant)
from arithdyn.spectral import IntMat

SQUARE = RationalMapPN.from_strings(["x^2", "y^2"], ["x", "y"], name="square")
SUMSQ = RationalMapPN.from_strings(["x^2+y^2", "x*y"], ["x", "y"],
                                   name="sumsq")
QUINT = RationalMapPN.from_strings(["x^5+y^5", "x*y^4"], ["x", "y"],
                                  name="quint")
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
    # math.log(2) is log 2 rounded to nearest, so the radius is not 0
    assert 0 < res.error_radius < 1e-15


def _log50(n):
    with mpmath.workdps(50):
        return Fraction(str(mpmath.log(n)))


@pytest.mark.parametrize("big", [
    2, 3, 7, 10 ** 15, 2 ** 53 + 1, 3 ** 33, 2 ** 1023 + 2 ** 970,
    2 ** 1024 - 1, 2 ** 1024, 2 ** 1024 + 1, 10 ** 400, 3 ** 5000 + 1,
    7 ** 20000], ids=lambda big: f"{big.bit_length()}bits")
def test_canht_power_radius_covers_the_rounded_log(big):
    for f, coords in [(SQUARE, [big, 1]), (SQUARE, [1, -big]),
                      (RationalMapPN.from_strings(["z^3", "x^3", "y^3"]),
                       [big - 1, big, 1])]:
        res = canonical_height(f, normalize(coords), f.degree)
        assert res.mode == "certified_power" and res.error_radius > 0
        gap = abs(Fraction(res.value) - _log50(big))
        assert gap <= Fraction(res.error_radius)


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
    for beta in (math.nan, math.inf, -math.inf):
        for mode in ("certified", "heuristic"):
            with pytest.raises(ContractViolation, match="finite"):
                canonical_height(SUMSQ, normalize([2, 1]), beta, mode=mode)
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


# 5^-n underflows past n = 440; heights of [2 : 1] overflow at n = 442,
# those of [10^10 : 1] already by n = 440
@pytest.mark.parametrize("point, nmax", [
    ([2, 1], 500), ([2, 1], 450), ([1, 0], 500), ([10 ** 10, 1], 440)])
def test_canht_certified_p1_refuses_a_bound_outside_the_float_range(point,
                                                                    nmax):
    with pytest.raises(ResourceCapExceeded):
        canonical_height(QUINT, normalize(point), 5, nmax=nmax)


def test_canht_certified_p1_at_the_edge_of_the_float_range():
    res = canonical_height(QUINT, normalize([2, 1]), 5, nmax=440)
    assert math.isfinite(res.value) and res.error_radius > 0
    assert abs(res.value - 0.699301545) < 1e-6


def test_height_walk_refuses_heights_past_the_float_range():
    assert math.isfinite(p1_height_walk(QUINT, normalize([10 ** 10, 1]),
                                        438)[-1])
    with pytest.raises(ResourceCapExceeded):
        p1_height_walk(QUINT, normalize([10 ** 10, 1]), 440)


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


def test_height_sequence_evaluates_no_wide_point(monkeypatch):
    # the exact orbit of [x^3+2y^3 : xy^2] from (5, 3) evaluates f at
    # points of about 410 kbit on its way to n = 12; the heights-only
    # orbit leaves the exact points once they are wider than its ball
    real = polynomials.poly_eval_int
    widest = []

    def spy(p, point):
        widest.append(max(abs(c).bit_length() for c in point))
        return real(p, point)
    homes = [m for name, m in sys.modules.items()
             if name.startswith("arithdyn")
             and getattr(m, "poly_eval_int", None) is real]
    for module in homes:
        monkeypatch.setattr(module, "poly_eval_int", spy)
    cubic = RationalMapPN.from_strings(["x^3+2*y^3", "x*y^2"], ["x", "y"])
    hs = degrees.height_sequence(cubic, (5, 3), 12)
    assert len(hs) == 13 and hs.cycle is None
    assert widest and max(widest) <= 4096


def test_height_walk_rejects_a_point_of_the_wrong_dimension():
    with pytest.raises(ContractViolation,
                       match="point and map dimensions differ"):
        p1_height_walk(SUMSQ, normalize([1, 2, 3]), 3)


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


def test_step_constant_memoized_per_map_content(monkeypatch):
    # two maps built separately but equal share one certificate: every
    # P^1 bound (orbit gcd, certified step constant, Northcott E) reads
    # the same memoized record, so the pair costs one elimination
    map_certificate.cache_clear()
    f = RationalMapPN.from_strings(["x^2+y^2", "x*y"], ["x", "y"])
    g = RationalMapPN.from_strings(["x^2+y^2", "x*y"], ["x", "y"], name="g")
    assert f is not g and f == g
    results = []
    for m in (f, g):
        pt = normalize([2, 1])
        results.append((orbit(m, pt, 6), canonical_height(m, pt, 2),
                        canht_functional_checks(m, pt),
                        preperiodic_detect(m, pt), p1_step_constant(m)))
    info = map_certificate.cache_info()
    assert (info.misses, info.currsize) == (1, 1) and info.hits > 0
    assert results[0] == results[1] and results[0][2].passed
    # after the start point, every orbit step reduces modulo |Res| on
    # P^1, and modulo the R of its Macaulay identity on a morphism of P^N;
    # the Henon map is not a morphism and has res = 0 in its record, so
    # its orbit takes the exact gcd
    p1_start, p2_start = normalize([2, 1]), normalize([1, 2, 1])
    bounds = []
    exact = heights.coordinate_gcd
    monkeypatch.setattr(heights, "coordinate_gcd", lambda values, bound=0:
                        bounds.append(bound) or exact(values, bound))
    orbit(f, p1_start, 6)
    assert bounds == [0] + [map_certificate(f).res] * 6 == [0] + [1] * 6
    bounds.clear()
    rec = orbit(HENON, p2_start, 6)
    assert map_certificate(HENON).res == 0 and bounds == [0] * 7
    assert list(rec.points[1:]) == [map_evaluate(HENON, q)
                                    for q in rec.points[:-1]]


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


def test_preperiodic_detect_wandering_past_the_float_range():
    # the float walk overflows here; the Northcott bound needs one step
    rep = preperiodic_detect(QUINT, normalize([10 ** 10, 1]), nmax=450)
    assert rep.kind == "wandering"
    assert rep.detail == "an orbit point has H^4 > E = 10"


@pytest.mark.parametrize("nmax, kind", [(1, "wandering"), (0, "undecided")])
def test_preperiodic_detect_scans_the_finished_orbit(nmax, kind):
    # E = 4 caps coordinates at 3 bits; f([2 : 1]) = [5 : 2] fits the cap,
    # so only the scan of the finished orbit sees H = 5 > E
    assert map_certificate(SUMSQ).northcott == 4
    rep = preperiodic_detect(SUMSQ, normalize([2, 1]), nmax=nmax)
    assert rep.kind == kind


def test_preperiodic_detect_reads_the_northcott_integer_on_p2():
    # E = max(up, low) from the Macaulay identity, as on P^1: R = 16,
    # up = 6 monomials * 1, low = 18 rows * 16, the largest cofactor
    # coefficient.  The orbit of [2 : 1 : 1] has H = 2, 5, 50, 3341 > E
    f = RationalMapPN.from_strings(["x^2+y^2", "y^2+z^2", "z^2+x^2"],
                                   ["x", "y", "z"])
    cert = map_certificate(f)
    assert (cert.res, cert.up, cert.low, cert.northcott) == (16, 6, 288, 288)
    rep = preperiodic_detect(f, normalize([1, 1, 1]))
    assert (rep.kind, rep.period, rep.preperiod) == ("preperiodic", 1, 0)
    rep = preperiodic_detect(f, normalize([2, 1, 1]))
    assert rep.kind == "wandering"
    assert rep.detail == "an orbit point has H^1 > E = 288"


@pytest.mark.parametrize("polys, names", [
    (["2*x^2", "y^2"], ["x", "y"]),
    (["x^2", "x^2", "z^2"], ["x", "y", "z"])], ids=["coeff", "targets"])
def test_certificate_power_flag_refuses(polys, names):
    f = RationalMapPN.from_strings(polys, names)
    assert map_certificate(f).power is False


def _iterate(f, pt, n):
    for _ in range(n):
        pt = map_evaluate(f, pt)
    return pt


def test_preperiodic_detect_verdicts_hold_exactly():
    rng = random.Random(7)
    cases = []
    for entry in build_corpus():
        if entry.kind == "projective":
            f = entry.mapping
            cases += [(f, coords) for coords in entry.points]
            cases += [(f, [rng.randint(-9, 9) for _ in range(f.dim)] +
                       [rng.randint(1, 9)]) for _ in range(4)]
    while len(cases) < 300:
        d = rng.randint(2, 4)
        try:
            f = RationalMapPN([MultiPoly.from_terms(
                2, [(rng.randint(-9, 9), (k, d - k)) for k in range(d + 1)])
                for _ in range(2)])
        except ArithDynError:
            continue
        cases += [(f, [rng.randint(-9, 9), rng.randint(1, 9)])
                  for _ in range(3)]
    kinds = {}
    for f, coords in cases:
        pt = normalize(coords)
        rep = preperiodic_detect(f, pt)
        kinds[rep.kind] = kinds.get(rep.kind, 0) + 1
        bound = map_certificate(f).northcott
        if bound is not None and f.dim == 1 and bound > 1:
            # E is the exact integer behind the certified step constant
            assert math.log(bound) == p1_step_constant(f)[0]
        if rep.kind == "preperiodic":
            pre = _iterate(f, pt, rep.preperiod)
            assert _iterate(f, pre, rep.period) == pre
        elif rep.kind == "wandering":
            assert any(weil_height(_iterate(f, pt, n)).exact_arg **
                       (f.degree - 1) > bound for n in range(65))
        else:
            assert bound is None
    # every branch is exercised: 18 preperiodic, 268 wandering, and 15
    # undecided points, all on maps of P^2 that are not power maps
    assert kinds == {"preperiodic": 18, "wandering": 268, "undecided": 15}


def test_preperiodic_detect_takes_one_orbit_and_no_float_walk(monkeypatch):
    calls = []

    def counted_orbit(*args, **kwargs):
        calls.append(args)
        return orbit(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("the verdict must not read a float walk")

    monkeypatch.setattr(degrees, "orbit", counted_orbit)
    monkeypatch.setattr(degrees, "canonical_height", refuse)
    monkeypatch.setattr(degrees, "p1_height_walk", refuse)
    swap = RationalMapPN.from_strings(["y", "x"], ["x", "y"])
    for f, coords, kind in [
            (SQUARE, [2, 1], "wandering"), (SQUARE, [1, 1], "preperiodic"),
            (SUMSQ, [2, 1], "wandering"), (SUMSQ, [0, 1], "preperiodic"),
            (QUINT, [10 ** 10, 1], "wandering"),
            (HENON, [1, 2, 1], "undecided"), (swap, [2, 3], "preperiodic")]:
        calls.clear()
        assert preperiodic_detect(f, normalize(coords)).kind == kind
        assert len(calls) == 1


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


def test_counting_needs_a_bound():
    with pytest.raises(ContractViolation, match="at least one"):
        counting_function(power_heights(10), [])


def test_counting_warns_on_periodic():
    swap = MonomialMap(IntMat(((0, 1), (1, 0))))
    hs = monomial_arithdeg(swap, (2, 3), 10)
    report = counting_function(hs, [5.0])
    assert report.warning is not None


def test_counting_names_the_indeterminacy_step():
    # Cremona is undefined at [1 : 0 : 0], and it sends [1 : 1 : 0] there
    cremona = RationalMapPN.from_strings(["y*z", "x*z", "x*y"],
                                         ["x", "y", "z"], name="cremona")
    for coords, step in (([1, 0, 0], 0), ([1, 1, 0], 1)):
        hs = heights_from_orbit(orbit(cremona, normalize(coords), 10))
        assert len(hs) == step + 1 and hs.undefined_at == step
        report = counting_function(hs, [5.0, 50.0])
        assert report.warning == (
            f"orbit hit the indeterminacy locus at step {step}; counts stop"
            " there, not at nmax")
    hs = heights_from_orbit(orbit(SQUARE, normalize([2, 1]), 4))
    assert hs.undefined_at is None
    assert counting_function(hs, [500.0]).warning.endswith("truncated by nmax")


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


@pytest.mark.parametrize("a, c, h", [
    (math.nan, 1, [1.0, 2.0, 50.0]), (math.inf, 1, [1.0, 2.0]),
    (2, math.nan, [1.0, 2.0]), (2, math.inf, [1.0, 2.0]),
    (2, 3, [1.0, math.nan, 2.0]), (2, 3, [1.0, math.inf]),
    (2, 3, [math.nan, 1.0])])
def test_recursion_bound_rejects_non_finite_input(a, c, h):
    with pytest.raises(ContractViolation, match="finite"):
        recursion_bound_check(a, c, h)


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
