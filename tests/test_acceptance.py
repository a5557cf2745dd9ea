"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line with its
runtime (run pytest with -s to see every line).  Expected values are
either exact desk-scale oracles (integer identities, closed forms) or
certified brackets computed by independent routes.
"""

import math
import random
import time

import pytest

from arithdyn.campaign import run_campaign, rows_to_csv
from arithdyn.corpus import build_corpus
from arithdyn.degrees import (arithdeg_estimate, canonical_height,
                              counting_function, growth_fit,
                              growth_profile_nondiverging,
                              heights_from_values, preperiodic_detect,
                              recursion_bound_check)
from arithdyn.heights import normalize, weil_height
from arithdyn.monomial import (MonomialMap, factor_point, mon_dyndeg,
                               monomial_arithdeg, monomial_step,
                               reconstruct)
from arithdyn.polynomials import MultiPoly
from arithdyn.projmaps import (RationalMapPN, compose_normalized,
                               degree_sequence, dyndeg_estimate,
                               map_evaluate, orbit)
from arithdyn.spectral import IntMat, power_norms, spectral_radius

RHO_FIB2 = (3 + math.sqrt(5)) / 2


def p1_morphism_entries(entries=None):
    """The corpus entries that carry certified canonical heights."""
    entries = build_corpus() if entries is None else entries
    return [e for e in entries if e.kind == "projective" and e.canht]


class Timer:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        return False


def report(name, timer):
    assert timer.elapsed < timer.budget, \
        f"{name} took {timer.elapsed:.2f}s (budget {timer.budget}s)"
    print(f"ACCEPTANCE PASS: {name} ({timer.elapsed:.2f}s)")


@pytest.fixture(scope="module")
def campaign_rows():
    return run_campaign(build_corpus())


def test_power_map_exactness():
    with Timer(1.0) as t:
        f = RationalMapPN.from_strings(["x^2", "y^2"], ["x", "y"])
        rec = orbit(f, normalize([2, 1]), 20)
        assert len(rec.points) == 21
        for n, h in enumerate(rec.heights):
            assert h.exact_arg == 2 ** (2 ** n)
            assert h.value == pytest.approx(2 ** n * math.log(2), rel=1e-12)

        # alpha within 1e-3 needs a long tail; heights stay exact in
        # exponent space where h_n = 2^n log 2
        doubler = MonomialMap(IntMat(((2,),)))
        est = arithdeg_estimate(monomial_arithdeg(doubler, (2,), 1023),
                                tail_fraction=0.25)
        assert abs(est.upper_est - 2.0) <= 1e-3
        assert abs(est.lower_est - 2.0) <= 1e-3

        res = canonical_height(f, normalize([2, 1]), 2, mode="certified")
        assert res.mode == "certified_power"
        assert res.value == math.log(2)
        assert 0 < res.error_radius < 1e-15  # the rounding of log 2
    report("power-map exactness", t)


def test_cremona_involution():
    with Timer(1.0) as t:
        sigma = RationalMapPN.from_strings(["y*z", "x*z", "x*y"],
                                           ["x", "y", "z"], name="cremona")
        identity = RationalMapPN.from_strings(["x", "y", "z"],
                                              ["x", "y", "z"])
        assert compose_normalized(sigma, sigma) == identity
        seq = degree_sequence(sigma, 8)
        assert seq.degs == (2, 1, 2, 1, 2, 1, 2, 1)
        est = dyndeg_estimate(seq)
        assert est.certified
        assert est.certified_upper == 1.0
    report("Cremona involution", t)


def test_monomial_oracle():
    with Timer(5.0) as t:
        m = MonomialMap(IntMat(((2, 1), (1, 1))))
        spec = mon_dyndeg(m)
        assert spec.width <= 1e-9
        assert spec.bracket[0] <= RHO_FIB2 <= spec.bracket[1]

        est = arithdeg_estimate(monomial_arithdeg(m, (2, 3), 40))
        assert abs(est.upper_est - RHO_FIB2) <= 1e-3
        assert abs(est.lower_est - RHO_FIB2) <= 1e-3

        # exponent-space heights vs value-space reconstruction, exactly
        pt = factor_point((2, 3))
        for _ in range(7):
            coords = reconstruct(pt)
            denom = 1
            for c in coords:
                d = c.denominator
                denom = denom // math.gcd(denom, d) * d
            ints = [denom] + [int(c * denom) for c in coords]
            hv = weil_height(normalize(ints))
            exp_denom = 1
            for k, q in enumerate(pt.base):
                worst = max(0, max(-row[k] for row in pt.E))
                exp_denom *= q ** worst
            exp_arg = max([exp_denom] +
                          [abs(int(c * exp_denom)) for c in coords])
            assert exp_arg == hv.exact_arg
            from arithdyn.monomial import torus_height
            assert torus_height(pt) == pytest.approx(hv.value, abs=1e-9)
            pt = monomial_step(m, pt)
    report("monomial oracle", t)


def test_fundamental_inequality_corpus(campaign_rows):
    with Timer(60.0) as t:
        entries = build_corpus()
        assert len(entries) >= 12
        assert all(len(e.points) >= 3 for e in entries)
        kinds = {e.name for e in entries}
        assert any("power" in k for k in kinds)
        assert "coordinate-reciprocal" in kinds
        assert sum(1 for k in kinds if k.startswith("henon")) >= 1
        monomials = [e for e in entries if e.kind == "monomial"]
        assert len(monomials) >= 4
        # at least one torus automorphism (det = +-1) with rho > 1
        from arithdyn.spectral import determinant
        autos = [e for e in monomials
                 if abs(determinant(e.mapping.A.entries)) == 1
                 and mon_dyndeg(e.mapping).bracket[0] > 1]
        assert autos
        assert len(p1_morphism_entries(entries)) >= 5

        violations = [r for r in campaign_rows
                      if r.alpha_lower > r.delta_upper_cert + 1e-6]
        assert violations == []
        assert all(r.consistent for r in campaign_rows)
        assert len(campaign_rows) == sum(len(e.points) for e in entries)
    report("fundamental inequality over corpus", t)


def test_growth_bound_profiles(campaign_rows):
    with Timer(60.0) as t:
        assert all(r.growth_ok for r in campaign_rows)

        # synthetic fixture growing like (delta + 2 eps)^n must be flagged
        delta, eps = 2.0, 0.1
        fake = heights_from_values([(delta + 2 * eps) ** n
                                    for n in range(41)])
        fit = growth_fit(fake, delta, eps)
        assert not growth_profile_nondiverging(fit.profile)
    report("growth-bound profiles", t)


def test_canonical_height_laws():
    with Timer(60.0) as t:
        entries = p1_morphism_entries()
        assert len(entries) >= 5
        for entry in entries:
            f = entry.mapping
            d = f.degree
            for coords in entry.points:
                p = normalize(coords)
                rp = canonical_height(f, p, d, nmax=24, mode="certified")
                fp = map_evaluate(f, p)
                rfp = canonical_height(f, fp, d, nmax=24, mode="certified")
                gap = abs(rfp.value - d * rp.value)
                assert gap <= rp.error_radius + rfp.error_radius + 1e-12
                h0 = weil_height(p).value
                if d > 1:
                    assert abs(rp.value - h0) <= \
                        rp.step_constant / (d - 1) + 1e-9

        preperiodic_fixture = [
            ("square-powers", (1, 1)), ("square-powers", (0, 1)),
            ("cube-powers", (1, -1)), ("cube-powers", (0, 1)),
            ("angle-doubling", (1, 1)), ("sum-diff-squares", (0, 1)),
        ]
        by_name = {e.name: e.mapping for e in entries}
        for name, coords in preperiodic_fixture:
            rep = preperiodic_detect(by_name[name], normalize(coords))
            assert rep.kind == "preperiodic", (name, coords, rep)
        for name in by_name:
            rep = preperiodic_detect(by_name[name], normalize((2, 1)))
            res = canonical_height(by_name[name], normalize((2, 1)),
                                   by_name[name].degree, mode="certified")
            assert res.value - res.error_radius > 0
            assert rep.kind == "wandering", (name, rep)
    report("canonical-height laws", t)


def test_counting_function_power_orbit():
    with Timer(10.0) as t:
        doubler = MonomialMap(IntMat(((2,),)))
        hs = monomial_arithdeg(doubler, (2,), 60)
        grid = [hs.heights[j] for j in range(49, 59)]  # spans 10 heights
        report_rows = counting_function(hs, grid)
        assert report_rows.warning is None
        target = 1 / math.log(2)
        last = report_rows.rows[-1]
        assert abs(last.ratio - target) / target < 0.10
    report("counting function", t)


def test_norm_growth_sandwich():
    with Timer(60.0) as t:
        jordan = [[1, 1], [0, 1]]
        assert power_norms(jordan, 30) == list(range(1, 31))
        est = spectral_radius(jordan)
        assert est.bracket[0] <= 1.0 <= est.bracket[1]

        from arithdyn.spectral import determinant
        rng = random.Random(42)
        checked = 0
        while checked < 50:
            r = rng.choice([2, 3])
            mat = [[rng.randint(-5, 5) for _ in range(r)] for _ in range(r)]
            if abs(determinant(mat)) < 1:
                continue  # keep rho >= 1 so the sandwich constants exist
            spec = spectral_radius(mat)
            lo, hi = spec.bracket
            assert spec.width <= 1e-9
            norms = power_norms(mat, 15)
            for n, norm in enumerate(norms, start=1):
                # lower direction: rho^n = rho(A^n) <= r ||A^n||
                assert r * norm >= lo ** n * (1 - 1e-9)
            # upper direction: fit the n^r rho^n envelope on a prefix and
            # require it to keep dominating on the held-out suffix
            c2 = max(norms[n - 1] / (n ** r * hi ** n) for n in range(1, 9))
            for n in range(9, 16):
                assert norms[n - 1] <= 2.0 * c2 * n ** r * hi ** n
            checked += 1
    report("norm-growth sandwich", t)


def test_degree_submultiplicativity_random_quadratics():
    with Timer(120.0) as t:
        rng = random.Random(2024)
        quad_monos = [(2, 0, 0), (0, 2, 0), (0, 0, 2),
                      (1, 1, 0), (1, 0, 1), (0, 1, 1)]

        def random_quadratic_map():
            while True:
                polys = []
                for _ in range(3):
                    monos = rng.sample(quad_monos, rng.randint(2, 4))
                    terms = [(rng.choice([-3, -2, -1, 1, 2, 3]), mset)
                             for mset in monos]
                    polys.append(MultiPoly.from_terms(3, terms))
                try:
                    f = RationalMapPN(polys)
                except Exception:
                    continue
                if f.degree == 2:
                    return f

        for _ in range(20):
            f = random_quadratic_map()
            seq = degree_sequence(f, 6)
            assert not seq.truncated
            degs = seq.degs
            for m in range(1, 7):
                for n in range(m, 7 - m + 1):
                    if m + n <= 6:
                        assert degs[m + n - 1] <= degs[m - 1] * degs[n - 1]
    report("degree submultiplicativity", t)


def test_recursion_bound_battery():
    with Timer(30.0) as t:
        h = [1.0]
        for _ in range(50):
            h.append(2 * h[-1] + 3 * math.sqrt(h[-1]))
        rep = recursion_bound_check(2, 3, h)
        assert rep.applicable and rep.holds

        rng = random.Random(7)
        for _ in range(200):
            a = 1 + 3 * rng.random()
            c = 1 + 4 * rng.random()
            seq = [10 * rng.random()]
            for _ in range(50):
                seq.append(a * seq[-1] + c * math.sqrt(seq[-1]) * rng.random())
            rep = recursion_bound_check(a, c, seq)
            assert rep.applicable and rep.holds
    report("sqrt-step recursion bound", t)


def test_campaign_determinism(tmp_path):
    with Timer(60.0) as t:
        text_a = rows_to_csv(run_campaign(build_corpus()))
        text_b = rows_to_csv(run_campaign(build_corpus()))
        assert text_a == text_b

        from arithdyn.cli import main
        out1 = tmp_path / "report1.csv"
        out2 = tmp_path / "report2.csv"
        assert main(["campaign", "--out", str(out1)]) == 0
        assert main(["campaign", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text() == text_a
    report("campaign determinism", t)
