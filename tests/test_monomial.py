import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from arithdyn.errors import ContractViolation, NotOnTorus
from arithdyn.heights import normalize, weil_height
from arithdyn.monomial import (FactoredTorusPoint, MonomialMap, factor_point,
                               mon_dyndeg, monomial_arithdeg, monomial_orbit,
                               monomial_step, monomial_to_projective,
                               reconstruct, torus_height)
from arithdyn.spectral import IntMat


def MM(rows):
    return MonomialMap(IntMat(tuple(tuple(r) for r in rows)))


FIB2 = MM([[2, 1], [1, 1]])
RHO = (3 + math.sqrt(5)) / 2


# --- factoring --------------------------------------------------------------

def test_factor_simple():
    p = factor_point([2, 3])
    assert p.primes == (2, 3)
    assert p.E == ((1, 0), (0, 1))
    assert p.signs == (1, 1)


def test_factor_fractions():
    p = factor_point([Fraction(1, 2), 9])
    assert p.primes == (2, 3)
    assert p.E == ((-1, 0), (0, 2))


def test_factor_signs():
    p = factor_point([-6, 1])
    assert p.primes == (2, 3)
    assert p.E == ((1, 1), (0, 0))
    assert p.signs == (-1, 1)


def test_factor_rejects_zero():
    with pytest.raises(NotOnTorus):
        factor_point([2, 0])


def test_factor_matches_sympy_factorint():
    import sympy

    def expected(f):
        expo = {int(p): int(e) for p, e in
                sympy.factorint(abs(f.numerator)).items()}
        expo.update((int(p), -int(e)) for p, e in
                    sympy.factorint(f.denominator).items())
        return expo

    rng = random.Random(11)
    # cofactors above the trial-division bound: a prime near 2^61, the
    # product of two primes above 2^12, the square of 65537
    big = [(2 ** 61 - 1) * 12, 4099 * 4111, 65537 ** 2 * 5, 4093 * 4093]
    coords = [[Fraction(v)] for v in big] + [[Fraction(1, v)] for v in big]
    for _ in range(150):
        coords.append([Fraction(rng.choice((1, -1)) *
                                rng.randint(1, 10 ** rng.randint(1, 12)),
                                rng.randint(1, 10 ** rng.randint(1, 8)))
                       for _ in range(rng.randint(1, 3))])
    for c in coords:
        pt = factor_point(c)
        assert pt.signs == tuple(1 if f > 0 else -1 for f in c)
        for f, row in zip(c, pt.E):
            assert dict((p, e) for p, e in zip(pt.primes, row) if e) == \
                expected(f)
        assert reconstruct(pt) == tuple(c)


def test_factor_small_coordinates_without_sympy():
    # trial division settles every cofactor below 2^24
    code = ("import sys; from fractions import Fraction; "
            "from arithdyn.monomial import factor_point; "
            "factor_point((2, 3, Fraction(-12, 4095 * 4093))); "
            "print('sympy' in sys.modules)")
    path = [str(Path(__file__).resolve().parent.parent / "src"),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


def test_reconstruct_inverts_factor():
    coords = (Fraction(-45, 8), Fraction(7, 10))
    assert reconstruct(factor_point(coords)) == coords


# --- stepping ---------------------------------------------------------------

def test_step_identity():
    p = factor_point([2, 3])
    assert monomial_step(MM([[1, 0], [0, 1]]), p) == p


def test_step_doubling():
    p = factor_point([2, 3])
    q = monomial_step(MM([[2, 0], [0, 2]]), p)
    assert reconstruct(q) == (4, 9)


def test_step_mixed():
    q = monomial_step(FIB2, factor_point([2, 3]))
    assert reconstruct(q) == (12, 6)


def test_step_tracks_signs():
    q = monomial_step(MM([[1, 1], [0, 1]]), factor_point([-2, -3]))
    assert reconstruct(q) == (6, -3)


def test_singular_matrix_rejected():
    with pytest.raises(ContractViolation):
        MM([[1, 1], [1, 1]])


# --- heights ----------------------------------------------------------------

def test_torus_height_examples():
    assert torus_height(factor_point([2, 3])) == pytest.approx(math.log(3))
    assert torus_height(factor_point([Fraction(1, 2), 3])) == \
        pytest.approx(math.log(6))
    assert torus_height(factor_point([4, 9])) == pytest.approx(math.log(9))


def torus_point_projective(pt: FactoredTorusPoint):
    """The normalized projective point [1 : x_1 : ... : x_N] (small n only)."""
    return normalize((Fraction(1),) + reconstruct(pt))


def test_torus_height_matches_projective_reconstruction():
    rng = random.Random(13)
    mats = [FIB2, MM([[1, 1], [1, 0]]), MM([[1, -1], [-1, 2]]),
            MM([[0, 1], [1, 0]])]
    for m in mats:
        for _ in range(4):
            num = rng.choice([1, 2, 3, -2, 5])
            den = rng.choice([1, 2, 3])
            pt = factor_point([Fraction(num, den), rng.choice([2, 3, -6])])
            for _ in range(5):
                expect = weil_height(torus_point_projective(pt))
                assert torus_height(pt) == pytest.approx(expect.value,
                                                         abs=1e-9)
                pt = monomial_step(m, pt)


def test_sign_flip_leaves_height_unchanged():
    pt = factor_point([Fraction(-3, 4), 10])
    flipped = FactoredTorusPoint(primes=pt.primes, E=pt.E,
                                 signs=tuple(-s for s in pt.signs))
    assert torus_height(pt) == torus_height(flipped)


def test_coordinate_permutation_embedding_agrees():
    # [1 : x : y] and [x : y : 1] differ by a coordinate permutation,
    # so the exact heights coincide
    pt = factor_point([Fraction(5, 6), Fraction(-7, 2)])
    ref = weil_height(torus_point_projective(pt))
    x, y = reconstruct(pt)
    permuted = weil_height(normalize((x, y, Fraction(1))))
    assert permuted == ref


# --- degree sequences of heights --------------------------------------------

def test_arithdeg_identity_is_exactly_one():
    from arithdyn.degrees import arithdeg_estimate

    hs = monomial_arithdeg(MM([[1, 0], [0, 1]]), (2, 3), 10)
    assert hs.cycle is not None
    est = arithdeg_estimate(hs)
    assert est.exact and est.upper_est == est.lower_est == 1.0


def test_arithdeg_diagonal_doubling():
    hs = monomial_arithdeg(MM([[2, 0], [0, 2]]), (2, 3), 12)
    expect = [2 ** n * math.log(3) for n in range(13)]
    assert list(hs.heights) == pytest.approx(expect, rel=1e-12)


def test_arithdeg_fib_squared_tends_to_spectral_radius():
    from arithdyn.degrees import arithdeg_estimate

    hs = monomial_arithdeg(FIB2, (2, 3), 40)
    est = arithdeg_estimate(hs)
    assert abs(est.upper_est - RHO) < 1e-3
    assert abs(est.lower_est - RHO) < 1e-3


def test_orbit_cycle_detection_swap():
    pts, cycle = monomial_orbit(MM([[0, 1], [1, 0]]), factor_point([2, 3]), 8)
    assert cycle == (0, 2)
    assert len(pts) == 2


# --- dynamical degrees ------------------------------------------------------

def test_mon_dyndeg_identity():
    est = mon_dyndeg(MM([[1, 0], [0, 1]]))
    assert est.value == 1.0 and est.bracket[0] <= 1 <= est.bracket[1]


def test_mon_dyndeg_triangular():
    est = mon_dyndeg(MM([[2, 0], [0, 3]]))
    assert est.value == 3.0


def test_mon_dyndeg_quadratic_surd():
    est = mon_dyndeg(FIB2)
    assert est.bracket[0] <= RHO <= est.bracket[1]
    assert est.width <= 1e-9


def test_alpha_below_delta_for_tested_pairs():
    from arithdyn.degrees import arithdeg_estimate

    for mat, pt in [(FIB2, (2, 3)), (MM([[1, 1], [1, 0]]), (2, 3)),
                    (MM([[2, 0], [0, 3]]), (2, 2))]:
        hs = monomial_arithdeg(mat, pt, 36)
        est = arithdeg_estimate(hs)
        assert est.lower_est <= mon_dyndeg(mat).bracket[1] + 1e-6


# --- projective realization --------------------------------------------------

def test_projective_realization_positive_matrix():
    f = monomial_to_projective(FIB2)
    assert f.dim == 2 and f.degree == 3
    # affine check: (x, y) -> (x^2 y, x y) at (2, 3)
    img = normalize([1, 12, 6])
    from arithdyn.projmaps import map_evaluate
    assert map_evaluate(f, normalize([1, 2, 3])) == img


def test_projective_realization_negative_entries():
    m = MM([[1, -1], [-1, 2]])
    f = monomial_to_projective(m)
    from arithdyn.projmaps import map_evaluate
    got = map_evaluate(f, normalize([1, 2, 3]))
    # (x, y) -> (x / y, y^2 / x) at (2, 3) is (2/3, 9/2)
    assert got == normalize([1, Fraction(2, 3), Fraction(9, 2)])
