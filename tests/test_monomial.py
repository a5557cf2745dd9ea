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
                               mon_dyndeg, monomial_arithdeg, monomial_step,
                               monomial_to_projective, reconstruct,
                               torus_height)
from arithdyn.spectral import IntMat, determinant


def MM(rows):
    return MonomialMap(IntMat(tuple(tuple(r) for r in rows)))


def monomial_orbit(m, pt, nmax):
    """(points, cycle): pt and its images under monomial_step, up to nmax
    steps or the first point seen before, and cycle = (preperiod, period)
    of that repeat or None.  The oracle for the orbit monomial_arithdeg
    takes its heights from."""
    pts = [pt]
    for _ in range(nmax):
        nxt = monomial_step(m, pts[-1])
        if nxt in pts:
            start = pts.index(nxt)
            return pts, (start, len(pts) - start)
        pts.append(nxt)
    return pts, None


FIB2 = MM([[2, 1], [1, 1]])
RHO = (3 + math.sqrt(5)) / 2


# --- factoring --------------------------------------------------------------

def test_factor_simple():
    p = factor_point([2, 3])
    assert p.base == (2, 3)
    assert p.E == ((1, 0), (0, 1))
    assert p.signs == (1, 1)


def test_factor_fractions():
    p = factor_point([Fraction(1, 2), 9])
    assert p.base == (2, 9)
    assert p.E == ((-1, 0), (0, 1))


def test_factor_signs():
    p = factor_point([-6, 1])
    assert p.base == (6,)
    assert p.E == ((1,), (0,))
    assert p.signs == (-1, 1)


def test_factor_splits_shared_factors():
    p = factor_point([12, Fraction(-5, 18)])
    assert p.base == (2, 3, 5)
    assert p.E == ((2, 1, 0), (-1, -2, 1))


def test_factor_rejects_zero():
    with pytest.raises(NotOnTorus):
        factor_point([2, 0])


@pytest.mark.parametrize("base, E, signs", [
    ((2,), ((1,), (1,)), (1,)),          # a coordinate without a sign
    ((1, 2), ((1, 0), (0, 1)), (1, 1)),  # 1 makes exponents non-unique
    ((2, 6), ((1, 0), (0, 1)), (1, 1)),  # 2 and 6 share a factor
    ((2, 3), ((1, 0), (0, 1)), (1, 2)),  # a sign that is not +-1
])
def test_torus_point_rejects_malformed_base(base, E, signs):
    with pytest.raises(ContractViolation):
        FactoredTorusPoint(base=base, E=E, signs=signs)


# A full prime factoring of the coordinates (trial division below 2^12,
# sympy.factorint beyond): the reference the coprime base is checked
# against.  Prime bases are coprime too, so it builds the same point type.
_TRIAL_BOUND = 1 << 12


def _factor_int(n):
    """{prime: exponent} of an integer n >= 1.

    Trial division by 2 and the odd numbers below _TRIAL_BOUND; only a
    cofactor that is then still possibly composite goes to sympy.
    """
    expo = {}
    d = 2
    while d * d <= n:
        if d >= _TRIAL_BOUND:
            import sympy

            expo.update((int(p), int(e)) for p, e in
                        sympy.factorint(n).items())
            return expo
        while n % d == 0:
            expo[d] = expo.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        expo[n] = 1
    return expo


def prime_factor_point(coords) -> FactoredTorusPoint:
    """Fully factor nonzero rational coordinates into a FactoredTorusPoint."""
    fracs = [Fraction(c) for c in coords]
    if any(f == 0 for f in fracs):
        raise NotOnTorus("torus points have nonzero coordinates")
    factored = []
    primeset = set()
    signs = []
    for f in fracs:
        signs.append(1 if f > 0 else -1)
        # numerator and denominator are coprime: no prime is in both
        expo = _factor_int(abs(f.numerator))
        for p, e in _factor_int(f.denominator).items():
            expo[p] = -e
        primeset.update(expo)
        factored.append(expo)
    primes = tuple(sorted(primeset))
    E = tuple(tuple(expo.get(p, 0) for p in primes) for expo in factored)
    return FactoredTorusPoint(base=primes, E=E, signs=tuple(signs))


def _random_invertible(rng, r):
    while True:
        rows = [[rng.choice((-1, 0, 0, 1, 1, 2)) for _ in range(r)]
                for _ in range(r)]
        try:
            return MM(rows)
        except ContractViolation:
            continue


def test_coprime_base_matches_prime_factoring():
    rng = random.Random(11)
    # cofactors above the old trial-division bound: a prime near 2^61,
    # the product of two primes above 2^12, the square of 65537
    big = [(2 ** 61 - 1) * 12, 4099 * 4111, 65537 ** 2 * 5, 4093 * 4093]
    cases = [(FIB2, (Fraction(v), 3)) for v in big]
    cases += [(FIB2, (Fraction(1, v), 3)) for v in big]
    # composites that no other coordinate splits stay base entries
    cases += [(FIB2, (6, 35)), (MM([[0, 1], [1, 0]]), (6, 35)),
              (MM([[1, -1], [-1, 2]]), (Fraction(-10, 21), 4))]
    for _ in range(400):
        r = rng.randint(2, 4)
        coords = tuple(Fraction(rng.choice((1, -1)) *
                                rng.randint(1, 10 ** rng.randint(1, 12)),
                                rng.randint(1, 10 ** rng.randint(1, 8)))
                       for _ in range(r))
        cases.append((_random_invertible(rng, r), coords))
    unsplit = 0
    for m, coords in cases:
        got, want = factor_point(coords), prime_factor_point(coords)
        unsplit += got.base != want.base
        assert reconstruct(got) == reconstruct(want) == tuple(coords)
        got_pts, got_cycle = monomial_orbit(m, got, 30)
        want_pts, want_cycle = monomial_orbit(m, want, 30)
        assert got_cycle == want_cycle
        assert len(got_pts) == len(want_pts)
        for a, b in zip(got_pts, want_pts):
            assert math.isclose(torus_height(a), torus_height(b),
                                rel_tol=1e-15)
    assert unsplit > 100    # the two bases differ on many cases


N_SEMIPRIME = 30000000000000000000000000001819000000000000000000000000006213


def test_large_coordinate_needs_no_factoring():
    # factoring the product of two primes near 10^30 takes minutes; the
    # coprime base keeps it whole, so sympy is never needed
    code = ("import sys; sys.modules['sympy'] = None; "
            "from arithdyn.cli import main; "
            "sys.exit(main(['arithdeg', '--map', sys.argv[1], "
            "'--point', sys.argv[2], '--n', '40']))")
    root = Path(__file__).resolve().parent
    path = [str(root.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-c", code,
                          str(root / "golden" / "cli" / "mono.json"),
                          f"{N_SEMIPRIME},3"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    header, row = run.stdout.splitlines()
    assert header.startswith("alpha_lower,alpha_upper,")
    assert all(math.isfinite(float(v)) for v in row.split(",")[:2])


def test_semiprime_heights_match_prime_factoring():
    import sympy

    p = int(sympy.nextprime(10 ** 30))
    q = int(sympy.nextprime(p))
    got = factor_point((p * q, 3))
    assert got.base == (3, p * q)
    primed = FactoredTorusPoint(base=(3, p, q), E=((0, 1, 1), (1, 0, 0)),
                                signs=(1, 1))
    got_pts, _ = monomial_orbit(FIB2, got, 40)
    primed_pts, _ = monomial_orbit(FIB2, primed, 40)
    for a, b in zip(got_pts, primed_pts, strict=True):
        assert math.isclose(torus_height(a), torus_height(b), rel_tol=1e-15)


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
    flipped = FactoredTorusPoint(base=pt.base, E=pt.E,
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


def row_torus_height(pt):
    """torus_height as a loop over the rows of E: the oracle the orbit's
    heights must match bit for bit."""
    logs = [math.log(q) for q in pt.base]
    h = 0.0
    for k, lq in enumerate(logs):
        worst = max(0, max((-row[k] for row in pt.E), default=0))
        if worst:
            h += lq * worst
    arch = 0.0
    for row in pt.E:
        val = sum(e * lq for lq, e in zip(logs, row))
        arch = max(arch, val)
    return h + max(0.0, arch)


def _seeded_orbit_cases(seed, count):
    """(rows, coords, nmax): invertible matrices of size 2 to 6 with
    entries in [-2, 2], every third one a signed permutation (so that the
    orbit cycles), at points with negative and fractional coordinates."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        r = rng.randint(2, 6)
        if i % 3 == 0:
            perm = rng.sample(range(r), r)
            rows = [[rng.choice((1, -1)) if j == perm[k] else 0
                     for j in range(r)] for k in range(r)]
        else:
            while True:
                rows = [[rng.randint(-2, 2) for _ in range(r)]
                        for _ in range(r)]
                if determinant(rows):
                    break
        coords = tuple(Fraction(rng.choice((1, -1)) * rng.randint(1, 90),
                                rng.randint(1, 12)) for _ in range(r))
        out.append((rows, coords, rng.randint(0, 60)))
    return out


PLAIN_ORBIT_CASES = [
    ([[0, 1], [1, 0]], (2, 3), 20),
    ([[0, -1], [1, 0]], (2, Fraction(-1, 3)), 20),
    ([[-1, 0], [0, 1]], (-2, 5), 20),
    ([[2, 1], [1, 1]], (6, Fraction(5, 7)), 20),
    ([[1, 1, 0], [0, 1, 1], [1, 0, 0]], (2, 3, -5), 20),
    ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], (-2, Fraction(3, 4), 5), 60),
    ([[2, 1], [1, 1]], (Fraction(-5, 6), 7), 60),
    ([[1, 0], [0, 1]], (-1, 1), 5),
    *_seeded_orbit_cases(23, 45),
]


# the ids name the cases by index, as for the first five before nmax
# was a parameter
@pytest.mark.parametrize("rows, coords, nmax", [
    pytest.param(*case, id=f"rows{i}-coords{i}")
    for i, case in enumerate(PLAIN_ORBIT_CASES)])
def test_arithdeg_heights_and_cycle_match_the_plain_orbit(rows, coords,
                                                          nmax):
    m, pt = MM(rows), factor_point(coords)
    pts, cycle = monomial_orbit(m, pt, nmax)
    hs = monomial_arithdeg(m, coords, nmax)
    assert hs.cycle == cycle
    assert hs.heights == tuple(row_torus_height(p) for p in pts)
    assert hs.heights == tuple(torus_height(p) for p in pts)


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
