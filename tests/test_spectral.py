import collections
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from arithdyn import spectral
from arithdyn.errors import ConeNotPreserved, ContractViolation
from arithdyn.projmaps import DegreeSequence, dyndeg_estimate
from arithdyn.spectral import (IntMat, SpectralEstimate,
                               _all_roots_inside_radius, _outward,
                               as_matrix, bareiss, birkhoff_cone_eigvec,
                               char_poly, determinant, format_matrix,
                               parse_matrix, power_norms, root_up,
                               spectral_radius, strip, submult_check,
                               supnorm)

FIB2 = [[2, 1], [1, 1]]
JORDAN = [[1, 1], [0, 1]]
RHO = (3 + math.sqrt(5)) / 2
PHI = (1 + math.sqrt(5)) / 2


def test_supnorm():
    assert supnorm([[1, 0], [0, 1]]) == 1
    assert supnorm([[2, -5], [0, 1]]) == 5
    assert supnorm([[0, 0], [0, 0]]) == 0


def test_power_norms_jordan_block():
    assert power_norms(JORDAN, 30) == list(range(1, 31))


def test_power_norms_diagonal():
    assert power_norms([[2, 0], [0, 1]], 6) == [2 ** n for n in range(1, 7)]


def test_power_norms_fib():
    # exact products: odd-indexed Fibonacci numbers 2, 5, 13, 34, ...
    norms = power_norms(FIB2, 6)
    assert norms == [2, 5, 13, 34, 89, 233]
    # the n-th root ratios head toward the spectral radius
    assert norms[-1] ** (1 / 6) == pytest.approx(RHO, abs=0.2)


def test_char_poly_fib():
    assert char_poly(FIB2) == [1, -3, 1]


def test_char_poly_jordan_and_square_free():
    p = char_poly(JORDAN)
    assert p == [1, -2, 1]


REPEATED_ROOTS = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[2, 0, 0], [0, 2, 0], [0, 0, 3]],
    [[5, 1, 0], [0, 5, 1], [0, 0, 5]],   # 3x3 Jordan block
    [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    [[0, 1, 2], [0, 0, 3], [0, 0, 0]],   # nilpotent
]


def test_char_poly_and_square_free_part_match_sympy():
    import sympy

    lam = sympy.Symbol("lam")
    rng = random.Random(11)
    randoms = [[[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
               for n in (rng.randint(2, 6) for _ in range(50))]
    for rows in REPEATED_ROOTS + randoms:
        cp = sympy.Matrix(rows).charpoly(lam)
        p = char_poly(rows)
        assert p == [int(c) for c in reversed(cp.all_coeffs())], rows


def _square_free_part(p):
    """sympy's integer square-free part, lowest power first."""
    import sympy

    lam = sympy.Symbol("lam")
    sqf = sympy.Poly(list(reversed(p)), lam, domain="ZZ").sqf_part()
    return [int(c) for c in reversed(sqf.all_coeffs())]


def _inside_unit_fraction(coeffs):
    """Schur-Cohn test in Fractions: all roots strictly inside |z| < 1."""
    c = strip([Fraction(x) for x in coeffs])
    while len(c) > 1:
        a0, an = c[0], c[-1]
        if abs(a0) >= abs(an):
            return False
        n = len(c) - 1
        c = strip([an * c[k] - a0 * c[n - k] for k in range(1, n + 1)])
        if not c:
            return False
    return True


def spectral_radius_oracle(a, tol=1e-9) -> SpectralEstimate:
    """Reference for spectral_radius: the same bisection, run in Fractions
    on the square-free part of the characteristic polynomial."""
    sf = _square_free_part(char_poly(a))
    cauchy = 1 + max(Fraction(abs(c), abs(sf[-1])) for c in sf[:-1])
    lo, hi = Fraction(0), cauchy + 1
    while hi - lo > Fraction(tol):
        mid = (lo + hi) / 2
        if _inside_unit_fraction([c * mid ** k for k, c in enumerate(sf)]):
            hi = mid
        else:
            lo = mid
    value = float((lo + hi) / 2)
    cand = round(value)
    if lo <= cand <= hi and 0 in (
            sum(c * cand ** k for k, c in enumerate(sf)),
            sum(c * (-cand) ** k for k, c in enumerate(sf))):
        value = float(cand)
    return SpectralEstimate(value=value, method="char_poly_root",
                            bracket=_outward(lo, hi))


def _random_matrices(seed, count, bound):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 6)
        out.append([[rng.randint(-bound, bound) for _ in range(n)]
                    for _ in range(n)])
    return out


# entries in [-1, 1] give repeated eigenvalues often, [-3, 3] rarely
SEEDED = _random_matrices(5, 60, 3) + _random_matrices(6, 60, 1)


def test_spectral_radius_matches_oracle_on_square_free():
    square_free = [rows for rows in SEEDED
                   if _square_free_part(char_poly(rows)) == char_poly(rows)]
    assert len(square_free) >= 100
    for rows in square_free:
        assert spectral_radius(rows) == spectral_radius_oracle(rows), rows


def _triangular_repeated(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 5)
        diag = [rng.randint(-4, 4) for _ in range(n - 1)]
        diag.append(rng.choice(diag))
        rng.shuffle(diag)
        out.append([[diag[i] if i == j else
                     rng.randint(-3, 3) if i < j else 0
                     for j in range(n)] for i in range(n)])
    return out


def test_spectral_radius_repeated_roots_against_oracle():
    for rows in REPEATED_ROOTS + _triangular_repeated(17, 30):
        rho = max(abs(rows[i][i]) for i in range(len(rows)))
        est = spectral_radius(rows)
        ref = spectral_radius_oracle(rows)
        assert est.value == ref.value == rho, rows
        assert est.bracket[0] <= rho <= est.bracket[1], rows
        assert est.width <= 1e-9, rows
    # repeated roots off the triangular form, irrational radii included
    repeated = [rows for rows in SEEDED
                if _square_free_part(char_poly(rows)) != char_poly(rows)]
    assert len(repeated) >= 5
    for rows in repeated:
        est = spectral_radius(rows)
        ref = spectral_radius_oracle(rows)
        assert est.bracket[0] <= ref.bracket[1], rows
        assert ref.bracket[0] <= est.bracket[1], rows
        assert est.width <= 1e-9, rows


def bisection_oracle(a, tol):
    """(estimate, tests): spectral_radius as a plain bisection of [0, H]
    in Fractions, H = 2 + max |c_i|, halving until the width is <= tol,
    with the number of Schur-Cohn tests it made."""
    p = char_poly(a)
    lo, hi = Fraction(0), Fraction(2 + max(abs(c) for c in p[:-1]))
    tests = 0
    while hi - lo > Fraction(tol):
        mid = (lo + hi) / 2
        tests += 1
        if _all_roots_inside_radius(p, mid):
            hi = mid
        else:
            lo = mid
    value = float((lo + hi) / 2)
    cand = round(value)
    if lo <= cand <= hi and 0 in (
            sum(c * cand ** k for k, c in enumerate(p)),
            sum(c * (-cand) ** k for k, c in enumerate(p))):
        value = float(cand)
    return SpectralEstimate(value=value, method="char_poly_root",
                            bracket=_outward(lo, hi)), tests


def _count_tests(monkeypatch):
    calls = []
    test = spectral._all_roots_inside_radius
    monkeypatch.setattr(spectral, "_all_roots_inside_radius",
                        lambda p, r: calls.append(r) or test(p, r))
    return calls


# the seed as found, then stand-ins: the true radius with no error, one
# far above it (on odd-numbered matrices) or below it, and no seed at all
SEEDS = {
    "found": None,
    "true": lambda rho, i: (rho, 0.0),
    "wrong": lambda rho, i: (7 * rho + 3, 1e-12) if i % 2 else
                            (rho / 5 - 1, 0.0),
    "none": lambda rho, i: None,
}


@pytest.mark.parametrize("tol", [1e-3, 1e-9, 1e-20])
def test_bracket_does_not_depend_on_the_seed(tol, monkeypatch):
    """The bracket is the cell of the bisection grid, whatever the seed,
    and the seeded search makes at most two tests more than the
    bisection: it probes twice and bisects what is left."""
    found = spectral._radius_seed
    calls = _count_tests(monkeypatch)
    mats = SEEDED + REPEATED_ROOTS + _triangular_repeated(17, 30)
    for i, rows in enumerate(mats):
        ref, ref_tests = bisection_oracle(rows, tol)
        for name, seed in SEEDS.items():
            monkeypatch.setattr(
                spectral, "_radius_seed",
                found if seed is None else
                lambda p, seed=seed: seed(ref.value, i))
            calls.clear()
            assert spectral_radius(rows, tol) == ref, (name, rows)
            assert len(calls) <= ref_tests + 2, (name, rows)


def test_seeded_search_cost_on_the_corpus(monkeypatch):
    """The seed as found leaves at most three cells to bisect: two probes
    and at most two more tests."""
    from arithdyn import corpus

    calls = _count_tests(monkeypatch)
    mats = [e.mapping.A for e in corpus.build_corpus()
            if e.kind == "monomial"]
    assert len(mats) == 5
    for a in mats:
        calls.clear()
        assert spectral_radius(a, 1e-9) == bisection_oracle(a, 1e-9)[0]
        assert len(calls) <= 4, a


def test_no_seed_outside_the_float_range():
    """A coefficient past the float range leaves the search unseeded."""
    rows = [[10 ** 155, 0], [0, -10 ** 155]]   # det -10^310
    assert spectral._radius_seed(char_poly(rows)) is None
    assert spectral_radius(rows) == bisection_oracle(rows, 1e-9)[0]


def test_spectral_radius_without_sympy():
    # repeated roots take the same integer Schur-Cohn test as any other
    code = ("import sys; from arithdyn.spectral import spectral_radius; "
            "print([spectral_radius(m).value for m in ("
            "[[1, 0, 0], [0, 1, 0], [0, 0, 1]], "
            "[[2, 0, 0], [0, 2, 0], [0, 0, 3]], "
            "[[5, 1, 0], [0, 5, 1], [0, 0, 5]])], "
            "'sympy' in sys.modules)")
    path = [str(Path(__file__).resolve().parent.parent / "src"),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[1.0, 3.0, 5.0] False\n"


def test_spectral_radius_identity_exact():
    est = spectral_radius([[1, 0], [0, 1]])
    assert est.value == 1.0
    assert est.bracket[0] <= 1.0 <= est.bracket[1]
    assert est.method == "char_poly_root"


def test_spectral_radius_fib_bracket():
    est = spectral_radius(FIB2)
    assert est.width <= 1e-9
    assert est.bracket[0] <= RHO <= est.bracket[1]


@pytest.mark.parametrize("mat, trace, det", [
    ([[2, 1], [1, 1]], 3, 1),   # float(lo) lies above lo: lo is rounded down
    ([[3, 1], [1, 1]], 4, 2),   # float(hi) lies below hi: hi is rounded up
])
def test_spectral_radius_bracket_rounded_outward(mat, trace, det):
    """At tol=1e-9 the bisection ends are dyadic floats; at tol=1e-20 they
    are not, and the float bracket must still enclose the larger root of
    p(t) = t^2 - trace t + det, where p changes sign upward."""
    def p(t):
        t = Fraction(t)
        return t * t - trace * t + det

    for tol in (1e-9, 1e-20):
        lo, hi = spectral_radius(mat, tol=tol).bracket
        assert lo < hi
        assert p(lo) <= 0 <= p(hi)


def test_spectral_radius_jordan():
    est = spectral_radius(JORDAN)
    assert est.bracket[0] <= 1.0 <= est.bracket[1]
    # polynomial factor of the norm growth is invisible to the radius
    assert power_norms(JORDAN, 10) == list(range(1, 11))


def test_spectral_radius_zero_and_rotation():
    z = spectral_radius([[0, 0], [0, 0]])
    assert z.bracket[0] <= 0.0 <= z.bracket[1] and z.bracket[1] <= 1e-9
    rot = spectral_radius([[0, -1], [1, 0]])  # complex pair of modulus 1
    assert rot.bracket[0] <= 1.0 <= rot.bracket[1]


def test_spectral_radius_negative_dominant():
    est = spectral_radius([[-3, 0], [0, 2]])
    assert est.value == 3.0


def test_spectral_radius_powers_consistent():
    base = spectral_radius(FIB2)
    m = as_matrix(FIB2)
    cur = m
    for k in range(2, 5):
        cur = cur @ m
        est = spectral_radius(cur)
        lo = base.bracket[0] ** k
        hi = base.bracket[1] ** k
        assert est.bracket[0] <= hi and lo <= est.bracket[1]


def spectral_radius_norm_limit(a, kmax=20) -> SpectralEstimate:
    """Coarse norm-based bracket: rho <= (r ||A^k||)^(1/k) for every k, and
    rho >= (|tr A^k| / r)^(1/k).  An independent cross-check of
    spectral_radius."""
    a = as_matrix(a)
    r = a.r
    norms = power_norms(a, kmax)
    upper = min((r * n) ** (1.0 / k) if n else 0.0
                for k, n in enumerate(norms, start=1))
    lower = 0.0
    cur = a
    for k in range(1, kmax + 1):
        tr = abs(sum(cur.entries[i][i] for i in range(r)))
        if tr:
            lower = max(lower, (tr / r) ** (1.0 / k))
        cur = cur @ a
    return SpectralEstimate(value=upper, method="norm_limit",
                            bracket=(lower, upper))


def test_norm_limit_method_brackets_true_value():
    est = spectral_radius_norm_limit(FIB2, kmax=12)
    assert est.method == "norm_limit"
    assert est.bracket[0] <= RHO <= est.bracket[1]


# --- cone eigenvectors ------------------------------------------------------

def test_birkhoff_identity():
    v, lam = birkhoff_cone_eigvec([[1, 0], [0, 1]])
    assert v == (0.5, 0.5)  # deterministic all-ones start
    assert lam == 1.0


def test_birkhoff_fib():
    v, lam = birkhoff_cone_eigvec(FIB2)
    assert lam == pytest.approx(RHO, abs=1e-7)
    assert v[0] / v[1] == pytest.approx(PHI, abs=1e-6)
    # residual bound
    av = as_matrix(FIB2).mat_vec([v[0], v[1]])
    assert max(abs(a - lam * x) for a, x in zip(av, v)) <= 1e-6


def test_birkhoff_swap():
    v, lam = birkhoff_cone_eigvec([[0, 1], [1, 0]])
    assert v == (0.5, 0.5) and lam == 1.0


def test_birkhoff_rejects_negative_entries():
    with pytest.raises(ConeNotPreserved):
        birkhoff_cone_eigvec([[1, -1], [0, 1]])


def test_birkhoff_reducible():
    v, lam = birkhoff_cone_eigvec([[1, 0], [0, 2]])
    assert lam == pytest.approx(2.0, abs=1e-6)
    assert v[1] == pytest.approx(1.0, abs=1e-4)


# --- submultiplicativity / Fekete -------------------------------------------

def test_submult_power_norms_with_dimension_constant():
    norms = power_norms(FIB2, 8)
    assert submult_check(norms, 2)       # C = r = 2 from ||AB|| <= r||A|| ||B||
    assert not submult_check(norms, 1)   # 5 > 2 * 2


def test_submult_cremona_degrees():
    assert submult_check([2, 1, 2, 1], 1)


def test_submult_corrupted():
    assert not submult_check([1, 1, 5], 1)


def fekete(seq):
    """(min over n of seq[n]^(1/n) rounded up, submultiplicative with
    constant 1), read off the dynamical-degree estimator."""
    est = dyndeg_estimate(DegreeSequence(tuple(seq)))
    return est.certified_upper, est.certified


def test_fekete_geometric():
    assert fekete([2, 4, 8, 16]) == (2.0, True)


def test_fekete_integer_limit_is_exact_and_certified():
    for d in range(2, 10):
        assert fekete([d ** n for n in range(1, 9)]) == (float(d), True), d


def test_root_up_beyond_float_range():
    assert root_up(9 ** 400, 400) == 9.0
    above = math.nextafter(2.0 ** 1000, math.inf)
    assert root_up(2 ** 2000 + 1, 2) == above


def fraction_root_up(d, n):
    """Test-local oracle: root_up compared through Fractions."""
    b = math.exp(math.log(d) / n)
    while Fraction(b) ** n < d:
        b = math.nextafter(b, math.inf)
    while Fraction(math.nextafter(b, 0.0)) ** n >= d:
        b = math.nextafter(b, 0.0)
    return b


def fraction_submult_check(norms, c):
    """Test-local oracle: submult_check compared through Fractions."""
    cf = Fraction(c)
    vals = [Fraction(x) for x in norms]
    return all(vals[m + n - 1] <= cf * vals[m - 1] * vals[n - 1]
               for m in range(1, len(vals) + 1)
               for n in range(m, len(vals) - m + 1))


def test_integer_comparisons_match_fraction_oracles():
    rng = random.Random(2718)
    for _ in range(1500):
        d, n = rng.randint(1, 2 ** 24), rng.randint(1, 500)
        assert root_up(d, n) == fraction_root_up(d, n), (d, n)
    # d^(1/n) must be a float: n = 1 only below the float range
    for d in (1, 2, 3, 2 ** 24 - 1, 2 ** 24, 3 ** 300, 2 ** 2000 + 1):
        for n in (1, 2, 7, 64, 499, 500)[d > 2 ** 24:]:
            assert root_up(d, n) == fraction_root_up(d, n), (d, n)
    seen = collections.Counter()
    for trial in range(600):
        length = rng.randint(0, 30)
        kind = trial % 3
        if kind == 0:
            norms = [rng.randint(1, 60) for _ in range(length)]
        elif kind == 1:
            # near-geometric degrees, submultiplicative or just not
            d = rng.randint(2, 5)
            norms = [d ** k + rng.choice([0, 0, 0, -1, 1])
                     for k in range(1, length + 1)]
        else:
            norms = [rng.choice([
                rng.randint(1, 40),
                Fraction(rng.randint(1, 99), rng.randint(1, 9)),
                rng.uniform(0.5, 40.0)]) for _ in range(length)]
        c = rng.choice([1, 2, 1.0, 0.75, rng.uniform(0.0, 3.0),
                        Fraction(3, 2), -1])
        got = submult_check(norms, c)
        assert got == fraction_submult_check(norms, c), (norms, c)
        seen[kind, got] += 1
    assert min(seen[k, v] for k in range(3) for v in (True, False)) >= 30, \
        seen


def test_fekete_cremona():
    assert fekete([2, 1, 2, 1]) == (1.0, True)


def test_fekete_norms_not_certified():
    estimate, certified = fekete(power_norms(FIB2, 4))
    assert not certified  # needs C = 2, so no Fekete certificate
    assert estimate >= RHO - 0.7


def test_fekete_rejects_bad_input():
    for seq in ([], [1, 0, 2], [2, -4]):
        with pytest.raises(ContractViolation):
            fekete(seq)


# --- text form ---------------------------------------------------------------

def test_intmat_rejects_non_integer_entries():
    with pytest.raises(ContractViolation):
        IntMat(((1.5, 0), (0, 1)))
    assert IntMat((("2", "1"), ("1", "1"))).entries == ((2, 1), (1, 1))


def test_matrix_text_roundtrip():
    m = parse_matrix("2,1;1,1")
    assert m.entries == ((2, 1), (1, 1))
    assert format_matrix(m) == "2,1;1,1"
    assert parse_matrix("1,−1;0,2").entries == ((1, -1), (0, 2))


# --- randomized sandwich (small version; the full one is in acceptance) -----

def test_norm_sandwich_random_small():
    rng = random.Random(101)
    for _ in range(8):
        r = rng.choice([2, 3])
        while True:
            m = [[rng.randint(-5, 5) for _ in range(r)] for _ in range(r)]
            if abs(determinant(m)) >= 1:
                break
        est = spectral_radius(m)
        lo, hi = est.bracket
        norms = power_norms(m, 10)
        for n, norm in enumerate(norms, start=1):
            # rho(A)^n = rho(A^n) <= r * ||A^n||
            assert r * norm >= lo ** n * (1 - 1e-9)


# --- fraction-free elimination ----------------------------------------------

def fraction_solve(rows, b):
    """det M and M^-1 b by Gaussian elimination over Q; (0, None) when M
    is singular."""
    n = len(rows)
    m = [[Fraction(x) for x in r] + [Fraction(bi)] for r, bi in zip(rows, b)]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            ratio = m[i][k] / m[k][k]
            m[i] = [a - ratio * c for a, c in zip(m[i], m[k])]
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        tail = sum(m[i][j] * x[j] for j in range(i + 1, n))
        x[i] = (m[i][n] - tail) / m[i][i]
    return det, x


def test_bareiss_matches_fraction_elimination():
    rng = random.Random(1968)
    singular = swapped = 0
    for trial in range(240):
        n = rng.randint(1, 6)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        kind = trial % 4
        if kind == 1 and n > 1:
            # the last row a combination of the first two (or a copy)
            m[-1] = [2 * a - b for a, b in zip(m[0], m[min(1, n - 2)])]
        elif kind == 2:
            m[0][0] = 0  # the first pivot needs a row swap
        elif kind == 3 and n > 2:
            # rows 0 and 1 agree on two columns: pivot 1 vanishes after
            # the first step and needs a swap with a later row
            m[1][:2] = m[0][:2]
        rhs = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(2)]
        mat = as_matrix(m)
        det, sols = bareiss(m, rhs)
        assert det == determinant(m) == determinant(mat)
        for b, y in zip(rhs, sols or [None, None]):
            fdet, x = fraction_solve(m, b)
            assert det == fdet
            if det:
                assert y == [det * xi for xi in x]
                assert mat.mat_vec(y) == [det * bi for bi in b]
        if det == 0:
            assert sols == []
            singular += 1
        # a nonsingular matrix of kind 2 or 3 takes a row swap
        swapped += det != 0 and n > kind - 1 and kind in (2, 3)
    assert singular >= 50 and swapped >= 60
