import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from arithdyn.errors import ConeNotPreserved, ContractViolation
from arithdyn.polynomials import strip
from arithdyn.projmaps import DegreeSequence, dyndeg_estimate
from arithdyn.spectral import (IntMat, SpectralEstimate, _outward, as_matrix,
                               birkhoff_cone_eigvec, char_poly,
                               format_matrix, parse_matrix, power_norms,
                               root_up, spectral_radius, submult_check,
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
            from arithdyn.spectral import determinant
            if abs(determinant(m)) >= 1:
                break
        est = spectral_radius(m)
        lo, hi = est.bracket
        norms = power_norms(m, 10)
        for n, norm in enumerate(norms, start=1):
            # rho(A)^n = rho(A^n) <= r * ||A^n||
            assert r * norm >= lo ** n * (1 - 1e-9)
