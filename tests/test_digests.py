"""Seeded bit-identity digests of the exact and float kernels.

Each family runs a fixed, seeded set of inputs through one kernel and
hashes a canonical text of the results (floats as ``float.hex``, maps by
``repr`` and degree, errors by exception name).  tests/golden/digests.json
stores one sha256 per family, so a refactor that moves any result bit
fails here and names the family that moved.  A change that moves bits on
purpose must regenerate the golden deliberately:
``PYTHONPATH=src python tests/test_digests.py``.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from arithdyn.corpus import build_corpus
from arithdyn.degrees import p1_height_walk, preperiodic_detect
from arithdyn.errors import ArithDynError
from arithdyn.heights import normalize
from arithdyn.polynomials import (MultiPoly, format_poly, poly_divmod_exact,
                                  poly_mul)
from arithdyn.projmaps import (RationalMapPN, compose_normalized, compose_raw,
                               default_varnames)
from arithdyn.spectral import birkhoff_cone_eigvec

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"


def _random_form(rng, nvars, degree, coeff=3, density=0.7):
    """A random homogeneous form; may be zero."""
    terms = []
    for exps in _exponents(nvars, degree):
        if rng.random() < density:
            terms.append((rng.randint(-coeff, coeff), exps))
    return MultiPoly.from_terms(nvars, terms)


def _exponents(nvars, degree):
    if nvars == 1:
        return [(degree,)]
    return [(e,) + rest for e in range(degree, -1, -1)
            for rest in _exponents(nvars - 1, degree - e)]


def _p1_maps(rng, count):
    """Maps of P^1 of degree 1-4; unit-resultant power-like maps included."""
    maps = [RationalMapPN.from_strings(texts) for texts in (
        ["x^2", "y^2"], ["x^3", "y^3"], ["x^2+x*y", "y^2"], ["x+y", "y"],
        ["x", "x+y"], ["x^4-y^4", "y^4"], ["x^2+y^2", "x*y"])]
    while len(maps) < count:
        d = rng.randint(1, 4)
        polys = [_random_form(rng, 2, d) for _ in range(2)]
        try:
            maps.append(RationalMapPN(polys))
        except ArithDynError:
            continue
    return maps


def walk_family():
    """p1_height_walk heights as float hex, depth 20, three starts each."""
    rng = random.Random(9001)
    lines = []
    for f in _p1_maps(rng, 300):
        for _ in range(3):
            start = normalize([rng.randint(-9, 9), rng.randint(1, 9)])
            hs = p1_height_walk(f, start, 20)
            lines.append(f"{f!r} {start} " + " ".join(h.hex() for h in hs))
    return lines


def maps_family():
    """Canonical forms of seeded P^1/P^2 constructions (common factors,
    integer content, negative leads) and of their self-compositions."""
    rng = random.Random(9002)
    lines = []
    for k in range(400):
        nv = 2 if k % 2 else 3
        d = rng.randint(1, 2)
        polys = [_random_form(rng, nv, d) for _ in range(nv)]
        if k % 3 == 0:
            common = _random_form(rng, nv, 1, coeff=2)
            if not common.is_zero():
                polys = [poly_mul(p, common) for p in polys]
        scale = rng.choice([1, -1, 2, -3, 6])
        polys = [MultiPoly(p.nvars, {key: c * scale
                                     for key, c in p.terms.items()},
                           p.degree) for p in polys]
        try:
            f = RationalMapPN(polys)
        except ArithDynError as exc:
            lines.append(f"{k} {type(exc).__name__}")
            continue
        try:
            ff = compose_normalized(f, f)
        except ArithDynError as exc:
            lines.append(f"{k} {f!r} {f.degree} {type(exc).__name__}")
            continue
        lines.append(f"{k} {f!r} {f.degree} {ff!r} {ff.degree}")
    return lines


def divmod_family():
    """poly_divmod_exact quotients of seeded products, None for
    non-multiples."""
    rng = random.Random(9003)
    lines = []
    for k in range(300):
        nv = rng.randint(2, 4)
        a = _random_form(rng, nv, rng.randint(0, 3))
        b = _random_form(rng, nv, rng.randint(0, 3))
        if b.is_zero():
            continue
        p = poly_mul(a, b)
        if k % 2:
            # perturb one coefficient of the product (or make one up)
            exps = rng.choice(_exponents(nv, max(p.degree, 0)))
            bump = MultiPoly.monomial(nv, rng.choice([-1, 1, 2]), exps)
            p = MultiPoly.from_terms(
                nv, [(c, e) for e, c in p.items()] +
                [(c, e) for e, c in bump.items()])
        q = poly_divmod_exact(p, b)
        lines.append(f"{k} {p!r} / {b!r} = {q!r}")
    return lines


def birkhoff_family():
    """birkhoff_cone_eigvec on irreducible nonnegative integer matrices."""
    rng = random.Random(9004)
    lines = []
    for _ in range(60):
        r = rng.randint(2, 5)
        rows = [[rng.randint(0, 3) for _ in range(r)] for _ in range(r)]
        for i in range(r):
            # a cycle of positive entries keeps the matrix irreducible
            rows[i][(i + 1) % r] = max(1, rows[i][(i + 1) % r])
        vec, lam = birkhoff_cone_eigvec(rows)
        lines.append(f"{rows} {lam.hex()} " + " ".join(x.hex() for x in vec))
    return lines


def preperiodic_family():
    """preperiodic_detect reports on the corpus maps of P^1, from the
    corpus points and seeded small points."""
    rng = random.Random(9005)
    lines = []
    for entry in build_corpus():
        f = entry.mapping
        if entry.kind != "projective" or f.dim != 1:
            continue
        points = list(entry.points) + [
            (rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(4)]
        for coords in points:
            rep = preperiodic_detect(f, normalize(coords), nmax=24)
            lines.append(f"{entry.name} {coords} {rep.kind} {rep.period}"
                         f" {rep.preperiod} {rep.detail}")
    return lines


def _seeded_map(rng, nv, degree, k):
    """A seeded map of P^(nv-1); every third repeats one monomial in its
    first two coordinates, and every fifth map of P^2 has a zero
    coordinate (on P^1 that would leave a constant map)."""
    while True:
        polys = [_random_form(rng, nv, degree) for _ in range(nv)]
        if k % 3 == 0:
            shared = MultiPoly.monomial(
                nv, rng.choice([-2, -1, 1, 3]),
                rng.choice(_exponents(nv, degree)))
            polys[:2] = [MultiPoly.from_terms(
                nv, [(c, e) for e, c in p.items()] +
                [(c, e) for e, c in shared.items()]) for p in polys[:2]]
        if k % 5 == 0 and nv == 3:
            polys[rng.randrange(nv)] = MultiPoly.zero(nv)
        try:
            return RationalMapPN(polys)
        except ArithDynError:
            continue


def compose_family():
    """Raw coordinates of g o f on seeded maps of P^1 and P^2, g of degree
    1-4 and f of degree 1-3, before gcd normalization."""
    rng = random.Random(9006)
    lines = []
    for k in range(160):
        nv = 2 if k % 2 else 3
        g = _seeded_map(rng, nv, rng.randint(1, 4), k)
        f = _seeded_map(rng, nv, rng.randint(1, 3), k + 1)
        names = default_varnames(nv - 1)
        lines.append(f"{k} {g!r} o {f!r} = " + " : ".join(
            format_poly(p, names) for p in compose_raw(g, f)))
    return lines


FAMILIES = {
    "walk": walk_family,
    "maps": maps_family,
    "divmod": divmod_family,
    "birkhoff": birkhoff_family,
    "preperiodic": preperiodic_family,
    "compose": compose_family,
}


def digest(name):
    text = "\n".join(FAMILIES[name]()) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", FAMILIES)
def test_family_digest_matches_golden(name):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert digest(name) == expected, f"family {name!r} differs from golden"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: digest(name) for name in FAMILIES},
                                 indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
