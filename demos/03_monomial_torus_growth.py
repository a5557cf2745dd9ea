#!/usr/bin/env python3
"""Monomial maps: orbit heights from exponent matrices alone.

The map (x, y) -> (x^2 y, x y) sends exponent vectors over a pairwise
coprime base (here the primes 2 and 3) through the matrix
A = [[2, 1], [1, 1]].  Forty steps of the orbit of (2, 3) would
need integers with ten quadrillion digits; the exponent matrices that
encode them fit in a screenful.  The height growth exponent measured from
those exponents converges to the spectral radius of A, for which the
toolkit produces a certified bracket from the exact characteristic
polynomial.
"""

import math

from arithdyn import (arithdeg_estimate, birkhoff_cone_eigvec, factor_point,
                      mon_dyndeg, monomial_arithdeg, power_norms)
from arithdyn.monomial import MonomialMap, monomial_step, reconstruct
from arithdyn.spectral import IntMat

A = MonomialMap(IntMat(((2, 1), (1, 1))))
pt = factor_point((2, 3))

print("exponent matrix rows:", A.A.entries)
print("start point (2, 3) factored: primes", pt.base, "exponents", pt.E)
print()

cur = pt
for n in range(4):
    print(f"step {n}: exponents {cur.E} = point {reconstruct(cur)}")
    cur = monomial_step(A, cur)
print()

delta = mon_dyndeg(A)
print(f"dynamical degree = spectral radius of A:")
print(f"  certified bracket [{delta.bracket[0]:.12f}, {delta.bracket[1]:.12f}]")
print(f"  (3 + sqrt 5)/2   = {(3 + math.sqrt(5)) / 2:.12f}")
print()

hs = monomial_arithdeg(A, (2, 3), 40)
est = arithdeg_estimate(hs)
print(f"height growth exponent over 40 steps:"
      f" [{est.lower_est:.6f}, {est.upper_est:.6f}]")
print("the estimate sits below the certified bracket, as the fundamental")
print("inequality requires")
print()

# Linear-algebra side quests: exact norm growth and the cone eigenvector.
print("sup norms of A^n:", power_norms(A.A, 8))
vec, lam = birkhoff_cone_eigvec(A.A)
print(f"nonnegative eigenvector {tuple(round(v, 6) for v in vec)}"
      f" with eigenvalue {lam:.9f}")
