#!/usr/bin/env python3
"""Walk through the simplest map end to end: f = [x^2 : y^2] on P^1.

Every quantity here is exactly computable, which makes this the reference
case for the whole toolkit: orbit heights double on the nose, the height
growth exponent is exactly 2, and the canonical height equals the naive
height with zero truncation error.
"""

import math

from arithdyn import (RationalMapPN, arithdeg_estimate, canonical_height,
                      monomial_arithdeg, normalize, orbit)
from arithdyn.monomial import MonomialMap
from arithdyn.spectral import IntMat

f = RationalMapPN.from_strings(["x^2", "y^2"], ["x", "y"], name="square")
start = normalize([2, 1])

print("map:", f)
print("start point:", start)
print()

# The orbit is exact: the point after n steps is [2^(2^n) : 1], so the
# height is 2^n log 2 and the integer height argument is stored alongside
# the float.
rec = orbit(f, start, 8)
print(" n  height/log2   exact argument")
for n, h in enumerate(rec.heights):
    print(f"{n:>2}  {h.value / math.log(2):>11.6f}   2^(2^{n}) ="
          f" {h.exact_arg if n < 4 else '...'}")
print()

# The n-th root estimator needs a long tail to squeeze out the 1/n bias,
# and in exponent space the exact heights cost nothing to extend.
hs = monomial_arithdeg(MonomialMap(IntMat(((2,),))), (2,), 1023)
est = arithdeg_estimate(hs, tail_fraction=0.25)
print(f"height growth exponent: [{est.lower_est:.6f}, {est.upper_est:.6f}]"
      f"  (true value 2)")

# Canonical height: permutation-power maps multiply heights exactly, so
# the limit is reached immediately, and the error radius only covers the
# rounding of the float log 2.
res = canonical_height(f, start, 2, mode="certified")
print(f"canonical height: {res.value:.12f} +- {res.error_radius:.2g}"
      f"   mode={res.mode}")
print(f"log 2           : {math.log(2):.12f}")
