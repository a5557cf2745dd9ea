#!/usr/bin/env python3
"""Certified canonical heights for morphisms of P^1.

For a degree-d morphism the one-step height error |h(f Q) - d h(Q)| is
bounded by an explicitly computable constant: the upper direction comes
from coefficient size, the lower direction from the Macaulay cofactors
that projmaps.map_certificate lifts (on P^1 its Macaulay matrix is the
Sylvester matrix).  Telescoping turns that constant into a rigorous
truncation radius for the canonical-height limit, so every value printed
below comes with an interval that provably contains the limit.
"""

from arithdyn import (RationalMapPN, canht_functional_checks,
                      canonical_height, normalize, preperiodic_detect,
                      sylvester_resultant, weil_height)
from arithdyn.degrees import p1_step_constant
from arithdyn.projmaps import map_certificate

f = RationalMapPN.from_strings(["x^2+y^2", "x*y"], ["x", "y"], name="sumsq")
print("map:", f)
print("resultant:", sylvester_resultant(*f.polys),
      "-> morphism:", map_certificate(f).morphism)
c_step, c_up, c_low, res = p1_step_constant(f)
print(f"certified step constant: {c_step:.6f}"
      f" (upper {c_up:.6f}, lower {c_low:.6f})")
print()

for coords in [(2, 1), (1, 1), (3, 2)]:
    p = normalize(coords)
    r = canonical_height(f, p, 2, nmax=32)
    h = weil_height(p).value
    print(f"P = {p}:  hhat = {r.value:.9f} +- {r.error_radius:.2e}"
          f"   naive h = {h:.6f}   mode={r.mode}")
print()

# The defining functional equation hhat(f P) = 2 hhat(P), checked with
# the error radii combined accordingly.
p = normalize((2, 1))
checks = canht_functional_checks(f, p)
print(f"transform law gap {checks.transform_gap:.2e}"
      f" within allowance {checks.transform_allow:.2e}:"
      f" {checks.transform_ok}")
print(f"|hhat - h| = {checks.compare_gap:.6f}"
      f" within C/(beta-1) = {checks.compare_allow:.6f}:"
      f" {checks.compare_ok}")
print()

# hhat vanishes exactly on preperiodic points, and (d-1) |hhat - h| <=
# log E for the integer E = max((d+1) maxabs, 2d maxcof), so one exact
# orbit decides: a point with H^(d-1) > E wanders, and below that bound
# the orbit must repeat.  No float enters the verdict.
for coords in [(1, 1), (0, 1), (2, 1)]:
    rep = preperiodic_detect(f, normalize(coords))
    print(f"{normalize(coords)}: {rep.kind} ({rep.detail})")
