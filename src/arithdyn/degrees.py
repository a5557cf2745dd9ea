"""Estimators over orbit height data.

This module turns orbit heights into the toolkit's headline numbers:
arithmetic-degree estimates from n-th roots of clamped heights, the
consistency check of those estimates against certified dynamical-degree
upper bounds, growth-constant profiles for the bound
h+(f^n P) <= C (delta + eps)^n h+(P), canonical heights with certified
truncation error, the preperiodic-or-wandering verdict, the orbit counting
function, and the sqrt-step recursion bound checker.

The height sequences of projective maps (arithdeg, count, the campaign)
and the heuristic canonical heights come from projmaps.orbit_heights:
the exact orbit's float heights, bit for bit, without the exact points
once a certified morphism has taken them past the Northcott height.

Canonical heights come in three modes and the mode is part of the result:

* ``certified_power``: coordinate permutation-power maps multiply heights
  exactly, so the limit is reached at n = 0; the error radius covers the
  rounding of the one log taken.
* ``certified_p1``: for a degree-d morphism of P^1 the one-step height
  error |h(f Q) - d h(Q)| is bounded by an explicitly computed constant
  (the logs of the integers up, from the coefficients, and low, from the
  Macaulay cofactors of projmaps.map_certificate), giving the truncation
  bound C_step * beta^(-n) / (beta - 1) by telescoping.
* ``heuristic``: any beta > 1 with an observed step-error constant,
  honestly labeled as uncertified.

Every bound here reads one record per map, projmaps.map_certificate:
whether f is a permutation-power map, |R| and the integers up and low
from one Macaulay elimination on any P^N (on P^1 the Sylvester matrix and
|Res|), and the Northcott integer E with (d - 1) |hhat - h| <= log E, so
morphisms of P^N get E as maps of P^1 do.
The verdict of preperiodic_detect reads E and no canonical height and no
float: a point with H^(d-1) > E wanders, and an orbit below that height
repeats.
"""

import math
import sys
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import ContractViolation, NonMorphism, ResourceCapExceeded
from .heights import (HeightSequence, ProjPointQ, heights_from_values,
                      normalize, weil_height)
from .monomial import MonomialMap, monomial_arithdeg
from .projmaps import (_MAX_NMAX, OrbitRecord, RationalMapPN, _check_dim,
                       _residue_step, map_certificate, map_evaluate, orbit,
                       orbit_heights)

_SLACK = 1e-9


# ---------------------------------------------------------------------------
# height sequences


def heights_from_orbit(record: OrbitRecord) -> HeightSequence:
    return _ended_heights((h.value for h in record.heights),
                          record.terminated_by)


def _ended_heights(values, term) -> HeightSequence:
    """The HeightSequence of orbit heights that stopped as term says."""
    cycle = undefined_at = None
    if term.kind == "cycle_detected":
        cycle = (term.preperiod, term.period)
    elif term.kind == "hit_indeterminacy":
        undefined_at = term.step
    return heights_from_values(values, cycle, undefined_at)


def height_sequence(mapping, point, nmax):
    """Orbit heights of point for n = 0..nmax: in exponent space for a
    monomial map, from projmaps.orbit_heights for a projective one, the
    exact orbit's heights without its wide points."""
    if isinstance(mapping, MonomialMap):
        return monomial_arithdeg(mapping, point, nmax)
    return _ended_heights(*orbit_heights(mapping, normalize(point), nmax))


# ---------------------------------------------------------------------------
# arithmetic degree


class ArithDegreeEstimate(NamedTuple):
    """Tail window estimates of the height growth exponent.

    upper_est and lower_est are the max and min of h_n^(1/n) over the tail
    window; exact = True marks the finite-orbit case where the limit is 1
    with no estimation at all.
    """

    upper_est: float
    lower_est: float
    tail_start: int
    converged: bool
    exact: bool = False


# a tail window has converged when its roots spread by at most this much
_SPREAD_TOL = 0.05


def arithdeg_estimate(hs: HeightSequence,
                      tail_fraction=0.5) -> ArithDegreeEstimate:
    """Estimate the arithmetic degree from h+ values.

    A finite orbit (cycle flag) short-circuits to the exact answer 1.
    Otherwise the n-th roots h+_n^(1/n) over the last ``tail_fraction`` of
    the sequence are used; early terms carry large 1/n biases and are
    deliberately ignored.
    """
    if hs.cycle is not None:
        return ArithDegreeEstimate(upper_est=1.0, lower_est=1.0,
                                   tail_start=0, converged=True, exact=True)
    top = len(hs) - 1
    if top < 4:
        raise ContractViolation(
            f"height sequence too short: {len(hs)} of the 5 heights needed"
            " (nmax >= 4; an orbit that hits indeterminacy stops early)")
    if not 0 < tail_fraction <= 1:
        raise ContractViolation("tail_fraction must be in (0, 1]")
    count = max(1, math.ceil(top * tail_fraction))
    tail_start = max(1, top - count + 1)
    roots = [math.exp(math.log(hs.hplus_values[n]) / n)
             for n in range(tail_start, top + 1)]
    upper, lower = max(roots), min(roots)
    return ArithDegreeEstimate(upper_est=upper, lower_est=lower,
                               tail_start=tail_start,
                               converged=(upper - lower) <= _SPREAD_TOL)


class InequalityReport(NamedTuple):
    """Outcome of the one-sided check  alpha_lower <= delta_upper + _INEQ_TOL,
    with margin = delta_upper - alpha_lower."""

    consistent: bool
    margin: float


# float slack allowed above the certified dynamical-degree bound
_INEQ_TOL = 1e-6


def fundamental_inequality_check(alpha: ArithDegreeEstimate,
                                 delta_upper) -> InequalityReport:
    """Flag VIOLATION only when the lower estimate exceeds the certified
    dynamical-degree upper bound; an estimate sitting below is always
    consistent."""
    delta_upper = float(delta_upper)
    violation = alpha.lower_est > delta_upper + _INEQ_TOL
    return InequalityReport(consistent=not violation,
                            margin=delta_upper - alpha.lower_est)


# ---------------------------------------------------------------------------
# growth constant fitting


class GrowthFit(NamedTuple):
    """Smallest constant C with h+(f^n P) <= C (delta + eps)^n h+(P) over
    n = 0..nmax, plus the running-max profile used to judge
    non-divergence (profile[n] is the smallest C for steps 0..n)."""

    C_fit: float
    profile: tuple


def growth_fit(hs: HeightSequence, delta_upper, epsilon) -> GrowthFit:
    if epsilon <= 0:
        raise ContractViolation("epsilon must be positive")
    if len(hs) < 1:
        raise ContractViolation("empty height sequence")
    rate = float(delta_upper) + float(epsilon)
    log_rate = math.log(rate)
    h0 = hs.hplus_values[0]
    profile = []
    best = 0.0
    for n, h in enumerate(hs.hplus_values):
        log_ratio = math.log(h) - n * log_rate - math.log(h0)
        try:
            ratio = math.exp(log_ratio)
        except OverflowError:
            ratio = math.inf
        best = max(best, ratio)
        profile.append(best)
    return GrowthFit(C_fit=profile[-1], profile=tuple(profile))


def growth_profile_nondiverging(profile) -> bool:
    """The plateau test: the final running max must not exceed twice its
    value at the midpoint."""
    if len(profile) < 2:
        return True
    mid = profile[len(profile) // 2]
    return profile[-1] <= 2.0 * mid


# ---------------------------------------------------------------------------
# canonical heights


class CanonicalHeightResult(NamedTuple):
    """A canonical height with certified or sampled truncation error.

    In the certified modes the true value lies within error_radius of
    value by the telescoping bound; heuristic results are labeled so no
    caller can mistake them for certificates.  step_constant is the bound
    on |h(f Q) - beta h(Q)| that produced the radius, and heights is the
    height sequence used (handy for follow-up estimates).
    """

    value: float
    error_radius: float
    beta: float
    n_used: int
    mode: str
    step_constant: float
    heights: tuple


def p1_step_constant(f: RationalMapPN):
    """Certified bound for |h(f Q) - d h(Q)| over all Q in P^1(Q).

    Upper direction from coefficient size: each coordinate has at most
    d + 1 monomials.  Lower direction from the Macaulay cofactors of
    projmaps.map_certificate, forms G_ij of degree d - 1 with
    R x^D = G_00 F0 + G_01 F1 and R y^D = G_10 F0 + G_11 F1, D = 2d - 1:
    evaluating at coprime (a, b) shows gcd(F0(a,b), F1(a,b)) divides R and
    max |F_i(a,b)| >= |R| M^d / (2 d maxcof).
    Returns (C_step, C_up, C_low, |R|): C_up and C_low are the logs of
    the exact integers up and low of that certificate.  Raises
    ResourceCapExceeded on a map whose certificate skipped the integer
    lift (res = 0).
    """
    if f.dim != 1:
        raise ContractViolation("step constant is for maps of P^1")
    cert = map_certificate(f)
    if not cert.res:
        raise ResourceCapExceeded("the resultant is over the lift cap")
    c_up = math.log(cert.up)
    c_low = math.log(cert.low)
    return max(c_up, c_low, 0.0), c_up, c_low, cert.res


def p1_height_walk(f: RationalMapPN, start: ProjPointQ, nmax):
    """Heights h(f^n P) for n = 0..nmax for a morphism of P^1.

    Coordinates are tracked as unit-scaled floats plus a log height, and
    the gcd removed at each step is computed exactly: it divides the
    resultant R, so residues modulo R^k suffice, in the residue step of
    projmaps.orbit_heights.  R = 1 takes the same path: every residue is
    0 and the gcd gcd(1, 0, 0) is 1.  The returned
    heights match the exact orbit to float precision while the integer
    coordinates themselves would grow doubly exponentially.  Raises
    ResourceCapExceeded when a coefficient or a height leaves the float
    range, or when the certificate skipped the integer lift (R = 0).
    """
    if f.dim != 1:
        raise ContractViolation("height walk is for maps of P^1")
    d = f.degree
    res = map_certificate(f).res
    if not res:
        raise ResourceCapExceeded("the resultant is over the lift cap")
    pt = normalize(start.coords)
    _check_dim(f, pt)
    a, b = pt.coords
    s = max(abs(a), abs(b))
    x, y = a / s, b / s
    h = math.log(s)
    heights = [h]
    try:
        f0, f1 = ([(float(c), e[0], e[1]) for e, c in p.items()]
                  for p in f.polys)
    except OverflowError:
        raise ResourceCapExceeded("coefficients leave the float range")
    modulus = res ** (nmax + 2)
    residues = [a % modulus, b % modulus]
    for _ in range(nmax):
        g, residues, modulus = _residue_step(f, residues, modulus, res)
        fx = sum(c * x ** e0 * y ** e1 for c, e0, e1 in f0)
        fy = sum(c * x ** e0 * y ** e1 for c, e0, e1 in f1)
        m = max(abs(fx), abs(fy))
        h = d * h + math.log(m) - math.log(g)
        heights.append(h)
        x, y = fx / m, fy / m
    # inf and nan propagate through the walk, so the last height shows
    # whether any step left the float range
    if not math.isfinite(h):
        raise ResourceCapExceeded(
            f"heights leave the float range by step {nmax}")
    return heights


def canonical_height(f: RationalMapPN, point: ProjPointQ, beta, nmax=32,
                     mode="certified") -> CanonicalHeightResult:
    """Canonical height of a point with an explicit truncation error.

    certified mode requires either a permutation-power map (exact up to
    the rounding of one log) or a morphism of P^1 with beta = deg f; anything
    else must be requested as heuristic and is labeled accordingly.  A
    certified_p1 bound needs beta^-nmax and the heights within the float
    range, and a resultant under the lift cap of map_certificate;
    otherwise ResourceCapExceeded is raised.  So does a heuristic
    orbit whose coordinates outgrow projmaps._MAX_COORD_BITS bits, whose
    heights come from projmaps.orbit_heights, and a value, step constant
    or radius that leaves the float range (beta h_k past it, say).
    """
    try:
        beta_f = float(beta)
    except OverflowError:  # every beta that rounds past the float range
        beta_f = math.inf
    if not (math.isfinite(beta_f) and beta_f > 1):
        raise ContractViolation("beta must be finite and exceed 1")
    if not 1 <= nmax <= _MAX_NMAX:
        raise ContractViolation(f"nmax must be in [1, {_MAX_NMAX}] (float"
                                " heights overflow beyond that)")
    pt = normalize(point.coords)
    _check_dim(f, pt)
    if mode not in ("certified", "heuristic"):
        raise ContractViolation(f"unknown mode {mode!r}")

    if mode == "certified":
        if map_certificate(f).power and Fraction(beta) == f.degree:
            # h0 = math.log(H) is within 2^-50 h0 of log H.  Below 2^1024
            # H is rounded to a double, an error of at most 2^-53 in the
            # log (<= 1.45 * 2^-53 h0, as H >= 2 when h0 > 0), and libm's
            # log adds at most one ulp (<= 2^-52 h0): 3.45 * 2^-53 h0 in
            # all.  Past 2^1024 math.log returns log(m) + e log(2) for
            # H = m 2^e, m in [1/2, 1) rounded to 53 bits: 2^-53 from m,
            # one ulp of log(m) (<= 2^-53), e ulps of log(2) (e 2^-53
            # <= (1.45 h0 + 1.01) 2^-53) and two roundings of at most
            # 2^-53 (h0 + 1) each, below 3.46 * 2^-53 h0 as h0 > 709.
            # H = 1 gives h0 = 0 exactly, and radius 0.
            h0 = weil_height(pt).value
            return CanonicalHeightResult(value=h0,
                                         error_radius=h0 * 2.0 ** -50,
                                         beta=float(f.degree), n_used=0,
                                         mode="certified_power",
                                         step_constant=0.0,
                                         heights=(h0,))
        if f.dim != 1:
            raise NonMorphism(
                "certified canonical heights need a permutation-power map"
                " or a morphism of P^1")
        if Fraction(beta) != f.degree:
            raise ContractViolation(
                "certified mode on P^1 requires beta = deg f")
        if beta_f ** -nmax < sys.float_info.min:
            raise ResourceCapExceeded(
                f"beta^-{nmax} is below the float range")
        c_step = p1_step_constant(f)[0]
        hs = p1_height_walk(f, pt, nmax)
        mode = "certified_p1"
    else:
        values, term = orbit_heights(f, pt, nmax)
        hs = list(values)
        if term.kind == "cycle_detected":
            # heights repeat exactly; continue the cycle so the partial
            # values beta^-n h_n keep shrinking toward the true limit 0
            cycle_vals = hs[term.preperiod:]
            while len(hs) - 1 < nmax:
                hs.append(cycle_vals[(len(hs) - term.preperiod) %
                                     len(cycle_vals)])
        if len(hs) < 2:
            raise ContractViolation("the map is undefined at the point"
                                    " (indeterminacy at step 0)")
        c_step = max(abs(hs[k + 1] - beta_f * hs[k])
                     for k in range(len(hs) - 1))
    # one telescoped bound for both modes: |hhat - beta^-n h_n| is at most
    # C beta^-n / (beta - 1), with C certified or observed
    n_used = len(hs) - 1
    value = hs[-1] * beta_f ** (-n_used)
    radius = c_step * beta_f ** (-n_used) / (beta_f - 1)
    if not all(map(math.isfinite, (value, c_step, radius))):
        raise ResourceCapExceeded(
            f"the canonical height at beta = {beta_f:.9g} leaves the float"
            " range")
    return CanonicalHeightResult(
        value=value, error_radius=radius, beta=beta_f, n_used=n_used,
        mode=mode, step_constant=c_step, heights=tuple(hs))


class CanHtChecks(NamedTuple):
    """Functional-equation checks for a canonical height computation.

    height is the canonical height of P that the checks were run on.
    alpha_ok is None when hhat(P) is not certifiably positive, so the
    arithmetic-degree check (3) did not apply.
    """

    transform_ok: bool
    transform_gap: float
    transform_allow: float
    compare_ok: bool
    compare_gap: float
    compare_allow: float
    alpha_ok: Optional[bool]
    passed: bool
    height: CanonicalHeightResult


# a certifiably positive canonical height needs an arithmetic-degree
# upper estimate of at least beta - _ALPHA_TOL
_ALPHA_TOL = 0.1


def canht_functional_checks(f: RationalMapPN, point: ProjPointQ,
                            nmax=32) -> CanHtChecks:
    """Verify the canonical-height laws at estimate level.

    Both canonical heights are certified with beta = deg f, the only beta
    certified mode accepts.  Checks, with radii combined by the
    transformation law:
    (1) |hhat(f P) - beta hhat(P)| within combined error radii;
    (2) |hhat(P) - h(P)| <= step_constant / (beta - 1);
    (3) when hhat(P) is certifiably positive, the arithmetic-degree upper
        estimate reaches beta - _ALPHA_TOL.
    """
    beta = f.degree
    beta_f = float(beta)
    pt = normalize(point.coords)
    r_p = canonical_height(f, pt, beta, nmax=nmax)
    fp = map_evaluate(f, pt)
    r_fp = canonical_height(f, fp, beta, nmax=nmax)

    gap1 = abs(r_fp.value - beta_f * r_p.value)
    allow1 = r_fp.error_radius + beta_f * r_p.error_radius + _SLACK
    ok1 = gap1 <= allow1

    h0 = weil_height(pt).value
    gap2 = abs(r_p.value - h0)
    allow2 = r_p.step_constant / (beta_f - 1) + _SLACK
    ok2 = gap2 <= allow2

    alpha_ok = None
    if r_p.value - r_p.error_radius > 0 and len(r_p.heights) >= 6:
        est = arithdeg_estimate(heights_from_values(r_p.heights))
        alpha_ok = est.upper_est >= beta_f - _ALPHA_TOL

    passed = ok1 and ok2 and alpha_ok is not False
    return CanHtChecks(transform_ok=ok1, transform_gap=gap1,
                       transform_allow=allow1, compare_ok=ok2,
                       compare_gap=gap2, compare_allow=allow2,
                       alpha_ok=alpha_ok, passed=passed, height=r_p)


class PreperiodicReport(NamedTuple):
    kind: str  # preperiodic | wandering | undecided
    period: Optional[int] = None
    preperiod: Optional[int] = None
    detail: str = ""


# without a Northcott bound the exact cycle search stops at this depth or
# at orbit's default coordinate budget, whichever comes first
_CYCLE_SEARCH_NMAX = 10


def preperiodic_detect(f: RationalMapPN, point: ProjPointQ,
                       nmax=64) -> PreperiodicReport:
    """Classify a point as preperiodic, wandering, or undecided.

    One exact orbit decides it, in integers.  With a Northcott bound E
    (projmaps.map_certificate), hhat(Q) = 0 exactly when Q is preperiodic, so
    a preperiodic orbit keeps H^(d-1) <= E, and finitely many points do.
    An orbit point with H^(d-1) > E has hhat > 0 and the point wanders;
    otherwise the orbit repeats, which exact cycle detection sees.  The
    orbit stops at coordinates of B = ceil(bitlen(E) / (d - 1)) bits,
    since a wider coordinate already gives H^(d-1) >= 2^(B (d-1)) > E.
    Maps without E get a cycle search capped at _CYCLE_SEARCH_NMAX steps
    and orbit's default coordinate budget, which can only find cycles.
    What nmax steps, or that cap, leave open is undecided.
    """
    pt = normalize(point.coords)
    bound = map_certificate(f).northcott
    e = f.degree - 1
    try:
        if bound is None:
            rec = orbit(f, pt, min(nmax, _CYCLE_SEARCH_NMAX))
        else:
            rec = orbit(f, pt, nmax,
                        max_coord_bits=-(-bound.bit_length() // e))
    except ResourceCapExceeded:
        rec = None
    if rec is not None:
        term = rec.terminated_by
        if term.kind == "cycle_detected":
            return PreperiodicReport(kind="preperiodic", period=term.period,
                                     preperiod=term.preperiod,
                                     detail="exact cycle")
        if term.kind == "hit_indeterminacy":
            return PreperiodicReport(
                kind="undecided", detail="orbit hit the indeterminacy locus")
    if bound is not None and (rec is None or any(
            h.exact_arg ** e > bound for h in rec.heights)):
        return PreperiodicReport(
            kind="wandering", detail=f"an orbit point has H^{e} > E = {bound}")
    return PreperiodicReport(kind="undecided",
                             detail="bounded-height search exhausted")


# ---------------------------------------------------------------------------
# counting function


class CountRow(NamedTuple):
    B: float
    count: int
    ratio: float


class CountingReport(NamedTuple):
    """Counts of orbit points of height at most B.

    B is compared against heights directly, so it lives on the log-height
    scale; the ratio column count / log B approaches 1 / log(alpha) for
    wandering orbits with alpha > 1.
    """

    rows: tuple
    warning: Optional[str] = None


def counting_function(hs: HeightSequence, b_values) -> CountingReport:
    vals = hs.heights
    warning = None
    if hs.cycle is not None:
        warning = "orbit is finite (alpha = 1); the counting limit is infinite"
    elif hs.undefined_at is not None:
        warning = (f"orbit hit the indeterminacy locus at step"
                   f" {hs.undefined_at}; counts stop there, not at nmax")
    else:
        try:
            est = arithdeg_estimate(hs)
            if est.upper_est <= 1.0 + 1e-9:
                warning = ("alpha estimate is 1; the counting limit"
                           " is infinite")
        except ContractViolation:
            pass
    rows = []
    bounds = sorted(float(b) for b in b_values)
    if not bounds:
        raise ContractViolation("need at least one counting bound")
    for b in bounds:
        if not (math.isfinite(b) and b > 1.0):
            raise ContractViolation("counting bounds must be finite and"
                                    " exceed 1")
        count = sum(1 for v in vals if v <= b)
        rows.append(CountRow(B=b, count=count, ratio=count / math.log(b)))
    if not warning and vals and max(vals) <= rows[-1].B:
        warning = ("largest B exceeds every recorded height; counts are"
                   " truncated by nmax")
    return CountingReport(rows=tuple(rows), warning=warning)


# ---------------------------------------------------------------------------
# sqrt-step recursion bound


class RecursionBoundReport(NamedTuple):
    """applicable is False when the recursion hypothesis fails; holds is
    then None, else whether the closed bound held at every n."""

    applicable: bool
    holds: Optional[bool]


def recursion_bound_check(a, c, hseq) -> RecursionBoundReport:
    """Check that a sqrt-perturbed geometric recursion obeys its closed bound.

    Hypothesis: h(n+1) <= a h(n) + c sqrt(h(n)) for all recorded steps,
    with a, c >= 1 and h >= 0.  When the hypothesis holds, the sequence
    must satisfy h(n) <= a^n (h(0) + (2 sqrt(2) c)^n sqrt(h(0))); a
    hypothesis violation makes the bound inapplicable, not false.
    """
    a = float(a)
    c = float(c)
    if not (math.isfinite(a) and math.isfinite(c) and a >= 1 and c >= 1):
        raise ContractViolation("need finite a >= 1 and c >= 1")
    h = [float(x) for x in hseq]
    if not all(math.isfinite(x) and x >= 0 for x in h):
        raise ContractViolation("heights must be finite and nonnegative")
    if len(h) < 2:
        raise ContractViolation("need at least two values")
    for k in range(len(h) - 1):
        allowed = a * h[k] + c * math.sqrt(h[k])
        if h[k + 1] > allowed * (1 + 1e-12) + 1e-12:
            return RecursionBoundReport(applicable=False, holds=None)
    h0 = h[0]
    sq = math.sqrt(h0)
    growth = 2 * math.sqrt(2) * c
    for n, val in enumerate(h):
        try:
            bound = a ** n * (h0 + growth ** n * sq)
        except OverflowError:
            continue
        if math.isinf(bound):
            continue
        if val > bound * (1 + 1e-12) + 1e-12:
            return RecursionBoundReport(applicable=True, holds=False)
    return RecursionBoundReport(applicable=True, holds=True)
