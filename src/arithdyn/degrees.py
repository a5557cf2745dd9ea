"""Estimators over orbit height data.

This module turns exact orbit heights into the toolkit's headline numbers:
arithmetic-degree estimates from n-th roots of clamped heights, the
consistency check of those estimates against certified dynamical-degree
upper bounds, growth-constant profiles for the bound
h+(f^n P) <= C (delta + eps)^n h+(P), canonical heights with certified
truncation error, the orbit counting function, and the sqrt-step recursion
bound checker.

Canonical heights come in three modes and the mode is part of the result:

* ``certified_power``: coordinate permutation-power maps multiply heights
  exactly, so the limit is reached at n = 0 with error radius zero.
* ``certified_p1``: for a degree-d morphism of P^1 the one-step height
  error |h(f Q) - d h(Q)| is bounded by an explicitly computed constant
  (an upper bound from the coefficients, a lower bound from the Bezout
  cofactors of the Sylvester matrix), giving the truncation bound
  C_step * beta^(-n) / (beta - 1) by telescoping.
* ``heuristic``: any beta > 1 with an observed step-error constant,
  honestly labeled as uncertified.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import (ContractViolation, IndeterminatePoint, NonMorphism,
                     ResourceCapExceeded)
from .heights import ProjPointQ, coordinate_gcd, normalize, weil_height
from .polynomials import binary_coeffs, poly_eval_int, sylvester_rows
from .projmaps import (OrbitRecord, RationalMapPN, _gcd_bound, map_evaluate,
                       orbit)
from .spectral import determinant

_SLACK = 1e-9


# ---------------------------------------------------------------------------
# height sequences


@dataclass(frozen=True)
class HeightSequence:
    """Heights h(f^n P) of an orbit, n = 0..nmax.

    hplus_values, derived once from heights, clamps each below by 1 for
    the estimators (a field, not a property: they index it in loops).
    cycle = (preperiod, period) is set when the orbit was certified finite
    by exact point repetition, in which case the arithmetic degree is
    exactly 1.
    """

    heights: tuple
    cycle: Optional[tuple] = None
    hplus_values: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "hplus_values",
                           tuple(max(v, 1.0) for v in self.heights))

    def __len__(self):
        return len(self.heights)


def heights_from_orbit(record: OrbitRecord) -> HeightSequence:
    cycle = None
    term = record.terminated_by
    if term.kind == "cycle_detected":
        cycle = (term.preperiod, term.period)
    return heights_from_values((h.value for h in record.heights), cycle)


def heights_from_values(values, cycle=None) -> HeightSequence:
    return HeightSequence(tuple(float(v) for v in values), cycle)


# ---------------------------------------------------------------------------
# arithmetic degree


@dataclass(frozen=True)
class ArithDegreeEstimate:
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
        raise ContractViolation("height sequence too short (need nmax >= 4)")
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


@dataclass(frozen=True)
class InequalityReport:
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


@dataclass(frozen=True)
class GrowthFit:
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


@dataclass(frozen=True)
class CanonicalHeightResult:
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


def power_like_degree(f: RationalMapPN) -> Optional[int]:
    """deg f when every coordinate is +-(one variable)^d with the variables
    forming a permutation, else None.  Such maps multiply heights exactly."""
    d = f.degree
    targets = []
    for p in f.polys:
        if len(p.terms) != 1:
            return None
        (exps, coeff), = p.items()
        if abs(coeff) != 1:
            return None
        hot = [i for i, e in enumerate(exps) if e]
        if len(hot) != 1 or exps[hot[0]] != d:
            return None
        targets.append(hot[0])
    if sorted(targets) != list(range(f.dim + 1)):
        return None
    return d


def _solve_bezout(pc, qc):
    """Cofactors u, v of degree <= d - 1 with u p + v q = c, and |c|.

    The coefficients of u p + v q are M (u, v) for M the transposed
    Sylvester matrix of p and q.  Cramer's rule with right-hand side
    det M e_0 expanded along row 0 gives the signed minors
    x_j = (-1)^j det(M without row 0 and column j), all integers, and
    c = det M = +-Res(p, q).  The identity is checked exactly, so the
    returned constant is certified without computing the resultant.
    """
    d = len(pc) - 1
    rows = [list(col) for col in zip(*sylvester_rows(pc, qc))]
    x = [(-1) ** j * determinant([r[:j] + r[j + 1:] for r in rows[1:]])
         for j in range(2 * d)]
    u = x[:d]
    v = x[d:]
    # verify the identity exactly before trusting the bound
    conv = [0] * (2 * d + 1)
    for j, uj in enumerate(u):
        for k, pk in enumerate(pc):
            conv[j + k] += uj * pk
    for j, vj in enumerate(v):
        for k, qk in enumerate(qc):
            conv[j + k] += vj * qk
    if conv[0] == 0 or any(conv[1:]):
        raise AssertionError("Bezout cofactor identity failed verification")
    return u, v, abs(conv[0])


def p1_step_constant(f: RationalMapPN):
    """Certified bound for |h(f Q) - d h(Q)| over all Q in P^1(Q).

    Upper direction from coefficient size: each coordinate has at most
    d + 1 monomials.  Lower direction from the Bezout cofactors u, v with
    u F0 + v F1 = +-Res in both affine charts: evaluating at coprime (a, b)
    shows gcd(F0(a,b), F1(a,b)) divides Res and
    max |F_i(a,b)| >= |Res| M^d / (2 d maxcof).
    Returns (C_step, C_up, C_low, |Res|).
    """
    if f.dim != 1:
        raise ContractViolation("step constant is for maps of P^1")
    d = f.degree
    c_up = math.log((d + 1) * f.max_abs_coeff())
    pc = binary_coeffs(f.polys[0])
    qc = binary_coeffs(f.polys[1])
    u, v, res = _solve_bezout(pc, qc)
    u2, v2, _ = _solve_bezout(pc[::-1], qc[::-1])
    maxcof = max(abs(x) for x in u + v + u2 + v2)
    c_low = math.log(2 * d * float(maxcof))
    c_step = max(c_up, c_low, 0.0)
    return c_step, c_up, c_low, res


def p1_height_walk(f: RationalMapPN, start: ProjPointQ, nmax):
    """Heights h(f^n P) for n = 0..nmax for a morphism of P^1.

    Coordinates are tracked as unit-scaled floats plus a log height, and
    the gcd removed at each step is computed exactly: it divides the
    resultant R, so residues modulo R^k suffice.  The returned heights
    match the exact orbit to float precision while the integer coordinates
    themselves would grow doubly exponentially.
    """
    if f.dim != 1:
        raise ContractViolation("height walk is for maps of P^1")
    d = f.degree
    res = _gcd_bound(f)
    pt = normalize(start.coords)
    a, b = pt.coords
    s = max(abs(a), abs(b))
    x, y = a / s, b / s
    h = math.log(s)
    heights = [h]
    f0 = [(float(c), e[0], e[1]) for e, c in f.polys[0].items()]
    f1 = [(float(c), e[0], e[1]) for e, c in f.polys[1].items()]
    track = res > 1
    if track:
        modulus = res ** (nmax + 2)
        u, w = a % modulus, b % modulus
    for _ in range(nmax):
        g = 1
        if track:
            v0, v1 = (poly_eval_int(p, (u, w)) % modulus for p in f.polys)
            g = coordinate_gcd((v0, v1), res)
            modulus //= res
            u = (v0 // g) % modulus
            w = (v1 // g) % modulus
        fx = sum(c * x ** e0 * y ** e1 for c, e0, e1 in f0)
        fy = sum(c * x ** e0 * y ** e1 for c, e0, e1 in f1)
        m = max(abs(fx), abs(fy))
        h = d * h + math.log(m) - math.log(g)
        heights.append(h)
        x, y = fx / m, fy / m
    return heights


def canonical_height(f: RationalMapPN, point: ProjPointQ, beta, nmax=32,
                     mode="certified") -> CanonicalHeightResult:
    """Canonical height of a point with an explicit truncation error.

    certified mode requires either a permutation-power map (exact, radius
    zero) or a morphism of P^1 with beta equal to its degree; anything
    else must be requested as heuristic and is labeled accordingly.
    """
    beta_f = float(beta)
    if beta_f <= 1:
        raise ContractViolation("beta must exceed 1")
    if not 1 <= nmax <= 500:
        raise ContractViolation("nmax must be in [1, 500] (float heights"
                                " overflow beyond that)")
    pt = normalize(point.coords)
    if mode not in ("certified", "heuristic"):
        raise ContractViolation(f"unknown mode {mode!r}")

    if mode == "certified":
        d_power = power_like_degree(f)
        if d_power is not None and d_power >= 2 and Fraction(beta) == d_power:
            h0 = weil_height(pt).value
            return CanonicalHeightResult(value=h0, error_radius=0.0,
                                         beta=float(d_power), n_used=0,
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
        c_step, _c_up, _c_low, _res = p1_step_constant(f)
        hs = p1_height_walk(f, pt, nmax)
        value = hs[-1] * beta_f ** (-nmax)
        radius = c_step * beta_f ** (-nmax) / (beta_f - 1)
        return CanonicalHeightResult(value=value, error_radius=radius,
                                     beta=beta_f, n_used=nmax,
                                     mode="certified_p1",
                                     step_constant=c_step,
                                     heights=tuple(hs))

    rec = orbit(f, pt, nmax)
    hs = [h.value for h in rec.heights]
    term = rec.terminated_by
    if term.kind == "cycle_detected":
        # heights repeat exactly; continue the cycle so the partial values
        # beta^-n h_n keep shrinking toward the true limit 0
        cycle_vals = hs[term.preperiod:]
        while len(hs) - 1 < nmax:
            hs.append(cycle_vals[(len(hs) - term.preperiod) %
                                 len(cycle_vals)])
    n_used = len(hs) - 1
    if n_used < 1:
        raise ContractViolation("orbit too short for a heuristic estimate")
    c_obs = max(abs(hs[k + 1] - beta_f * hs[k]) for k in range(n_used))
    value = hs[-1] * beta_f ** (-n_used)
    radius = c_obs * beta_f ** (-n_used) / (beta_f - 1)
    return CanonicalHeightResult(value=value, error_radius=radius,
                                 beta=beta_f, n_used=n_used, mode="heuristic",
                                 step_constant=c_obs, heights=tuple(hs))


@dataclass(frozen=True)
class CanHtChecks:
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


@dataclass(frozen=True)
class PreperiodicReport:
    kind: str  # preperiodic | wandering | undecided
    period: Optional[int] = None
    preperiod: Optional[int] = None
    detail: str = ""


# the exact cycle search stops at this depth or at coordinates of this
# many bits, whichever comes first
_CYCLE_SEARCH_NMAX = 10
_CYCLE_SEARCH_BITS = 1 << 19


def preperiodic_detect(f: RationalMapPN, point: ProjPointQ,
                       nmax=64) -> PreperiodicReport:
    """Classify a point as preperiodic, wandering, or undecided.

    Exact cycle detection wins outright; the exact search is budgeted
    (orbit coordinates of wandering points grow doubly exponentially, so
    the search is capped by depth and coordinate size).  Otherwise a
    certified canonical height with value - radius > 0 certifies
    wandering; with no usable certificate the honest answer is undecided.
    """
    pt = normalize(point.coords)
    term = None
    try:
        rec = orbit(f, pt, min(nmax, _CYCLE_SEARCH_NMAX),
                    max_coord_bits=_CYCLE_SEARCH_BITS)
        term = rec.terminated_by
    except IndeterminatePoint:
        return PreperiodicReport(kind="undecided",
                                 detail="orbit left the domain of f")
    except ResourceCapExceeded:
        pass  # heights exploded; certainly no small cycle, fall through
    if term is not None and term.kind == "cycle_detected":
        return PreperiodicReport(kind="preperiodic", period=term.period,
                                 preperiod=term.preperiod,
                                 detail="exact cycle")
    if term is not None and term.kind == "hit_indeterminacy":
        return PreperiodicReport(kind="undecided",
                                 detail="orbit hit the indeterminacy locus")
    beta = f.degree
    if beta > 1:
        try:
            r = canonical_height(f, pt, beta, nmax=nmax)
        except ContractViolation:
            r = None
        if r is not None and r.value - r.error_radius > 0:
            return PreperiodicReport(
                kind="wandering",
                detail=f"hhat = {r.value:.6g} +- {r.error_radius:.2g}")
    return PreperiodicReport(kind="undecided",
                             detail="bounded-height search exhausted")


# ---------------------------------------------------------------------------
# counting function


@dataclass(frozen=True)
class CountRow:
    B: float
    count: int
    ratio: float


@dataclass(frozen=True)
class CountingReport:
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
    else:
        try:
            est = arithdeg_estimate(hs)
            if est.upper_est <= 1.0 + 1e-9:
                warning = ("alpha estimate is 1; the counting limit"
                           " is infinite")
        except ContractViolation:
            pass
    rows = []
    for b in sorted(float(b) for b in b_values):
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


@dataclass(frozen=True)
class RecursionBoundReport:
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
    if a < 1 or c < 1:
        raise ContractViolation("need a >= 1 and c >= 1")
    h = [float(x) for x in hseq]
    if any(x < 0 for x in h):
        raise ContractViolation("heights must be nonnegative")
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
