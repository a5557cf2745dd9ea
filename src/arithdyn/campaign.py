"""Run the verification battery over a corpus of maps and points.

One row per (map, point): arithmetic-degree estimates against the
certified dynamical-degree upper bound, plus canonical-height functional
checks where a certificate exists.  Rows are plain dicts with stable key
order so reports serialize deterministically.
"""

from dataclasses import dataclass
from typing import Optional

from .corpus import CorpusEntry, build_corpus
from .degrees import (arithdeg_estimate, canht_functional_checks,
                      fundamental_inequality_check,
                      growth_fit, growth_profile_nondiverging,
                      heights_from_orbit)
from .errors import ArithDynError
from .heights import normalize
from .monomial import MonomialMap, mon_dyndeg, monomial_arithdeg
from .projmaps import degree_sequence, dyndeg_estimate, orbit

CAMPAIGN_COLUMNS = ("map", "point", "nmax", "alpha_lower", "alpha_upper",
                    "delta_upper_cert", "consistent", "canht_value",
                    "canht_error", "mode")

GROWTH_EPSILON = 0.1


def format_float(x) -> str:
    """Fixed 9-significant-digit rendering used in every report."""
    return f"{float(x):.9g}"


def delta_upper_certified(entry: CorpusEntry) -> float:
    """A certified upper bound for the dynamical degree of the entry."""
    if entry.kind == "monomial":
        return mon_dyndeg(entry.mapping).bracket[1]
    seq = degree_sequence(entry.mapping, entry.degseq_nmax)
    est = dyndeg_estimate(seq)
    if not est.certified:
        raise ArithDynError(
            f"degree sequence of {entry.name} is not submultiplicative")
    return est.certified_upper


def height_sequence(mapping, point, nmax):
    """Orbit heights of point for n = 0..nmax: in exponent space for a
    monomial map, from the exact orbit for a projective one."""
    if isinstance(mapping, MonomialMap):
        return monomial_arithdeg(mapping, point, nmax)
    return heights_from_orbit(orbit(mapping, normalize(point), nmax))


@dataclass
class CampaignRow:
    map: str
    point: str
    nmax: int
    alpha_lower: float
    alpha_upper: float
    delta_upper_cert: float
    consistent: bool
    canht_value: Optional[float]
    canht_error: Optional[float]
    mode: str
    growth_ok: bool = True

    def as_report_dict(self):
        return {
            "map": self.map,
            "point": self.point,
            "nmax": str(self.nmax),
            "alpha_lower": format_float(self.alpha_lower),
            "alpha_upper": format_float(self.alpha_upper),
            "delta_upper_cert": format_float(self.delta_upper_cert),
            "consistent": "yes" if self.consistent else "VIOLATION",
            "canht_value": "" if self.canht_value is None
                           else format_float(self.canht_value),
            "canht_error": "" if self.canht_error is None
                           else format_float(self.canht_error),
            "mode": self.mode,
        }


def run_entry(entry: CorpusEntry, ineq_tol=1e-6, canht_nmax=30):
    delta_hi = delta_upper_certified(entry)
    rows = []
    for pt in entry.points:
        hs = height_sequence(entry.mapping, pt, entry.orbit_nmax)
        if len(hs) < 5 and hs.cycle is None:
            # the orbit fell into the indeterminacy locus almost at once;
            # there is no estimate to check, report the row as data
            rows.append(CampaignRow(
                map=entry.name,
                point=",".join(str(c) for c in pt),
                nmax=entry.orbit_nmax,
                alpha_lower=float("nan"), alpha_upper=float("nan"),
                delta_upper_cert=delta_hi, consistent=True,
                canht_value=None, canht_error=None, mode="",
                growth_ok=True))
            continue
        est = arithdeg_estimate(hs)
        ineq = fundamental_inequality_check(est, delta_hi, tol=ineq_tol)
        fit = growth_fit(hs, delta_hi, GROWTH_EPSILON)
        growth_ok = growth_profile_nondiverging(fit.profile)
        consistent = ineq.consistent
        canht_value = canht_error = None
        mode = ""
        if entry.canht and entry.kind == "projective":
            checks = canht_functional_checks(entry.mapping, normalize(pt),
                                             entry.mapping.degree,
                                             nmax=canht_nmax)
            res = checks.height
            canht_value, canht_error, mode = (res.value, res.error_radius,
                                              res.mode)
            consistent = consistent and checks.passed
        rows.append(CampaignRow(
            map=entry.name,
            point=",".join(str(c) for c in pt),
            nmax=entry.orbit_nmax,
            alpha_lower=est.lower_est,
            alpha_upper=est.upper_est,
            delta_upper_cert=delta_hi,
            consistent=consistent,
            canht_value=canht_value,
            canht_error=canht_error,
            mode=mode,
            growth_ok=growth_ok,
        ))
    return rows


def run_campaign(entries=None, ineq_tol=1e-6):
    entries = build_corpus() if entries is None else entries
    rows = []
    for entry in entries:
        rows.extend(run_entry(entry, ineq_tol=ineq_tol))
    return rows


def rows_to_csv(rows) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CAMPAIGN_COLUMNS)
    for row in rows:
        d = row.as_report_dict()
        writer.writerow([d[col] for col in CAMPAIGN_COLUMNS])
    return buf.getvalue()


def rows_to_json(rows) -> str:
    import json

    return json.dumps([row.as_report_dict() for row in rows],
                      sort_keys=True, separators=(",", ": "), indent=1) + "\n"
