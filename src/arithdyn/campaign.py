"""Run the verification battery over a corpus of maps and points.

One row per (map, point): arithmetic-degree estimates against the
certified dynamical-degree upper bound, plus canonical-height functional
checks where a certificate exists.  Rows are CampaignRow NamedTuples whose
report fields keep a stable order, so reports serialize deterministically.
"""

from typing import NamedTuple, Optional

from .corpus import CorpusEntry
from .degrees import (arithdeg_estimate, canht_functional_checks,
                      fundamental_inequality_check,
                      growth_fit, growth_profile_nondiverging,
                      height_sequence)
from .errors import ArithDynError
from .heights import format_float, format_radius, format_up, normalize
from .monomial import mon_dyndeg
from .projmaps import degree_sequence, dyndeg_estimate

CAMPAIGN_COLUMNS = ("map", "point", "nmax", "alpha_lower", "alpha_upper",
                    "delta_upper_cert", "consistent", "canht_value",
                    "canht_error", "mode")

GROWTH_EPSILON = 0.1
CANHT_NMAX = 30


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


class CampaignRow(NamedTuple):
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
    growth_ok: bool

    def as_report_dict(self):
        return {
            "map": self.map,
            "point": self.point,
            "nmax": str(self.nmax),
            "alpha_lower": format_float(self.alpha_lower),
            "alpha_upper": format_float(self.alpha_upper),
            "delta_upper_cert": format_up(self.delta_upper_cert),
            "consistent": "yes" if self.consistent else "VIOLATION",
            "canht_value": "" if self.canht_value is None
                           else format_float(self.canht_value),
            "canht_error": "" if self.canht_error is None
                           else format_radius(self.canht_value,
                                              self.canht_error),
            "mode": self.mode,
        }


def run_entry(entry: CorpusEntry):
    delta_hi = delta_upper_certified(entry)
    rows = []
    for pt in entry.points:
        hs = height_sequence(entry.mapping, pt, entry.orbit_nmax)
        alpha_lower = alpha_upper = float("nan")
        consistent = growth_ok = True
        canht_value = canht_error = None
        mode = ""
        # a short orbit without a cycle fell into the indeterminacy locus
        # almost at once; there is no estimate to check, the row is data
        if len(hs) >= 5 or hs.cycle is not None:
            est = arithdeg_estimate(hs)
            alpha_lower, alpha_upper = est.lower_est, est.upper_est
            ineq = fundamental_inequality_check(est, delta_hi)
            consistent = ineq.consistent
            fit = growth_fit(hs, delta_hi, GROWTH_EPSILON)
            growth_ok = growth_profile_nondiverging(fit.profile)
            if entry.canht and entry.kind == "projective":
                checks = canht_functional_checks(
                    entry.mapping, normalize(pt), nmax=CANHT_NMAX)
                res = checks.height
                canht_value, canht_error, mode = (res.value, res.error_radius,
                                                  res.mode)
                consistent = consistent and checks.passed
        rows.append(CampaignRow(
            map=entry.name,
            point=",".join(str(c) for c in pt),
            nmax=entry.orbit_nmax,
            alpha_lower=alpha_lower,
            alpha_upper=alpha_upper,
            delta_upper_cert=delta_hi,
            consistent=consistent,
            canht_value=canht_value,
            canht_error=canht_error,
            mode=mode,
            growth_ok=growth_ok,
        ))
    return rows


def run_campaign(entries):
    rows = []
    for entry in entries:
        try:
            rows.extend(run_entry(entry))
        except ArithDynError as exc:  # same type, so same exit code
            exc.args = (f"{entry.name}: {exc}",)
            raise
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
