"""The package's records: keyword construction with defaults, read-only
fields, equality, hashing and repr.

Value records are typing.NamedTuples, so they are tuples as well.  The six
classes that normalise or check their input, or define len(), are plain
classes with __slots__ that compare and hash by their fields.
"""

import pytest

from arithdyn.campaign import CampaignRow
from arithdyn.corpus import CorpusEntry
from arithdyn.degrees import (ArithDegreeEstimate, CanHtChecks,
                              CanonicalHeightResult, CountingReport, CountRow,
                              GrowthFit, HeightSequence, InequalityReport,
                              PreperiodicReport, RecursionBoundReport)
from arithdyn.heights import ProjPointQ
from arithdyn.monomial import FactoredTorusPoint, MonomialMap
from arithdyn.projmaps import (DegreeSequence, DynDegEstimate, OrbitRecord,
                               OrbitTermination)
from arithdyn.spectral import IntMat, SpectralEstimate

FIB = IntMat(((2, 1), (1, 1)))
HEIGHT_FIELDS = dict(value=0.7, error_radius=1e-9, beta=2.0, n_used=3,
                     mode="certified_p1", step_constant=0.5,
                     heights=(0.7, 1.4))
HEIGHT = CanonicalHeightResult(**HEIGHT_FIELDS)

# class, keyword arguments in field order, and the value of each field
# left out (its default, or what the class derives from the others)
RECORDS = [
    (ProjPointQ, dict(coords=(2, -1)), {}),
    (IntMat, dict(entries=((2, 1), (1, 1))), {}),
    (MonomialMap, dict(A=FIB), {}),
    (FactoredTorusPoint, dict(base=(2, 3), E=((1, 0), (0, 1)),
                              signs=(1, -1)), {}),
    (HeightSequence, dict(heights=(0.5, 2.0)),
     {"cycle": None, "undefined_at": None, "hplus_values": (1.0, 2.0)}),
    (DegreeSequence, dict(degs=(2, 4)), {"truncated": False}),
    (CampaignRow, dict(map="square", point="2,1", nmax=4, alpha_lower=1.9,
                       alpha_upper=2.1, delta_upper_cert=2.0,
                       consistent=True, canht_value=None, canht_error=None,
                       mode="", growth_ok=True), {}),
    (CorpusEntry, dict(name="mono", kind="monomial", mapping=MonomialMap(FIB),
                       points=((2, 3),), orbit_nmax=40),
     {"degseq_nmax": 5, "canht": False}),
    (ArithDegreeEstimate, dict(upper_est=2.1, lower_est=1.9, tail_start=3,
                               converged=False), {"exact": False}),
    (InequalityReport, dict(consistent=True, margin=0.1), {}),
    (GrowthFit, dict(C_fit=1.5, profile=(1.0, 1.5)), {}),
    (CanonicalHeightResult, HEIGHT_FIELDS, {}),
    (CanHtChecks, dict(transform_ok=True, transform_gap=0.0,
                       transform_allow=1e-9, compare_ok=True, compare_gap=0.1,
                       compare_allow=0.5, alpha_ok=None, passed=True,
                       height=HEIGHT), {}),
    (PreperiodicReport, dict(kind="undecided"),
     {"period": None, "preperiod": None, "detail": ""}),
    (CountRow, dict(B=5.0, count=2, ratio=1.25), {}),
    (CountingReport, dict(rows=(CountRow(B=5.0, count=2, ratio=1.25),)),
     {"warning": None}),
    (RecursionBoundReport, dict(applicable=False, holds=None), {}),
    (DynDegEstimate, dict(upper_bounds=(2.0, 2.0), certified_upper=2.0,
                          certified=True, ratio_estimate=2.0), {}),
    (OrbitTermination, dict(kind="hit_indeterminacy", step=3),
     {"period": None, "preperiod": None}),
    (OrbitRecord, dict(points=(ProjPointQ((2, 1)),), heights=((0.7, 2),),
                       terminated_by=OrbitTermination(kind="reached_nmax")),
     {}),
    (SpectralEstimate, dict(value=2.6, method="char_poly_root",
                            bracket=(2.5, 2.7)), {}),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, kwargs, rest", RECORDS, ids=IDS)
def test_keyword_construction_defaults_and_repr(cls, kwargs, rest):
    rec = cls(**kwargs)
    fields = {**kwargs, **rest}
    for name, value in fields.items():
        assert getattr(rec, name) == value
    assert repr(rec) == "{}({})".format(cls.__name__, ", ".join(
        f"{name}={value!r}" for name, value in fields.items()))


@pytest.mark.parametrize("cls, kwargs, rest", RECORDS, ids=IDS)
def test_fields_are_read_only(cls, kwargs, rest):
    rec = cls(**kwargs)
    for name in {**kwargs, **rest}:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    with pytest.raises(AttributeError):
        rec.extra = None


@pytest.mark.parametrize("make, other", [
    (lambda: ProjPointQ([2, -1]), ProjPointQ((2, 1))),
    (lambda: IntMat([["2", 1], [1, 1.0]]), IntMat(((2, 1), (1, 2)))),
    (lambda: MonomialMap([[2, 1], [1, 1]]), MonomialMap(((1, 1), (1, 2)))),
    (lambda: FactoredTorusPoint((2, 3), ((1, 0), (0, 1)), (1, -1)),
     FactoredTorusPoint((2, 3), ((1, 0), (0, 1)), (1, 1))),
], ids=["ProjPointQ", "IntMat", "MonomialMap", "FactoredTorusPoint"])
def test_equal_contents_give_equal_objects_and_hashes(make, other):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other and len({a, b, other}) == 2


def test_constructors_normalise_their_input():
    assert ProjPointQ([1, 2]).coords == (1, 2)
    assert MonomialMap([[2, 1], [1, 1]]).A == FIB
    hs = HeightSequence((0.5, 2.0, 3.0), cycle=(0, 1))
    assert len(hs) == 3 and hs.hplus_values == (1.0, 2.0, 3.0)
    assert len(DegreeSequence((2, 4, 8), truncated=True)) == 3


def test_value_records_are_tuples():
    term = OrbitTermination(kind="cycle_detected", period=2, preperiod=0)
    assert term == ("cycle_detected", None, 2, 0)
    assert list(term) == ["cycle_detected", None, 2, 0] and term[2] == 2
