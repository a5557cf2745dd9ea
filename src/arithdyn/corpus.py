"""The bundled verification corpus: maps with orbit start points.

Start points are deliberately small.  Root-type estimators h_n^(1/n)
approach their limit from above whenever the limiting prefactor
lim h_n / delta^n exceeds 1, and no desk-scale n can push such an estimate
back below delta.  Every bundled point was checked to keep that prefactor
at most 1, so the consistency margins in the campaign report are honest
rather than tuned.
"""

import json
import os
from fractions import Fraction
from typing import NamedTuple

from .errors import ContractViolation

# The map modules are imported inside the functions that build maps, so
# listing a corpus directory (the CLI's cache key does) loads none of them.


class CorpusEntry(NamedTuple):
    """One map plus its orbit start points and iteration budgets."""

    name: str
    kind: str                     # "projective" | "monomial"
    mapping: object               # RationalMapPN | MonomialMap
    points: tuple                 # point coordinate tuples (rationals)
    orbit_nmax: int
    degseq_nmax: int = 5
    canht: bool = False           # certified canonical heights apply


def _p1(name, polys, points, nmax=14):
    from .projmaps import RationalMapPN

    f = RationalMapPN.from_strings(polys, ["x", "y"], name=name)
    return CorpusEntry(name=name, kind="projective", mapping=f,
                       points=tuple(points), orbit_nmax=nmax,
                       degseq_nmax=5, canht=True)


def _p2(name, polys, points, nmax=12):
    from .projmaps import RationalMapPN

    f = RationalMapPN.from_strings(polys, ["x", "y", "z"], name=name)
    return CorpusEntry(name=name, kind="projective", mapping=f,
                       points=tuple(points), orbit_nmax=nmax)


def _mono(name, rows, points, nmax=40):
    from .monomial import MonomialMap
    from .spectral import as_matrix

    m = MonomialMap(as_matrix(rows))
    return CorpusEntry(name=name, kind="monomial", mapping=m,
                       points=tuple(points), orbit_nmax=nmax)


def build_corpus():
    """The bundled corpus: 15 maps, 3 start points each."""
    F = Fraction
    entries = [
        _p1("square-powers", ["x^2", "y^2"], [(2, 1), (1, 1), (0, 1)]),
        _p1("cube-powers", ["x^3", "y^3"], [(2, 1), (1, -1), (0, 1)],
            nmax=10),
        _p1("sum-squares-over-product", ["x^2+y^2", "x*y"],
            [(2, 1), (1, 1), (1, 2)]),
        _p1("angle-doubling", ["x^2-y^2", "2*x*y"],
            [(2, 1), (1, 1), (1, 2)]),
        _p1("cubic-mixed", ["x^3+2*y^3", "x*y^2"],
            [(2, 1), (1, 1), (1, 2)], nmax=10),
        _p1("sum-diff-squares", ["x^2+y^2", "x^2-y^2"],
            [(2, 1), (1, 2), (0, 1)]),
        _p2("coordinate-reciprocal", ["y*z", "x*z", "x*y"],
            [(1, 2, 3), (2, 3, 5), (1, 1, 2)], nmax=8),
        _p2("henon-a1-c1", ["y*z", "y^2+z^2-x*z", "z^2"],
            [(0, 1, 1), (1, 2, 1), (2, 1, 1)]),
        _p2("henon-a2-cm1", ["y*z", "y^2-z^2-2*x*z", "z^2"],
            [(1, 1, 1), (0, 1, 1), (1, 0, 1)]),
        _p2("square-powers-p2", ["x^2", "y^2", "z^2"],
            [(2, 1, 1), (1, 1, 1), (0, 1, 2)], nmax=10),
        _mono("mono-fib-squared", [[2, 1], [1, 1]],
              [(2, 3), (F(1, 2), 3), (2, F(1, 3))]),
        _mono("mono-fib-automorphism", [[1, 1], [1, 0]],
              [(2, 3), (2, F(1, 3)), (F(1, 2), 3)], nmax=50),
        _mono("mono-inverse-automorphism", [[1, -1], [-1, 2]],
              [(2, 2), (4, 2), (8, 4)]),
        _mono("mono-diagonal-2-3", [[2, 0], [0, 3]],
              [(2, 2), (3, 2), (F(1, 2), 2)], nmax=36),
        _mono("mono-swap", [[0, 1], [1, 0]],
              [(2, 3), (2, 5), (-6, F(1, 2))], nmax=12),
    ]
    return entries


def serialize_entry(entry: CorpusEntry) -> dict:
    from .projmaps import serialize_map_spec

    if entry.kind == "projective":
        data = serialize_map_spec(entry.mapping)
    else:
        data = {"name": entry.name, "kind": "monomial",
                "matrix": [list(r) for r in entry.mapping.A.entries]}
    data["kind"] = entry.kind
    data["points"] = [",".join(str(c) for c in pt) for pt in entry.points]
    data["orbit_nmax"] = entry.orbit_nmax
    data["degseq_nmax"] = entry.degseq_nmax
    data["canht"] = entry.canht
    return data


def _parse_map(data: dict):
    """(kind, map) of a map spec: a monomial map when kind says so or, with
    no kind, when the spec has a matrix; else a projective map."""
    from .monomial import MonomialMap
    from .projmaps import parse_map_spec
    from .spectral import as_matrix

    kind = data.get("kind") or ("monomial" if "matrix" in data else "projective")
    if kind == "monomial":
        return kind, MonomialMap(as_matrix(data["matrix"]))
    if kind == "projective":
        return kind, parse_map_spec(data)
    raise ContractViolation(f"unknown map kind {kind!r}")


def parse_entry(data: dict) -> CorpusEntry:
    kind, mapping = _parse_map(data)
    points = tuple(tuple(Fraction(x) for x in pt.split(","))
                   for pt in data["points"])
    name = data.get("name") or ("monomial" if kind == "monomial" else "map")
    return CorpusEntry(name=name, kind=kind, mapping=mapping, points=points,
                       orbit_nmax=int(data.get("orbit_nmax", 12)),
                       degseq_nmax=int(data.get("degseq_nmax", 5)),
                       canht=bool(data.get("canht", False)))


def _read_spec(path, parse):
    """parse(the JSON object in path); a malformed spec raises a
    ContractViolation that names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh))
    except OSError as exc:
        raise ContractViolation(f"cannot read {path}: {exc}") from None
    except (KeyError, TypeError, ValueError, AttributeError,
            ZeroDivisionError) as exc:
        raise ContractViolation(
            f"bad spec file {path}: {type(exc).__name__}: {exc}") from None


def write_spec(data: dict, path):
    """Write a spec as canonical JSON: sorted keys, indent 1, newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ": "), indent=1)
        fh.write("\n")


def load_map(path):
    """The projective or monomial map of a map-spec file."""
    return _read_spec(path, _parse_map)[1]


def export_corpus(directory):
    """Write the bundled corpus as one canonical JSON spec per map."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, entry in enumerate(build_corpus()):
        path = os.path.join(directory, f"{i:02d}_{entry.name}.json")
        write_spec(serialize_entry(entry), path)
        paths.append(path)
    return paths


def corpus_paths(directory):
    """The spec files of a corpus directory, in the order they load."""
    try:
        names = sorted(os.listdir(directory))
    except OSError as exc:
        raise ContractViolation(f"cannot read corpus {directory}: {exc}")
    return [os.path.join(directory, n) for n in names if n.endswith(".json")]


def load_corpus(directory):
    return [_read_spec(path, parse_entry) for path in corpus_paths(directory)]
