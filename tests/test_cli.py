import collections
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

from arithdyn import cli, projmaps
from arithdyn.cli import main
from arithdyn.corpus import build_corpus, export_corpus, load_corpus
from arithdyn.errors import ArithDynError
from arithdyn.polynomials import MultiPoly
from arithdyn.projmaps import (RationalMapPN, serialize_map_spec,
                               write_map_spec)
from arithdyn.spectral import char_poly


@pytest.fixture()
def square_spec(tmp_path):
    f = RationalMapPN.from_strings(["x^2", "y^2"], ["x", "y"], name="square")
    path = tmp_path / "square.json"
    write_map_spec(f, path)
    return str(path)


@pytest.fixture()
def cremona_spec(tmp_path):
    f = RationalMapPN.from_strings(["y*z", "x*z", "x*y"], ["x", "y", "z"],
                                   name="cremona")
    path = tmp_path / "cremona.json"
    write_map_spec(f, path)
    return str(path)


@pytest.fixture()
def mono_spec(tmp_path):
    path = tmp_path / "mono.json"
    path.write_text(json.dumps({"kind": "monomial",
                                "matrix": [[2, 1], [1, 1]]}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_orbit_power_map_golden(capsys, square_spec):
    code, out, _ = run(capsys, "orbit", "--map", square_spec,
                       "--point", "2,1", "--n", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,point,height_exact_arg,height"
    assert lines[1] == "0,[2 : 1],2,0.693147181"
    assert lines[4] == "3,[256 : 1],256,5.54517744"
    assert len(lines) == 6


def test_orbit_indeterminacy_reported_as_data(capsys, cremona_spec):
    code, out, _ = run(capsys, "orbit", "--map", cremona_spec,
                       "--point", "1,0,0", "--n", "3")
    assert code == 0
    assert "hit_indeterminacy at step 0" in out
    assert out.count("\n") == 3  # header, one data row, one note


def test_orbit_json_format(capsys, square_spec):
    code, out, _ = run(capsys, "orbit", "--map", square_spec,
                       "--point", "2,1", "--n", "2", "--out", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"][0] == "n"
    assert len(doc["rows"]) == 3


def test_malformed_map_file_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run(capsys, "orbit", "--map", str(bad), "--point", "2,1")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("argv, missing", [
    (["orbit", "--map", "SPEC", "--point", "2,1"], "dim"),
    (["campaign", "--corpus", "DIR"], "points"),
], ids=["map-without-dim", "corpus-without-points"])
def test_spec_without_a_field_exit_2(argv, missing, capsys, tmp_path):
    f = RationalMapPN.from_strings(["x^2", "y^2"], ["x", "y"], name="square")
    data = serialize_map_spec(f)
    data.update({"kind": "projective", "points": ["2,1"]})
    del data[missing]
    path = tmp_path / "corpus" / "bad.json"
    path.parent.mkdir()
    path.write_text(json.dumps(data))
    files = {"SPEC": str(path), "DIR": str(path.parent)}
    code, _, err = run(capsys, *[files.get(a, a) for a in argv])
    assert code == 2 and str(path) in err and missing in err


def test_missing_map_file_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "orbit", "--map", str(tmp_path / "no.json"),
                       "--point", "2,1")
    assert code == 2


def test_bad_point_text_exit_2(capsys, square_spec):
    code, _, err = run(capsys, "orbit", "--map", square_spec,
                       "--point", "2,zebra")
    assert code == 2


def test_dyndeg_cremona(capsys, cremona_spec):
    code, out, _ = run(capsys, "dyndeg", "--map", cremona_spec, "--n", "6")
    assert code == 0
    assert "delta_upper_cert = 1 (certified)" in out
    assert "ratio_heuristic" in out


def test_spectral_certified_line(capsys):
    code, out, _ = run(capsys, "spectral", "--matrix", "2,1;1,1")
    assert code == 0
    assert "2.61803399" in out and "certified" in out


def test_dyndeg_prints_certified_bounds_rounded_up(capsys, tmp_path):
    # [y*z : x^2 : z^2] has degrees 2, 2, 4, 4, 8, 8, so delta = sqrt(2);
    # the least float b with b^2 >= 2 rounds to nearest as 1.41421356,
    # below sqrt(2)
    path = tmp_path / "sqrt2.json"
    write_map_spec(RationalMapPN.from_strings(["y*z", "x^2", "z^2"],
                                              ["x", "y", "z"]), path)
    code, out, _ = run(capsys, "dyndeg", "--map", str(path), "--n", "6")
    assert code == 0
    lines = out.strip().split("\n")
    rows = [line.split(",") for line in lines[1:7]]
    assert [int(r[1]) for r in rows] == [2, 2, 4, 4, 8, 8]
    for n, deg, bound, tag in rows:
        assert tag == "certified" and Fraction(bound) ** int(n) >= int(deg)
    assert lines[7] == "# delta_upper_cert = 1.41421357 (certified)"


@pytest.mark.parametrize("matrix, charpoly, floor", [
    ("0,1;2,0", lambda t: t * t - 2, 0),
    ("2,1;1,1", lambda t: t * t - 3 * t + 1, Fraction(3, 2)),
])
def test_spectral_bracket_printed_outward(capsys, matrix, charpoly, floor):
    # above floor the characteristic polynomial is negative below rho and
    # positive above it, so its sign at the printed ends decides enclosure
    code, out, _ = run(capsys, "spectral", "--matrix", matrix)
    assert code == 0
    lo, hi = (Fraction(x) for x in out.split("\n")[1].split(",")[1:3])
    assert floor < lo <= hi
    assert charpoly(lo) <= 0 <= charpoly(hi)


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_spectral_rejects_a_tol_that_is_not_positive_and_finite(capsys, tol):
    code, out, err = run(capsys, "spectral", "--matrix", "2,1;1,1",
                         "--tol", tol)
    assert code == 2 and not out and "tol" in err


def test_canht_power_map(capsys, square_spec):
    code, out, _ = run(capsys, "canht", "--map", square_spec,
                       "--point", "2,1", "--beta", "2", "--certified")
    assert code == 0
    assert "0.693147181" in out and "certified_power" in out
    # the value is log 2 rounded to 9 digits, and the printed radius
    # covers that rounding
    value, radius = (Fraction(x) for x in out.split("\n")[1].split(",")[:2])
    with mpmath.workdps(50):
        log2 = Fraction(str(mpmath.log(2)))
    assert 0 < radius < Fraction(1, 10 ** 9)
    assert value - radius <= log2 - Fraction(1, 10 ** 40)
    assert log2 + Fraction(1, 10 ** 40) <= value + radius


# Seeded properties of whole command outputs: every printed certified bound
# encloses an exact Fraction or a 100-digit mpmath value.  certified_p1 is
# left out: its radius ignores the float rounding of the height walk, a
# known defect.

def _rows(out):
    return [line.split(",") for line in out.strip().split("\n")[1:]
            if not line.startswith("#")]


def _mp_fraction(x):
    return Fraction(mpmath.nstr(x, 100, min_fixed=-mpmath.inf,
                                max_fixed=mpmath.inf))


def test_dyndeg_printed_bounds_enclose_the_degrees(capsys, tmp_path):
    # deg f^n = d^n on [x^d : y^d]; the sqrt(2) map and some sparse
    # quadratic maps of P^2 lose degree under iteration, and some of the
    # latter iterate to a constant map, which dyndeg refuses
    rng = random.Random(2024)
    monos = [(i, j, 2 - i - j) for i in range(3) for j in range(3 - i)]
    maps = [RationalMapPN.from_strings([f"x^{d}", f"y^{d}"], ["x", "y"])
            for d in (2, 3, 5, 7)]
    maps += [RationalMapPN.from_strings(polys, ["x", "y", "z"]) for polys in
             (["y*z", "x^2", "z^2"], ["y*z", "y^2+z^2-x*z", "z^2"])]
    while len(maps) < 36:
        try:
            maps.append(RationalMapPN([MultiPoly.from_terms(
                3, [(rng.randint(-3, 3), e) for e in monos
                    if rng.random() < 0.5]) for _ in range(3)]))
        except ArithDynError:
            continue
    kinds = collections.Counter()
    for k, f in enumerate(maps):
        path = tmp_path / f"map{k}.json"
        write_map_spec(f, path)
        code, out, err = run(capsys, "dyndeg", "--map", str(path), "--n", "4")
        if code == 2:
            assert err.startswith("error: map reduces to a constant map")
            kinds["constant"] += 1
            continue
        assert code == 0
        rows = _rows(out)
        degs = [int(r[1]) for r in rows]
        if f.dim == 1:
            assert degs == [f.degree ** n for n in range(1, 5)]
        kinds["drop" if degs[-1] < f.degree ** 4 else "full"] += 1
        for n, deg, bound, tag in rows:
            assert tag == "certified" and Fraction(bound) ** int(n) >= int(deg)
        cert = Fraction(out.split("delta_upper_cert = ")[1].split()[0])
        assert any(cert ** n >= deg for n, deg in enumerate(degs, start=1))
    assert kinds == {"full": 31, "drop": 3, "constant": 2}


def test_spectral_printed_bracket_encloses_rho(capsys):
    rng = random.Random(2025)
    slack = Fraction(1, 10 ** 30)  # a triple root is good to 33 digits
    for trial in range(60):
        r = 2 + trial % 3
        rows = [[rng.randint(-5, 5) for _ in range(r)] for _ in range(r)]
        text = ";".join(",".join(map(str, row)) for row in rows)
        code, out, _ = run(capsys, "spectral", f"--matrix={text}")
        assert code == 0
        lo, hi = (Fraction(x) for x in _rows(out)[0][1:3])
        with mpmath.workdps(100):
            roots = mpmath.polyroots(char_poly(rows)[::-1], maxsteps=500,
                                     extraprec=400)
            rho = _mp_fraction(max(abs(z) for z in roots))
        assert lo - slack <= rho <= hi + slack


def test_canht_printed_ball_holds_log_h_on_power_maps(capsys, tmp_path):
    rng = random.Random(2026)
    maps = [(["x^2", "y^2"], 2), (["y^3", "-x^3"], 3),
            (["z^2", "x^2", "-y^2"], 2), (["y^5", "z^5", "x^5"], 5)]
    for k, (polys, d) in enumerate(maps):
        names = ["x", "y", "z"][:len(polys)]
        path = tmp_path / f"power{k}.json"
        write_map_spec(RationalMapPN.from_strings(polys, names), path)
        for _ in range(6):
            bits = rng.choice([1, 3, 60, 1100, 4000])
            coords = [rng.randint(-(1 << bits), 1 << bits)
                      for _ in range(len(polys) - 1)] + [rng.randint(1, 9)]
            g = math.gcd(*coords)
            h = max(abs(c) // g for c in coords)
            code, out, _ = run(capsys, "canht", "--map", str(path),
                               f"--point={','.join(map(str, coords))}",
                               "--beta", str(d), "--certified")
            assert code == 0
            value, radius = (Fraction(x) for x in _rows(out)[0][:2])
            with mpmath.workdps(100):
                log_h = _mp_fraction(mpmath.log(h))
            eps = Fraction(1, 10 ** 90) if h > 1 else 0
            assert value - radius <= log_h - eps
            assert log_h + eps <= value + radius


def test_count_command(capsys, square_spec):
    bs = ",".join(str(2 ** n * math.log(2)) for n in range(3, 7))
    code, out, _ = run(capsys, "count", "--map", square_spec,
                       "--point", "2,1", "--n", "8", "--B", bs)
    assert code == 0
    assert "log-scale heights" in out


@pytest.mark.parametrize("bound", ["nan", "inf", "1"])
def test_count_rejects_a_bound_that_is_not_finite_above_1(capsys, square_spec,
                                                          bound):
    code, out, err = run(capsys, "count", "--map", square_spec,
                         "--point", "2,1", "--n", "4", "--B", f"5,{bound}")
    assert code == 2 and not out and "bounds" in err


def test_campaign_default_corpus(tmp_path):
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert main(["campaign", "--out", str(out1)]) == 0
    assert main(["campaign", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "VIOLATION" not in text
    assert text.startswith("map,point,nmax,")


def test_campaign_corpus_dir_matches_builtin(tmp_path):
    corpus_dir = tmp_path / "corpus"
    export_corpus(str(corpus_dir))
    loaded = load_corpus(str(corpus_dir))
    assert len(loaded) == len(build_corpus())
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["campaign", "--out", str(out_a)]) == 0
    assert main(["campaign", "--corpus", str(corpus_dir),
                 "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_campaign_cache_transparency(tmp_path):
    cache = tmp_path / "cache"
    plain = tmp_path / "plain.csv"
    warm = tmp_path / "warm.csv"
    hit = tmp_path / "hit.csv"
    assert main(["campaign", "--out", str(plain)]) == 0
    assert main(["campaign", "--out", str(warm),
                 "--cache-dir", str(cache)]) == 0
    assert any(name.endswith(".json") for name in os.listdir(cache))
    assert main(["campaign", "--out", str(hit),
                 "--cache-dir", str(cache)]) == 0
    assert plain.read_bytes() == warm.read_bytes() == hit.read_bytes()


def test_campaign_empty_corpus_dir(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(["campaign", "--corpus", str(empty)])
    captured = capsys.readouterr()
    assert code == 0
    assert "empty" in captured.err
    assert captured.out.strip() == "map,point,nmax,alpha_lower,alpha_upper," \
        "delta_upper_cert,consistent,canht_value,canht_error,mode"


def write_square_corpus(corpus_dir, point):
    """A one-entry corpus: the square map at one start point."""
    corpus_dir.mkdir(exist_ok=True)
    f = RationalMapPN.from_strings(["x^2", "y^2"], ["x", "y"],
                                   name="square-big-point")
    data = serialize_map_spec(f)
    data.update({"kind": "projective", "points": [point],
                 "orbit_nmax": 12, "degseq_nmax": 4, "canht": False})
    with open(corpus_dir / "00_bad.json", "w") as fh:
        json.dump(data, fh)


def test_campaign_violation_fixture_exit_1(tmp_path, capsys):
    # a wandering point with a large limiting prefactor keeps the root
    # estimate above delta at any desk-scale n, which the checker must flag
    corpus_dir = tmp_path / "bad_corpus"
    write_square_corpus(corpus_dir, "12,1")
    out = tmp_path / "bad.csv"
    code = main(["campaign", "--corpus", str(corpus_dir), "--out", str(out)])
    assert code == 1
    assert out.read_text().count("VIOLATION") == 1


def test_campaign_error_names_the_entry(tmp_path, capsys):
    # certified canonical heights are refused on a P^2 map that is not a
    # power map; the message must say which corpus entry asked for them
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    f = RationalMapPN.from_strings(["x^2+y*z", "y^2", "z^2"],
                                   ["x", "y", "z"], name="p2canht")
    data = serialize_map_spec(f)
    data.update({"kind": "projective", "points": ["1,2,3"], "canht": True})
    (corpus_dir / "00_p2canht.json").write_text(json.dumps(data))
    code, _, err = run(capsys, "campaign", "--corpus", str(corpus_dir))
    assert code == 2
    assert err == "error: p2canht: certified canonical heights need a" \
        " permutation-power map or a morphism of P^1\n"


def _spec_files(tmp_path):
    """Map spec files for the error exits, by the name argv uses."""
    square = serialize_map_spec(
        RationalMapPN.from_strings(["x^2", "y^2"], ["x", "y"]))
    texts = {
        "SQUARE": square,
        "MIXED": {"dim": 1, "polys": [[{"c": "1", "e": [1, 0]}],
                                      [{"c": "1", "e": [2, 0]}]]},
        "NOPOLYS": {"dim": 1},
        "AFFINE": dict(square, kind="affine"),
    }
    files = {}
    for name, data in texts.items():
        files[name] = str(tmp_path / f"{name}.json")
        with open(files[name], "w") as fh:
            json.dump(data, fh)
    maps = {"CREMONA": (["y*z", "x*z", "x*y"], ["x", "y", "z"]),
            "P4": ([f"x{i}^2" for i in range(5)],
                   [f"x{i}" for i in range(5)])}
    for name, (polys, names) in maps.items():
        files[name] = str(tmp_path / f"{name}.json")
        write_map_spec(RationalMapPN.from_strings(polys, names),
                       files[name])
    return files


@pytest.mark.parametrize("argv, code, tail", [
    (["spectral", "--matrix", "1,2;3"], 2,
     "matrix must be square and nonempty"),
    (["spectral", "--matrix", "1,a;2,3"], 2,
     "bad matrix text '1,a;2,3': invalid literal for int() with base 10:"
     " 'a'"),
    (["orbit", "--map", "SQUARE", "--point", ""], 2, "empty point text"),
    (["arithdeg", "--map", "SQUARE", "--point", "2,1",
      "--tail-fraction", "0"], 2, "tail_fraction must be in (0, 1]"),
    (["orbit", "--map", "MIXED", "--point", "2,1"], 2,
     "coordinates have mixed degrees [1, 2]"),
    (["orbit", "--map", "NOPOLYS", "--point", "2,1"], 2,
     "map spec lacks a 'polys' field"),
    (["orbit", "--map", "AFFINE", "--point", "2,1"], 2,
     "unknown map kind 'affine'"),
    (["canht", "--map", "CREMONA", "--point", "1,0,0", "--beta", "2"], 2,
     "the map is undefined at the point (indeterminacy at step 0)"),
    (["arithdeg", "--map", "CREMONA", "--point", "1,1,0", "--n", "10"], 2,
     "height sequence too short: 2 of the 5 heights needed (nmax >= 4;"
     " an orbit that hits indeterminacy stops early)"),
    # the first case past four coordinates, named x0..x4
    (["orbit", "--map", "P4", "--point", "1,2,3,4,5", "--n", "1"], 0,
     "1,[1 : 4 : 9 : 16 : 25],25,3.21887582"),
    # the largest float below 2^1024: beta h_k overflows and beta^-n
    # underflows, so the radius would be inf * 0
    (["canht", "--map", "SQUARE", "--point", "2,1", "--beta",
      str(2 ** 1024 - 2 ** 970 - 1)], 3,
     "the canonical height at beta = 1.79769313e+308 leaves the float"
     " range"),
    # value and radius both underflow to 0, and both are finite
    (["canht", "--map", "SQUARE", "--point", "2,1", "--beta", "1e300"], 0,
     "0,0,1e+300,10,heuristic"),
], ids=["not-square", "bad-entry", "empty-point", "tail-fraction",
        "mixed-degrees", "no-polys", "unknown-kind", "short-orbit",
        "short-heights", "five-coordinates", "canht-overflowing-beta",
        "canht-underflowing-beta"])
def test_rare_exits(argv, code, tail, capsys, tmp_path):
    files = _spec_files(tmp_path)
    got, out, err = run(capsys, *[files.get(a, a) for a in argv])
    assert got == code
    if code:
        prefix = "resource cap: " if code == 3 else "error: "
        assert err.startswith(prefix) and err.endswith(tail + "\n")
    else:
        assert out.splitlines()[-1] == tail


def test_usage_error_exit_code():
    assert main(["orbit"]) == 2  # missing required arguments


def test_campaign_handles_indeterminacy_terminated_orbit():
    from arithdyn.campaign import run_entry
    from arithdyn.corpus import CorpusEntry
    from arithdyn.projmaps import RationalMapPN

    sigma = RationalMapPN.from_strings(["y*z", "x*z", "x*y"],
                                       ["x", "y", "z"], name="cremona")
    entry = CorpusEntry(name="cremona-edge", kind="projective",
                        mapping=sigma, points=((0, 1, 2),), orbit_nmax=8)
    rows = run_entry(entry)
    assert len(rows) == 1
    assert rows[0].consistent
    assert math.isnan(rows[0].alpha_lower)


def test_config_file_supplies_defaults(tmp_path, capsys, square_spec):
    cache = tmp_path / "confcache"
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"cache-dir": str(cache)}))
    code, out, _ = run(capsys, "orbit", "--config", str(conf),
                       "--map", square_spec, "--point", "2,1", "--n", "3")
    assert code == 0
    assert any(name.endswith(".json") for name in os.listdir(cache))
    # a cache hit replays the identical bytes
    code2, out2, _ = run(capsys, "orbit", "--config", str(conf),
                         "--map", square_spec, "--point", "2,1", "--n", "3")
    assert code2 == 0 and out2 == out


@pytest.mark.parametrize("content", ["[1, 2]", '"cache-dir"', "null"])
def test_config_file_that_is_not_an_object_exit_2(content, tmp_path, capsys,
                                                   square_spec):
    conf = tmp_path / "conf.json"
    conf.write_text(content)
    code, out, err = run(capsys, "orbit", "--config", str(conf),
                         "--map", square_spec, "--point", "2,1")
    assert code == 2 and not out and str(conf) in err


@pytest.mark.parametrize("certified", [True, False])
def test_config_file_sets_a_boolean_flag(certified, tmp_path, capsys,
                                         square_spec):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"certified": certified}))
    argv = ["canht", "--map", square_spec, "--point", "2,1", "--beta", "2"]
    expected = run(capsys, *argv, *(["--certified"] if certified else []))
    got = run(capsys, "canht", "--config", str(conf), *argv[1:])
    assert got == expected and got[0] == 0
    assert ("certified_power" in got[1]) == certified


def test_config_file_null_leaves_an_option_unset(tmp_path, capsys,
                                                 monkeypatch, square_spec):
    # null must not become the text "None", here a cache directory of that
    # name; 0 is a value and still expands (default --n is 10)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ARITHDYN_CACHE_DIR", raising=False)
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"cache-dir": None, "n": 0}))
    argv = ["orbit", "--map", square_spec, "--point", "2,1"]
    expected = run(capsys, *argv, "--n", "0")
    got = run(capsys, "orbit", "--config", str(conf), *argv[1:])
    assert got == expected and got[0] == 0
    assert "None" not in os.listdir(tmp_path)


@pytest.mark.parametrize("argv", [
    ["canht", "--map", "SQUARE", "--point", "1,2,3", "--beta", "2",
     "--certified"],
    ["canht", "--map", "SUMSQ", "--point", "1,2,3", "--beta", "2",
     "--certified"],
    ["orbit", "--map", "SQUARE", "--point", "1,2,3", "--n", "0"],
    ["count", "--map", "MONO", "--point", "2,3,5", "--n", "0", "--B", "5"],
], ids=["canht-power", "canht-p1", "orbit", "count-monomial"])
def test_point_of_the_wrong_dimension_exit_2(argv, capsys, tmp_path,
                                             square_spec, mono_spec):
    sumsq = tmp_path / "sumsq.json"
    write_map_spec(RationalMapPN.from_strings(["x^2+y^2", "x*y"]), sumsq)
    files = {"SQUARE": square_spec, "SUMSQ": str(sumsq), "MONO": mono_spec}
    code, out, err = run(capsys, *[files.get(a, a) for a in argv])
    assert code == 2 and not out
    assert "point and map dimensions differ" in err


@pytest.mark.parametrize("argv", [
    ["orbit", "--map", "SQUARE", "--point", "2,1", "--out-file", "OUT"],
    ["campaign", "--out", "OUT"],
], ids=["orbit", "campaign"])
def test_unwritable_output_path_exit_2(argv, capsys, tmp_path, square_spec):
    out_path = str(tmp_path / "missing" / "r.csv")
    files = {"SQUARE": square_spec, "OUT": out_path}
    code, out, err = run(capsys, *[files.get(a, a) for a in argv])
    assert code == 2 and not out and out_path in err


def test_cache_dir_that_cannot_be_created_is_skipped(capsys, tmp_path,
                                                     square_spec):
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["orbit", "--map", square_spec, "--point", "2,1", "--n", "3"]
    plain = run(capsys, *argv)
    cached = run(capsys, *argv, "--cache-dir", str(blocker / "cache"))
    assert cached == plain and plain[0] == 0 and plain[1]


def test_dyndeg_exponent_overflow_exit_3(capsys, square_spec):
    code, out, _ = run(capsys, "dyndeg", "--map", square_spec, "--n", "30")
    assert code == 3
    assert "truncated by resource caps" in out


def test_resource_cap_inside_a_command_exit_3(capsys, monkeypatch,
                                              mono_spec):
    from arithdyn import monomial

    steps = []
    step = monomial._step
    monkeypatch.setattr(monomial, "_step",
                        lambda rows, cols: steps.append(cols) or
                        step(rows, cols))
    # from 10^300 the exponents still fit a float at n = 732, but a
    # product e log q of the height does not
    big = str(10 ** 300)
    for argv in (["arithdeg", "--point", "2,3", "--n", "800"],
                 ["arithdeg", "--point", f"{big},3", "--n", "732"],
                 ["count", "--point", f"{big},3", "--n", "732", "--B", "5"],
                 ["arithdeg", "--point", "2,3", "--n", "100000"]):
        steps.clear()
        code, out, err = run(capsys, argv[0], "--map", mono_spec, *argv[1:])
        assert code == 3 and out == ""
        assert err.startswith(
            "resource cap: exponents exceed the float range of heights")
        # each height is taken as its point is made, so the orbit stops
        # at the first point out of the float range
        assert 0 < len(steps) < 740


@pytest.mark.parametrize("point, n", [("2,1", "500"), ("1,0", "500"),
                                      ("2,1", "450")])
def test_canht_certified_p1_outside_the_float_range_exit_3(point, n, capsys,
                                                           tmp_path):
    spec = tmp_path / "quint.json"
    write_map_spec(RationalMapPN.from_strings(["x^5+y^5", "x*y^4"],
                                              ["x", "y"]), spec)
    code, out, err = run(capsys, "canht", "--map", str(spec), "--point",
                         point, "--beta", "5", "--n", n, "--certified")
    assert code == 3 and out == ""
    assert err.startswith("resource cap: ")


@pytest.mark.parametrize("mode", [[], ["--certified"]])
def test_canht_beta_past_the_float_range_exit_2(mode, capsys, square_spec):
    code, out, err = run(capsys, "canht", "--map", square_spec, "--point",
                         "2,1", "--beta", "1e400", *mode)
    assert code == 2 and not out
    assert err == "error: beta must be finite and exceed 1\n"


@pytest.mark.parametrize("exponent", [200, 400])
def test_canht_certified_p1_with_wide_coefficients(exponent, capsys,
                                                   tmp_path):
    # the certificate's integers are logged exactly; the float walk takes
    # 10^200 but not 10^400, which exceeds the float range
    spec = tmp_path / "wide.json"
    write_map_spec(RationalMapPN.from_strings(
        [f"x^2+{10 ** exponent}*y^2", "x*y+y^2"], ["x", "y"]), spec)
    code, out, err = run(capsys, "canht", "--map", str(spec), "--point",
                         "2,1", "--beta", "2", "--certified")
    if exponent == 200:
        assert code == 0 and not err
        assert out.split("\n")[1].endswith(",2,10,certified_p1")
    else:
        assert code == 3 and not out
        assert err == "resource cap: coefficients leave the float range\n"


def test_spectral_radius_past_the_float_range_exit_3(capsys):
    code, out, err = run(capsys, "spectral", "--matrix", f"{10 ** 400},0;0,1")
    assert code == 3 and not out
    assert err.startswith("resource cap: ")


@pytest.fixture()
def sumsq_spec(tmp_path):
    # coordinates of the orbit of [2 : 1] double in bit size every step
    path = tmp_path / "sumsq.json"
    write_map_spec(RationalMapPN.from_strings(["x^2+y^2", "x*y"],
                                              ["x", "y"]), path)
    return str(path)


def test_canht_heuristic_within_the_coordinate_cap(capsys, sumsq_spec):
    code, out, _ = run(capsys, "canht", "--map", sumsq_spec, "--point",
                       "2,1", "--beta", "2", "--n", "20")
    assert code == 0
    assert out == ("value,error_radius,beta,n_used,certification\n"
                   "0.865772572,2.13034996e-07,2,20,heuristic\n")


def run_child(*argv, timeout=60):
    """``python -m arithdyn ARGV`` in a child interpreter, which parses the
    command line exactly as the installed script does."""
    path = [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    env.pop("ARITHDYN_CACHE_DIR", None)
    return subprocess.run([sys.executable, "-m", "arithdyn", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=timeout)


@pytest.mark.parametrize("n", ["24", "40"])
def test_canht_heuristic_past_the_coordinate_cap_exit_3(n, sumsq_spec):
    # a child process, so that an orbit without a cap ends in a timeout
    child = run_child("canht", "--map", sumsq_spec, "--point", "2,1",
                      "--beta", "2", "--n", n, timeout=20)
    assert child.returncode == 3 and child.stdout == ""
    assert child.stderr.startswith("resource cap: orbit coordinates exceed")


def test_pn_orbit_reduces_modulo_the_lifted_resultant(tmp_path):
    # a morphism of P^2: each orbit step takes the gcd modulo the integer R
    # of its Macaulay identity, not the exact gcd of megabit coordinates
    # (about 15 s on a 2-core VM), and reaches the budget at step 15
    f = RationalMapPN.from_strings(
        ["7*x^2-3*y^2-1000000000*z^2", f"-{10 ** 21 - 7}*x^2-y^2",
         f"{10 ** 36}*x^2"], ["x", "y", "z"])
    spec = tmp_path / "p2.json"
    write_map_spec(f, spec)
    child = run_child("orbit", "--map", str(spec), "--point", "6,2,-9",
                      "--n", "15", timeout=10)
    assert child.returncode == 3 and child.stdout == ""
    assert child.stderr == ("resource cap: orbit coordinates exceed 2097152"
                            " bits at step 15\n")


@pytest.mark.parametrize("command, extra", [
    ("orbit", []), ("arithdeg", []), ("count", ["--B", "5,10"])])
def test_exact_orbit_past_the_coordinate_cap_exit_3(capsys, sumsq_spec,
                                                    command, extra):
    # step 21 reaches 2.62 Mbit, past the 2^21-bit budget of every orbit
    code, out, err = run(capsys, command, "--map", sumsq_spec, "--point",
                         "2,1", "--n", "21", *extra)
    assert code == 3 and not out
    assert err == ("resource cap: orbit coordinates exceed 2097152 bits"
                   " at step 21\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python prints ints of any length")
@pytest.mark.parametrize("out", ["csv", "json"])
def test_orbit_past_the_int_printing_limit_exit_3(out):
    # squaring [2 : 1] gives the coordinate 2^(2^n): 2467 digits at
    # n = 13, and 4933 at n = 14, past the 4300 digits str() accepts
    square = os.path.join(os.path.dirname(__file__), "golden", "cli",
                          "square.json")
    argv = ["orbit", "--map", square, "--point", "2,1", "--out", out]
    child = run_child(*argv, "--n", "14")
    assert child.returncode == 3 and child.stdout == ""
    assert child.stderr == ("resource cap: orbit coordinates exceed 4300"
                            " digits, the limit of int-to-str conversion\n")
    child = run_child(*argv, "--n", "13")
    assert child.returncode == 0 and not child.stderr
    if out == "json":
        last = json.loads(child.stdout)["rows"][-1]
    else:
        last = child.stdout.rstrip("\n").split("\n")[-1].split(",")
    assert int(last[0]) == 13 and int(last[2]) == 2 ** 2 ** 13
    assert (out == "json") == isinstance(last[2], int)


@pytest.mark.parametrize("argv, prefix", [
    (["orbit", "--map", "SQUARE", "--point", "2,1", "--config"],
     "error: --config needs a file argument"),
    (["orbit", "--config", "BAD", "--map", "SQUARE", "--point", "2,1"],
     "error: bad config file BAD:"),
    (["canht", "--map", "SQUARE", "--point", "2,1", "--beta", "x"],
     "error: bad beta 'x'"),
    (["count", "--map", "SQUARE", "--point", "2,1", "--B", "5,x"],
     "error: bad height bound list '5,x'"),
    # rounds up to 2^1024, past the float range
    (["canht", "--map", "SQUARE", "--point", "2,1", "--beta",
      str(2 ** 1024 - 1)], "error: beta must be finite and exceed 1\n"),
], ids=["config-without-file", "config-not-json", "canht-beta",
        "count-bound", "canht-huge-beta"])
def test_usage_error_exit_2(argv, prefix, capsys, tmp_path, square_spec):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    files = {"SQUARE": square_spec, "BAD": str(bad)}
    code, out, err = run(capsys, *[files.get(a, a) for a in argv])
    assert code == 2 and not out
    assert err.startswith(prefix.replace("BAD", str(bad)))


# a value after a space may start with a minus sign, as in the "=" form,
# also after a unique prefix of the option, which argparse accepts
@pytest.mark.parametrize("argv, first_row", [
    (["spectral", "--matrix", "-1,2;3,4"], "5,4.99999999,5.00000001,"),
    (["orbit", "--map", "SQUARE", "--point", "-2,1", "--n", "2"],
     "0,[2 : -1],2,"),
    (["spectral", "--mat", "-1,2;3,4"], "5,4.99999999,5.00000001,"),
    (["orbit", "--map", "SQUARE", "--po", "-2,1", "--n", "2"],
     "0,[2 : -1],2,"),
], ids=["spectral-matrix", "orbit-point", "spectral-mat", "orbit-po"])
def test_negative_value_after_a_space(argv, first_row, capsys, square_spec):
    argv = [square_spec if a == "SQUARE" else a for a in argv]
    child = run_child(*argv)
    assert child.returncode == 0 and not child.stderr
    assert child.stdout.split("\n")[1].startswith(first_row)
    i = next(i for i, a in enumerate(argv) if a.startswith("-") and
             not a.startswith("--"))
    joined = argv[:i - 1] + [argv[i - 1] + "=" + argv[i]] + argv[i + 1:]
    assert run(capsys, *joined) == (0, child.stdout, "")


@pytest.mark.parametrize("argv, err", [
    (["canht", "--map", "SQUARE", "--point", "2,1", "--beta", "-2"],
     "error: beta must be finite and exceed 1\n"),
    (["count", "--map", "SQUARE", "--point", "-2,1", "--n", "4", "--B",
      "-5,5"], "error: counting bounds must be finite and exceed 1\n"),
], ids=["canht-beta", "count-bound"])
def test_negative_value_after_a_space_is_checked(argv, err, square_spec):
    child = run_child(*[square_spec if a == "SQUARE" else a for a in argv])
    assert child.returncode == 2 and not child.stdout
    assert child.stderr == err


@pytest.mark.parametrize("argv, message", [
    (["spectral", "--matrix", "1,2;3,4", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["spectral", "--matrix", "1,2;3,4", "-x"], "unrecognized arguments: -x"),
    (["orbit", "--map", "SQUARE", "--point", "--n", "2"],
     "argument --point: expected one argument"),
], ids=["long-option", "short-option", "missing-value"])
def test_unknown_option_still_exit_2(argv, message, square_spec):
    child = run_child(*[square_spec if a == "SQUARE" else a for a in argv])
    assert child.returncode == 2 and not child.stdout
    assert child.stderr.rstrip().endswith(message)


# --- the result cache -------------------------------------------------------

EVERY_SUBCOMMAND = {
    "orbit": ["orbit", "--map", "SQUARE", "--point", "2,1", "--n", "4"],
    "orbit-json": ["orbit", "--map", "SQUARE", "--point", "2,1", "--n", "4",
                   "--out", "json"],
    "dyndeg": ["dyndeg", "--map", "CREMONA", "--n", "6"],
    "dyndeg-monomial": ["dyndeg", "--map", "MONO"],
    "arithdeg": ["arithdeg", "--map", "MONO", "--point", "2,3", "--n", "40"],
    "canht": ["canht", "--map", "SQUARE", "--point", "2,1", "--beta", "2",
              "--certified"],
    "count": ["count", "--map", "SQUARE", "--point", "2,1", "--n", "20",
              "--B", "5,50,500"],
    "spectral": ["spectral", "--matrix", "2,1;1,1"],
    "campaign": ["campaign", "--corpus", "CORPUS"],
}


def _command_not_run(args):
    raise AssertionError("a cache hit ran the command")


@pytest.mark.parametrize("name", sorted(EVERY_SUBCOMMAND))
def test_cache_miss_and_hit_replay_uncached_run(name, capsys, monkeypatch,
                                                tmp_path, square_spec,
                                                cremona_spec, mono_spec):
    write_square_corpus(tmp_path / "corpus", "12,1")
    files = {"SQUARE": square_spec, "CREMONA": cremona_spec,
             "MONO": mono_spec, "CORPUS": str(tmp_path / "corpus")}
    argv = [files.get(a, a) for a in EVERY_SUBCOMMAND[name]]
    cache = str(tmp_path / "cache")
    plain = run(capsys, *argv)[:2]
    miss = run(capsys, *argv, "--cache-dir", cache)[:2]
    assert len(os.listdir(cache)) == 1
    monkeypatch.setattr(cli, "cmd_" + argv[0], _command_not_run)
    hit = run(capsys, *argv, "--cache-dir", cache)[:2]
    assert plain == miss == hit
    assert plain[1]


def test_cache_sees_an_edited_corpus(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    write_square_corpus(corpus_dir, "2,1")
    argv = ["campaign", "--corpus", str(corpus_dir),
            "--cache-dir", str(tmp_path / "cache")]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "VIOLATION" not in out
    write_square_corpus(corpus_dir, "12,1")
    code, out, _ = run(capsys, *argv)
    assert code == 1 and out.count("VIOLATION") == 1


def test_cache_keys_the_campaign_report_format(tmp_path):
    corpus_dir = tmp_path / "corpus"
    write_square_corpus(corpus_dir, "2,1")
    cache = str(tmp_path / "cache")
    plain = tmp_path / "plain.json"
    assert main(["campaign", "--corpus", str(corpus_dir),
                 "--out", str(plain)]) == 0
    for name in ("r.csv", "r.json"):
        assert main(["campaign", "--corpus", str(corpus_dir),
                     "--out", str(tmp_path / name), "--cache-dir", cache]) == 0
    assert (tmp_path / "r.json").read_bytes() == plain.read_bytes()


def test_cache_replays_the_resource_cap_exit(capsys, monkeypatch, tmp_path):
    # certified morphisms and algebraically stable maps compose nothing,
    # so the cap is tripped on a map of P^2 whose degrees drop
    spec = tmp_path / "unstable.json"
    write_map_spec(RationalMapPN.from_strings(
        ["x*z-z^2", "-2*y*z", "x*y-2*x*z"], ["x", "y", "z"]), spec)
    monkeypatch.setattr(projmaps, "_MAX_TERMS", 3)
    argv = ["dyndeg", "--map", str(spec), "--n", "5"]
    cache = str(tmp_path / "cache")
    plain = run(capsys, *argv)[:2]
    assert plain[0] == 3
    assert run(capsys, *argv, "--cache-dir", cache)[:2] == plain
    assert run(capsys, *argv, "--cache-dir", cache)[:2] == plain


def test_dyndeg_names_the_constant_iterate(capsys, tmp_path):
    # [x^2 : x^2 : y^2] is not dominant: f^2 = [x^4 : x^4 : x^4]
    spec = tmp_path / "flat.json"
    write_map_spec(RationalMapPN.from_strings(["x^2", "x^2", "y^2"],
                                              ["x", "y", "z"]), spec)
    code, out, err = run(capsys, "dyndeg", "--map", str(spec), "--n", "3")
    assert (code, out) == (2, "")
    assert err == ("error: map reduces to a constant map at f^2: the map is"
                   " not dominant\n")


def test_cache_entry_without_exit_code_is_a_miss(capsys, tmp_path,
                                                 square_spec):
    cache = tmp_path / "cache"
    argv = ["orbit", "--map", square_spec, "--point", "2,1", "--n", "3",
            "--cache-dir", str(cache)]
    expected = run(capsys, *argv)[:2]
    (entry,) = cache.iterdir()
    entry.write_text(json.dumps({"output": "stale\n"}))
    assert run(capsys, *argv)[:2] == expected
    assert json.loads(entry.read_text())["exit"] == 0


@pytest.mark.parametrize("argv", [
    ["dyndeg", "--map", "MISSING"],
    ["orbit", "--map", "DIRECTORY", "--point", "2,1"],
    ["campaign", "--corpus", "MISSING"],
], ids=["missing-map", "directory-map", "missing-corpus"])
@pytest.mark.parametrize("cached", [False, True])
def test_unreadable_input_exit_2(argv, cached, capsys, tmp_path):
    files = {"MISSING": str(tmp_path / "no.json"), "DIRECTORY": str(tmp_path)}
    argv = [files.get(a, a) for a in argv]
    if cached:
        argv += ["--cache-dir", str(tmp_path / "cache")]
    code, _, err = run(capsys, *argv)
    assert code == 2 and "error" in err


def _random_small_map(rng):
    """A random map of P^1 of degree 1-3 or of P^2 of degree 1-2: each
    monomial kept with probability 0.6, coefficients in [-9, 9]."""
    nv, d = rng.choice([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    monos = [e for e in itertools.product(range(d + 1), repeat=nv)
             if sum(e) == d]
    return RationalMapPN([MultiPoly.from_terms(nv, [
        (rng.randint(-9, 9), e) for e in monos if rng.random() < 0.6])
        for _ in range(nv)])


def test_seeded_cli_calls_return_an_exit_code(capsys, monkeypatch, tmp_path):
    # nothing escapes main on small random maps: every call ends in a
    # documented exit code
    monkeypatch.delenv("ARITHDYN_CACHE_DIR", raising=False)
    rng = random.Random(25)
    spec = str(tmp_path / "map.json")
    calls = 0
    while calls < 300:
        try:
            f = _random_small_map(rng)
        except ArithDynError:
            continue
        write_map_spec(f, spec)
        command = rng.choice(["orbit", "dyndeg", "arithdeg", "canht",
                              "count"])
        point = ",".join(str(rng.randint(-20, 20) or 1)
                         for _ in range(f.dim + 1))
        argv = [command, "--map", spec, "--n", str(rng.randint(1, 8))]
        if command != "dyndeg":
            argv += ["--point", point]
        if command == "canht":
            argv += ["--beta", str(rng.choice([f.degree, 2, 3]))]
            if rng.random() < 0.5:
                argv.append("--certified")
        elif command == "count":
            argv += ["--B", "5,50"]
        try:
            code = main(argv)
        except BaseException as exc:
            raise AssertionError(f"{argv} on {f!r} raised {exc!r}") from exc
        capsys.readouterr()
        assert type(code) is int and code in (0, 1, 2, 3), (argv, f, code)
        calls += 1
