import json
import math
import os

import pytest

from arithdyn import cli, projmaps
from arithdyn.cli import main
from arithdyn.corpus import build_corpus, export_corpus, load_corpus
from arithdyn.projmaps import (RationalMapPN, serialize_map_spec,
                               write_map_spec)


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
    assert ",0," in out  # zero error radius


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
    spec = tmp_path / "sumsq.json"
    write_map_spec(RationalMapPN.from_strings(["x^2+y^2", "x*y"],
                                              ["x", "y"]), spec)
    monkeypatch.setattr(projmaps, "_MAX_TERMS", 3)
    argv = ["dyndeg", "--map", str(spec), "--n", "5"]
    cache = str(tmp_path / "cache")
    plain = run(capsys, *argv)[:2]
    assert plain[0] == 3
    assert run(capsys, *argv, "--cache-dir", cache)[:2] == plain
    assert run(capsys, *argv, "--cache-dir", cache)[:2] == plain


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
