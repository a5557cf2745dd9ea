"""Command-line front end.

Subcommands: orbit, dyndeg, arithdeg, canht, count, spectral, campaign.
Every number printed carries its certification status, floats are rendered
with 9 significant digits, and identical inputs produce byte-identical
output.  Exit codes: 0 success, 1 a violation or inconsistency was found,
2 usage or parse error, 3 resource cap exceeded.

Early orbit termination (indeterminacy, cycles) is data, not an error: it
is reported in the output and exits 0.  Each subcommand returns its text
and exit code; main emits them once and, given --cache-dir or the
ARITHDYN_CACHE_DIR environment variable, caches both (see _cache_key), so
a hit replays the bytes and the exit code of an uncached run.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

from . import __version__
from .campaign import (format_float, height_sequence, rows_to_csv,
                       rows_to_json, run_campaign)
from .corpus import build_corpus, corpus_paths, load_corpus, load_map
from .degrees import arithdeg_estimate, canonical_height, counting_function
from .errors import (ArithDynError, ContractViolation, ResourceCapExceeded)
from .heights import format_point, normalize, parse_point
from .monomial import MonomialMap, mon_dyndeg, monomial_to_projective
from .projmaps import degree_sequence, dyndeg_estimate, orbit
from .spectral import parse_matrix, spectral_radius

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _cache_dir(args):
    return args.cache_dir or os.environ.get("ARITHDYN_CACHE_DIR")


def _file_digest(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise ContractViolation(f"cannot read {path}: {exc}")


def _cache_key(args):
    """sha256 of the subcommand, every parameter that can change the
    output, the sha256 of each input file's raw bytes and the toolkit
    version.  Nothing is parsed, so an edited input is a new key."""
    # the other arguments name where input and output live, not what
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "cache_dir", "out_file", "map", "corpus")}
    inputs = {}
    if getattr(args, "map", None):
        inputs["map"] = _file_digest(args.map)
    if getattr(args, "corpus", None):
        inputs["corpus"] = {os.path.basename(path): _file_digest(path)
                            for path in corpus_paths(args.corpus)}
    blob = json.dumps({"params": params, "inputs": inputs,
                       "version": __version__},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_get(cache_dir, key):
    """The (output, exit code) stored under key, or None on a miss."""
    if not cache_dir:
        return None
    path = os.path.join(cache_dir, key + ".json")
    try:
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        return entry["output"], entry["exit"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError):
        return None


def _cache_put(cache_dir, key, output, code):
    """Store (output, exit code) under key; a cache that cannot be
    written is skipped."""
    if not cache_dir:
        return
    entry = {"exit": code, "output": output}
    tmp = None
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, sort_keys=True)
        os.replace(tmp, os.path.join(cache_dir, key + ".json"))
    except OSError:
        if tmp:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _emit(text, out_path=None):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ContractViolation(
            f"cannot write {out_path}: {exc.strerror or exc}") from None


def _rows_text(header, rows, fmt, notes=()):
    if fmt == "json":
        doc = {"columns": list(header),
               "rows": [list(r) for r in rows],
               "notes": list(notes)}
        return json.dumps(doc, sort_keys=True, indent=1,
                          separators=(",", ": ")) + "\n"
    lines = [",".join(header)]
    lines.extend(",".join(str(x) for x in row) for row in rows)
    lines.extend(f"# {note}" for note in notes)
    return "\n".join(lines) + "\n"


def cmd_orbit(args):
    mapping = load_map(args.map)
    if isinstance(mapping, MonomialMap):
        mapping = monomial_to_projective(mapping)
    point = normalize(parse_point(args.point))
    rec = orbit(mapping, point, args.n)
    rows = []
    for n, (pt, h) in enumerate(zip(rec.points, rec.heights)):
        rows.append((n, format_point(pt), h.exact_arg,
                     format_float(h.value)))
    notes = []
    term = rec.terminated_by
    if term.kind == "hit_indeterminacy":
        notes.append(f"terminated: hit_indeterminacy at step {term.step}")
    elif term.kind == "cycle_detected":
        notes.append(f"terminated: cycle_detected period={term.period}"
                     f" preperiod={term.preperiod}")
    return _rows_text(("n", "point", "height_exact_arg", "height"),
                      rows, args.out, notes), EXIT_OK


def cmd_dyndeg(args):
    mapping = load_map(args.map)
    code = EXIT_OK
    if isinstance(mapping, MonomialMap):
        est = mon_dyndeg(mapping)
        rows = [(1, "", format_float(est.value), "certified")]
        notes = [f"delta_upper_cert = {format_float(est.bracket[1])}"
                 f" (spectral bracket width {est.width:.3g})"]
    else:
        seq = degree_sequence(mapping, args.n)
        est = dyndeg_estimate(seq)
        tag = "certified" if est.certified else "uncertified"
        rows = [(n, seq.degs[n - 1], format_float(b), tag)
                for n, b in enumerate(est.upper_bounds, start=1)]
        notes = [f"delta_upper_cert = {format_float(est.certified_upper)}"
                 f" ({tag})"]
        if est.ratio_estimate is not None:
            notes.append(
                f"ratio_heuristic = {format_float(est.ratio_estimate)}"
                " (heuristic, not a bound)")
        if seq.truncated:
            notes.append("sequence truncated by resource caps")
            code = EXIT_RESOURCE
    return _rows_text(("n", "deg", "upper_bound", "certification"),
                      rows, args.out, notes), code


def cmd_arithdeg(args):
    mapping = load_map(args.map)
    hs = height_sequence(mapping, parse_point(args.point), args.n)
    est = arithdeg_estimate(hs, tail_fraction=args.tail_fraction)
    rows = [(format_float(est.lower_est), format_float(est.upper_est),
             est.tail_start, "yes" if est.converged else "no",
             "exact" if est.exact else "estimate")]
    return _rows_text(("alpha_lower", "alpha_upper", "tail_start",
                       "converged", "certification"), rows,
                      args.out), EXIT_OK


def cmd_canht(args):
    mapping = load_map(args.map)
    if isinstance(mapping, MonomialMap):
        raise ContractViolation(
            "canonical heights act on projective map specs")
    from fractions import Fraction

    try:
        beta = Fraction(args.beta.replace("−", "-"))
    except (ValueError, ZeroDivisionError) as exc:
        raise ContractViolation(f"bad beta {args.beta!r}: {exc}")
    mode = "certified" if args.certified else "heuristic"
    res = canonical_height(mapping, normalize(parse_point(args.point)),
                           beta, nmax=args.n, mode=mode)
    rows = [(format_float(res.value), format_float(res.error_radius),
             format_float(res.beta), res.n_used, res.mode)]
    return _rows_text(("value", "error_radius", "beta", "n_used",
                       "certification"), rows, args.out), EXIT_OK


def cmd_count(args):
    mapping = load_map(args.map)
    hs = height_sequence(mapping, parse_point(args.point), args.n)
    try:
        b_values = [float(b) for b in args.B.split(",")]
    except ValueError as exc:
        raise ContractViolation(f"bad height bound list {args.B!r}: {exc}")
    report = counting_function(hs, b_values)
    rows = [(format_float(r.B), r.count, format_float(r.ratio))
            for r in report.rows]
    notes = ["B is compared against log-scale heights h(Q) <= B"]
    if report.warning:
        notes.append(f"warning: {report.warning}")
    return _rows_text(("B", "count", "count_per_logB"), rows, args.out,
                      notes), EXIT_OK


def cmd_spectral(args):
    mat = parse_matrix(args.matrix)
    est = spectral_radius(mat, tol=args.tol)
    rows = [(format_float(est.value), format_float(est.bracket[0]),
             format_float(est.bracket[1]), f"{est.width:.3g}", est.method,
             "certified")]
    return _rows_text(("rho", "bracket_lo", "bracket_hi", "width", "method",
                       "certification"), rows, args.out), EXIT_OK


def cmd_campaign(args):
    entries = load_corpus(args.corpus) if args.corpus else build_corpus()
    if not entries:
        sys.stderr.write("warning: empty corpus, empty report\n")
    rows = run_campaign(entries)
    text = rows_to_json(rows) if args.out == "json" else rows_to_csv(rows)
    violation = any(not r.consistent for r in rows)
    return text, EXIT_VIOLATION if violation else EXIT_OK


def build_parser():
    top = argparse.ArgumentParser(
        prog="arithdyn",
        description="exact orbits, heights, and certified degree estimates"
                    " (a leading '--config FILE' loads flag defaults from"
                    " a JSON object)")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p, with_map=True, with_point=False, with_n=True):
        if with_map:
            p.add_argument("--map", required=True,
                           help="map-spec JSON file")
        if with_point:
            p.add_argument("--point", required=True,
                           help="comma-separated rational coordinates")
        if with_n:
            p.add_argument("--n", type=int, default=10,
                           help="iteration budget")
        p.add_argument("--out", choices=("csv", "json"), default="csv",
                       help="output format")
        p.add_argument("--out-file", default=None,
                       help="write output here instead of stdout")
        p.add_argument("--cache-dir", default=None,
                       help="cache directory (or ARITHDYN_CACHE_DIR)")

    p = sub.add_parser("orbit", help="exact orbit points and heights")
    add_common(p, with_point=True)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("dyndeg", help="degree sequence and certified bounds")
    add_common(p)
    p.set_defaults(func=cmd_dyndeg)

    p = sub.add_parser("arithdeg", help="arithmetic degree estimate")
    add_common(p, with_point=True)
    p.add_argument("--tail-fraction", type=float, default=0.5)
    p.set_defaults(func=cmd_arithdeg)

    p = sub.add_parser("canht", help="canonical height with error radius")
    add_common(p, with_point=True)
    p.add_argument("--beta", required=True,
                   help="eigenvalue beta (rational, must exceed 1)")
    p.add_argument("--certified", action="store_true",
                   help="require a certificate (else heuristic mode)")
    p.set_defaults(func=cmd_canht)

    p = sub.add_parser("count", help="orbit height counting function")
    add_common(p, with_point=True)
    p.add_argument("--B", required=True,
                   help="comma-separated height bounds (log scale)")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("spectral", help="certified spectral radius")
    add_common(p, with_map=False, with_n=False)
    p.add_argument("--matrix", required=True,
                   help="rows split by ';', entries by ','")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("campaign", help="run the verification corpus")
    p.add_argument("--corpus", default=None,
                   help="directory of map specs (default: bundled corpus)")
    p.add_argument("--out", dest="out_file", default=None,
                   help="report path (.csv or .json); stdout if omitted")
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=cmd_campaign)

    return top


def _apply_config_file(argv):
    """Expand ``--config FILE`` into leading defaults.

    The file is a flat JSON object of long option names to values, e.g.
    {"cache-dir": "/tmp/cache"}.  Explicit flags still win because they
    appear later on the command line.
    """
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    try:
        path = argv[i + 1]
    except IndexError:
        raise ContractViolation("--config needs a file argument")
    del argv[i:i + 2]
    try:
        with open(path, encoding="utf-8") as fh:
            conf = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ContractViolation(f"bad config file {path}: {exc}")
    if not isinstance(conf, dict):
        raise ContractViolation(
            f"bad config file {path}: expected a JSON object")
    extra = []
    for key, value in sorted(conf.items()):
        extra.extend([f"--{key}", str(value)])
    # insert after the subcommand name so argparse scopes them correctly
    if argv:
        return argv[:1] + extra + argv[1:]
    return argv


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config_file(argv))
    except SystemExit as exc:
        # argparse uses 2 for usage errors already; normalize --version/help
        return int(exc.code or 0)
    except ContractViolation as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    if args.command == "campaign":
        # the report format follows the extension of the --out path
        args.out = "json" if (args.out_file or "").endswith(".json") \
            else "csv"
    try:
        cache = _cache_dir(args)
        key = _cache_key(args) if cache else None
        hit = _cache_get(cache, key)
        if hit is None:
            text, code = args.func(args)
            _cache_put(cache, key, text, code)
        else:
            text, code = hit
        _emit(text, args.out_file)
    except ContractViolation as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except ResourceCapExceeded as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return EXIT_RESOURCE
    except ArithDynError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VIOLATION
    return code


if __name__ == "__main__":
    sys.exit(main())
