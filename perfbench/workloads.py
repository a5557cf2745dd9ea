"""The four benchmark workloads: seeded inputs, tasks and their checks.

``build(name, seed, smoke, workdir)`` returns a Workload.  Building it is
the set-up the benchmark times as ``setup_s``: importing arithdyn, forcing
its lazy sympy import, and making the inputs and the reference values the
checks compare against.  Each task calls into arithdyn through module
attributes looked up at call time, so the tracer's rebinding reaches it.

A task's check returns the names of the checks that failed.  A failed
check on a task that KNOWN_DEFECTS pairs it with is a defect ROADMAP.md
records at the commit that added this benchmark; it counts as a failed
task like any other, but does not make the run incorrect.  The same check
failing on any other task does.
"""

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent

# check name: (ROADMAP defect, whether a task is one it fails on today)
KNOWN_DEFECTS = {
    # dyndeg_estimate rounds min(d_n ** (1/n)) to nearest, not outward;
    # the power maps of degree 2 and 3 and all P^2 maps pass
    "degseq.certified_upper_below_degree": (
        "ROADMAP: false certificate in dyndeg_estimate",
        lambda task: task in {f"power-{d}" for d in range(4, 10)}),
    # the n-th-root estimate of a seeded start point lies above the
    # certified dynamical-degree bound (see _row_failures)
    "campaign.nth_root_above_bound": (
        "ROADMAP direction 4: the verdict breaks for other start points",
        lambda task: task.endswith("~random")
        or task.startswith("entry:mono-random-")),
    # the campaign cache key ignores the output format
    "cli.campaign_json_cached_bytes": (
        "ROADMAP: the campaign cache serves CSV for --out r.json",
        lambda task: task.startswith("campaign --out report.json [cache")),
}


def known_defect(check, task):
    """The ROADMAP defect behind a failed check on a task, or None."""
    reason, fails_on = KNOWN_DEFECTS.get(check, (None, None))
    return reason if reason is not None and fails_on(task) else None


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Workload:
    name: str
    tasks: list
    begin_pass: Callable[[], None] = lambda: None
    runner: object = None    # the CliRunner of a workload run in children
    scaled: bool = True      # task times scaled by reference.py's kernel


def import_program():
    """Import every arithdyn module and force the lazy sympy import."""
    import arithdyn.campaign  # noqa: F401
    import arithdyn.cli  # noqa: F401
    import sympy  # noqa: F401


def build(name, seed, smoke, workdir):
    import_program()
    return BUILDERS[name](random.Random(seed), smoke, workdir)


# ---------------------------------------------------------------------------
# degseq: exact composition of iterates


def acceptance_quadratic_maps(count):
    """The acceptance test's random quadratic maps of P^2, Random(2024)."""
    from arithdyn.polynomials import MultiPoly
    from arithdyn.projmaps import RationalMapPN

    rng = random.Random(2024)
    quad_monos = [(2, 0, 0), (0, 2, 0), (0, 0, 2),
                  (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    maps = []
    while len(maps) < count:
        polys = []
        for _ in range(3):
            monos = rng.sample(quad_monos, rng.randint(2, 4))
            terms = [(rng.choice([-3, -2, -1, 1, 2, 3]), mset)
                     for mset in monos]
            polys.append(MultiPoly.from_terms(3, terms))
        try:
            f = RationalMapPN(polys)
        except Exception:
            continue
        if f.degree == 2:
            maps.append(f)
    return maps


def conjugate(f, rng):
    """D o f o D^-1 for a random diagonal sign matrix D.

    Conjugation keeps the degree and the term count of every iterate, so
    each seed gets different polynomials for the same work.  Fresh random
    maps would not: about one in ten sends poly_gcd to sympy at 10 to 50
    times the cost of a generic map, so the cost of 20 fresh maps varies
    3-fold with the seed.  Permuting the coordinates would not either: the
    coprime certificate depends on the variable order.
    """
    from arithdyn.polynomials import MultiPoly
    from arithdyn.projmaps import RationalMapPN

    nv = f.dim + 1
    signs = [rng.choice((1, -1)) for _ in range(nv)]
    polys = []
    for s_i, p in zip(signs, f.polys):
        terms = []
        for exps, c in p.items():
            sign = s_i
            for s_m, e in zip(signs, exps):
                if s_m < 0 and e % 2:
                    sign = -sign
            terms.append((sign * c, exps))
        polys.append(MultiPoly.from_terms(nv, terms))
    return RationalMapPN(polys, name=f.name)


FIXED_P2 = {
    "cremona": ["y*z", "x*z", "x*y"],
    "henon-a1-c1": ["y*z", "y^2+z^2-x*z", "z^2"],
    "henon-a2-cm1": ["y*z", "y^2-z^2-2*x*z", "z^2"],
}


def _degseq_check(expected):
    """Check a (DegreeSequence, DynDegEstimate) pair against the
    checked-in degree list."""
    def check(result):
        seq, est = result
        degs = list(seq.degs)
        failed = []
        if seq.truncated:
            failed.append("degseq.truncated")
        if degs != expected[:len(degs)]:
            failed.append("degseq.expected_degrees")
        if not est.certified:
            failed.append("degseq.not_certified")
        n = min(range(len(degs)), key=lambda i: est.upper_bounds[i]) + 1
        if Fraction(est.certified_upper) ** n < degs[n - 1]:
            failed.append("degseq.certified_upper_below_degree")
        return failed
    return check


def build_degseq(rng, smoke, workdir):
    from arithdyn import projmaps

    with open(HERE / "expected_degseq.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    # (maps, depth) of the random maps, depth of the fixed P^2 maps and of
    # the power maps
    (n_random, d_random), d_fixed, d_power = \
        ((2, 3), 3, 3) if smoke else ((20, 5), 6, 6)
    maps = []
    for i, f in enumerate(acceptance_quadratic_maps(n_random)):
        name = f"random-quadratic-{i}"
        maps.append((name, conjugate(f, rng), d_random, expected[name]))
    for name, polys in FIXED_P2.items():
        f = projmaps.RationalMapPN.from_strings(polys, ["x", "y", "z"],
                                                name=name)
        maps.append((name, f, d_fixed, expected[name]))
    for d in range(2, 10):
        name = f"power-{d}"
        f = projmaps.RationalMapPN.from_strings([f"x^{d}", f"y^{d}"],
                                                ["x", "y"], name=name)
        maps.append((name, f, d_power, expected[name]))

    def task(f, n):
        def run():
            seq = projmaps.degree_sequence(f, n)
            return seq, projmaps.dyndeg_estimate(seq)
        return run

    return Workload("degseq", [Task(name, task(f, n), _degseq_check(exp))
                               for name, f, n, exp in maps])


# ---------------------------------------------------------------------------
# orbit: exact orbits with big-integer normalization


def _digest(coords):
    return hashlib.sha256(",".join(format(c, "x") for c in coords)
                          .encode()).hexdigest()


def _sumsq_step(p):
    # gcd(a^2 + b^2, ab) = 1 whenever gcd(a, b) = 1: no normalization
    a, b = p
    return (a * a + b * b, a * b)


def _henon_step(a, c):
    # [yz : y^2 + c z^2 - a x z : z^2] on the affine chart z = 1
    def step(p):
        x, y = p
        return (y, y * y + c - a * x)
    return step


def _signed(coords):
    """Projective sign normalization: the first nonzero entry is positive."""
    for v in coords:
        if v:
            return coords if v > 0 else tuple(-w for w in coords)
    return coords


ORBIT_MAPS = {
    # name: (coordinate polynomials, variables, reference step on integer
    #        start points, candidate start points, map from a reference
    #        point to the normalized projective point)
    "sum-squares-over-product": (
        ["x^2+y^2", "x*y"], ["x", "y"], _sumsq_step,
        [(a, b) for a in range(1, 7) for b in range(1, 7)
         if math.gcd(a, b) == 1],
        lambda p: p),
    "henon-a1-c1": (
        FIXED_P2["henon-a1-c1"], ["x", "y", "z"], _henon_step(1, 1),
        [(x, y) for x in range(-8, 9) for y in range(-8, 9)],
        lambda p: _signed(p + (1,))),
    "henon-a2-cm1": (
        FIXED_P2["henon-a2-cm1"], ["x", "y", "z"], _henon_step(2, -1),
        [(x, y) for x in range(-8, 9) for y in range(-8, 9)],
        lambda p: _signed(p + (1,))),
}

# map name: (depth, one bit-size band per start point).  A start point is
# drawn (seeded) from the candidates whose coordinates have a bit size in
# its band at step 12.  Bit sizes double with each step and gcd cost grows
# with their square, so narrow bands give every seed the same work.  The
# three P^1 bands hold the points of height log 2, log 3 (twice).
ORBIT_PLAN = {
    "sum-squares-over-product": (17, [(5000, 5200), (7000, 7100),
                                      (8000, 8100)]),
    "henon-a1-c1": (18, [(6700, 7100)] * 3),
    "henon-a2-cm1": (18, [(6700, 7100)] * 3),
}
ORBIT_PROBE_DEPTH = 12


def _reference(step, start, depth):
    p = start
    for _ in range(depth):
        p = step(p)
    return p


def build_orbit(rng, smoke, workdir):
    from arithdyn import degrees, heights, projmaps

    tasks = []
    for name, (polys, names, step, cands, proj) in ORBIT_MAPS.items():
        depth, bands = ORBIT_PLAN[name]
        if smoke:
            depth, bands = 8, bands[:1]
        f = projmaps.RationalMapPN.from_strings(polys, names, name=name)
        cands = list(cands)
        rng.shuffle(cands)
        bits = {c: max(abs(v).bit_length()
                       for v in _reference(step, c, ORBIT_PROBE_DEPTH))
                for c in cands}
        starts = []
        for lo, hi in bands:
            starts.append(next(c for c in cands if c not in starts
                               and lo <= bits[c] <= hi))
        for c in starts:
            start = heights.normalize(proj(c))
            want = _digest(proj(_reference(step, c, depth)))
            tasks.append(Task(f"orbit:{name}:{c}",
                              _orbit_task(projmaps, f, start, depth),
                              _orbit_check(want, depth)))
            if len(names) == 2:
                deep = degrees.canonical_height(f, start, 2, nmax=48).value
                tasks.append(Task(f"canht:{name}:{c}",
                                  _canht_task(degrees, f, start),
                                  _canht_check(deep)))
    return Workload("orbit", tasks, scaled=False)


def _orbit_task(projmaps, f, start, depth):
    return lambda: projmaps.orbit(f, start, depth)


def _orbit_check(want, depth):
    def check(rec):
        if len(rec.points) != depth + 1 or \
                _digest(rec.points[-1].coords) != want:
            return ["orbit.final_point_digest"]
        return []
    return check


def _canht_task(degrees, f, start):
    return lambda: degrees.canonical_height(f, start, 2, nmax=32)


def _canht_check(deep):
    def check(res):
        if not abs(res.value - deep) <= res.error_radius:
            return ["orbit.canht_within_radius"]
        return []
    return check


# ---------------------------------------------------------------------------
# campaign: the verification battery over bundled and seeded entries


def _random_small(rng):
    """A nonzero rational of small height."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                    rng.choice((1, 1, 2, 3)))


def _signed_permutations(values):
    """Every point with the values as coordinates in any order and with
    any signs, up to the projective sign.  Orbit cost depends on the sizes
    of the start coordinates, so those are fixed."""
    out = set()
    for perm in itertools.permutations(values):
        for signs in itertools.product((1, -1), repeat=len(values) - 1):
            out.add(perm[:1] + tuple(s * v for s, v in zip(signs, perm[1:])))
    return sorted(out)


EXTRA_POINTS = 4


def _extra_entries(rng, smoke):
    """Each bundled map with EXTRA_POINTS seeded start points, and random
    invertible monomial maps of dimension 3 to 6 (two points each) at
    orbit_nmax=60."""
    from arithdyn import corpus, spectral
    from arithdyn.monomial import MonomialMap

    extras = []
    for e in corpus.build_corpus()[:2] if smoke else corpus.build_corpus():
        dim = (e.mapping.A.r if e.kind == "monomial"
               else e.mapping.dim + 1)
        if e.kind == "monomial":
            points = [tuple(_random_small(rng) for _ in range(dim))
                      for _ in range(EXTRA_POINTS)]
        else:
            # on P^1 these are all four points; on P^2, 4 of 24
            points = rng.sample(_signed_permutations((5, 3, 2)[:dim]),
                                EXTRA_POINTS)
        extras.append(corpus.CorpusEntry(
            name=e.name + "~random", kind=e.kind, mapping=e.mapping,
            points=tuple(points), orbit_nmax=e.orbit_nmax,
            degseq_nmax=e.degseq_nmax, canht=e.canht))
    for r in ((3,) if smoke else (3, 4, 5, 6)):
        while True:
            rows = [[rng.choice((-1, 0, 0, 1, 1, 2)) for _ in range(r)]
                    for _ in range(r)]
            if spectral.determinant(rows) != 0:
                break
        points = tuple(tuple(_random_small(rng) for _ in range(r))
                       for _ in range(2))
        extras.append(corpus.CorpusEntry(
            name=f"mono-random-{r}x{r}", kind="monomial",
            mapping=MonomialMap(spectral.as_matrix(rows)), points=points,
            orbit_nmax=60))
    return extras


# run_entry calls per task, so that each task takes 10-40 ms on a 2-vCPU
# VM at the commit that added this benchmark (one call takes 1 to 250 ms).
# The bundled cubic-mixed (about 40 ms) runs twice, so that the three
# slowest tasks stand apart from a cluster of 30-60 ms tasks: task_tail_s
# has 1.7 tasks per pass beyond it, so it falls on the second slowest
# (cube-powers~random) and not on whichever of that cluster ran slowest
# in a pass.  The counts are fixed, not calibrated, so a faster run_entry
# shows.
CAMPAIGN_REPEATS = {
    16: ("square-powers", "cube-powers", "coordinate-reciprocal",
         "square-powers-p2", "mono-swap", "coordinate-reciprocal~random",
         "square-powers-p2~random", "mono-swap~random"),
    4: ("mono-fib-squared", "mono-fib-automorphism",
        "mono-inverse-automorphism", "mono-diagonal-2-3",
        "mono-fib-squared~random", "mono-fib-automorphism~random",
        "mono-inverse-automorphism~random", "mono-diagonal-2-3~random",
        "mono-random-3x3", "mono-random-4x4"),
    2: ("cubic-mixed", "sum-squares-over-product", "angle-doubling",
        "sum-diff-squares", "henon-a1-c1", "henon-a2-cm1",
        "henon-a1-c1~random", "henon-a2-cm1~random", "square-powers~random"),
}
REPEATS = {name: n for n, names in CAMPAIGN_REPEATS.items() for name in names}


def _row_failures(rows):
    """campaign.nth_root_above_bound for a VIOLATION row that has the
    signature ROADMAP direction 4 records (growth_ok, and the lower
    n-th-root estimate above the certified bound);
    campaign.row_consistent for any other VIOLATION row."""
    failed = set()
    for r in rows:
        if r.consistent:
            continue
        if r.growth_ok and r.alpha_lower > r.delta_upper_cert + 1e-6:
            failed.add("campaign.nth_root_above_bound")
        else:
            failed.add("campaign.row_consistent")
    return sorted(failed)


def build_campaign(rng, smoke, workdir):
    from arithdyn import campaign, corpus

    bundled = corpus.build_corpus()
    if smoke:
        bundled = bundled[:3]
    extras = _extra_entries(rng, smoke)
    rows = []
    first_report = []

    def entry_task(entry):
        repeats = 1 if smoke else REPEATS.get(entry.name, 1)

        def run():
            for _ in range(repeats):
                out = campaign.run_entry(entry)
            rows.extend(out)
            return out
        return run

    def report_check(text):
        if not first_report:
            first_report.append(text)
        return [] if text == first_report[0] else \
            ["campaign.report_bytes_repeat"]

    tasks = [Task(f"entry:{e.name}", entry_task(e), _row_failures)
             for e in bundled + extras]
    tasks.append(Task("report", lambda: campaign.rows_to_csv(rows),
                      report_check))
    return Workload("campaign", tasks, begin_pass=rows.clear)


# ---------------------------------------------------------------------------
# cli: the README's commands, each as its own interpreter


CLI_COMMANDS = [
    ["orbit", "--map", "square.json", "--point", "2,1", "--n", "4"],
    ["dyndeg", "--map", "cremona.json", "--n", "6"],
    ["arithdeg", "--map", "mono.json", "--point", "2,3", "--n", "40"],
    ["canht", "--map", "square.json", "--point", "2,1", "--beta", "2",
     "--certified"],
    ["count", "--map", "square.json", "--point", "2,1", "--n", "20",
     "--B", "5,50,500"],
    ["spectral", "--matrix", "2,1;1,1"],
    ["campaign", "--out", "report.csv"],
    ["campaign", "--out", "report.json"],
]
CLI_SMOKE = (0, 5, 7)


@dataclass
class CliResult:
    code: int
    output: bytes       # stdout, or the --out file when there is one
    maxrss_kb: int
    trace: dict         # the child's per-layer values when traced


class CliRunner:
    """Runs one arithdyn command line in a child interpreter.

    Untraced children run ``python -m arithdyn``; traced ones run the
    benchmark's shim, which installs the tracer and then calls
    ``arithdyn.cli.main``.  Resource usage is taken per child from wait4.
    """

    def __init__(self, workdir):
        self.workdir = Path(workdir)
        self.traced = False
        self.results = []   # CliResult of every child, in order
        env = dict(os.environ)
        env.pop("ARITHDYN_CACHE_DIR", None)
        src = str(HERE.parent / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.env = env
        # The children share one CPU with the parent, where the reference
        # kernel that scales their times runs.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def run(self, argv, cache_dir):
        env = dict(self.env)
        if cache_dir is not None:
            env["ARITHDYN_CACHE_DIR"] = str(cache_dir)
        out_name = argv[argv.index("--out") + 1] \
            if argv[0] == "campaign" else None
        out_path = self.workdir / out_name if out_name else None
        if out_path is not None and out_path.exists():
            out_path.unlink()
        trace_path = self.workdir / "child-trace.json"
        if self.traced:
            cmd = [sys.executable, str(HERE / "cli_shim.py")] + argv
            env["PERFBENCH_TRACE_FILE"] = str(trace_path)
        else:
            cmd = [sys.executable, "-m", "arithdyn"] + argv
        env["PERFBENCH_SPAWN_T"] = repr(time.monotonic())
        proc = subprocess.Popen(cmd, cwd=self.workdir, env=env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        try:
            stdout = proc.stdout.read()
        finally:
            proc.stdout.close()
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        output = stdout
        if out_path is not None:
            output = out_path.read_bytes() if out_path.exists() else b""
        trace = {}
        if self.traced:
            with open(trace_path, encoding="utf-8") as fh:
                trace = json.load(fh)
            trace_path.unlink()
        res = CliResult(proc.returncode, output, usage.ru_maxrss, trace)
        self.results.append(res)
        return res


def build_cli(rng, smoke, workdir):
    from arithdyn import projmaps

    workdir = Path(workdir)
    square = projmaps.RationalMapPN.from_strings(["x^2", "y^2"], ["x", "y"],
                                                 name="square")
    projmaps.write_map_spec(square, workdir / "square.json")
    cremona = projmaps.RationalMapPN.from_strings(FIXED_P2["cremona"],
                                                  ["x", "y", "z"],
                                                  name="cremona")
    projmaps.write_map_spec(cremona, workdir / "cremona.json")
    with open(workdir / "mono.json", "w", encoding="utf-8") as fh:
        json.dump({"kind": "monomial", "matrix": [[2, 1], [1, 1]]}, fh)

    runner = CliRunner(workdir)
    state = {"pass": 0}
    uncached = {}

    def begin_pass():
        state["pass"] += 1
        uncached.clear()

    def cache_dir():
        return workdir / f"cache-{state['pass']}"

    commands = [CLI_COMMANDS[i] for i in CLI_SMOKE] if smoke \
        else CLI_COMMANDS
    tasks = []
    for argv in commands:
        label = " ".join(argv)
        bytes_check = ("cli.campaign_json_cached_bytes"
                       if argv[-1] == "report.json" else "cli.cached_bytes")

        def run_plain(argv=argv, label=label):
            res = runner.run(argv, None)
            uncached[label] = res.output
            return res

        def run_cached(argv=argv):
            return runner.run(argv, cache_dir())

        def check_plain(res):
            return [] if res.code == 0 else ["cli.exit_code"]

        def check_cached(res, label=label, bytes_check=bytes_check):
            failed = [] if res.code == 0 else ["cli.exit_code"]
            if res.output != uncached.get(label):
                failed.append(bytes_check)
            return failed

        tasks.append(Task(f"{label} [uncached]", run_plain, check_plain))
        tasks.append(Task(f"{label} [cache 1]", run_cached, check_cached))
        tasks.append(Task(f"{label} [cache 2]", run_cached, check_cached))
    return Workload("cli", tasks, begin_pass=begin_pass, runner=runner)


BUILDERS = {
    "degseq": build_degseq,
    "orbit": build_orbit,
    "campaign": build_campaign,
    "cli": build_cli,
}
