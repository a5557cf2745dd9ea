"""arithdyn benchmark: seeded workloads, end-to-end timings, layer traces.

    python3 perfbench/run.py --workload degseq --seed 1 --seconds 15 --trace 0

Run from the root of a source tree; arithdyn is imported from ./src.  The
loop is closed: one task at a time, each started when the previous one
has returned and been checked.  Each run sets the workload up, runs one
unmeasured warm-up pass, then measures whole passes over the fixed task
list until --seconds have passed.

With --trace 0 the last line reports the end-to-end metrics named in
BENCHMARK.json.  With --trace 1 the run alternates untraced and traced
passes, and the last line reports the per-layer metrics of the traced
passes together with the tracing overhead (traced minus untraced
wall_s).  The line before the last is a record of the run: versions, core
count, seed, sample counts, the tail percentile used, the times as the
clock read them, and every failed check.

Every time reported, except the orbit workload's task times, is scaled
by the time a fixed reference kernel took right before and right after
it; see reference.py.

See README.md in this directory for the workloads and the metrics.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

from reference import REF_S, reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
REF_REPEATS = 5         # kernel runs before and after a timed set-up
NPROC = len(os.sched_getaffinity(0))    # before the cli workload pins a CPU
MIN_PASSES = 6
TAIL_BEYOND = 10

# per-layer names whose tracer key differs
TRACE_KEYS = {"cli.cache.get_s": "cli.cache.get.self_s",
              "cli.cache.put_s": "cli.cache.put.self_s"}
# counters that keep a maximum instead of a sum when passes are merged
PEAKS = ("heights.normalize.max_bits", "projmaps.compose_normalized.max_terms")


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(spec, argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest inputs, one set-up sample, no warm-up")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def find_program():
    """Put ./src first on sys.path; fail unless arithdyn's source is there."""
    src = ROOT / "src"
    if not (src / "arithdyn" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no arithdyn source under {src}\n")
        sys.exit(2)
    sys.path.insert(0, str(src))


def setup(args, workdir):
    sys.path.insert(0, str(HERE))
    import workloads
    return workloads, workloads.build(args.workload, args.seed, args.smoke,
                                      workdir)


def setup_seconds(args, workroot):
    """Median set-up time over fresh interpreters, each timed inside;
    returns it with the clock's readings."""
    samples = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--workdir",
               tempfile.mkdtemp(dir=workroot)]
        if args.smoke:
            cmd.append("--smoke")
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             check=True, timeout=120).stdout
        samples.append(json.loads(out.decode().splitlines()[-1]))
    return (statistics.median(x["setup_s"] for x in samples),
            [x["raw_s"] for x in samples])


Pass = namedtuple("Pass", "wall rows layer raw_wall")


def run_pass(wl, tracer=None):
    """One pass over the task list.

    Returns a Pass: the seconds in tasks, [(task, seconds, failed checks)],
    the per-layer values of this pass, and the seconds in tasks as the
    clock read them.  A task that raises fails and the pass goes on.
    When the workload is scaled, each task time is scaled by the kernel
    runs before and after it, and per-layer times by the pass's mean scale.
    """
    wl.begin_pass()
    if tracer is not None:
        tracer.reset()
    rows = []
    raw_wall = 0.0
    ref_before = reference() if wl.scaled else None
    for task in wl.tasks:
        t0 = time.perf_counter()
        try:
            out = task.run()
            fails = None
        except Exception as exc:
            fails = [f"{wl.name}.raised.{type(exc).__name__}"]
        dt = time.perf_counter() - t0
        raw_wall += dt
        if wl.scaled:
            ref_after = reference()
            dt *= 2 * REF_S / (ref_before + ref_after)
            ref_before = ref_after
        rows.append((task.name, dt,
                     task.check(out) if fails is None else fails))
    wall = sum(r[1] for r in rows)
    layer = {}
    if tracer is not None:
        layer = dict(tracer.values)
    if wl.runner is not None:
        for res in wl.runner.results[-len(wl.tasks):]:
            merge(layer, res.trace)
    scale = wall / raw_wall
    layer = {k: v * scale if k.endswith("_s") else v
             for k, v in layer.items()}
    return Pass(wall, rows, layer, raw_wall)


def merge(into, values):
    for k, v in values.items():
        if k in PEAKS:
            into[k] = max(into.get(k, 0), v)
        else:
            into[k] = into.get(k, 0) + v


def measure(wl, seconds, min_passes, tracer=None):
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        passes.append(run_pass(wl, tracer))
    return passes


def measure_traced(wl, seconds, min_pairs):
    """Alternate untraced and traced passes, so that drift in the
    machine's speed falls on both alike; returns (untraced, traced)."""
    from tracer import Tracer
    tracer = Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < min_pairs or time.perf_counter() < deadline:
        untraced.append(run_pass(wl))
        if wl.runner is None:
            tracer.install()
        else:
            wl.runner.traced = True
        try:
            traced.append(run_pass(wl, tracer if wl.runner is None
                                   else None))
        finally:
            tracer.uninstall()
            if wl.runner is not None:
                wl.runner.traced = False
    return untraced, traced


def pass_wall(passes):
    """Median time of a whole pass (checks excluded)."""
    return statistics.median(p.wall for p in passes)


def tail_level(tasks_per_pass, min_passes):
    """The highest level with TAIL_BEYOND samples beyond it in a run of
    min_passes passes.  It is fixed per workload, so a run that fits more
    passes into its time reports the same percentile, from more samples
    and with more than TAIL_BEYOND of them beyond it."""
    n = tasks_per_pass * min_passes
    return 1.0 if n <= TAIL_BEYOND else (n - TAIL_BEYOND) / n


def tail(samples, level):
    """Nearest-rank quantile of the samples at the given level."""
    s = sorted(samples)
    return s[max(0, math.ceil(level * len(s)) - 1)]


def summarize_failures(passes, known):
    """Count the tasks run, the tasks that failed only on known defects
    and the tasks that failed otherwise; split the failed checks into the
    known defects (check: reason) and the unexpected ones ("check [task]").
    """
    attempted = failed = defective = 0
    by_check = {}
    defects = {}
    unexpected = set()
    for p in passes:
        for name, _dt, fails in p.rows:
            attempted += 1
            surprise = False
            for f in fails:
                by_check[f] = by_check.get(f, 0) + 1
                reason = known(f, name)
                if reason is None:
                    unexpected.add(f"{f} [{name}]")
                    surprise = True
                else:
                    defects[f] = reason
            if surprise:
                failed += 1
            elif fails:
                defective += 1
    return (attempted, failed, defective, by_check, defects,
            sorted(unexpected))


def versions():
    import arithdyn
    import sympy
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"python": platform.python_version(),
            "sympy": sympy.__version__,
            "arithdyn": arithdyn.__version__,
            "git_commit": commit,
            "nproc": NPROC,
            "cpu_count": os.cpu_count()}


def main(argv=None):
    find_program()
    spec = load_spec()
    args = parse_args(spec, argv)
    if args.setup_only:
        # the first runs of the kernel in a fresh interpreter are slower
        refs = [reference() for _ in range(2 + REF_REPEATS)][2:]
        t0 = time.perf_counter()
        setup(args, args.workdir)
        raw_s = time.perf_counter() - t0
        refs += [reference() for _ in range(REF_REPEATS)]
        print(json.dumps({"setup_s": raw_s * REF_S / statistics.median(refs),
                          "raw_s": raw_s}))
        return 0

    parent = ROOT / ".perfbench_work"
    parent.mkdir(exist_ok=True)
    workroot = Path(tempfile.mkdtemp(dir=parent))
    try:
        return run(args, spec, workroot)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:     # another run still uses it
            pass


def run(args, spec, workroot):
    setup_s, setup_raw = setup_seconds(args, workroot)
    workloads, wl = setup(args, tempfile.mkdtemp(dir=workroot))
    min_passes = 1 if args.smoke else MIN_PASSES
    if not args.smoke and wl.runner is None:
        run_pass(wl)                       # warm-up, not measured

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "tasks_per_pass": len(wl.tasks),
              "setup_raw_s": setup_raw, "scaled": wl.scaled,
              "ref_s": REF_S, **versions()}
    if args.trace:
        untraced, traced = measure_traced(wl, args.seconds,
                                          (min_passes + 1) // 2)
        passes = untraced + traced
        metrics = layer_metrics(spec, traced)
        walls = [pass_wall(untraced), pass_wall(traced)]
        metrics["trace.overhead_s"] = {"value": walls[1] - walls[0],
                                       "unit": "s"}
        record.update(untraced_passes=len(untraced),
                      traced_passes=len(traced),
                      untraced_wall_s=walls[0], traced_wall_s=walls[1],
                      raw_untraced_wall_s=statistics.median(
                          p.raw_wall for p in untraced))
    else:
        passes = measure(wl, args.seconds, min_passes)
        samples = [dt for p in passes for _n, dt, _f in p.rows]
        level = tail_level(len(wl.tasks), min_passes)
        if wl.runner is None:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            rss_kb = max(r.maxrss_kb for r in wl.runner.results)
        values = {"wall_s": pass_wall(passes),
                  "task_p50_s": statistics.median(samples),
                  "task_tail_s": tail(samples, level), "setup_s": setup_s,
                  "peak_rss_mb": rss_kb / 1024.0}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        raw = [p.raw_wall for p in passes]
        record.update(passes=len(passes), samples=len(samples),
                      tail_percentile=round(100.0 * level, 3),
                      samples_beyond_tail=sum(
                          1 for s in samples if s > values["task_tail_s"]),
                      raw_wall_s=statistics.median(raw),
                      raw_pass_min_s=min(raw), raw_pass_max_s=max(raw))

    attempted, failed, defective, by_check, defects, unexpected = \
        summarize_failures(passes, workloads.known_defect)
    record.update(attempted=attempted, failed=failed,
                  known_defect_tasks=defective,
                  fail_frac=(failed + defective) / attempted,
                  failed_checks=by_check, known_defects=defects,
                  unexpected_failures=unexpected)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(spec, passes):
    """Each per-layer value as its median per-pass total over the traced
    passes; 0 if the workload never reaches the layer.  Counts are the
    same in every pass."""
    out = {}
    for m in spec["per_layer"]:
        if m["name"] == "trace.overhead_s":
            continue
        key = TRACE_KEYS.get(m["name"], m["name"])
        vals = [p.layer.get(key, 0) for p in passes]
        out[m["name"]] = {"value": statistics.median(vals), "unit": m["unit"]}
    return out


if __name__ == "__main__":
    sys.exit(main())
