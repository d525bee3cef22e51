"""plstrat benchmark: one workload per process, one thread, CLI calls made
in-process through `plstrat.cli.main` on inputs read from disk.

    python3 perfbench/run.py --workload torus_k1 --seed 1 --seconds 36 --trace 0

Workloads (see BENCHMARK.json and perfbench/metric_map.json):
  torus_k1  `plstrat pipeline` on seeded jitters of a 10x10 torus height map
  torus_k2  validate, jacobi, stratify-domain, stratify-codomain --svg on
            seeded jitters of a planar map of a 6x6 torus
  examples  `plstrat pipeline --example NAME --notion N`, 7 inputs x H/D/L

A run sets up at least SETUPS times and for at least SETUP_SECONDS, each
time from a fresh import, and then runs rounds until its time is up.  A
round is one fresh import, a cold op and warm ops, each op on the input
after the one before, so no input is run twice within one import.
`--trace 0` reports the end-to-end metrics, with every time scaled to a
fixed machine speed (perfbench/speed.py) and the wall-time medians
beside them in the report.  `--trace 1` follows every warm op with an
op with span wrappers (perfbench/spans.py) installed, reports the
per-layer metrics, the tracing overhead among them, and writes every span
to .bench_work/trace-<workload>.tsv.  The last line of standard output is
the JSON result; the lines before it are the human-readable report.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, HERE)

import gen      # noqa: E402
import oracle   # noqa: E402
import spans    # noqa: E402
import speed    # noqa: E402

# set-up and the cold op are repeated and their medians reported, so one
# slow import does not decide the figure; a set-up of a few tens of ms
# holds only a few samples of the speed meter, so short ones run more often
SETUPS = 5
SETUP_SECONDS = 3.0
MIN_ROUNDS = 2
# op_s is a median of at least this many warm ops
MIN_WARM = 5
# ops in one round, one per input: a round never runs an input twice
OPS_PER_ROUND = gen.MAPS_PER_WORKLOAD
NOTIONS = ("H", "D", "L")


class SetupError(Exception):
    """The package cannot be loaded from this checkout."""


def fresh_import():
    """Import the package from ./src as a fresh process would, dropping any
    copy imported before, and return its modules by short name."""
    for name in [m for m in sys.modules if m == "plstrat" or m.startswith("plstrat.")]:
        del sys.modules[name]
    if not os.path.isdir(os.path.join(SRC, "plstrat")):
        raise SetupError(f"no package source under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("plstrat")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise SetupError(f"plstrat imported from {pkg.__file__}, not {SRC}")
    importlib.import_module("plstrat.cli")
    return {m: sys.modules[f"plstrat.{m}"] for m in spans.MODULES}


@dataclass
class Run:
    """One checked unit: CLI calls that share an output directory."""
    key: str                 # entry in expected.json
    argvs: list              # argument lists for plstrat.cli.main
    out: str                 # directory the calls write into
    torus: bool              # the domain is a torus (Reeb cycle rank 1)
    simplices: int           # domain simplices plus contour segments
    seeded: bool = True      # the input, so its recorded digest, depends on the seed


class TorusK1:
    name = "torus_k1"

    def setup(self, seed, mods):
        d = os.path.join(WORK, self.name)
        docs = [gen.torus_height_map(gen.TORUS_K1_SIZE, gen.map_rng(seed, self.name, i))
                for i in range(gen.MAPS_PER_WORKLOAD)]
        paths = gen.write_maps(d, "in", docs)
        size = gen.closure_size(docs[0]["facets"])
        out = os.path.join(d, "out")
        self.ops = [[Run(f"{self.name}/{i}", [["pipeline", p, "--out", out]],
                         out, True, size)] for i, p in enumerate(paths)]


class TorusK2:
    name = "torus_k2"

    def setup(self, seed, mods):
        d = os.path.join(WORK, self.name)

        def generic(doc):
            return mods["jacobi"].check_generic(mods["io"].map_from_dict(doc)).passed
        docs = gen.torus_projections(
            gen.TORUS_K2_SIZE,
            [gen.map_rng(seed, self.name, i) for i in range(gen.MAPS_PER_WORKLOAD)],
            generic)
        paths = gen.write_maps(d, "in", docs)
        size = gen.closure_size(docs[0]["facets"])
        out = os.path.join(d, "out")

        def to(name):
            return os.path.join(out, name)
        self.ops = []
        for i, p in enumerate(paths):
            # the files are named as in a pipeline bundle, so one oracle reads both
            argvs = [["validate", p, "--out", to("validate.json")],
                     ["jacobi", p, "--out", to("jacobi.json")],
                     ["stratify-domain", p, "--out", to("domain_strat.json")],
                     ["stratify-codomain", p, "--out", to("codomain_strat.json"),
                      "--svg", to("codomain_strat.svg")]]
            self.ops.append([Run(f"{self.name}/{i}", argvs, out, True, size)])


class Examples:
    name = "examples"

    def setup(self, seed, mods):
        # the bundled inputs are fixed, so the seed changes nothing here
        d = os.path.join(WORK, self.name)
        runs = []
        for ex in mods["io"].example_names():
            data = mods["io"].load_example(ex)
            if data.get("kind") == "locus":
                size = sum(len(s) - 1 for s in data["strands"])
            else:
                size = gen.closure_size(data["facets"])
            for notion in NOTIONS:
                out = os.path.join(d, f"{ex}_{notion}")
                runs.append(Run(f"{self.name}/{ex}/{notion}",
                                [["pipeline", "--example", ex, "--notion", notion,
                                  "--out", out]],
                                out, ex == "torus_grid", size, seeded=False))
        self.ops = [runs]


WORKLOADS = {w.name: w for w in (TorusK1, TorusK2, Examples)}


@dataclass
class Verdict:
    failed: bool
    unexpected: list         # failures the seed commit did not have


def check(run, codes, error, stderr, expected, use_digests) -> Verdict:
    """The per-run oracle: no exception, no exit 3, the exit codes and bundle
    digest the seed commit gave (digests only where recorded), and every
    invariant of the written files."""
    rec = expected.get(run.key) if use_digests or not run.seeded else None
    want = rec["exit"] if rec else [0] * len(run.argvs)
    known_gap = want[-1] == 3
    problems = []
    if error is not None:
        problems.append(f"raised {error}")
    elif known_gap and codes == want:
        return Verdict(True, [])
    elif known_gap and 3 not in codes:
        # the recorded defect is gone; the files must still be sound
        problems += oracle.bundle_problems(run.out, run.torus)
    else:
        if codes != want:
            problems.append(f"exit codes {codes}, expected {want}: {stderr.strip()}")
        elif rec and rec.get("digest") and rec["digest"] != oracle.digest_files(
                oracle.bundle_files(run.out)):
            problems.append("bundle digest differs from the recorded one")
        problems += oracle.bundle_problems(run.out, run.torus)
    return Verdict(bool(problems), [f"{run.key}: {p}" for p in problems])


def execute(mods, runs, tracer=None, op_id=0, meter=None):
    """Run the CLI calls of one op through the imported package `mods`;
    return its time as (wall seconds, seconds scaled by `meter`, a
    speed.SpeedMeter, or unscaled without one) and, per run, the exit
    codes, the exception (if any) and what the CLI wrote to stderr."""
    meter = meter or speed.WallClock()
    main = mods["cli"].main
    for run in runs:
        shutil.rmtree(run.out, ignore_errors=True)
        os.makedirs(run.out)
    results = []
    patches = None
    if tracer is not None:
        tracer.op_id = op_id
        patches = spans.install(tracer, mods)
        root = tracer.begin(tracer.name_id(spans.OP_SPAN))
    token = meter.begin()
    t0 = perf_counter()
    try:
        for run in runs:
            codes, error, err = [], None, io.StringIO()
            try:
                with contextlib.redirect_stderr(err):
                    for argv in run.argvs:
                        codes.append(main(argv))
                        if codes[-1] != 0:
                            break
            except Exception as exc:  # a raise is a failed run, not a crash
                error = f"{type(exc).__name__}: {exc}"
            results.append((codes, error, err.getvalue()))
    finally:
        elapsed = perf_counter() - t0
        times = meter.end(token, elapsed)
        if tracer is not None:
            tracer.finish(root)
            patches.restore()
    return times, results


def record_outputs(tracer, runs):
    """Per-op counters read from the written files."""
    for run in runs:
        files = oracle.bundle_files(run.out)
        tracer.count("io.bytes_written", sum(os.path.getsize(p) for p in files))
        for p in files:
            base = os.path.basename(p)
            if base == "codomain_strat.json":
                with open(p, encoding="utf-8") as fh:
                    tracer.count_max("geometry.max_coord_bits",
                                     oracle.max_coord_bits(json.load(fh)))
            elif base == "scaffold.json":
                with open(p, encoding="utf-8") as fh:
                    tracer.count("reeb.scaffold.covers",
                                 oracle.covering_pairs(json.load(fh)))


def percentile_line(samples) -> str:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond."""
    n = len(samples)
    best = None
    for p in (50, 90, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    if best is None:
        return f"no percentile has 10 samples beyond it (n={n})"
    q = statistics.quantiles(samples, n=1000, method="inclusive")
    return f"p{best:g} {q[int(best * 10) - 1]:.4f} s (n={n})"


class Tally:
    """The checked runs of one measurement and the failures among them."""

    def __init__(self, seed):
        self.expected = oracle.load_expected()
        self.use_digests = seed == self.expected["default_seed"]
        self.attempted = self.failed = 0
        self.unexpected: list[str] = []

    def add(self, runs, results):
        for run, (codes, error, stderr) in zip(runs, results):
            v = check(run, codes, error, stderr, self.expected, self.use_digests)
            self.attempted += 1
            self.failed += v.failed
            self.unexpected += v.unexpected


def measure(workload_name, seed, seconds, traced):
    """Set up SETUPS times or more (see SETUP_SECONDS), then run rounds
    until `seconds` have passed since the start, and at least MIN_ROUNDS
    of them.  An op is only started when the last op of its kind would
    still end in time, except for the cold ops of the first MIN_ROUNDS
    rounds and the first MIN_WARM warm ops of the run.

    The untraced run reports times scaled to a fixed machine speed
    (speed.SpeedMeter); the traced run reports wall times, so that no span
    holds the meter's kernel."""
    workload = WORKLOADS[workload_name]()
    tally = Tally(seed)
    tracer = spans.Tracer() if traced else None
    meter = speed.WallClock() if traced else speed.SpeedMeter()
    # wall times decide what still fits in the run; scaled ones are reported
    times = {"setup": [], "cold": [], "warm": [], "traced": []}
    scaled = {kind: [] for kind in times}
    simplices = 0
    n_ops = 0

    def op(index, kind):
        nonlocal n_ops, simplices
        runs = workload.ops[index % len(workload.ops)]
        traced_op = kind == "traced"
        (dt, dt_scaled), results = execute(mods, runs, tracer if traced_op else None,
                                           n_ops, meter)
        tally.add(runs, results)
        if traced_op:
            record_outputs(tracer, runs)
        if kind == "warm":
            simplices += sum(r.simplices for r in runs)
        times[kind].append(dt)
        scaled[kind].append(dt_scaled)
        n_ops += 1

    start = perf_counter()
    deadline = start + seconds

    def fits(*kinds):
        return perf_counter() + sum(times[k][-1] for k in kinds) <= deadline

    slots = ("warm", "traced") if traced else ("warm",)
    rounds = 0
    with meter:
        while len(times["setup"]) < SETUPS or sum(times["setup"]) < SETUP_SECONDS:
            token = meter.begin()
            t0 = perf_counter()
            mods = fresh_import()
            workload.setup(seed, mods)
            dt, dt_scaled = meter.end(token, perf_counter() - t0)
            times["setup"].append(dt)
            scaled["setup"].append(dt_scaled)
            # free the replaced modules now, so repeated imports do not
            # raise peak_rss_mb
            gc.collect()

        while rounds < MIN_ROUNDS or fits("cold"):
            if rounds:
                mods = fresh_import()
                gc.collect()
            op(rounds, "cold")
            j = 1
            while j + len(slots) <= OPS_PER_ROUND and (
                    len(times["warm"]) < MIN_WARM or fits(*slots)):
                for kind in slots:
                    op(rounds + j, kind)
                    j += 1
            rounds += 1
    cold, warm, setups = scaled["cold"], scaled["warm"], scaled["setup"]

    attempted, failed = tally.attempted, tally.failed
    report = [f"workload {workload_name}  seed {seed}  rounds {rounds}  ops {n_ops}  "
              f"time {perf_counter() - start:.1f} s  "
              f"runs checked {attempted}  failed {failed}  "
              f"fail_ratio {failed / attempted:.4f}"]
    report += [f"unexpected: {u}" for u in tally.unexpected[:20]]
    if traced:
        rows = spans.layer_metrics(tracer)
        names = sorted(next(iter(rows.values())))
        metrics = {n: statistics.median(r[n] for r in rows.values()) for n in names}
        metrics["trace.overhead"] = (statistics.median(scaled["traced"])
                                     / statistics.median(warm))
        os.makedirs(WORK, exist_ok=True)
        path = os.path.join(WORK, f"trace-{workload_name}.tsv")
        tracer.write_tsv(path)
        report.append(f"{len(tracer)} spans over {len(rows)} traced ops written to {path}")
    else:
        metrics = {
            "op_s": statistics.median(warm),
            "cold_op_s": statistics.median(cold),
            "simplices_per_s": simplices / sum(warm),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report.append(f"op_s {metrics['op_s']:.4f} s  median of {len(warm)} warm ops; "
                      f"{percentile_line(warm)}")
        report.append(f"wall time medians: op {statistics.median(times['warm']):.4f} s  "
                      f"cold op {statistics.median(times['cold']):.4f} s  "
                      f"setup {statistics.median(times['setup']):.4f} s")
        report.append("scaled cold op times " + " ".join(f"{t:.3f}" for t in cold)
                      + "; warm " + " ".join(f"{t:.3f}" for t in warm))
        report.append(f"cold_op_s {metrics['cold_op_s']:.4f} s (median of {len(cold)})  setup_s "
                      f"{metrics['setup_s']:.4f} s (median of {len(setups)})  "
                      f"simplices_per_s {metrics['simplices_per_s']:.1f} 1/s  "
                      f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB  "
                      f"fail_ratio {failed / attempted:.4f}")
    return {"correct": not tally.unexpected, "attempted": attempted, "failed": failed,
            "metrics": metrics}, report


def declared_units(traced: bool) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if traced else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        units = declared_units(bool(args.trace))
        result, report = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    missing = set(units) - set(result["metrics"])
    if missing:
        print(f"error: no value for {sorted(missing)}", file=sys.stderr)
        return 2
    result["metrics"] = {n: {"value": v, "unit": units[n]}
                         for n, v in result["metrics"].items() if n in units}
    for line in report:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
