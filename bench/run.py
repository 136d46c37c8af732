"""ucscreen benchmark: one closed-loop client, three workloads, --jobs 1.

    python3 bench/run.py --workload desk_cli --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The package is imported from ./src.
Inputs (case files, datasets, loads) are generated from --seed under
.bench_run/ and removed at exit; only the span file of a traced run stays.

Each workload has a fixed, seed-determined set of op kinds and runs them
in passes, one op of each kind per pass.  --trace 0 repeats passes for
--seconds seconds, and always finishes the first.  Every time it reports is scaled to a reference host
speed, measured by a fixed kernel run before each op (see ref_kernel).
--trace 1 runs a fixed, seed-determined list of ops twice, untraced then
traced, and reports per-layer totals from the spans, so that the counters
repeat exactly for one seed.  The last line of standard output is the JSON
result.  See bench/README.md for the metrics and how to read the trace.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"
if not (SRC / "ucscreen" / "__init__.py").is_file():
    sys.exit(f"bench: no ucscreen package under {SRC}; run from a checkout root")
sys.path.insert(0, str(SRC))

# numpy is imported first so that set-up time counts the package's own
# import, not the interpreter's cold start of numpy.
T_IMPORT = time.perf_counter()
import ucscreen.case as uc_case  # noqa: E402
import ucscreen.cli as uc_cli  # noqa: E402
import ucscreen.model as uc_model  # noqa: E402
import ucscreen.oracle as uc_oracle  # noqa: E402
import ucscreen.screening as uc_screening  # noqa: E402

from gen import ring_chord_case, write_case  # noqa: E402
from tracer import Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - T_IMPORT
SETUP_REPEATS = 5
GAP_TOL = 1e-6  # relative, as in the zero-gap criterion

# desk_cli: the bundled corpus through the CLI, in process.
DESK_CASES = ("five_bus", "nine_bus", "fourteen_bus", "thirty_bus", "fifty_bus")
DESK_SCHEMES = ("s1", "s2", "s3", "s4", "s5", "s6", "s7")
DESK_ARGS = {"s4": ["--beta", "0.1"],
             "s5": ["--epsilon", "0.05"], "s7": ["--epsilon", "0.05"]}
# Dataset for s5-s7 and the gen-data ops.  With loads within 5% of nominal,
# a 5% epsilon keeps the KNN cost bound above the optimum, so no s5/s7 run
# ends screening-infeasible (exit 3) on any of the first 40 seeds.
DATA_ARGS = ["--beta", "0.05", "--n", "20"]

# synth_screen: seeded ring-plus-chords cases, one op kind per case.
SYNTH_SHAPE = dict(n_buses=24, n_chords=12, n_gens=8, beta=0.2, tight_share=0.25)
SYNTH_CASES = 48  # about one pass a run; S3 time differs by a fifth between cases

# range_solve_many: one load-range screen, then one op kind per load.
RANGE_SHAPE = dict(n_buses=30, n_chords=15, n_gens=14, beta=0.2, tight_share=0.25)
# The case and its loads are fixed; --seed sets the order of the loads.
# Branch-and-bound effort differs several-fold between loads: over seeded
# sets of 64 loads, the mean reduced-solve time moved 13% between seeds,
# which would hide any change in solver speed.
RANGE_CASE_SEED = 2
RANGE_LOADS = 48
RESCREEN_EVERY = 8  # ops between repeats of the load-range screen

# Ops in one traced pass: six to ten seconds each on the baseline machine.
TRACE_OPS = {"desk_cli": 2 * len(DESK_CASES) * (len(DESK_SCHEMES) + 1),
             "synth_screen": 10, "range_solve_many": 20}

# Host speed.  On a shared host, neighbours slow every process on a core
# by up to a quarter for minutes at a time, and process CPU time slows with
# wall time, so no clock of this process alone can tell the program's speed
# from the host's.  A fixed kernel, run before each op, measures the host:
# each time is multiplied by (REF_S / m) ** HOST_EXPONENT, m the median
# kernel time over the run, which estimates the time on the baseline
# machine at its usual speed.  One kernel time jitters by a quarter; the
# median over a run's fifty or more does not.  Over 40 runs of the three
# workloads, log op time rose 0.54-0.80 times as fast as log kernel time
# (correlation 0.65-0.88): the package slows less than the kernel.
REF_S = 0.0087  # the kernel's median time over runs on the baseline machine
HOST_EXPONENT = 0.7
_REF_TABLEAU = np.eye(100, 200) + 0.1 * np.random.default_rng(0).uniform(
    -1.0, 1.0, size=(100, 200))
_REF_DOC = {"rows": [{"id": i, "name": f"line{i}", "lo": -1.5 * i, "hi": 2.5 * i,
                      "tags": ["a", "b"]} for i in range(200)]}


def ref_kernel() -> float:
    """Fixed work in two halves, shaped like the package's own mix: dense
    Gauss-Jordan pivots on a tableau, then interpreter-bound work (JSON,
    dicts, numpy calls on short arrays).  Neighbours slow the two halves
    differently, as they do the package's simplex and its Python glue.  It
    is benchmark code, so a change to the package cannot change its speed;
    only the host can."""
    T = _REF_TABLEAU.copy()
    total = 0.0
    for r in range(T.shape[0]):
        T[r] /= T[r, r]
        col = T[:, r].copy()
        col[r] = 0.0
        T -= np.outer(col, T[r])
        total += sum(T[r, :40].tolist())
    short = np.arange(30.0)
    for _ in range(2):
        doc = json.loads(json.dumps(_REF_DOC))
        for row in doc["rows"]:
            total += row["hi"] - row["lo"] + len(row["name"])
        v = short.copy()
        for i in range(300):
            v = np.maximum(v * 1.0001, short)
            total += float(v[i % 30])
    return total


class Recorder:
    """Timed samples, host-speed samples and failures of one run.

    A sample is (phase, kind, seconds).  Phase "op" is an op's latency;
    "screen", "full" and "reduced" are times inside an op; "lead" is
    once-per-pass work outside the ops, such as the load-range screen;
    "setup" is one set-up.
    """

    def __init__(self):
        self.samples: list[tuple[str, object, float]] = []
        self.host: list[float] = []  # ref_kernel times
        self.latency: list[float] = []
        self.failed = 0
        self.checks = 0  # checked results outside the ops
        self.errors: list[str] = []
        self.removed = 0
        self.candidates = 0
        self.kind = None
        self.mark: float | None = None  # op end, when checks follow it
        self.tracer: Tracer | None = None
        self.clock = True  # take host-speed samples; off in the traced run

    def tick(self) -> None:
        """Take one host-speed sample."""
        t0 = time.perf_counter()
        ref_kernel()
        self.host.append(time.perf_counter() - t0)

    def sample(self, phase: str, seconds: float, kind=None) -> None:
        self.samples.append((phase, self.kind if kind is None else kind, seconds))

    def scaled(self, seconds: float) -> float:
        """seconds at the reference host speed."""
        return seconds * (REF_S / statistics.median(self.host)) ** HOST_EXPONENT

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def op(self, kind, fn) -> None:
        """Run one op; a raised exception or failed check counts as failed."""
        self.kind = kind
        self.mark = None
        if self.clock:
            self.tick()
        if self.tracer is not None:
            self.tracer.op = len(self.latency)
        t0 = time.perf_counter()
        try:
            fn(self)
        except Exception as exc:  # the loop must go on; count and report it
            self.fail(f"{type(exc).__name__}: {exc}")
        self.latency.append((self.mark or time.perf_counter()) - t0)
        self.sample("op", self.latency[-1])

    def per_kind(self, phase: str) -> dict[object, float]:
        """Median scaled time of each kind in one phase."""
        times: dict[object, list[float]] = {}
        for p, kind, seconds in self.samples:
            if p == phase:
                times.setdefault(kind, []).append(self.scaled(seconds))
        return {kind: statistics.median(v) for kind, v in times.items()}

    @property
    def attempted(self) -> int:
        return len(self.latency)


class CheckFailed(Exception):
    """An op's output disagrees with its reference or a property."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), 1.0)


# ---------------------------------------------------------------- desk_cli

class Desk:
    """In-process `ucscreen run` for s1-s7 and `ucscreen gen-data` on the
    bundled corpus; one op kind per (case, command).  The first report of
    each kind becomes the reference; later ones must match it byte for
    byte."""

    kinds = len(DESK_CASES) * (len(DESK_SCHEMES) + 1)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.reference: dict[tuple[str, str], bytes] = {}
        self.reports: dict[tuple[str, str], dict] = {}

    def setup(self) -> None:
        (self.work / "out").mkdir(parents=True, exist_ok=True)
        for name in DESK_CASES:
            text = uc_case.case_to_json(uc_case.load_bundled_case(name))
            (self.work / f"{name}.json").write_text(text, encoding="utf-8")
            rc = self._cli(["gen-data", "--case", str(self.work / f"{name}.json"),
                            *DATA_ARGS, "--seed", str(self.seed),
                            "--out", str(self.work / f"{name}.csv")])
            if rc != 0:
                raise RuntimeError(f"gen-data for {name} exited {rc}")

    def stream(self):
        """Passes over every kind, each pass in a seeded order."""
        ops = [(c, s) for c in DESK_CASES for s in DESK_SCHEMES + ("gen-data",)]
        for p in itertools.count():
            rng = np.random.default_rng((self.seed, p))
            for k in rng.permutation(len(ops)):
                yield ops[k]

    @staticmethod
    def _cli(argv) -> int:
        with contextlib.redirect_stderr(io.StringIO()):
            return uc_cli.main(argv)

    def run_op(self, rec: Recorder, key) -> None:
        name, scheme = key
        case = str(self.work / f"{name}.json")
        data = str(self.work / f"{name}.csv")
        if scheme == "gen-data":
            out = self.work / "out" / f"{name}.csv"
            rc = self._cli(["gen-data", "--case", case, *DATA_ARGS,
                            "--seed", str(self.seed), "--out", str(out)])
            rec.mark = time.perf_counter()
            check(rc == 0, f"gen-data {name} exited {rc}")
            check(out.read_bytes() == Path(data).read_bytes(),
                  f"gen-data {name} differs from the set-up dataset")
            return
        out = self.work / "out" / f"{name}-{scheme}.json"
        argv = ["run", "--case", case, "--scheme", scheme, "--out", str(out),
                *DESK_ARGS.get(scheme, [])]
        if scheme in ("s5", "s6", "s7"):
            argv += ["--dataset", data]
        rc = self._cli(argv)
        rec.mark = time.perf_counter()
        check(rc == 0, f"run {name} {scheme} exited {rc}")
        body = out.read_bytes()
        doc = json.loads(body)
        if scheme in ("s1", "s2", "s3", "s4", "s5"):
            gap = doc["gap"]
            check(gap["full_status"] == gap["reduced_status"] == "optimal"
                  and rel_gap(gap["full_cost"], gap["reduced_cost"]) <= GAP_TOL,
                  f"{name} {scheme}: gap {gap}")
        if key in self.reference:
            check(body == self.reference[key], f"{name} {scheme}: report changed")
            return
        self.reference[key] = body
        self.reports[key] = doc
        rec.removed += len(doc["redundant_rows"])
        rec.candidates += len(doc["redundant_rows"]) + len(doc["kept_rows"])
        self._cross_check(name)

    def _cross_check(self, name: str) -> None:
        """Scheme relations that hold on every case: S3 = S2, S1 and S4
        within S3, S3 within S5, and one full-model optimum."""
        got = {s: set(d["redundant_rows"]) for (c, s), d in self.reports.items()
               if c == name}
        for a, b, rel in (("s3", "s2", "eq"), ("s1", "s3", "le"),
                          ("s4", "s3", "le"), ("s3", "s5", "le")):
            if a in got and b in got:
                ok = got[a] == got[b] if rel == "eq" else got[a] <= got[b]
                check(ok, f"{name}: {a} vs {b} removed sets break {rel}")
        costs = [d["gap"]["full_cost"] for (c, _), d in self.reports.items()
                 if c == name]
        check(max(costs) - min(costs) <= GAP_TOL * max(abs(costs[0]), 1.0),
              f"{name}: full-model optimum differs between schemes")

    def run(self, rec: Recorder, more) -> None:
        with phase_clocks(rec):
            for key in self.stream():
                if not more(rec.attempted):
                    return
                rec.op(key, lambda r, k=key: self.run_op(r, k))


@contextlib.contextmanager
def phase_clocks(rec: Recorder):
    """Time the screen and the two MILPs inside each CLI run.

    cli.run_scheme calls eovl once and verify_zero_gap, which solves the
    full model and then the reduced one.  Two perf_counter pairs per call;
    no spans or counters.
    """
    eovl, solve_uc = uc_cli.eovl, uc_oracle.solve_uc
    full_solved = [None]  # index of the op whose full model was solved last

    def timed_eovl(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return eovl(*args, **kwargs)
        finally:
            rec.sample("screen", time.perf_counter() - t0)

    def timed_solve(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return solve_uc(*args, **kwargs)
        finally:
            if full_solved[0] == rec.attempted:
                rec.sample("reduced", time.perf_counter() - t0)
            else:
                full_solved[0] = rec.attempted
                rec.sample("full", time.perf_counter() - t0)

    uc_cli.eovl, uc_oracle.solve_uc = timed_eovl, timed_solve
    try:
        yield
    finally:
        uc_cli.eovl, uc_oracle.solve_uc = eovl, solve_uc


# ------------------------------------------------------------ synth_screen

class Synth:
    """One op kind per seeded case.  An op parses the case, screens it
    with S3, reduces it and solves the reduced MILP.  The first op of each
    case also runs the reference path outside the op's time: S2, which
    must remove the same rows, and the full MILP, whose cost every reduced
    solve of that case must match."""

    kinds = SYNTH_CASES

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for i in range(SYNTH_CASES):
            path = self.work / f"synth{i}.json"
            write_case(ring_chord_case((self.seed, i), **SYNTH_SHAPE,
                                       name=f"synth{i}"), path)
            uc_case.parse_case_file(path)  # reject a bad case before timing
            self.paths.append(path)

    def run_op(self, rec: Recorder, k: int, ref: dict) -> None:
        case = uc_case.parse_case_file(self.paths[k])
        full = uc_model.build_uc(case, case.nominal_load)
        relaxed = uc_model.relax_binaries(full)
        t0 = time.perf_counter()
        s3 = uc_screening.eovl(relaxed)
        rec.sample("screen", time.perf_counter() - t0)
        reduced = uc_screening.reduce_model(full, s3.redundant)
        t0 = time.perf_counter()
        rsol = uc_model.solve_uc(reduced)
        rec.mark = time.perf_counter()
        rec.sample("reduced", rec.mark - t0)
        if k not in ref:
            s2 = uc_screening.eovl(relaxed, use_vgs=False)
            t0 = time.perf_counter()
            fsol = uc_model.solve_uc(full)
            rec.sample("full", time.perf_counter() - t0)
            ref[k] = (set(s2.redundant), fsol.cost)
            rec.removed += len(s3.redundant)
            rec.candidates += len(s3.candidates)
        s2_removed, full_cost = ref[k]
        check(set(s3.redundant) == s2_removed,
              f"{case.name}: S3 and S2 removed sets differ")
        check(rel_gap(full_cost, rsol.cost) <= GAP_TOL,
              f"{case.name}: full {full_cost} vs reduced {rsol.cost}")

    def run(self, rec: Recorder, more) -> None:
        ref: dict = {}
        for i in itertools.count():
            if not more(rec.attempted):
                return
            k = i % SYNTH_CASES
            rec.op(k, lambda r, k=k: self.run_op(r, k, ref))


# -------------------------------------------------------- range_solve_many

class RangeSolve:
    """Screen one case over its load box, then solve each of its loads on
    the reduced model: one op kind per load.  The first op of each load
    also solves the full model, outside the op's time, as the reference
    cost.  In use the screen runs once; the run repeats it every
    RESCREEN_EVERY ops so that its median spans the run, and every repeat
    must remove the same rows."""

    kinds = RANGE_LOADS

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.case_path = self.work / "range.json"
        doc = ring_chord_case((RANGE_CASE_SEED,), **RANGE_SHAPE, name="range")
        write_case(doc, self.case_path)
        beta = RANGE_SHAPE["beta"]
        nominal = np.array(doc["nominal_load"])
        rng = np.random.default_rng(RANGE_CASE_SEED)
        loads = rng.uniform((1 - beta) * nominal, (1 + beta) * nominal,
                            size=(RANGE_LOADS, nominal.size))
        order = np.random.default_rng(self.seed).permutation(RANGE_LOADS)
        self.loads_path = self.work / "loads.json"
        self.loads_path.write_text(json.dumps(loads[order].tolist()), encoding="utf-8")
        uc_case.parse_case_file(self.case_path)  # reject a bad case before timing

    def run(self, rec: Recorder, more) -> None:
        beta = RANGE_SHAPE["beta"]
        case = uc_case.parse_case_file(self.case_path)
        loads = json.loads(self.loads_path.read_text(encoding="utf-8"))
        nominal = case.nominal_load
        box = uc_model.CutSet(load_range=((1 - beta) * nominal, (1 + beta) * nominal))
        ranged = uc_model.relax_binaries(uc_model.apply_cuts(
            uc_model.build_uc(case, nominal), box))
        first = None
        full_cost: dict[int, float] = {}
        for i in itertools.count():
            if not more(rec.attempted):
                return
            if i % RESCREEN_EVERY == 0:
                if rec.clock:
                    rec.tick()
                t0 = time.perf_counter()
                report = uc_screening.eovl(ranged)
                seconds = time.perf_counter() - t0
                rec.sample("screen", seconds, kind="box")
                rec.sample("lead", seconds, kind="box")
                rec.checks += 1
                if first is None:
                    first = report
                    rec.removed += len(report.redundant)
                    rec.candidates += len(report.candidates)
                elif report.redundant != first.redundant:
                    rec.fail("load-range screen is not deterministic")
            k = i % RANGE_LOADS
            rec.op(k, lambda r, k=k: self.run_op(
                r, case, first.redundant, loads[k], full_cost, k))

    @staticmethod
    def run_op(rec: Recorder, case, redundant, load, full_cost, k) -> None:
        full = uc_model.build_uc(case, load)
        reduced = uc_screening.reduce_model(full, redundant)
        t0 = time.perf_counter()
        rsol = uc_model.solve_uc(reduced)
        rec.mark = time.perf_counter()
        rec.sample("reduced", rec.mark - t0)
        if k not in full_cost:
            full_cost[k] = uc_model.solve_uc(full).cost
            rec.sample("full", time.perf_counter() - rec.mark)
        check(rel_gap(full_cost[k], rsol.cost) <= GAP_TOL,
              f"load {k}: full {full_cost[k]} vs reduced {rsol.cost}")


# -------------------------------------------------------------------- main

WORKLOADS = {"desk_cli": Desk, "synth_screen": Synth, "range_solve_many": RangeSolve}


def geomean_ms(values) -> float:
    values = list(values)
    return 1e3 * math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(rec: Recorder, import_s: float) -> dict[str, tuple[float, str]]:
    """Scaled times: the median of each op kind, combined over kinds."""
    op = rec.per_kind("op")
    pass_s = sum(op.values()) + sum(rec.per_kind("lead").values())
    setup = statistics.median(rec.per_kind("setup").values())
    return {
        "setup_s": (rec.scaled(import_s) + setup, "s"),
        "ops_per_s": (len(op) / pass_s, "op/s"),
        "op_ms": (geomean_ms(op.values()), "ms"),
        "screen_ms": (geomean_ms(rec.per_kind("screen").values()), "ms"),
        "full_solve_ms": (geomean_ms(rec.per_kind("full").values()), "ms"),
        "reduced_solve_ms": (geomean_ms(rec.per_kind("reduced").values()), "ms"),
        "removed_frac": (rec.removed / rec.candidates, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def screened_over_full(rec: Recorder) -> float:
    total = {}
    for phase, _, seconds in rec.samples:
        total[phase] = total.get(phase, 0.0) + seconds
    return (total["screen"] + total["reduced"]) / total["full"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs = ROOT / ".bench_run"
    work = runs / f"{args.workload}-{args.seed}-{args.trace}"
    try:
        rec = Recorder()
        for i in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            workload = WORKLOADS[args.workload](args.seed, work)
            rec.tick()
            t0 = time.perf_counter()
            workload.setup()
            rec.sample("setup", time.perf_counter() - t0, kind=i)

        if not args.trace:
            deadline = time.perf_counter() + args.seconds
            workload.run(rec, lambda n: n < workload.kinds
                         or time.perf_counter() < deadline)
            metrics = end_to_end(rec, IMPORT_S)
            passes = [rec]
            wanted = spec["end_to_end"]
        else:
            n_ops = TRACE_OPS[args.workload]
            plain, traced, tracer = Recorder(), Recorder(), Tracer()
            plain.clock = traced.clock = False
            t0 = time.perf_counter()
            workload.run(plain, lambda n: n < n_ops)
            plain_s = time.perf_counter() - t0
            traced.tracer = tracer
            tracer.install()
            try:
                t0 = time.perf_counter()
                workload.run(traced, lambda n: n < n_ops)
                traced_s = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            tracer.write(runs / f"trace-{args.workload}-{args.seed}.jsonl")
            metrics = tracer.layer_metrics()
            metrics["pipeline.screened_over_full"] = (screened_over_full(traced), "1")
            metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "1")
            passes = [plain, traced]
            wanted = spec["per_layer"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted + r.checks for r in passes)
    failed = sum(r.failed for r in passes)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(f"{'ops':34s} {attempted:14d} attempted, {failed} failed "
          f"(fail_frac {failed / attempted:.4g})")
    if not args.trace:
        # Informational, not gated: the spread of all op latencies.
        lat = passes[0].latency
        kinds = len(passes[0].per_kind("op"))
        print(f"{'op kinds':34s} {kinds:14d} kinds, {len(lat) / kinds:.1f} ops each")
        host = passes[0].host
        print(f"{'host kernel (unscaled)':34s} {1e3 * statistics.median(host):14.6g} ms "
              f"median, {1e3 * min(host):.4g}-{1e3 * max(host):.4g} ms")
        print(f"{'op_p50_ms':34s} {1e3 * statistics.median(lat):14.6g} ms")
        if len(lat) >= 100:
            p90 = 1e3 * statistics.quantiles(lat, n=10)[-1]
            print(f"{'op_p90_ms':34s} {p90:14.6g} ms")
    for r in passes:
        for err in r.errors:
            print(f"failed op: {err}", file=sys.stderr)

    out = {}
    for m in wanted:
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']}: unit {unit} vs {m['unit']} in BENCHMARK.json")
        out[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
