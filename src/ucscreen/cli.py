"""Command-line front end: screening schemes S1-S7, dataset generation,
and the self-verification suite.

Exit codes: 0 success, 2 input error (a solver giving up included),
3 screening infeasibility, 4 property violation.  Reports are canonical JSON: keys sorted, no
volatile content unless --timings is given, so identical runs (and runs
with different --jobs) produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from ucscreen.case import (
    CaseFormatError,
    CaseValidationError,
    GridCase,
    parse_case_file,
)
from ucscreen.lp import LpUsageError, NodeLimitExceeded, SimplexError
from ucscreen.model import (
    CutSet,
    RowLabel,
    UcInfeasibleError,
    UcInstance,
    apply_cuts,
    build_uc,
    relax_binaries,
)
from ucscreen.oracle import (
    GapReport,
    lp_redundancy,
    matrix_test_exactness,
    verify_zero_gap,
)
from ucscreen.predictors import (
    Dataset,
    DatasetError,
    PredictorConfig,
    commitment_fixes,
    cost_bound,
    default_k,
    generate_dataset,
    oracle_cost_bound,
    read_dataset_csv,
    write_dataset_csv,
)
from ucscreen.screening import (
    ScreeningInfeasibleError,
    ScreeningReport,
    eovl,
    reduce_model,
    variable_bounds,
    vgs_screen,
)

SCHEMES = ("s1", "s2", "s3", "s4", "s5", "s6", "s7")
# Schemes whose cuts keep the optimum, so the reduced model must match it.
ZERO_GAP_SCHEMES = ("s1", "s2", "s3", "s4", "s5")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SCREENING_INFEASIBLE = 3
EXIT_PROPERTY = 4


class InputError(ValueError):
    """Bad flags or files; maps to exit code 2."""


class PropertyViolation(RuntimeError):
    """A verified property failed; maps to exit code 4."""

    def __init__(self, name: str, detail: str):
        super().__init__(f"{name}: {detail}")
        self.name = name
        self.detail = detail


@dataclass
class SchemeConfig:
    """Resolved run configuration; validates scheme prerequisites."""

    case_path: str
    scheme: str
    beta: float | None = None
    epsilon: float | None = None
    k: int | None = None
    dataset_path: str | None = None
    oracle_cost: bool = False
    seed: int = 42
    jobs: int = 1
    drop_rows: tuple[str, ...] = ()

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise InputError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.scheme == "s4" and self.beta is None:
            raise InputError("scheme s4 needs --beta")
        if self.scheme in ("s5", "s7"):
            if self.epsilon is None:
                raise InputError(f"scheme {self.scheme} needs --epsilon")
            if self.dataset_path is None and not self.oracle_cost:
                raise InputError(
                    f"scheme {self.scheme} needs --dataset or --oracle-cost")
        if self.scheme in ("s6", "s7") and self.dataset_path is None:
            raise InputError(f"scheme {self.scheme} needs --dataset")
        if self.jobs < 1:
            raise InputError("--jobs must be >= 1")
        # NaN fails every comparison, so these reject it too
        if self.beta is not None and not 0.0 <= self.beta <= 1.0:
            raise InputError(f"--beta must be within [0, 1], got {self.beta}")
        if self.epsilon is not None and not 0.0 <= self.epsilon < math.inf:
            raise InputError(
                f"--epsilon must be a finite number >= 0, got {self.epsilon}")
        if self.k is not None and (self.k < 1 or self.k % 2 == 0):
            raise InputError(f"--k must be an odd positive integer, got {self.k}")

    def to_json_dict(self) -> dict:
        return {
            "case": self.case_path,
            "scheme": self.scheme,
            "beta": self.beta,
            "epsilon": self.epsilon,
            "k": self.k,
            "dataset": self.dataset_path,
            "oracle_cost": self.oracle_cost,
            "seed": self.seed,
            "drop_rows": list(self.drop_rows),
        }


@dataclass
class RunReport:
    """Everything a scheme run produced, serializable as canonical JSON."""

    case_id: str
    scheme: str
    screening: ScreeningReport
    n_v: int
    gap: GapReport
    config: SchemeConfig
    total_seconds: float

    @property
    def r_ratio(self) -> float | None:
        if self.screening.lp_count == 0:
            return None
        return len(self.screening.redundant) / self.screening.lp_count

    @property
    def percentage_removed(self) -> float:
        total = len(self.screening.candidates)
        return 100.0 * len(self.screening.redundant) / total if total else 0.0

    def to_json_dict(self, include_timings: bool = False) -> dict:
        timings = None
        if include_timings:
            timings = dict(self.screening.wall_times)
            timings["total"] = self.total_seconds
        return {
            "case": self.case_id,
            "scheme": self.scheme,
            "redundant_rows": [str(lb) for lb in self.screening.redundant],
            "kept_rows": [str(lb) for lb in self.screening.kept],
            "n_v": self.n_v,
            "lp_count": self.screening.lp_count,
            "r": self.r_ratio,
            "gap": {
                "full_status": self.gap.full_status,
                "reduced_status": self.gap.reduced_status,
                "full_cost": self.gap.full_cost,
                "reduced_cost": self.gap.reduced_cost,
                "gap": self.gap.gap,
                "commitment_match": self.gap.commitment_match,
            },
            "timings": timings,
            "config": self.config.to_json_dict(),
        }


def dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_case(path: str) -> GridCase:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"case file not found: {path}")
    return parse_case_file(p)


def _load_dataset(config: SchemeConfig) -> Dataset | None:
    if config.dataset_path is None:
        return None
    p = Path(config.dataset_path)
    if not p.is_file():
        raise InputError(f"dataset file not found: {config.dataset_path}")
    return read_dataset_csv(p)


def build_cuts(case: GridCase, config: SchemeConfig,
               dataset: Dataset | None) -> CutSet:
    """Assemble the scheme's cut set around the nominal load."""
    nominal = case.nominal_load
    cost_cut = None
    fixes: tuple[tuple[int, int], ...] = ()
    load_range = None
    cfg = PredictorConfig(k=default_k(case.n_gens) if config.k is None
                          else config.k,
                          epsilon=config.epsilon or 0.0)
    if config.scheme == "s4":
        load_range = ((1.0 - config.beta) * nominal, (1.0 + config.beta) * nominal)
    if config.scheme in ("s5", "s7"):
        if config.oracle_cost:
            cost_cut = oracle_cost_bound(case, nominal, config.epsilon)
        else:
            cost_cut = cost_bound(dataset, nominal, cfg)
    if config.scheme in ("s6", "s7"):
        fixes = commitment_fixes(dataset, nominal, cfg)
    return CutSet(cost_bound=cost_cut, commitment_fixes=fixes,
                  load_range=load_range)


def _classify_screening_failure(full: UcInstance,
                                exc: ScreeningInfeasibleError):
    """Empty screened region: distinguish a bad cut (exit 3) from a case
    that is infeasible outright (exit 2)."""
    from ucscreen.model import solve_uc

    try:
        solve_uc(full)
    except UcInfeasibleError as case_exc:
        raise InputError(f"case is infeasible: {case_exc}") from exc
    raise exc


def _drop_labels(full: UcInstance, config: SchemeConfig) -> tuple[RowLabel, ...]:
    """The --drop-row labels, each checked to name a row of the full model."""
    labels = []
    for text in config.drop_rows:
        try:
            label = RowLabel.parse(text)
        except ValueError:
            raise InputError(f"--drop-row {text!r} is not a row label") from None
        if label not in full.row_labels:
            raise InputError(f"--drop-row {text!r} names no row of the model")
        labels.append(label)
    return tuple(labels)


def _final_model(full: UcInstance, redundant, drop: tuple[RowLabel, ...],
                 cuts: CutSet) -> UcInstance:
    """The model solved against the full one: screened rows and --drop-row
    rows deleted, and status fixes carried over (schemes s6/s7)."""
    reduced = reduce_model(full, redundant).without_rows(drop)
    if cuts.commitment_fixes:
        reduced = apply_cuts(reduced, CutSet(commitment_fixes=cuts.commitment_fixes))
    return reduced


def _set_up(config: SchemeConfig):
    """(case, full model, --drop-row labels, cuts, relaxed cut model to
    screen) for one scheme run."""
    case = _load_case(config.case_path)
    dataset = _load_dataset(config)
    full = build_uc(case, case.nominal_load)
    drop = _drop_labels(full, config)
    cuts = build_cuts(case, config, dataset)
    return case, full, drop, cuts, relax_binaries(apply_cuts(full, cuts))


def run_scheme(config: SchemeConfig) -> RunReport:
    """Execute one scheme: screen, reduce, and verify/measure the gap."""
    t0 = time.perf_counter()
    case, full, drop, cuts, screened = _set_up(config)
    try:
        report = eovl(
            screened,
            use_vgs=config.scheme != "s2",
            use_lfgs=config.scheme != "s1",
            jobs=config.jobs,
        )
    except ScreeningInfeasibleError as exc:
        _classify_screening_failure(full, exc)

    gap = verify_zero_gap(full, _final_model(full, report.redundant, drop, cuts))
    if gap.full_status != "optimal":
        raise InputError(
            f"case is {gap.full_status} at its nominal load; nothing to report")

    n_v = sum(1 for v in report.attribution.values() if v == "vgs")
    out = RunReport(
        case_id=case.name or Path(config.case_path).stem,
        scheme=config.scheme,
        screening=report,
        n_v=n_v,
        gap=gap,
        config=config,
        total_seconds=time.perf_counter() - t0,
    )
    if config.scheme in ZERO_GAP_SCHEMES and not gap.zero_gap:
        raise PropertyViolation(
            "zero_gap",
            f"scheme {config.scheme} changed the optimum: "
            f"full={gap.full_cost} reduced={gap.reduced_cost}")
    return out


def verify_case(config: SchemeConfig) -> list[dict]:
    """Run the invariant suite; returns per-property verdicts in order:
    matrix_test_exactness, vgs_soundness, ensemble_equivalence, zero_gap.

    Stops at the first failure, so the last verdict names the violated
    property.
    """
    _, full, drop, cuts, screened = _set_up(config)
    verdicts: list[dict] = []

    def record(name: str, failure: str | None) -> bool:
        verdicts.append({"name": name, "passed": failure is None,
                         "detail": failure})
        return failure is None

    try:
        box = variable_bounds(screened, jobs=config.jobs)
    except ScreeningInfeasibleError as exc:
        _classify_screening_failure(full, exc)
    vgs = vgs_screen(screened, box)
    if not record("matrix_test_exactness",
                  matrix_test_exactness(screened, box, vgs.omega, config.seed)):
        return verdicts

    failure = None
    for lb in vgs.redundant:
        if not lp_redundancy(screened, lb):
            failure = f"{lb} certified by the matrix test but not by the LP oracle"
            break
    if not record("vgs_soundness", failure):
        return verdicts

    s3 = eovl(screened, jobs=config.jobs)
    s2 = eovl(screened, use_vgs=False, jobs=config.jobs)
    failure = None
    if set(s3.redundant) != set(s2.redundant):
        only3 = sorted(str(x) for x in set(s3.redundant) - set(s2.redundant))
        only2 = sorted(str(x) for x in set(s2.redundant) - set(s3.redundant))
        failure = f"ensemble-only={only3} lfgs-only={only2}"
    if not record("ensemble_equivalence", failure):
        return verdicts

    gap = verify_zero_gap(full, _final_model(full, s3.redundant, drop, cuts))
    failure = None
    if config.scheme in ZERO_GAP_SCHEMES and not gap.zero_gap:
        failure = (f"reduction changed the optimum: full={gap.full_cost} "
                   f"reduced={gap.reduced_cost}")
    record("zero_gap", failure)
    return verdicts


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--case", required=True, help="case JSON path")
    sub.add_argument("--scheme", default="s3", choices=SCHEMES)
    sub.add_argument("--beta", type=float, default=None)
    sub.add_argument("--epsilon", type=float, default=None)
    sub.add_argument("--k", type=int, default=None)
    sub.add_argument("--dataset", default=None)
    sub.add_argument("--oracle-cost", action="store_true")
    sub.add_argument("--seed", type=int, default=42)
    sub.add_argument("--jobs", type=int, default=1)
    sub.add_argument("--drop-row", action="append", default=[],
                     metavar="LABEL",
                     help="forcibly delete an extra row from the reduced "
                          "model (negative-control hook); repeatable")
    sub.add_argument("--out", default=None, help="write the JSON report here")
    sub.add_argument("--timings", action="store_true",
                     help="include wall-clock timings in the report "
                          "(breaks byte-level reproducibility)")


def _config_from_args(args) -> SchemeConfig:
    return SchemeConfig(
        case_path=args.case,
        scheme=args.scheme,
        beta=args.beta,
        epsilon=args.epsilon,
        k=args.k,
        dataset_path=args.dataset,
        oracle_cost=args.oracle_cost,
        seed=args.seed,
        jobs=args.jobs,
        drop_rows=tuple(args.drop_row),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ucscreen",
        description="LP-based redundant line-limit screening for DC unit commitment")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="screen a case under one scheme")
    _add_common(p_run)

    p_gen = subs.add_parser("gen-data", help="generate a solved-load dataset CSV")
    p_gen.add_argument("--case", required=True)
    p_gen.add_argument("--beta", type=float, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=42)
    p_gen.add_argument("--out", required=True)

    p_ver = subs.add_parser("verify", help="run the invariant suite on a case")
    _add_common(p_ver)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            report = run_scheme(_config_from_args(args))
            text = dump_json(report.to_json_dict(include_timings=args.timings))
            if args.out:
                Path(args.out).write_text(text, encoding="utf-8")
            else:
                sys.stdout.write(text)
            print(f"[{report.case_id}/{report.scheme}] removed "
                  f"{len(report.screening.redundant)}/"
                  f"{len(report.screening.candidates)} line limits, "
                  f"{report.screening.lp_count} screening LPs, "
                  f"{report.total_seconds:.2f}s", file=sys.stderr)
            return EXIT_OK
        if args.command == "gen-data":
            if args.n < 0:
                raise InputError(f"--n must be >= 0, got {args.n}")
            if args.seed < 0:  # numpy seeds are non-negative
                raise InputError(f"--seed must be >= 0, got {args.seed}")
            case = _load_case(args.case)
            ds = generate_dataset(case, args.beta, args.n, args.seed)
            write_dataset_csv(ds, args.out)
            print(f"wrote {len(ds)} records to {args.out} "
                  f"(feasibility rate {ds.feasibility_rate:.3f}, "
                  f"sampling: per-bus independent uniform)", file=sys.stderr)
            return EXIT_OK
        if args.command == "verify":
            config = _config_from_args(args)
            verdicts = verify_case(config)
            passed = all(v["passed"] for v in verdicts)
            if not passed:
                bad = verdicts[-1]
                print(f"property violated: {bad['name']}: {bad['detail']}",
                      file=sys.stderr)
            doc = {
                "case": Path(config.case_path).stem,
                "scheme": config.scheme,
                "properties": verdicts,
                "passed": passed,
            }
            if args.out:
                Path(args.out).write_text(dump_json(doc), encoding="utf-8")
            else:
                sys.stdout.write(dump_json(doc))
            return EXIT_OK if passed else EXIT_PROPERTY
        raise InputError(f"unknown command {args.command!r}")
    except (InputError, CaseFormatError, CaseValidationError, LpUsageError,
            DatasetError, UcInfeasibleError, SimplexError,
            NodeLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ScreeningInfeasibleError as exc:
        print(f"screening infeasible: {exc}", file=sys.stderr)
        return EXIT_SCREENING_INFEASIBLE
    except PropertyViolation as exc:
        print(f"property violated: {exc.name}: {exc.detail}", file=sys.stderr)
        return EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
