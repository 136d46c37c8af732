"""Redundant line-limit screening engines.

Three engines over the binary-relaxed instance:

* vertex-guided: solve two LPs per decision variable to get a bounding
  box, then classify every candidate row at once with the sign-split
  box-maximum test (zero LPs per row);
* line-flow-guided: one LP per candidate row, maximizing the row over
  the whole region, the row itself included;
* the ensemble: vertex-guided first, line-flow-guided on the undecided
  remainder, matching the line-flow-guided result at a fraction of the
  LP count.

A row is only ever removed on a strict margin (FEASIBILITY_TOL); ties
are kept.  Keeping a redundant row is safe, removing a binding one is not.

Every screening LP runs over the region's projection onto the columns
other than the unit statuses (`UcInstance.projection`; Balas, 2005): the
rows with no status entry, every row but the generation rows, with each
dispatch column bounded by x_min * u_lo <= x <= x_max * u_hi.  No line
row reads a status, so its maximum over the projection is its maximum
over the region, and each LP has G columns and 2G rows fewer.  The
status columns' bounds follow from the dispatch bounds in closed form
(see `variable_bounds`), so no LP is solved for them; `lp_count` stays
the paper's accounting, two LPs per dispatch and per status column and
one per undecided row, and `lp_solved` counts the simplex runs actually
made.

The ensemble skips every LP whose answer a known point already gives
(the filtering rule of optimization-based bound tightening).  A bound
LP's optimum that attains another column's proven limit settles that
bound, and one that nearly meets or violates an undecided line row
proves the row is kept.  The points are the bound pass's optima, read
from the vertex store below, so the skips depend on the region, never
on `jobs`.

An undecided row that no point proves kept next faces a Lagrangian box
bound, the vertex pass's test applied to a_j - R^T y for multipliers
y >= 0 over the rows R p <= rhs (Neumaier & Shcherbina, 2004): the row
is redundant when y @ rhs + the box maximum of (a_j - R^T y) is at most
b_j - FEASIBILITY_TOL.  The multipliers tried are the balance pair's
knapsack break point and the duals the row prices at its start vertex
(see `lagrangian_certificates`).  A row that passes gets no LP; the
report keeps its y, over the instance's rows and zero on the generation
rows, as a certificate that one matrix-vector product checks.  It counts
as a line-flow verdict, so `lp_count` and the attribution are unchanged.

The ensemble also starts each LP it solves from the best vertex found
so far (the warm start of the same bound-tightening work).  One `eovl`
call keeps a vertex store: the optimal tableau of each distinct optimal
point its bound LPs reach.  An LP copies the stored tableau whose point
scores best on its objective, the earliest among ties, and runs phase 2
from it.  A bound round (one column, max and min) picks only from
earlier rounds' vertices and adds its own afterwards, in input order;
the line-flow pass picks from the finished store and adds nothing.  So
every start, like every skip, depends on the region alone.  While the
store is empty an LP starts from the projection's feasible basis
(`UcInstance.region_basis`), which is how S2, with no bound pass, runs
every LP: the tableau of the projection's own LP, which runs once per
instance, in the calling thread, when the first start is picked, and
counts its own pivots.  The store is freed when the call returns.
"""

from __future__ import annotations

import contextlib
import time
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ucscreen.lp import (
    FEASIBILITY_TOL,
    LpUsageError,
    SimplexError,
    Start,
    box_maximum,
    lagrangian_bound,
    solve_lp,
)
from ucscreen.model import RowLabel, UcInstance


# A known point attains a bound's proven limit within this share of
# max(1, |limit|).
ATTAIN_RTOL = 1e-9


class ScreeningInfeasibleError(RuntimeError):
    """The relaxed region is empty (typically a cost cut below any
    attainable cost); no screening verdict is possible."""


@dataclass(eq=False)
class BoundsBox:
    """Per-column bounds of the relaxed region, with provenance.

    `lp_count` is the paper's two bound LPs per column of provenance
    "lp_solved", dispatch and status; the field `lp_solved` counts those
    actually solved, which are dispatch columns' only.  Their optimal
    points live in the screen's vertex store."""

    lower: np.ndarray
    upper: np.ndarray
    provenance: tuple[str, ...]  # lp_solved | load_box | fixed_by_cut
    lp_solved: int = 0

    def __post_init__(self):
        if np.any(self.lower > self.upper):
            raise ScreeningInfeasibleError(
                "bounds box is empty (lower above upper)")

    @property
    def n_cols(self) -> int:
        return self.lower.size

    @property
    def lp_count(self) -> int:
        return 2 * self.provenance.count("lp_solved")


@dataclass(eq=False)
class ScreeningReport:
    """Verdict over the candidate set, with LP accounting; `box` is the
    vertex pass's bounds box, None when that pass did not run.

    `lp_count` is the paper's count of screening LPs, `lp_solved` the
    simplex runs actually made (at most `lp_count`).  `certificates` maps
    each row a Lagrangian box bound removed without its LP to the
    multipliers y that certify it (see `lagrangian_certificates`)."""

    candidates: tuple[RowLabel, ...]
    redundant: tuple[RowLabel, ...]
    lp_count: int = 0
    lp_solved: int = 0
    wall_times: dict[str, float] = field(default_factory=dict)
    attribution: dict[RowLabel, str] = field(default_factory=dict)
    omega: dict[RowLabel, float] = field(default_factory=dict)
    box: BoundsBox | None = None
    certificates: dict[RowLabel, np.ndarray] = field(default_factory=dict)

    @property
    def kept(self) -> tuple[RowLabel, ...]:
        """The candidates not certified redundant, in candidate order."""
        redundant = set(self.redundant)
        return tuple(lb for lb in self.candidates if lb not in redundant)

    def check_partition(self) -> None:
        """Redundant rows are candidates, so they and `kept` partition the
        candidates."""
        if not set(self.redundant) <= set(self.candidates):
            raise AssertionError("redundant rows outside the candidate set")


class _Vertices:
    """One screen's vertex store: the optimal tableau of each distinct
    optimal point (exact equality) its bound LPs reached over the
    instance's projection, in the order they were added."""

    def __init__(self, inst: UcInstance):
        self.inst = inst
        self.points = np.empty((0, inst.n_cols))
        self.tableaux: list = []

    def start(self, problem, keep: bool = False) -> Start:
        """A start at the stored vertex whose point scores best on the
        problem's objective, the earliest among ties; at the projection's
        feasible basis while the store is empty, whose own LP runs here,
        in the caller's thread, on the instance's first use."""
        if self.tableaux:
            score = self.points @ problem.objective
            best = score.argmax() if problem.sense == "max" else score.argmin()
            vertex = self.tableaux[best]
        else:
            vertex = self.inst.region_basis
        return Start(self.inst.projection, vertex, keep)

    def add(self, sol, start: Start) -> None:
        """Store the final tableau of a kept start whose LP reached an
        optimal point not stored yet."""
        if (sol.status != "optimal" or start.tableau is None
                or (self.points == sol.point).all(axis=1).any()):
            return
        self.points = np.concatenate([self.points, sol.point[None]])
        self.tableaux.append(start.tableau)


def _solve_many(vertices: _Vertices, problems, pool: Executor | None,
                keep: bool = False):
    """Solve LPs over the store's projection, each from its best stored
    vertex, on `pool` when one is given.  With `keep`, the LPs' optimal
    vertices join the store afterwards, in input order.  Starts are
    picked before any LP runs, and results are in input order, so
    nothing depends on the schedule."""
    starts = [vertices.start(p, keep) for p in problems]
    if pool is None or len(problems) <= 1:
        solutions = [solve_lp(p, st) for p, st in zip(problems, starts)]
    else:
        solutions = list(pool.map(solve_lp, problems, starts))
    if keep:
        for sol, st in zip(solutions, starts):
            vertices.add(sol, st)
    return solutions


def variable_bounds(inst: UcInstance, pool: Executor | None = None,
                    vertices: _Vertices | None = None) -> BoundsBox:
    """Tight per-variable bounds over the relaxed region.

    In the paper's accounting, dispatch and status columns each have two
    LPs (max and min), provenance "lp_solved"; load columns keep their
    bounds from the load box without solving, and so do status columns a
    commitment fix pins (lower bound equal to upper).

    Only the dispatch columns' LPs are solved, over the instance's
    projection (`UcInstance.projection`), where each runs phase 2 only.
    A status column's bounds are closed form: its generation rows give
    x / x_max <= u <= x / x_min, so over the region u lies in
    [max(u_lo, x_lo / x_max), min(u_hi, x_hi / x_min)], [x_lo, x_hi]
    being its unit's dispatch bounds; a zero x_max or x_min sets no limit.
    These are the bound LPs' optima over the region, in exact arithmetic.

    The LPs run in rounds of one column, in column order.  A side whose
    proven limit, its bound in the projection, an optimal point of an
    earlier round attains (within ATTAIN_RTOL relative) takes that limit
    without its LP.  Each LP starts from the vertex of an earlier round
    that scores best on its objective (the projection's feasible basis in
    the first round), and the round's optimal vertices join `vertices`, a
    new store when None, after the round.  Every bound LP starts from a
    tableau, as no dispatch column is ever fixed, so the store holds every
    earlier round's optimum, once.
    """
    if inst.binary_indices:
        raise LpUsageError("variable bounds expect a binary-relaxed instance")
    n, G = inst.n_cols, inst.n_gens
    lower, upper = inst.bounds.T.copy()
    provenance = tuple(
        "load_box" if p >= 2 * G
        else "fixed_by_cut" if lower[p] == upper[p] else "lp_solved"
        for p in range(n))
    region = inst.projection
    if vertices is None:
        vertices = _Vertices(inst)
    solved = 0

    for p in range(G):
        # Every dispatch column is "lp_solved" (x >= 0 is never fixed), and
        # the projection bounds it, so no LP is unbounded; a side takes its
        # limit when a point of an earlier round attains it.
        upper[p], lower[p] = limit = region.bounds[p, ::-1]
        attained = np.any(np.abs(vertices.points[:, p, None] - limit)
                          <= ATTAIN_RTOL * np.maximum(1.0, np.abs(limit)),
                          axis=0)
        sides = [side for side, hit in zip(("max", "min"), attained) if not hit]
        obj = np.zeros(n)
        obj[p] = 1.0
        solutions = _solve_many(
            vertices, [region.with_objective(obj, s) for s in sides], pool,
            keep=True)
        solved += len(sides)
        for side, sol in zip(sides, solutions):
            if sol.status != "optimal":
                raise ScreeningInfeasibleError(
                    "relaxed region is empty; bound LP infeasible "
                    f"for column {p} (bad cost cut?)")
            (upper if side == "max" else lower)[p] = sol.objective_value
    x_min, x_max = np.array([(g.x_min, g.x_max)
                             for g in inst.case.generators]).T
    x = np.flatnonzero(np.array(provenance[G:2 * G]) == "lp_solved")
    # A zero x_max or x_min makes a quotient NaN or inf: no limit.
    with np.errstate(divide="ignore", invalid="ignore"):
        lower[G + x] = np.fmax(lower[G + x], lower[x] / x_max[x])
        upper[G + x] = np.fmin(upper[G + x], upper[x] / x_min[x])
    # Both LPs of a column the region fixes can end an ulp on the wrong
    # side of each other; the box keeps both values rather than call a
    # region empty that has optimal points.
    lower, upper = np.minimum(lower, upper), np.maximum(lower, upper)
    return BoundsBox(lower, upper, provenance, lp_solved=solved)


def box_row_maximum(rows: np.ndarray, box: BoundsBox) -> np.ndarray:
    """Exact maximum of each row over the box: positive coefficients take
    the upper bound, negative the lower (the unit-step sign split)."""
    return box_maximum(rows, box.lower, box.upper)


def vgs_screen(inst: UcInstance, box: BoundsBox,
               candidates: tuple[RowLabel, ...] | None = None) -> ScreeningReport:
    """Vertex-guided pass: one matrix operation, zero LPs.

    omega_j is the box maximum of row j minus its bound; omega_j below
    the strict margin certifies redundancy, anything else stays undecided.
    """
    if box.n_cols != inst.n_cols:
        raise LpUsageError("bounds box does not match instance columns")
    if candidates is None:
        candidates = inst.candidates
    t0 = time.perf_counter()
    idx = inst.rows_of(candidates)
    omega = box_row_maximum(inst.rows[idx], box) - inst.rhs[idx]
    redundant = tuple(lb for lb, w in zip(candidates, omega)
                      if w < -FEASIBILITY_TOL)
    return ScreeningReport(
        candidates=tuple(candidates),
        redundant=redundant,
        wall_times={"vgs": time.perf_counter() - t0},
        attribution={lb: "vgs" for lb in redundant},
        omega={lb: float(w) for lb, w in zip(candidates, omega)},
        box=box,
    )


def lfgs_screen(inst: UcInstance, candidates: tuple[RowLabel, ...] | None = None,
                pool: Executor | None = None,
                vertices: _Vertices | None = None) -> ScreeningReport:
    """Line-flow-guided pass: per candidate, maximize the row over the
    instance's projection, where its maximum is the region's, and compare
    against its bound with the strict margin.

    The paper's LP drops the row itself; keeping it changes no verdict.
    If the maximum over the region is at most b_j - margin, it is also
    the maximum over the region less row j: a point of that larger region
    with a_j y > b_j would, on the segment to the optimum, give a point of
    the region with a_j y = b_j, by convexity.  Redundant either way.  If
    the maximum is above b_j - margin, so is the maximum over the larger
    region: kept either way.  So every LP runs phase 2 over the one
    projection, as the bound LPs do, from the finished bound pass's vertex
    that scores best on its row (`vertices`, read only), or from the
    projection's feasible basis when that store is None or empty.

    Since each LP keeps its own row, its maximum is at most b_j: a status
    other than optimal or infeasible is a solver fault, and raises
    SimplexError."""
    if candidates is None:
        candidates = inst.candidates
    for lb in candidates:
        if not lb.is_line:
            raise LpUsageError(f"screening candidate {lb} is not a line row")
    t0 = time.perf_counter()
    idx = inst.rows_of(candidates)
    problems = [inst.projection.with_objective(a, "max")
                for a in inst.rows[idx]]
    if vertices is None:
        vertices = _Vertices(inst)
    solutions = _solve_many(vertices, problems, pool)
    redundant = []
    for lb, sol, bound in zip(candidates, solutions, inst.rhs[idx]):
        if sol.status == "infeasible":
            raise ScreeningInfeasibleError(
                f"screening LP for {lb} infeasible; relaxed region is empty")
        if sol.status != "optimal":
            raise SimplexError(
                f"screening LP for {lb} ended {sol.status}, but its own row "
                "bounds its maximum")
        if sol.objective_value <= bound - FEASIBILITY_TOL:
            redundant.append(lb)
    return ScreeningReport(
        candidates=tuple(candidates),
        redundant=tuple(redundant),
        lp_count=len(candidates),
        lp_solved=len(candidates),
        wall_times={"lfgs": time.perf_counter() - t0},
        attribution={lb: "lfgs" for lb in redundant},
    )


def _unwitnessed(inst: UcInstance, points: np.ndarray,
                 candidates: tuple[RowLabel, ...]) -> tuple[RowLabel, ...]:
    """The candidates that no point of the projection proves kept.  A
    point p with rows[j] @ p > rhs[j] - FEASIBILITY_TOL proves row j
    kept: the row's maximum over the region is at least rows[j] @ p, as
    the row reads no status."""
    if not (len(points) and candidates):
        return candidates
    idx = inst.rows_of(candidates)
    best = np.max(inst.rows[idx] @ points.T, axis=1)
    witnessed = best > inst.rhs[idx] - FEASIBILITY_TOL
    return tuple(lb for lb, w in zip(candidates, witnessed) if not w)


def balance_multiplier(rows: np.ndarray, balance: np.ndarray, total: float,
                       lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """For each of the (K, n) `rows`, the multiplier lam on the equality
    balance @ p = total that minimizes the knapsack bound

        lam * total + box maximum of (rows[k] - lam * balance)

    over the box lower <= p <= upper.  The bound is convex and piecewise
    linear in lam, with a break at rows[k, i] / balance[i] for every
    column the balance touches.  Its slope starts at total minus the box
    maximum of balance, at most 0 when the box meets the equality, and
    rises at each break by |balance[i]| (upper[i] - lower[i]).  The least
    break at which the slope reaches 0, the weighted median, is a
    minimizer: the break point of the continuous knapsack (Dantzig, 1957).
    One sort per row, in O(K n) memory; an infinite side weighs +inf and
    yields no NaN."""
    cols = np.nonzero(balance)[0]
    if cols.size == 0:
        return np.zeros(rows.shape[0])
    breaks = rows[:, cols] / balance[cols]
    order = np.argsort(breaks, axis=1, kind="stable")
    width = np.abs(balance[cols]) * (upper[cols] - lower[cols])
    rise = np.cumsum(width[order], axis=1)
    need = box_maximum(balance[None], lower, upper)[0] - total
    first = np.minimum(np.sum(rise < need, axis=1), cols.size - 1)
    k = np.arange(rows.shape[0])
    return breaks[k, order[k, first]]


def lagrangian_certificates(inst: UcInstance, box: BoundsBox,
                            candidates: tuple[RowLabel, ...],
                            vertices: _Vertices) -> dict[RowLabel, np.ndarray]:
    """The candidates a Lagrangian box bound proves redundant, each with
    its certificate: {label: y}, y >= 0 over the instance's rows, zero on
    the generation rows, with

        y @ rhs + box maximum of (a_j - y @ rows) <= b_j - FEASIBILITY_TOL.

    For any y >= 0 the left side bounds a_j p over the region, since the
    box holds the region, so the row's LP would find it redundant too.
    With y = 0 it is the vertex pass's test.  Two multipliers are tried
    per row, in this order, and the first that passes is the certificate:

    * lam on the balance pair, from `balance_multiplier` (y on
      balance_le is max(lam, 0), on balance_ge max(-lam, 0));
    * the duals that the row's objective prices at the stored vertex
      scoring best on the row (`_Tableau.row_duals`), one matrix product
      per vertex over the rows that pick it; they are over the
      projection's rows, which are the instance's less its generation
      rows.

    Both depend on the region and the finished bound pass alone."""
    if not candidates:
        return {}
    idx = inst.rows_of(candidates)
    rows, limit = inst.rows[idx], inst.rhs[idx] - FEASIBILITY_TOL
    lo, hi = box.lower, box.upper
    y = np.zeros((idx.size, inst.rows.shape[0]))

    pair = inst.rows_of((RowLabel("balance_le"), RowLabel("balance_ge")))
    lam = balance_multiplier(rows, inst.rows[pair[0]], inst.rhs[pair[0]],
                             lo, hi)
    y[:, pair] = np.column_stack([np.maximum(lam, 0.0), np.maximum(-lam, 0.0)])
    ok = lagrangian_bound(rows, y[:, pair], inst.rows[pair], inst.rhs[pair],
                          lo, hi) <= limit

    rest = np.nonzero(~ok)[0]
    if vertices.tableaux and rest.size:
        pick = np.argmax(vertices.points @ rows[rest].T, axis=0)
        kept = inst.projected_rows
        for v in sorted(set(pick.tolist())):
            group = rest[pick == v]
            y[np.ix_(group, kept)] = vertices.tableaux[v].row_duals(
                -rows[group], kept.size)
        ok[rest] = lagrangian_bound(rows[rest], y[rest], inst.rows, inst.rhs,
                                    lo, hi) <= limit[rest]
    certified = y[ok]
    return dict(zip((lb for lb, k in zip(candidates, ok) if k), certified))


def eovl(inst: UcInstance, *, use_vgs: bool = True, use_lfgs: bool = True,
         jobs: int = 1) -> ScreeningReport:
    """Ensemble: variable bounds, vertex-guided pass, then the line-flow
    pass on whatever the matrix test left undecided.

    Either phase can be switched off: vgs-only realizes scheme S1
    (undecided rows are conservatively kept), lfgs-only realizes S2, which
    solves every candidate's LP.  With both on, an undecided row that an
    optimal point of the bound pass proves kept gets no LP, and neither
    does one that `lagrangian_certificates` proves redundant.
    The result is the vertex pass's report with the line-flow pass
    folded in; it carries the box whenever the vertex pass ran.  With
    `jobs` > 1 both passes run their LPs on one pool of that many threads.

    Both passes solve their LPs over the instance's projection and share
    one vertex store, which the bound pass fills and the line-flow pass
    only reads; it is freed when the call returns.
    """
    if inst.binary_indices:
        raise LpUsageError("screening expects a binary-relaxed instance")
    vertices = _Vertices(inst)
    with (ThreadPoolExecutor(max_workers=jobs) if jobs > 1
          else contextlib.nullcontext()) as pool:
        if use_vgs:
            t0 = time.perf_counter()
            box = variable_bounds(inst, pool, vertices)
            bounds_s = time.perf_counter() - t0
            report = vgs_screen(inst, box)
            report.lp_count, report.lp_solved = box.lp_count, box.lp_solved
            report.wall_times["bounds"] = bounds_s
        else:
            report = ScreeningReport(candidates=inst.candidates, redundant=())

        undecided = report.kept
        if use_lfgs and undecided:
            t0 = time.perf_counter()
            rest = undecided
            if report.box is not None:
                rest = _unwitnessed(inst, vertices.points, undecided)
                report.certificates = lagrangian_certificates(
                    inst, report.box, rest, vertices)
                rest = tuple(lb for lb in rest
                             if lb not in report.certificates)
            part = lfgs_screen(inst, rest, pool, vertices)
            report.attribution.update(
                (lb, "lfgs") for lb in report.certificates)
            report.attribution.update(part.attribution)
            report.redundant = tuple(lb for lb in report.candidates
                                     if lb in report.attribution)
            report.lp_count += len(undecided)
            report.lp_solved += part.lp_solved
            report.wall_times["lfgs"] = time.perf_counter() - t0
    report.check_partition()
    return report


def reduce_model(full: UcInstance, redundant) -> UcInstance:
    """Delete certified-redundant line rows; all other labels survive.
    Raises LpUsageError for a label that is not a line row of `full`."""
    redundant = tuple(redundant)
    for lb in redundant:
        if not lb.is_line:
            raise LpUsageError(f"refusing to delete non-line row {lb}")
    return full.without_rows(redundant)
