"""Dense LP and branch-and-bound MILP solvers.

The LP solver is a two-phase tableau simplex over problems of the form

    min/max  c @ y   subject to   A @ y <= b,   lo <= y <= hi

with infinite bounds allowed.  Pivoting uses Dantzig's rule and falls back
to Bland's rule after a stall, which guarantees termination on degenerate
instances.  Everything is deterministic: identical input bytes produce
identical output bytes, which the screening reports rely on.

Phase 1 depends on the region only, never on the objective.  Screening
solves many LPs over one region, or over that region less one row, so
an `LpStart` runs phase 1 once per region and each LP given the start
copies its feasible tableau and runs phase 2 alone.  Every such LP starts
from the same basis, so results do not depend on the order or the thread
the LPs run in.  Without a start, `solve_lp` runs both phases itself, as
the brute-force oracles do.

The MILP solver runs best-first branch and bound on LP relaxations,
branching on the lowest-index fractional binary, down-branch first.
A branch changes only bounds, so every node shares one standard form in
which each binary's bounds are two rows, and a `NodeStart` solves each
child from its parent's optimal tableau by dual simplex pivots; only the
root solves cold.  The point and cost returned come from one more cold
LP with every binary fixed at the incumbent's value, so they depend on
the commitment chosen and not on the path the tree took to it.
"""

from __future__ import annotations

import copy
import heapq
import threading
from dataclasses import dataclass

import numpy as np

# Shared numerical tolerances.  Screening reuses FEASIBILITY_TOL as the
# strict-inequality margin when comparing flow maxima to line limits.
FEASIBILITY_TOL = 1e-7
OPTIMALITY_TOL = 1e-9
INTEGRALITY_TOL = 1e-6

_PIVOT_TOL = 1e-9
_RATIO_TOL = 1e-10
_STALL_LIMIT = 60
_MAX_ITER = 100_000
# Dual simplex pivots a node may take from its parent's basis before it
# solves cold.  Children rarely need more than a few dozen; a run far past
# that is cycling or creeping through degenerate pivots.
_DUAL_PIVOT_LIMIT = 200


class LpUsageError(ValueError):
    """Malformed problem data: dimension mismatch, inverted bounds, ..."""


class SimplexError(RuntimeError):
    """Simplex iteration cap reached; indicates numerical breakdown."""


class NodeLimitExceeded(RuntimeError):
    """Branch-and-bound node budget exhausted.

    Carries the best incumbent found so far (may be None) and the best
    lower bound among open nodes.
    """

    def __init__(self, message: str, incumbent=None, bound: float | None = None):
        super().__init__(message)
        self.incumbent = incumbent
        self.bound = bound


def _as_bounds_array(bounds, n: int) -> np.ndarray:
    """Normalize bounds input to an (n, 2) float array with +-inf fill."""
    out = np.empty((n, 2), dtype=float)
    if bounds is None:
        out[:, 0] = -np.inf
        out[:, 1] = np.inf
        return out
    pairs = list(bounds)
    if len(pairs) != n:
        raise LpUsageError(f"expected {n} bound pairs, got {len(pairs)}")
    for p, (lo, hi) in enumerate(pairs):
        out[p, 0] = -np.inf if lo is None else float(lo)
        out[p, 1] = np.inf if hi is None else float(hi)
    return out


@dataclass
class LpProblem:
    """min or max `objective @ y` s.t. `rows @ y <= rhs`, `lo <= y <= hi`."""

    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    bounds: np.ndarray | None = None
    sense: str = "min"

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float).ravel()
        n = self.objective.size
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.size == 0:
            self.rows = self.rows.reshape(0, n)
        if self.rows.ndim != 2 or self.rows.shape[1] != n:
            raise LpUsageError(
                f"rows shape {self.rows.shape} incompatible with {n} variables"
            )
        self.rhs = np.asarray(self.rhs, dtype=float).ravel()
        if self.rhs.size != self.rows.shape[0]:
            raise LpUsageError(
                f"rhs length {self.rhs.size} != row count {self.rows.shape[0]}"
            )
        self.bounds = _as_bounds_array(self.bounds, n)
        if np.any(self.bounds[:, 0] > self.bounds[:, 1]):
            bad = int(np.nonzero(self.bounds[:, 0] > self.bounds[:, 1])[0][0])
            raise LpUsageError(f"variable {bad} has lower bound above upper bound")
        if self.sense not in ("min", "max"):
            raise LpUsageError(f"sense must be 'min' or 'max', got {self.sense!r}")

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True)
class LpSolution:
    """Solver verdict.  point/objective_value are None unless optimal.

    row_duals holds one multiplier (>= 0) per input row, taken from the
    final simplex basis; dual_bound is the Lagrangian bound they certify,
    which equals objective_value at an exact optimum.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    objective_value: float | None
    point: np.ndarray | None
    row_duals: np.ndarray | None = None
    dual_bound: float | None = None
    iterations: int = 0
    nodes: int = 0


@dataclass
class MilpProblem:
    """An LpProblem plus indices of variables restricted to {0, 1}."""

    lp: LpProblem
    binary_indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.binary_indices))
        if len(set(idx)) != len(idx):
            raise LpUsageError("duplicate binary indices")
        n = self.lp.n_vars
        for i in idx:
            if not 0 <= i < n:
                raise LpUsageError(f"binary index {i} out of range for {n} variables")
            lo, hi = self.lp.bounds[i]
            if lo < -INTEGRALITY_TOL or hi > 1 + INTEGRALITY_TOL:
                raise LpUsageError(
                    f"binary variable {i} must have bounds within [0, 1], "
                    f"got [{lo}, {hi}]"
                )
        self.binary_indices = idx


class _Tableau:
    """Two-phase dense simplex working state for min c'z, A z <= b, z >= 0.

    Columns are the ns structural columns, one slack per row (slack ns + i
    belongs to row i), the artificials until phase 1 drops them, and the
    right-hand side last.  `cols` and `base` map z back to the problem's
    variables (see `_standard_rows`).
    """

    def __init__(self, rows: np.ndarray, rhs: np.ndarray, cols, base):
        m, ns = rows.shape
        sigma = np.where(rhs >= 0.0, 1.0, -1.0)
        art_rows = np.nonzero(sigma < 0)[0]
        na = art_rows.size
        width = ns + m + na + 1
        T = np.zeros((m, width))
        T[:, :ns] = rows * sigma[:, None]
        T[np.arange(m), ns + np.arange(m)] = sigma
        T[art_rows, ns + m + np.arange(na)] = 1.0
        T[:, -1] = rhs * sigma
        basis = ns + np.arange(m)
        basis[art_rows] = ns + m + np.arange(na)
        self.T = T
        self.basis = basis
        self.cols = cols
        self.base = base
        self.ns = ns
        self.m = m
        self.na = na
        self.iterations = 0

    def copy(self) -> "_Tableau":
        """An independent copy with a fresh pivot count."""
        out = copy.copy(self)
        out.T = self.T.copy()
        out.basis = self.basis.copy()
        out.iterations = 0
        return out

    def _zrow(self, cost: np.ndarray) -> np.ndarray:
        """Reduced costs, and minus the objective last, for `cost` over
        the leading columns and zero over the rest."""
        z = np.concatenate([cost, np.zeros(self.T.shape[1] - cost.size)])
        cb = z[self.basis]
        if np.any(cb != 0.0):
            z -= cb @ self.T
        return z

    def _pivot(self, zrow: np.ndarray, row: int, col: int) -> None:
        T = self.T
        piv = T[row, col]
        T[row] /= piv
        colvals = T[:, col].copy()
        colvals[row] = 0.0
        T -= np.outer(colvals, T[row])
        zrow -= zrow[col] * T[row]
        self.basis[row] = col
        self.iterations += 1

    def _leaving_row(self, col: int, bland: bool = False) -> int | None:
        """Ratio test for entering column `col`; None when no entry of the
        column is positive, so nothing limits its increase."""
        T = self.T
        colvals = T[:, col]
        pos = colvals > _RATIO_TOL
        if not np.any(pos):
            return None
        ratios = np.full(self.m, np.inf)
        ratios[pos] = T[pos, -1] / colvals[pos]
        rmin = ratios.min()
        ties = np.nonzero(ratios <= rmin + 1e-12)[0]
        if bland and ties.size > 1:
            return int(ties[np.argmin(self.basis[ties])])
        return int(ties[0])

    def _iterate(self, zrow: np.ndarray, active: int) -> str:
        """Run pivots until optimal/unbounded over the first `active` columns."""
        stall = 0
        last_obj = -zrow[-1]
        bland = False
        while True:
            if self.iterations > _MAX_ITER:
                raise SimplexError("simplex iteration limit exceeded")
            rc = zrow[:active]
            if bland:
                neg = np.nonzero(rc < -_PIVOT_TOL)[0]
                if neg.size == 0:
                    return "optimal"
                col = int(neg[0])
            else:
                col = int(np.argmin(rc))
                if rc[col] >= -_PIVOT_TOL:
                    return "optimal"
            row = self._leaving_row(col, bland)
            if row is None:
                return "unbounded"
            self._pivot(zrow, row, col)
            obj = -zrow[-1]
            if obj < last_obj - 1e-12:
                stall = 0
                last_obj = obj
            else:
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True

    def dual_simplex(self, zrow: np.ndarray, limit: int) -> str:
        """Pivot a dual-feasible basis to primal feasibility.

        Each pivot leaves on the most negative basic value and enters by
        the dual ratio test, which keeps every reduced cost >= 0.  Returns
        "feasible", "infeasible" when a negative row has no negative entry
        (no z >= 0 satisfies it), or "limit" when `limit` pivots did not
        suffice.
        """
        T = self.T
        pivots = 0
        while True:
            row = int(np.argmin(T[:, -1]))
            if T[row, -1] >= -_PIVOT_TOL:
                return "feasible"
            entries = T[row, :-1]
            cand = np.nonzero(entries < -_PIVOT_TOL)[0]
            if cand.size == 0:
                return "infeasible"
            if pivots == limit:
                return "limit"
            ratios = np.maximum(zrow[cand], 0.0) / -entries[cand]
            self._pivot(zrow, row, int(cand[np.argmin(ratios)]))
            pivots += 1

    def phase_one(self) -> bool:
        """Reach a feasible basis; False when the region is empty."""
        ns, m, na = self.ns, self.m, self.na
        if na > 0:
            p1_cost = np.zeros(ns + m + na)
            p1_cost[ns + m :] = 1.0
            zrow = self._zrow(p1_cost)
            status = self._iterate(zrow, ns + m)  # artificials never re-enter
            assert status == "optimal"  # phase-1 objective bounded below by 0
            if -zrow[-1] > FEASIBILITY_TOL:
                return False
            self._drive_out_artificials()
        return True

    def phase_two(self, c: np.ndarray) -> str:
        """Minimize c'z from the current feasible basis."""
        zrow = self._zrow(c)
        self._z = zrow
        # all non-rhs columns may enter (slack indices do not shift when
        # dependent rows are dropped, so ns + self.m would undercount)
        return self._iterate(zrow, self.T.shape[1] - 1)

    def drop_row(self, i: int) -> bool:
        """Delete input row i from a feasible tableau; it stays feasible.

        Row i's slack must be basic: it is the only variable of its
        tableau row, so that row and the slack's column drop out and the
        other rows no longer involve row i.  A nonbasic slack enters first
        by one ratio-test pivot.  That pivot finds no leaving row only when
        the region is unbounded in the direction that loosens row i; then
        nothing changes and the result is False.
        """
        col = self.ns + i
        at = np.nonzero(self.basis == col)[0]
        if at.size:
            row = int(at[0])
        else:
            row = self._leaving_row(col)
            if row is None:
                return False
            self._pivot(np.zeros(self.T.shape[1]), row, col)
        keep_rows = np.arange(self.m) != row
        keep_cols = np.arange(self.T.shape[1]) != col
        self.T = self.T[np.ix_(keep_rows, keep_cols)]
        self.basis = self.basis[keep_rows]
        self.basis[self.basis > col] -= 1
        self.m -= 1
        return True

    def m_active_width(self) -> int:
        return self.T.shape[1] - self.ns - 1

    def _drive_out_artificials(self) -> None:
        """Pivot basic artificials out; drop dependent rows and art columns."""
        ns, m = self.ns, self.m
        art_start = ns + m
        drop_rows = []
        for row in range(self.m):
            if self.basis[row] < art_start:
                continue
            cand = np.nonzero(np.abs(self.T[row, : art_start]) > 1e-9)[0]
            if cand.size == 0:
                drop_rows.append(row)
                continue
            col = int(cand[0])
            dummy = np.zeros(self.T.shape[1])
            self._pivot(dummy, row, col)
        if drop_rows:
            keep = np.setdiff1d(np.arange(self.m), drop_rows)
            self.T = self.T[keep]
            self.basis = self.basis[keep]
            self.m = keep.size
        # Remove artificial columns entirely so they can never re-enter.
        self.T = np.concatenate([self.T[:, :art_start], self.T[:, -1:]], axis=1)

    def extract(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (standard-form solution, reduced-cost row)."""
        x = np.zeros(self.ns + self.m_active_width())
        inb = self.basis < x.size
        x[self.basis[inb]] = self.T[inb, -1]
        return x, self._z


def _standard_rows(rows, rhs, lo, hi):
    """Rewrite rows @ y <= rhs, lo <= y <= hi as A z <= b, z >= 0.

    Returns A, b and the recovery data: y = base plus, over the columns
    (sign, j) of `cols`, +z or -z added to y[j].  Rows keep their order;
    finite upper bounds of shifted variables become extra rows after them.
    """
    n = rows.shape[1]
    fixed = lo == hi
    free = np.isinf(lo) & np.isinf(hi)
    mirrored = np.isinf(lo) & ~np.isinf(hi) & ~fixed
    shifted = ~fixed & ~free & ~mirrored  # finite lower bound

    cols = []  # (kind, var index) per standard-form column
    for j in range(n):
        if fixed[j]:
            continue
        if shifted[j]:
            cols.append(("+", j))
        elif mirrored[j]:
            cols.append(("-", j))
        else:
            cols.append(("+", j))
            cols.append(("-", j))
    ns = len(cols)
    A = np.zeros((rows.shape[0], ns))
    base = np.where(fixed | shifted, np.where(np.isfinite(lo), lo, 0.0), 0.0)
    base = np.where(mirrored, hi, base)
    for k, (sign, j) in enumerate(cols):
        s = 1.0 if sign == "+" else -1.0
        A[:, k] = s * rows[:, j]
    b = rhs - rows @ base

    # Finite upper bounds of shifted variables become extra rows.
    ub_rows = []
    ub_vals = []
    for k, (sign, j) in enumerate(cols):
        if sign == "+" and shifted[j] and np.isfinite(hi[j]):
            r = np.zeros(ns)
            r[k] = 1.0
            ub_rows.append(r)
            ub_vals.append(hi[j] - lo[j])
    if ub_rows:
        A = np.vstack([A, np.array(ub_rows)])
        b = np.concatenate([b, np.array(ub_vals)])
    return A, b, cols, base


def _standard_cost(c: np.ndarray, cols) -> np.ndarray:
    """The objective over the standard-form columns of `_standard_rows`."""
    return np.array([c[j] if sign == "+" else -c[j] for sign, j in cols],
                    dtype=float)


class _PhaseOne:
    """Phase 1 of one region: run at most once, by the first caller."""

    def __init__(self, region: LpProblem):
        self.region = region
        self.lock = threading.Lock()
        self.ran = False
        self.empty = False  # phase 1 proved the region empty
        self.tableau: _Tableau | None = None  # feasible basis, when found

    def run(self) -> int:
        """Run phase 1 unless a caller already has; the pivots it made."""
        with self.lock:
            if self.ran:
                return 0
            self.ran = True
            r = self.region
            A, b, cols, base = _standard_rows(
                r.rows, r.rhs, r.bounds[:, 0], r.bounds[:, 1])
            if A.shape[1] == 0:
                return 0  # every variable fixed: solve_lp checks directly
            tab = _Tableau(A, b, cols, base)
            if tab.phase_one():
                self.tableau = tab
            else:
                self.empty = True
            return tab.iterations


class LpStart:
    """A feasible basis of one region, found by a single phase 1.

    The region is the rows, right-hand side and bounds of `region`; its
    objective and sense play no part.  `solve_lp(problem, start)` takes a
    problem over exactly that region, with any objective, and the start
    from `without_row(i)` takes the region less its row i.  Phase 1 runs
    inside the first solve_lp call that needs it, which counts its pivots
    among its own, and is shared read-only by every start made from this
    one, across threads.
    """

    def __init__(self, region: LpProblem):
        self.region = region
        self.skip: int | None = None  # region row absent from the problem
        self._phase_one = _PhaseOne(region)

    def without_row(self, i: int) -> "LpStart":
        """This start for the region without its row i."""
        if self.skip is not None or not 0 <= i < self.region.n_rows:
            raise LpUsageError(f"cannot drop row {i} from this start")
        out = copy.copy(self)  # shares the phase-1 state
        out.skip = i
        return out

    def _check(self, problem: LpProblem) -> None:
        r = self.region
        rows, rhs = r.rows, r.rhs
        if self.skip is not None:
            keep = np.arange(r.n_rows) != self.skip
            rows, rhs = rows[keep], rhs[keep]
        if not (np.array_equal(problem.rows, rows)
                and np.array_equal(problem.rhs, rhs)
                and np.array_equal(problem.bounds, r.bounds)):
            raise LpUsageError("LP start was built for a different region")

    def _warm(self, problem: LpProblem, c: np.ndarray):
        """(pivots, tableau) for solve_lp: a private feasible tableau for
        the problem, "infeasible", or None where the shared basis cannot
        give one and the LP must be solved cold."""
        self._check(problem)
        pivots = self._phase_one.run()
        if self._phase_one.empty and self.skip is None:
            return pivots, "infeasible"
        shared = self._phase_one.tableau
        if shared is None:
            return pivots, None
        tab = shared.copy()
        if self.skip is not None and not tab.drop_row(self.skip):
            return pivots, None
        return pivots, tab


class NodeStart:
    """Start of one branch-and-bound node LP: the tree's standard form and
    the optimal tableau of the node's parent.

    Every node LP of `milp` shares its rows, right-hand side and the bounds
    of its non-binary variables; only the binaries' bounds differ.  So the
    whole tree has one standard form in which each binary that `milp` does
    not fix keeps its column and gets an upper-bound row and a lower-bound
    row, and a node's bounds change only those rows' right-hand sides.
    The root solves cold.  A child applies the change to its parent's
    optimal tableau, whose basis stays dual feasible, and runs dual simplex
    pivots to primal feasibility; after _DUAL_PIVOT_LIMIT of them it solves
    cold in the same form.  A start serves one solve_lp call, which keeps
    the node's final tableau for the starts that `child()` makes; the two
    children of a node share that tableau read-only.
    """

    def __init__(self, milp: MilpProblem):
        region = milp.lp
        lo, hi = region.bounds[:, 0], region.bounds[:, 1]
        self.region = region
        self.binary = np.zeros(region.n_vars, dtype=bool)
        self.binary[list(milp.binary_indices)] = True
        self.branch = np.nonzero(self.binary & (lo < hi))[0]
        open_hi = hi.copy()
        open_hi[self.branch] = np.inf  # bound rows are added below
        A, b, self.cols, self.base = _standard_rows(
            region.rows, region.rhs, lo, open_hi)
        self.first_bound_row = A.shape[0]
        unit = np.zeros((self.branch.size, A.shape[1]))
        unit[np.arange(self.branch.size),
             [self.cols.index(("+", j)) for j in self.branch]] = 1.0
        self.A = np.vstack([A, unit, -unit])
        self.b = b
        self._parent = None  # (tableau, bound-row rhs) of the parent
        self._solved = None  # the same for this node, once solved

    def child(self) -> "NodeStart":
        """A start for a child of this node, once solve_lp has solved it."""
        out = copy.copy(self)  # shares the standard form
        out._parent, out._solved = self._solved, None
        return out

    def _check(self, problem: LpProblem) -> None:
        r = self.region
        lo, hi = problem.bounds[:, 0], problem.bounds[:, 1]
        inside = (lo >= r.bounds[:, 0]) & (hi <= r.bounds[:, 1])
        same = np.all(problem.bounds == r.bounds, axis=1)
        if not (np.array_equal(problem.rows, r.rows)
                and np.array_equal(problem.rhs, r.rhs)
                and np.all(np.where(self.binary, inside, same))):
            raise LpUsageError("node start was built for a different region")

    def _warm(self, problem: LpProblem, c: np.ndarray):
        """(pivots, tableau) for solve_lp, as `LpStart._warm`; a pivot
        count outside the tableau's own is dual pivots given up on."""
        self._check(problem)
        if self.A.shape[1] == 0:
            return 0, None  # every variable fixed: solve_lp checks directly
        lo0 = self.region.bounds[self.branch, 0]
        rhs = np.concatenate([problem.bounds[self.branch, 1] - lo0,
                              lo0 - problem.bounds[self.branch, 0]])
        pivots, tab = 0, None
        if self._parent is not None:
            parent, parent_rhs = self._parent
            self._parent = None
            tab = parent.copy()
            delta = rhs - parent_rhs
            moved = np.nonzero(delta)[0]
            slack = tab.ns + self.first_bound_row + moved
            tab.T[:, -1] += tab.T[:, slack] @ delta[moved]
            verdict = tab.dual_simplex(
                tab._zrow(_standard_cost(c, self.cols)), _DUAL_PIVOT_LIMIT)
            if verdict == "infeasible":
                return tab.iterations, "infeasible"
            if verdict == "limit":
                pivots, tab = tab.iterations, None
        if tab is None:
            tab = _Tableau(self.A, np.concatenate([self.b, rhs]),
                           self.cols, self.base)
            if not tab.phase_one():
                return pivots + tab.iterations, "infeasible"
        self._solved = (tab, rhs)  # phase 2 in solve_lp finishes it in place
        return pivots, tab


def solve_lp(problem: LpProblem,
             start: LpStart | NodeStart | None = None) -> LpSolution:
    """Solve an LP; exact status classification, deterministic output.

    With an `LpStart` over the problem's region, the LP runs phase 2 from
    the start's shared basis.  It solves cold where that basis cannot
    serve: the region is empty but the dropped row may be the cause, or
    the region is unbounded in the direction that loosens the dropped row.
    With a `NodeStart`, the LP is one node of a branch-and-bound tree.
    """
    n = problem.n_vars
    m = problem.n_rows
    lo = problem.bounds[:, 0].copy()
    hi = problem.bounds[:, 1].copy()
    c = problem.objective.copy()
    flip = problem.sense == "max"
    if flip:
        c = -c

    pivots = 0  # the start's pivots outside the tableau it gives
    tab = None
    if start is not None:
        pivots, tab = start._warm(problem, c)
        if tab == "infeasible":
            return LpSolution("infeasible", None, None, iterations=pivots)
    if tab is None:
        A, b, cols, base = _standard_rows(problem.rows, problem.rhs, lo, hi)
        if A.shape[1] == 0:
            # All variables fixed: feasibility is a direct check.
            if np.any(b < -FEASIBILITY_TOL):
                return LpSolution("infeasible", None, None, iterations=pivots)
            point = base.copy()
            obj = float(problem.objective @ point)
            return LpSolution("optimal", obj, point, row_duals=np.zeros(m),
                              dual_bound=obj, iterations=pivots)
        tab = _Tableau(A, b, cols, base)
        if not tab.phase_one():
            return LpSolution("infeasible", None, None,
                              iterations=pivots + tab.iterations)

    cols, base = tab.cols, tab.base
    status = tab.phase_two(_standard_cost(c, cols))
    iterations = pivots + tab.iterations
    if status == "unbounded":
        return LpSolution("unbounded", None, None, iterations=iterations)

    xstd, zrow = tab.extract()
    point = base.copy()
    for k, (sign, j) in enumerate(cols):
        point[j] += xstd[k] if sign == "+" else -xstd[k]

    obj_internal = float(c @ point)
    # Row duals are the reduced costs of the original rows' slack columns.
    # Rows dropped as dependent during phase 1 keep a zero multiplier.
    duals = np.zeros(m)
    slack_cols = np.arange(tab.ns, tab.ns + tab.m_active_width())
    slack_rc = zrow[slack_cols]
    duals[:m] = np.maximum(slack_rc[:m], 0.0)

    # Lagrangian bound from the duals: exact at an exact optimum, and
    # independent of the standard-form transformations above.
    r = c + problem.rows.T @ duals
    scale = max(1.0, float(np.max(np.abs(c))) if c.size else 1.0)
    r = np.where(np.abs(r) <= 1e-9 * scale, 0.0, r)
    terms = np.zeros_like(r)
    terms[r > 0] = r[r > 0] * lo[r > 0]
    terms[r < 0] = r[r < 0] * hi[r < 0]
    dual_internal = float(-duals @ problem.rhs + np.sum(terms))

    obj = -obj_internal if flip else obj_internal
    dual_bound = -dual_internal if flip else dual_internal
    return LpSolution(
        "optimal",
        obj,
        point,
        row_duals=duals,
        dual_bound=dual_bound,
        iterations=iterations,
    )


def _with_bounds(lp: LpProblem, bounds: np.ndarray) -> LpProblem:
    return LpProblem(lp.objective, lp.rows, lp.rhs, bounds=bounds.copy(),
                     sense="min")


def solve_milp(problem: MilpProblem, *, node_limit: int = 100_000) -> LpSolution:
    """Globally optimal best-first branch and bound over the binaries.

    Branching is deterministic: lowest fractional index first, down-branch
    explored first among equal bounds.  Each node LP runs through solve_lp
    with a `NodeStart`.  The point and objective returned are those of a
    cold LP with every binary fixed at the incumbent's value; `iterations`
    counts the pivots of every LP solved, that one included.
    """
    nbin = len(problem.binary_indices)
    if nbin > 60:
        raise LpUsageError(f"binary count {nbin} exceeds the desk-scale guard (60)")
    lp = problem.lp
    flip = lp.sense == "max"
    cmin = -lp.objective if flip else lp.objective
    base = LpProblem(cmin, lp.rows, lp.rhs, bounds=lp.bounds.copy(), sense="min")
    bidx = np.array(problem.binary_indices, dtype=int)

    def fractional(point: np.ndarray) -> np.ndarray:
        vals = point[bidx]
        return bidx[np.abs(vals - np.round(vals)) > INTEGRALITY_TOL]

    best_obj = np.inf
    best: LpSolution | None = None
    nodes = 0
    pivots = 0
    seq = 0
    heap: list[tuple[float, int, np.ndarray, NodeStart]] = []
    heapq.heappush(heap, (-np.inf, seq, base.bounds.copy(),
                          NodeStart(MilpProblem(base, problem.binary_indices))))
    seeded = False

    while heap:
        est, _, bnds, node = heapq.heappop(heap)
        if est >= best_obj - OPTIMALITY_TOL * max(1.0, abs(best_obj)):
            continue
        if nodes >= node_limit:
            raise NodeLimitExceeded(
                f"node limit {node_limit} exceeded",
                incumbent=best,
                bound=min(est, best_obj),
            )
        nodes += 1
        sol = solve_lp(_with_bounds(base, bnds), node)
        pivots += sol.iterations
        if sol.status == "infeasible":
            continue
        if sol.status == "unbounded":
            return LpSolution("unbounded", None, None, iterations=pivots,
                              nodes=nodes)
        val = sol.objective_value
        if val >= best_obj - OPTIMALITY_TOL * max(1.0, abs(best_obj)):
            continue
        frac = fractional(sol.point)
        if frac.size == 0:
            best_obj = val
            best = sol
            continue
        if not seeded:
            # Round-up heuristic: commit every fractionally-active binary.
            seeded = True
            hb = bnds.copy()
            for i in bidx:
                v = 1.0 if sol.point[i] > INTEGRALITY_TOL else 0.0
                hb[i] = (v, v)
            hsol = solve_lp(_with_bounds(base, hb), node.child())
            pivots += hsol.iterations
            if hsol.status == "optimal" and fractional(hsol.point).size == 0:
                if hsol.objective_value < best_obj:
                    best_obj = hsol.objective_value
                    best = hsol
        var = int(frac[0])
        for v in (0.0, 1.0):  # down-branch first
            child = bnds.copy()
            child[var] = (v, v)
            seq += 1
            heapq.heappush(heap, (val, seq, child, node.child()))

    if best is None:
        return LpSolution("infeasible", None, None, iterations=pivots,
                          nodes=nodes)
    fixed = base.bounds.copy()
    fixed[bidx] = (best.point[bidx] > 0.5)[:, None].astype(float)
    final = solve_lp(_with_bounds(base, fixed))
    pivots += final.iterations
    if final.status == "optimal":
        best = final
    obj = best.objective_value
    return LpSolution("optimal", -obj if flip else obj, best.point,
                      iterations=pivots, nodes=nodes)
