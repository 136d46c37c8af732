"""Dense LP and branch-and-bound MILP solvers.

The LP solver is a two-phase tableau simplex over problems of the form

    min/max  c @ y   subject to   A @ y <= b,   lo <= y <= hi

with infinite bounds allowed.  Pivoting uses Dantzig's rule and falls back
to Bland's rule after a stall, which guarantees termination on degenerate
instances.  Everything is deterministic: identical input bytes produce
identical output bytes, which the screening reports rely on.

The tableau is condensed (a dictionary): it stores one column per
nonbasic variable and the right-hand side, never the unit columns of the
basic ones.  With m rows and n standard-form columns, a pivot after
phase 1 costs m * (n + 1) rather than m * (n + m + 1).  Each variable
keeps a label in the full tableau's numbering, and every tie between
columns goes to the lowest label, so the pivots are those of the full
tableau.

Phase 1 depends on the region only, never on the objective.  Screening
solves many LPs over one region, so an `LpStart` runs phase 1 once per
region and each LP given the start copies its feasible tableau, m rows
by n + 1 columns, and runs phase 2 alone.  A `VertexStart` over the same
region copies instead a vertex: the optimal tableau of an earlier LP
over the region, which is feasible for every objective and often close
to the next LP's optimum.  On request it hands back the LP's own final
tableau as a vertex for later LPs.  The caller picks each vertex, so an
LP's result depends on the order or the thread the LPs run in only if
the caller's picks do.  Without a start, `solve_lp` runs both phases
itself, as the brute-force oracles do.

Every way in (a cold solve, an `LpStart` or `VertexStart`, and a
`NodeStart`) shares one standard form, `_standard_form`: A z <= b with
z >= 0, plus two arrays that map each column back to its variable and
sign.  They reach a feasible basis through one phase-1 entry,
`_phase_one`.

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
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

# Shared numerical tolerances.  Screening reuses FEASIBILITY_TOL as the
# strict-inequality margin when comparing flow maxima to line limits.
FEASIBILITY_TOL = 1e-7
OPTIMALITY_TOL = 1e-9
INTEGRALITY_TOL = 1e-6

_PIVOT_TOL = 1e-9
_RATIO_TOL = 1e-10
# Dual ratios within this share of max(1, the least ratio) of it are tied,
# as the primal ratio test ties within 1e-12, so a tie exact in exact
# arithmetic does not go to whichever ratio rounds one ulp lower.
_DUAL_TIE_RTOL = 1e-12
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
    """Normalize bounds input to an (n, 2) float array; None is no bound."""
    if bounds is None:
        return np.full((n, 2), (-np.inf, np.inf))
    out = np.asarray(bounds, dtype=float)  # a None becomes NaN
    if out.size == 0:
        out = out.reshape(0, 2)
    if out.shape != (n, 2):
        raise LpUsageError(f"expected {n} bound pairs, got shape {out.shape}")
    nan = np.isnan(out)
    if nan.any():
        if np.any(nan & (np.array(bounds, dtype=object) != None)):  # noqa: E711
            raise LpUsageError("a variable bound is NaN")
        out = np.where(nan, (-np.inf, np.inf), out)
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
        self.rhs = np.asarray(self.rhs, dtype=float)
        if self.rhs.ndim != 1:
            self.rhs = self.rhs.ravel()
        if self.rhs.size != self.rows.shape[0]:
            raise LpUsageError(
                f"rhs length {self.rhs.size} != row count {self.rows.shape[0]}"
            )
        self.bounds = _as_bounds_array(self.bounds, n)
        if np.any(self.bounds[:, 0] > self.bounds[:, 1]):
            bad = int(np.nonzero(self.bounds[:, 0] > self.bounds[:, 1])[0][0])
            raise LpUsageError(f"variable {bad} has lower bound above upper bound")
        stuck = (self.bounds[:, 0] == np.inf) | (self.bounds[:, 1] == -np.inf)
        if stuck.any():
            raise LpUsageError(f"variable {int(np.argmax(stuck))} has both "
                               "bounds at one infinity, which no number meets")
        if self.sense not in ("min", "max"):
            raise LpUsageError(f"sense must be 'min' or 'max', got {self.sense!r}")

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]


def box_maximum(rows: np.ndarray, lower: np.ndarray,
                upper: np.ndarray) -> np.ndarray:
    """Exact maximum of each of the (K, n) `rows` over the box lower <= p
    <= upper: positive coefficients take the upper bound, negative the
    lower (the unit-step sign split).  An infinite side a nonzero
    coefficient reaches gives +inf, never NaN."""
    pos = rows > 0
    neg = rows < 0
    out = np.zeros(rows.shape[0])
    # Split sums keep 0 * inf out of the arithmetic.
    out += np.sum(np.where(pos, rows * np.where(pos, upper, 0.0), 0.0), axis=1)
    out += np.sum(np.where(neg, rows * np.where(neg, lower, 0.0), 0.0), axis=1)
    return out


def lagrangian_bound(objectives: np.ndarray, y: np.ndarray, rows: np.ndarray,
                     rhs: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                     zero_tol: float = 0.0) -> np.ndarray:
    """Upper bound on max objectives[k] @ p over {rows @ p <= rhs} inside
    the box lower <= p <= upper, for each k, from multipliers y[k] >= 0
    over the rows: y[k] @ rhs + the box maximum of objectives[k] -
    y[k] @ rows.  Any y >= 0 gives a valid bound; at an optimal basis's
    duals it is the optimum.  Residual coefficients within `zero_tol` of
    0 count as 0, which is exact only when the caller knows them to be
    rounding noise."""
    residual = objectives - y @ rows
    if zero_tol:
        residual[np.abs(residual) <= zero_tol] = 0.0
    return y @ rhs + box_maximum(residual, lower, upper)


@dataclass(frozen=True)
class LpSolution:
    """Solver verdict.  point/objective_value are None unless optimal.

    row_duals holds one multiplier (>= 0) per input row, taken from the
    final simplex basis; dual_bound is the Lagrangian bound they certify
    over the problem's own variable bounds, which equals objective_value
    at an exact optimum.  No solve needs it, so it is computed on first
    access, from `problem`.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    objective_value: float | None
    point: np.ndarray | None
    row_duals: np.ndarray | None = None
    iterations: int = 0
    nodes: int = 0
    problem: LpProblem | None = field(default=None, repr=False,
                                      compare=False)

    @cached_property
    def dual_bound(self) -> float | None:
        p = self.problem
        if self.row_duals is None or p is None:
            return None
        sign = 1.0 if p.sense == "max" else -1.0
        c = sign * p.objective  # maximized
        scale = max(1.0, float(np.max(np.abs(c))) if c.size else 1.0)
        bound = lagrangian_bound(c[None], self.row_duals[None], p.rows, p.rhs,
                                 p.bounds[:, 0], p.bounds[:, 1],
                                 zero_tol=1e-9 * scale)
        return sign * float(bound[0])


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


@dataclass
class _StandardForm:
    """A z <= b, z >= 0 for an LP over y; y = base plus sign[k] * z[k]
    added to y[var[k]] over the columns k (see `_standard_form`)."""

    A: np.ndarray
    b: np.ndarray
    var: np.ndarray
    sign: np.ndarray
    base: np.ndarray


def _standard_form(rows, rhs, lo, hi) -> _StandardForm:
    """Rewrite rows @ y <= rhs, lo <= y <= hi as A z <= b, z >= 0.

    Columns follow the variables: none for a fixed y_j, +z shifted by a
    finite lower bound, -z mirrored at an upper bound when only that one
    is finite, and +z, -z for a free y_j.  Rows keep their order; finite
    upper bounds of shifted variables become extra rows after them.
    """
    fixed = lo == hi
    free = np.isinf(lo) & np.isinf(hi) & ~fixed
    mirrored = np.isinf(lo) & ~np.isinf(hi) & ~fixed
    shifted = ~fixed & ~free & ~mirrored  # finite lower bound
    width = np.where(fixed, 0, np.where(free, 2, 1))
    var = np.repeat(np.arange(lo.size), width)
    first = np.cumsum(width) - width  # each variable's first column
    sign = np.ones(var.size)
    sign[first[mirrored]] = -1.0
    sign[first[free] + 1] = -1.0
    base = np.where(fixed | shifted, np.where(np.isfinite(lo), lo, 0.0), 0.0)
    base = np.where(mirrored, hi, base)
    upper = np.nonzero(shifted[var] & np.isfinite(hi[var]))[0]
    unit = np.zeros((upper.size, var.size))
    unit[np.arange(upper.size), upper] = 1.0
    return _StandardForm(np.vstack([rows[:, var] * sign, unit]),
                         np.concatenate([rhs - rows @ base,
                                         hi[var[upper]] - lo[var[upper]]]),
                         var, sign, base)


class _Tableau:
    """Two-phase dense simplex working state for min c'z, A z <= b, z >= 0,
    kept as a condensed (dictionary) tableau.

    Variables are numbered by label: the ns structural columns, then one
    slack per row (slack ns + i belongs to input row i), then one
    artificial per row with a negative right-hand side.  `T` stores only
    the nonbasic columns, `nonbasic[q]` being the label of column q, and
    the right-hand side last; `basis[r]` is the label basic in row r.  A
    basic variable's full-tableau column is the unit vector of its row,
    so it is never stored.  The objective row `z` (reduced costs, then
    minus the objective) is the last row of the one buffer that `T`
    heads, so a pivot is a single rank-one update.  Every choice among
    tied columns takes the lowest label, which makes the pivots those of
    the full tableau.  An artificial never re-enters, and the
    artificials' columns are deleted at the end of phase 1.  `form` maps
    z back to the problem's variables.
    """

    def __init__(self, form: _StandardForm):
        rows, rhs = form.A, form.b
        m, ns = rows.shape
        sigma = np.where(rhs >= 0.0, 1.0, -1.0)
        art_rows = np.nonzero(sigma < 0)[0]
        na = art_rows.size
        # Nonbasic at the start: the structural columns and the slacks of
        # the rows whose artificial is basic.
        buf = np.zeros((m + 1, ns + na + 1))
        buf[:m, :ns] = rows * sigma[:, None]
        buf[art_rows, ns + np.arange(na)] = -1.0
        buf[:m, -1] = rhs * sigma
        basis = ns + np.arange(m)
        basis[art_rows] = ns + m + np.arange(na)
        self._set_buffer(buf)
        self.basis = basis
        self.nonbasic = np.concatenate([np.arange(ns), ns + art_rows])
        self.form = form
        self.ns = ns
        self.m = m
        self.n_labels = ns + m + na
        self.art_start = ns + m
        self.iterations = 0

    def _set_buffer(self, buf: np.ndarray) -> None:
        self.buf = buf
        self.T = buf[:-1]
        self.z = buf[-1]

    def copy(self) -> "_Tableau":
        """An independent copy with a fresh pivot count."""
        out = copy.copy(self)
        out._set_buffer(self.buf.copy())
        out.basis = self.basis.copy()
        out.nonbasic = self.nonbasic.copy()
        out.iterations = 0
        return out

    def _zrow(self, cost: np.ndarray) -> np.ndarray:
        """Set the objective row `z` to the reduced costs of the nonbasic
        columns, and minus the objective last, for `cost` over the leading
        labels and zero over the rest; return it."""
        full = np.zeros(self.n_labels)
        full[:cost.size] = cost
        z = self.z
        z[:-1] = full[self.nonbasic]
        z[-1] = 0.0
        cb = full[self.basis]
        if np.any(cb != 0.0):
            z -= cb @ self.T
        return z

    def _lowest_label(self, cols: np.ndarray) -> int:
        """The column among `cols` whose variable has the lowest label."""
        return int(cols[np.argmin(self.nonbasic[cols])])

    def _pivot(self, zrow: np.ndarray, row: int, col: int) -> None:
        """Swap nonbasic column `col` with the variable basic in `row`.

        `zrow` is the objective row, the buffer's last row, so one rank-one
        update of the buffer covers it.  The entering column becomes e_row
        first, so the leaving variable's column comes out of the usual
        update exactly as the full tableau would compute it."""
        buf = self.buf
        piv = buf[row, col]
        colvals = buf[:, col].copy()
        colvals[row] = 0.0
        buf[:, col] = 0.0
        buf[row, col] = 1.0
        buf[row] /= piv
        buf -= colvals[:, None] * buf[row]
        self.basis[row], self.nonbasic[col] = self.nonbasic[col], self.basis[row]
        self.iterations += 1

    def _leaving_row(self, col: int, bland: bool = False) -> int | None:
        """Ratio test for entering column `col`; None when no entry of the
        column is positive, so nothing limits its increase."""
        T = self.T
        colvals = T[:, col]
        pos = colvals > _RATIO_TOL
        if not pos.any():
            return None
        ratios = np.divide(T[:, -1], colvals, out=np.full(self.m, np.inf),
                           where=pos)
        ties = np.nonzero(ratios <= ratios.min() + 1e-12)[0]
        if bland and ties.size > 1:
            return int(ties[np.argmin(self.basis[ties])])
        return int(ties[0])

    def _iterate(self, zrow: np.ndarray) -> str:
        """Run pivots until optimal or unbounded; artificials never enter."""
        stall = 0
        last_obj = -zrow[-1]
        bland = False
        while True:
            if self.iterations > _MAX_ITER:
                raise SimplexError("simplex iteration limit exceeded")
            rc = zrow[:-1]
            if self.n_labels > self.art_start:
                rc = np.where(self.nonbasic < self.art_start, rc, np.inf)
            if bland:
                neg = np.nonzero(rc < -_PIVOT_TOL)[0]
                if neg.size == 0:
                    return "optimal"
                col = self._lowest_label(neg)
            else:
                best = rc.min()
                if best >= -_PIVOT_TOL:
                    return "optimal"
                col = self._lowest_label(np.nonzero(rc == best)[0])
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
        """Pivot a dual-feasible basis to primal feasibility; `zrow` is the
        objective row as `_zrow` returned it, which the pivots update.

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
            least = ratios.min()
            tied = ratios <= least + _DUAL_TIE_RTOL * max(1.0, least)
            self._pivot(zrow, row, self._lowest_label(cand[tied]))
            pivots += 1

    def phase_one(self) -> bool:
        """Reach a feasible basis; False when the region is empty."""
        if self.n_labels > self.art_start:
            p1_cost = np.zeros(self.n_labels)
            p1_cost[self.art_start:] = 1.0
            zrow = self._zrow(p1_cost)
            status = self._iterate(zrow)
            assert status == "optimal"  # phase-1 objective bounded below by 0
            if -zrow[-1] > FEASIBILITY_TOL:
                return False
            self._drive_out_artificials()
        return True

    def phase_two(self, c: np.ndarray) -> str:
        """Minimize c'z from the current feasible basis."""
        return self._iterate(self._zrow(c))

    def columns(self, labels: np.ndarray) -> np.ndarray:
        """The full tableau's columns of `labels`: a basic variable's unit
        vector, a nonbasic one's stored column."""
        out = (self.basis[:, None] == labels).astype(float)
        stored, at = np.nonzero(self.nonbasic[:, None] == labels)
        out[:, at] = self.T[:, stored]
        return out

    def _drive_out_artificials(self) -> None:
        """Pivot basic artificials out and drop their columns.

        A basic artificial's row always has a candidate: the artificial
        and its row's slack start as +e_i and -e_i, go through the same
        updates, and the artificial never re-enters, so while it is basic
        in row r the slack's column is exactly -e_r.  The objective row
        goes through these pivots too; phase 2 prices it afresh."""
        for row in range(self.m):
            if self.basis[row] < self.art_start:
                continue
            cand = np.nonzero((np.abs(self.T[row, :-1]) > 1e-9)
                              & (self.nonbasic < self.art_start))[0]
            self._pivot(self.z, row, self._lowest_label(cand))
        real = np.append(self.nonbasic < self.art_start, True)
        self._set_buffer(self.buf[:, real])
        self.nonbasic = self.nonbasic[real[:-1]]
        self.n_labels = self.art_start

    def row_duals(self, costs: np.ndarray, n_rows: int) -> np.ndarray:
        """Multipliers that this basis prices for each of the (K, n_vars)
        `costs`, minimized over the problem's variables: the reduced costs,
        clipped at 0, of the slacks of the first `n_rows` rows, as solve_lp
        takes its row_duals from an optimal basis.  (K, n_rows)."""
        form = self.form
        full = np.zeros((costs.shape[0], self.n_labels))
        full[:, :self.ns] = costs[:, form.var] * form.sign
        slack = self.nonbasic - self.ns  # a slack's row, for slack labels
        q = np.nonzero((slack >= 0) & (slack < n_rows))[0]
        y = np.zeros((costs.shape[0], n_rows))
        y[:, slack[q]] = np.maximum(-(full[:, self.basis] @ self.T)[:, q], 0.0)
        return y

    def extract(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (standard-form solution, reduced costs), both over the
        labels."""
        x = np.zeros(self.n_labels)
        x[self.basis] = self.T[:, -1]
        z = np.zeros(self.n_labels)
        z[self.nonbasic] = self.z[:-1]
        return x, z


def _phase_one(form: _StandardForm):
    """Build the tableau of `form` and run phase 1 on it.

    Returns (pivots, tableau) as the starts' `_warm` does: 0 and a
    feasible tableau, whose own count holds the phase-1 pivots; the
    phase-1 pivots and "infeasible" when the region is empty; or 0 and
    None when every variable is fixed, so there is no column and
    feasibility is a direct check on `form.b`.
    """
    if form.A.shape[1] == 0:
        return 0, None
    tab = _Tableau(form)
    if not tab.phase_one():
        return tab.iterations, "infeasible"
    return 0, tab


class LpStart:
    """A feasible basis of one region, found by a single phase 1.

    The region is the rows, right-hand side and bounds of `region`; its
    objective and sense play no part.  `solve_lp(problem, start)` takes a
    problem over exactly that region, with any objective, and copies the
    shared condensed tableau.  Phase 1 runs once, under a lock, inside the
    first solve_lp call that needs it, which counts its pivots among its
    own; its verdict is then shared read-only across threads.  The start
    holds that one tableau only: a `VertexStart` built on it copies the
    vertex it is given, and the caller keeps the vertices.
    """

    def __init__(self, region: LpProblem):
        self.region = region
        self._lock = threading.Lock()
        self._basis: list = []  # phase 1's verdict, once run

    def _check(self, problem: LpProblem) -> None:
        r = self.region
        if not all(a is b or np.array_equal(a, b) for a, b in (
                (problem.rows, r.rows), (problem.rhs, r.rhs),
                (problem.bounds, r.bounds))):
            raise LpUsageError("LP start was built for a different region")

    def _warm(self, problem: LpProblem, c: np.ndarray):
        """(pivots, tableau) for solve_lp: a private feasible tableau for
        the problem, "infeasible", or None when every variable is fixed."""
        self._check(problem)
        pivots = 0
        with self._lock:
            if not self._basis:
                r = self.region
                pivots, verdict = _phase_one(_standard_form(
                    r.rows, r.rhs, r.bounds[:, 0], r.bounds[:, 1]))
                if isinstance(verdict, _Tableau):
                    pivots = verdict.iterations  # its copies count from 0
                self._basis.append(verdict)
            shared = self._basis[0]
        if not isinstance(shared, _Tableau):
            return pivots, shared
        return pivots, shared.copy()


class VertexStart:
    """Start of one LP over the region of `shared`, an `LpStart`, from a
    vertex: the optimal tableau of an earlier LP over that region, which
    the LP copies before it runs phase 2.  With no vertex, the LP copies
    the shared phase-1 basis instead.

    With `keep`, the start hands back the LP's own final tableau: solve_lp
    finishes it in place, and `tableau` holds it afterwards, to serve as a
    later LP's vertex once the caller has checked the LP was optimal.
    Without `keep`, the tableau is freed when the solve returns.
    """

    def __init__(self, shared: LpStart, vertex: _Tableau | None = None,
                 keep: bool = False):
        self.shared = shared
        self.vertex = vertex
        self.keep = keep
        self.tableau: _Tableau | None = None

    def _warm(self, problem: LpProblem, c: np.ndarray):
        """(pivots, tableau) for solve_lp, as `LpStart._warm`."""
        if self.vertex is None:
            pivots, tab = self.shared._warm(problem, c)
        else:
            self.shared._check(problem)
            pivots, tab = 0, self.vertex.copy()
        if self.keep and isinstance(tab, _Tableau):
            self.tableau = tab
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
    optimal tableau along the full tableau's columns of those rows'
    slacks: the stored column of a nonbasic slack, the unit vector of its
    row for a basic one.  The basis stays dual feasible, and dual simplex
    pivots run to primal feasibility; after _DUAL_PIVOT_LIMIT of them the
    node solves cold in the same form.  A start serves one solve_lp call, which keeps
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
        form = _standard_form(region.rows, region.rhs, lo, open_hi)
        self.first_bound_row = form.A.shape[0]
        unit = np.zeros((self.branch.size, form.A.shape[1]))
        unit[np.arange(self.branch.size),
             np.searchsorted(form.var, self.branch)] = 1.0
        # b stops at the region's rows: each node appends its bound rows'.
        self.form = replace(form, A=np.vstack([form.A, unit, -unit]))
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
            tab.T[:, -1] += tab.columns(slack) @ delta[moved]
            verdict = tab.dual_simplex(
                tab._zrow(c[tab.form.var] * tab.form.sign), _DUAL_PIVOT_LIMIT)
            if verdict == "infeasible":
                return tab.iterations, "infeasible"
            if verdict == "limit":
                pivots, tab = tab.iterations, None
        if tab is None:
            more, tab = _phase_one(
                replace(self.form, b=np.concatenate([self.form.b, rhs])))
            pivots += more
            if not isinstance(tab, _Tableau):
                return pivots, tab
        self._solved = (tab, rhs)  # phase 2 in solve_lp finishes it in place
        return pivots, tab


def solve_lp(problem: LpProblem,
             start: LpStart | VertexStart | NodeStart | None = None
             ) -> LpSolution:
    """Solve an LP; exact status classification, deterministic output.

    With an `LpStart` over the problem's region, the LP runs phase 2 from
    the start's shared basis; with a `VertexStart`, from the start's
    vertex.  With a `NodeStart`, the LP is one node of a branch-and-bound
    tree.
    """
    m = problem.n_rows
    lo, hi = problem.bounds[:, 0], problem.bounds[:, 1]
    c = problem.objective.copy()
    flip = problem.sense == "max"
    if flip:
        c = -c

    # pivots counts those outside the tableau's own count
    pivots, tab = (0, None) if start is None else start._warm(problem, c)
    if tab is None:
        form = _standard_form(problem.rows, problem.rhs, lo, hi)
        more, tab = _phase_one(form)
        pivots += more
        if tab is None:
            # All variables fixed: feasibility is a direct check.
            if np.any(form.b < -FEASIBILITY_TOL):
                return LpSolution("infeasible", None, None, iterations=pivots)
            point = form.base.copy()
            return LpSolution("optimal", float(problem.objective @ point),
                              point, row_duals=np.zeros(m),
                              iterations=pivots, problem=problem)
    if tab == "infeasible":
        return LpSolution("infeasible", None, None, iterations=pivots)

    form = tab.form
    status = tab.phase_two(c[form.var] * form.sign)
    iterations = pivots + tab.iterations
    if status == "unbounded":
        return LpSolution("unbounded", None, None, iterations=iterations)

    xstd, zrow = tab.extract()
    point = form.base.copy()
    np.add.at(point, form.var, form.sign * xstd[:tab.ns])
    obj = float(c @ point)
    return LpSolution(
        "optimal",
        -obj if flip else obj,
        point,
        # Row duals are the reduced costs of the original rows' slack columns.
        row_duals=np.maximum(zrow[tab.ns:tab.ns + m], 0.0),
        iterations=iterations,
        problem=problem,
    )


def _with_bounds(lp: LpProblem, bounds: np.ndarray) -> LpProblem:
    return LpProblem(lp.objective, lp.rows, lp.rhs, bounds=bounds,
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
    base = LpProblem(cmin, lp.rows, lp.rhs, bounds=lp.bounds, sense="min")
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
