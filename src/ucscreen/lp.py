"""Dense LP and branch-and-bound MILP solvers.

The LP solver is a tableau simplex over problems of the form

    min/max  c @ y   subject to   A @ y <= b,   lo <= y <= hi

with infinite bounds allowed.  Pivoting uses Dantzig's rule and falls back
to Bland's rule after a stall, which guarantees termination on degenerate
instances.  Everything is deterministic: identical input bytes produce
identical output bytes, which the screening reports rely on.

The tableau is condensed (a dictionary): it stores one column per
nonbasic variable and the right-hand side, never the unit columns of the
basic ones.  With m rows and n standard-form columns, a pivot costs
m * (n + 1) rather than m * (n + m + 1).  Each variable keeps a label in
the full tableau's numbering, and every tie between columns goes to the
lowest label, so the pivots are those of the full tableau.

At the sizes screening meets, tens to hundreds of rows, a numpy call's
fixed cost is as large as its arithmetic, so the kernel is written to a
budget of calls.  A primal pivot makes about 35 (choice, ratio test,
rank-one update and progress check), a dual pivot with one entering
candidate about 26; the loop uses only numpy's C methods, never the
Python-level wrappers that cost several times more (`np.argmin`,
`np.nonzero`, `np.full`, `ndarray.min` and `.any`).  Ties are resolved
by label only when a count shows one, the primal ratio test writes into
a buffer that each tableau owns, and a dual ratio test with one
candidate computes no ratio.  An LP's own work outside its pivots is
one tableau copy, one objective row and the read-out: `LpProblem`
checks a region's rows, right-hand side and bounds once, and the LPs
made from it by `with_objective` or `with_bounds` check only what they
change.  Bland's rule pivots regardless of a pivot's size, and the
dense tableau is never refactorized, so a tableau that Bland's rule has
pivoted, or that was copied from one, is flagged, and solve_lp checks
such an LP's point against every row (see `_check_rows`).

A solved LP is its tableau (`_Tableau`): the basis, its own pivot
count, the standard-form rhs b it was solved at, and a flag set when
dual simplex proved the region empty.  A standard form
(`_standard_form`) is a function of an LP's rows and bounds alone, and
writes every bound row; its `b` maps an LP's rows, rhs and bounds to
its b, the one place a b is computed.  Every LP begins from a `Start`:
its standard form, the b it is solved at and an optional parent
tableau, from which `Start._warm` makes the LP's tableau.  `Start.at`
moves a start to another LP in the same form, at that LP's b.  A
parent at the same b, a region's basis (`region_basis`) or an earlier
LP's optimal tableau, is copied and phase 2 runs.  A parent at another
b, a node's parent or a reference root, is copied and its rhs moved to
b.  Without a parent the LP is cold: the slack basis of the form,
A z <= b with z >= 0, which is dual feasible for any prices >= 0
whatever the signs of b.  From either, dual simplex runs (Koberstein,
2005; Chvatal, 1983), priced by the LP's costs, so a cold LP whose
costs are >= 0 ends optimal; by ones when they are all 0, or, cold,
when one is negative, and primal phase 2 follows with the real costs.
An LP with every variable fixed gets a tableau with no column, whose
dual simplex makes no pivot and checks b alone.  solve_lp leaves the
final tableau on a start whose `keep` is set, and `iterations` is that
tableau's count.  The caller picks each parent, so an LP's result
depends on the order or the thread the LPs run in only if the caller's
picks do.

The MILP solver runs best-first branch and bound on LP relaxations.  At
a node whose LP optimum has a fractional binary it rounds every binary
above INTEGRALITY_TOL up and checks that point against every row, one
matrix-vector product and no LP (simple rounding; Achterberg, Constraint
Integer Programming, 2007).  A point that meets every row is an
incumbent and may close the node.  Otherwise the node branches,
down-branch first, on the lowest-index fractional binary with a nonzero
coefficient in a row the rounded point violates: only a fix of such a
binary can repair that row (cf. Achterberg, Koch & Martin, "Branching
rules revisited", 2005).  Unit commitment puts no cost on status, so a
rounded commitment often costs exactly the node's bound.  A branch is
one step, a binary fixed at 0 or 1, and changes only bounds, so every
node shares one standard form in which each binary the MILP leaves open
has an upper and a lower bound row.  A `NodeStart`'s region is its
node's LP, the MILP's as a minimisation at the node's bounds, and its
child is `Start.at` over that LP with one binary fixed, from the node's
optimal tableau.  A node's LP gets no check of its own: its bounds are
its parent's, checked, with one binary fixed.  The root solves cold,
unless the caller passes a `MilpReference`: a MILP with the same rows,
bounds, costs and binaries at another right-hand side, whose optimal
root, solved cold once, later roots start from by the same move.  Unit
commitment at many loads of one case is
such a family.  The point and cost returned come from one more LP with
every binary fixed at the incumbent's value, so they depend on the
commitment chosen and not on the path the tree took to it, nor on the
root's start.  That LP is cold without a reference or at the
reference's own right-hand side; otherwise it starts from the
reference's entry for its commitment, that fixed LP at the reference's
right-hand side, solved cold once, so its result is a function of the
reference, the commitment and the right-hand side, and may differ from
a cold LP's in its last bits.  With costs >= 0, as in unit commitment,
every cold LP ends at its optimum when dual simplex makes the slack
basis feasible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

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
# Pivots without progress before primal or dual simplex turns to Bland's
# rule for the rest of the run.
_STALL_LIMIT = 60
_MAX_ITER = 100_000


class LpUsageError(ValueError):
    """Malformed problem data: dimension mismatch, inverted bounds, ..."""


class SimplexError(RuntimeError):
    """Simplex iteration cap reached, or a point found after Bland's rule
    pivoted that violates a row; either indicates numerical breakdown."""


class NodeLimitExceeded(RuntimeError):
    """Branch-and-bound node budget exhausted.

    Carries the best incumbent found so far (may be None) and the best
    lower bound among open nodes.  The incumbent is a node LP's integral
    optimum or a node's rounded point (see `solve_milp`), with its cost
    as `objective_value`, both for the problem turned into a minimisation.
    """

    def __init__(self, message: str, incumbent=None, bound: float | None = None):
        super().__init__(message)
        self.incumbent = incumbent
        self.bound = bound


def _checked_bounds(bounds, n: int) -> np.ndarray:
    """Normalize bounds input to an (n, 2) float array, None being no
    bound, and check that every pair admits a number."""
    if bounds is None:
        return np.full((n, 2), (-np.inf, np.inf))
    out = np.asarray(bounds, dtype=float)  # a None becomes NaN
    if out.size == 0:
        out = out.reshape(0, 2)
    if out.shape != (n, 2):
        raise LpUsageError(f"expected {n} bound pairs, got shape {out.shape}")
    nan = np.isnan(out)
    if np.count_nonzero(nan):
        if np.any(nan & (np.array(bounds, dtype=object) != None)):  # noqa: E711
            raise LpUsageError("a variable bound is NaN")
        out = np.where(nan, (-np.inf, np.inf), out)
    lo, hi = out[:, 0], out[:, 1]
    inverted = lo > hi
    if np.count_nonzero(inverted):
        raise LpUsageError(f"variable {int(inverted.argmax())} has lower "
                           "bound above upper bound")
    stuck = (lo == np.inf) | (hi == -np.inf)
    if np.count_nonzero(stuck):
        raise LpUsageError(f"variable {int(stuck.argmax())} has both "
                           "bounds at one infinity, which no number meets")
    return out


def check_finite(vector: np.ndarray, name: str) -> None:
    """Raise LpUsageError naming the first NaN or infinite entry of
    `vector`."""
    finite = np.isfinite(vector)
    if np.count_nonzero(finite) < vector.size:
        i = int(finite.argmin())
        what = "NaN" if np.isnan(vector[i]) else "infinite"
        raise LpUsageError(f"{name} entry {i} is {what}")


def _checked_sense(sense: str) -> str:
    if sense not in ("min", "max"):
        raise LpUsageError(f"sense must be 'min' or 'max', got {sense!r}")
    return sense


@dataclass
class LpProblem:
    """min or max `objective @ y` s.t. `rows @ y <= rhs`, `lo <= y <= hi`.

    Every field is checked when the problem is made: every objective,
    row and rhs entry must be finite (a row with no limit is left out,
    not given +inf), and no bound NaN.  `with_objective`
    and `with_bounds` derive a problem over the same checked arrays and
    check only what they change, so the many LPs over one region pay for
    the region's checks once."""

    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    bounds: np.ndarray | None = None
    sense: str = "min"

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float).ravel()
        check_finite(self.objective, "objective")
        n = self.objective.size
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.size == 0 and self.rows.ndim != 2:
            self.rows = self.rows.reshape(0, n)
        if self.rows.ndim != 2 or self.rows.shape[1] != n:
            raise LpUsageError(
                f"rows shape {self.rows.shape} incompatible with {n} variables"
            )
        if not np.isfinite(self.rows).all():
            i, j = np.argwhere(~np.isfinite(self.rows))[0]
            raise LpUsageError(f"row {i} has a non-finite entry in column {j}")
        self.rhs = np.asarray(self.rhs, dtype=float)
        if self.rhs.ndim != 1:
            self.rhs = self.rhs.ravel()
        if self.rhs.size != self.rows.shape[0]:
            raise LpUsageError(
                f"rhs length {self.rhs.size} != row count {self.rows.shape[0]}"
            )
        check_finite(self.rhs, "rhs")
        self.bounds = _checked_bounds(self.bounds, n)
        _checked_sense(self.sense)

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    def with_objective(self, objective, sense: str = "min") -> "LpProblem":
        """This problem's rows, rhs and bounds under another objective and
        sense."""
        objective = np.asarray(objective, dtype=float).ravel()
        if objective.size != self.n_vars:
            raise LpUsageError(f"objective has {objective.size} entries "
                               f"for {self.n_vars} variables")
        check_finite(objective, "objective")
        return self._with(objective=objective, sense=_checked_sense(sense))

    def with_bounds(self, bounds) -> "LpProblem":
        """This problem with other variable bounds."""
        return self._with(bounds=_checked_bounds(bounds, self.n_vars))

    def _with(self, **fields) -> "LpProblem":
        out = object.__new__(LpProblem)
        out.__dict__.update(self.__dict__, **fields)
        return out


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
                     rhs: np.ndarray, lower: np.ndarray,
                     upper: np.ndarray) -> np.ndarray:
    """Upper bound on max objectives[k] @ p over {rows @ p <= rhs} inside
    the box lower <= p <= upper, for each k, from multipliers y[k] >= 0
    over the rows: y[k] @ rhs + the box maximum of objectives[k] -
    y[k] @ rows.  Any y >= 0 gives a valid bound; at an optimal basis's
    duals it is the optimum."""
    return y @ rhs + box_maximum(objectives - y @ rows, lower, upper)


@dataclass(frozen=True)
class LpSolution:
    """Solver verdict.  point/objective_value are None unless optimal.

    row_duals holds one multiplier (>= 0) per input row, taken from the
    final simplex basis.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    objective_value: float | None
    point: np.ndarray | None
    row_duals: np.ndarray | None = None
    iterations: int = 0
    nodes: int = 0


@dataclass
class MilpProblem:
    """An LpProblem plus indices of variables restricted to {0, 1}, each
    bounded by 0 or 1 on either side, so that a branch that fixes one at
    0 or 1 stays within its bounds."""

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
            if lo not in (0.0, 1.0) or hi not in (0.0, 1.0):
                raise LpUsageError(
                    f"binary variable {i} must have bounds 0 or 1, "
                    f"got [{lo}, {hi}]"
                )
        self.binary_indices = idx


@dataclass
class _StandardForm:
    """A z <= b, z >= 0 for LPs over y; y = base plus sign[k] * z[k]
    added to y[var[k]] over the columns k (see `_standard_form`).  A's
    rows are the LP's own, then z <= hi - base for each variable of
    `upper` and -z <= base - lo for each of `lower`."""

    A: np.ndarray
    var: np.ndarray
    sign: np.ndarray
    base: np.ndarray
    upper: np.ndarray
    lower: np.ndarray

    def b(self, lp: LpProblem) -> np.ndarray:
        """The b of `lp`, an LP whose rows and bounds this form fits."""
        base, upper, lower, bounds = self.base, self.upper, self.lower, lp.bounds
        return np.concatenate([lp.rhs - lp.rows @ base,
                               bounds[:, 1][upper] - base[upper],
                               base[lower] - bounds[:, 0][lower]])


def _standard_form(rows, lo, hi, branch=()) -> _StandardForm:
    """Rewrite rows @ y <= rhs, lo <= y <= hi as A z <= b, z >= 0, for
    any rhs and any bounds of the variables of `branch` within these.

    Columns follow the variables: none for a fixed y_j, +z shifted by a
    finite lower bound, -z mirrored at an upper bound when only that one
    is finite, and +z, -z for a free y_j.  Rows keep their order.  Bound
    rows follow them: the finite upper bounds of shifted variables
    outside `branch`, then the upper and then the lower bounds of
    `branch`'s, which must be shifted and keep their columns whatever
    bounds within these an LP gives them.
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
    lower = np.asarray(branch, dtype=int)
    capped = shifted & np.isfinite(hi)
    capped[lower] = False
    upper = np.concatenate([capped.nonzero()[0], lower])
    unit = np.zeros((upper.size, var.size))
    unit[np.arange(upper.size), first[upper]] = 1.0
    return _StandardForm(
        np.vstack([rows[:, var] * sign, unit, -unit[upper.size - lower.size:]]),
        var, sign, base, upper, lower)


class _Tableau:
    """Dense simplex working state for min c'z, A z <= b, z >= 0, kept as
    a condensed (dictionary) tableau at the slack basis to start.

    Variables are numbered by label: the ns structural columns, then one
    slack per row (slack ns + i belongs to input row i).  Every slack
    starts basic, a negative right-hand side included, for dual simplex
    to make feasible (see `Start._warm`).  `T` stores only the nonbasic
    columns, `nonbasic[q]` being the label of column q, and the
    right-hand side last; `basis[r]` is the label basic in row r.  A basic variable's
    full-tableau column is the unit vector of its row, so it is never
    stored.  The objective row `z` (reduced costs, then minus the
    objective) is the last row of the one buffer that `T` heads, so a
    pivot is a single rank-one update.  Every choice among tied columns
    takes the lowest label, which makes the pivots those of the full
    tableau.  `form` maps z back to the problem's variables.

    Per pivot (see the module docstring's budget): 15 numpy calls for
    the rank-one update on the pivot row's view and the label swap; 16
    for a Dantzig choice and its ratio test, 7 for a dual choice with one
    candidate, and 4 for the progress check.  The primal ratio test
    writes into `_ratios`, a buffer of this tableau's own, so tableaux
    in different threads share nothing they write.  `by_bland` is set
    once Bland's rule has made a pivot on this tableau or on the one it
    was copied from, and stays set in every copy, as do `infeasible`,
    set when dual simplex proved the region empty, and `b`, the
    standard-form rhs.  `iterations` counts this copy's own pivots.
    """

    def __init__(self, form: _StandardForm, b: np.ndarray):
        m, ns = form.A.shape
        buf = np.zeros((m + 1, ns + 1))
        buf[:m, :ns] = form.A
        buf[:m, -1] = b
        self.form = form
        self.ns = ns
        self.m = m
        self.n_labels = ns + m
        self._set_buffer(buf)
        self.basis = ns + np.arange(m)
        self.nonbasic = np.arange(ns)
        self.b = b
        self.iterations = 0
        self.by_bland = self.infeasible = False

    def _set_buffer(self, buf: np.ndarray) -> None:
        self.buf = buf
        self.T = buf[:-1]
        self.z = buf[-1]
        self.rhs = buf[:-1, -1]  # the basic variables' values
        self._ratios = np.empty(self.m)

    def copy(self) -> "_Tableau":
        """An independent copy with a fresh pivot count."""
        out = object.__new__(_Tableau)
        out.form, out.ns, out.m = self.form, self.ns, self.m
        out.n_labels, out.b = self.n_labels, self.b
        out.by_bland, out.infeasible = self.by_bland, self.infeasible
        out._set_buffer(self.buf.copy())
        out.basis = self.basis.copy()
        out.nonbasic = self.nonbasic.copy()
        out.iterations = 0
        return out

    def _zrow(self, cost: np.ndarray) -> np.ndarray:
        """Set the objective row `z` to the reduced costs of the nonbasic
        columns, and minus the objective last, for `cost` over the
        structural labels and zero over the slacks; return it."""
        full = np.zeros(self.n_labels)
        full[:cost.size] = cost
        z = self.z
        z[:-1] = full[self.nonbasic]
        z[-1] = 0.0
        cb = full[self.basis]
        if np.count_nonzero(cb):
            z -= cb @ self.T
        return z

    def _lowest_label(self, cols: np.ndarray) -> int:
        """The column among `cols` whose variable has the lowest label."""
        return int(cols[self.nonbasic[cols].argmin()])

    def _pivot(self, row: int, col: int) -> None:
        """Swap nonbasic column `col` with the variable basic in `row`.

        The objective row is the buffer's last row, so one rank-one update
        of the buffer covers it.  The entering column becomes e_row first,
        so the leaving variable's column comes out of the usual update
        exactly as the full tableau would compute it."""
        buf = self.buf
        prow = buf[row]
        piv = prow[col]
        colvals = buf[:, col].copy()
        colvals[row] = 0.0
        buf[:, col] = 0.0
        prow[col] = 1.0
        prow /= piv
        buf -= colvals[:, None] * prow
        basis, nonbasic = self.basis, self.nonbasic
        basis[row], nonbasic[col] = nonbasic[col], basis[row]
        self.iterations += 1

    def _leaving_row(self, col: int, bland: bool = False) -> int | None:
        """Ratio test for entering column `col`: the first row of least
        ratio (within 1e-12), or under Bland's rule the one whose basic
        label is lowest; None when no entry of the column is positive, so
        nothing limits its increase."""
        if not self.m:
            return None
        colvals = self.T[:, col]
        pos = colvals > _RATIO_TOL
        ratios = self._ratios
        ratios.fill(np.inf)
        np.divide(self.rhs, colvals, out=ratios, where=pos)
        least = ratios[ratios.argmin()]
        if least == np.inf and not np.count_nonzero(pos):
            return None
        ties = ratios <= least + 1e-12
        if bland:
            ties = ties.nonzero()[0]
            return int(ties[self.basis[ties].argmin()])
        return int(ties.argmax())

    def _primal_pivot(self, zrow: np.ndarray, bland: bool):
        """(row, column) of the next primal pivot, or "optimal" when no
        reduced cost is negative, or "unbounded"."""
        rc = zrow[:-1]
        if bland:
            neg = (rc < -_PIVOT_TOL).nonzero()[0]
            if neg.size == 0:
                return "optimal"
            col = self._lowest_label(neg)
        else:
            col = int(rc.argmin())
            best = rc[col]
            if best >= -_PIVOT_TOL:
                return "optimal"
            tied = rc == best
            if np.count_nonzero(tied) > 1:
                col = self._lowest_label(tied.nonzero()[0])
        row = self._leaving_row(col, bland)
        return "unbounded" if row is None else (row, col)

    def _dual_pivot(self, zrow: np.ndarray, bland: bool):
        """(row, column) of the next dual simplex pivot, or "feasible", or
        "infeasible".

        The leaving row is the most negative basic value, or under Bland's
        rule the violated row whose basic label is lowest.  A row with no
        entry below -_PIVOT_TOL proves the region empty when its value is
        below -FEASIBILITY_TOL; within that tolerance it counts as
        satisfied, and the next row in the same order is tried.  The
        entering column passes the dual ratio test, which keeps every
        reduced cost >= 0; ties go to the lowest label, and a single
        candidate enters without a ratio."""
        T = self.T
        rhs = self.rhs
        if not bland:  # the usual case: the most negative row can move
            row = int(rhs.argmin())
            if rhs[row] >= -_PIVOT_TOL:
                return "feasible"
            entries = T[row, :-1]
            cand = (entries < -_PIVOT_TOL).nonzero()[0]
        if bland or cand.size == 0:
            rows = (rhs < -_PIVOT_TOL).nonzero()[0]
            key = self.basis[rows] if bland else rhs[rows]
            for row in rows[key.argsort(kind="stable")]:
                entries = T[row, :-1]
                cand = (entries < -_PIVOT_TOL).nonzero()[0]
                if cand.size:
                    break
                if rhs[row] < -FEASIBILITY_TOL:
                    return "infeasible"
            else:
                return "feasible"
        if cand.size == 1:
            return int(row), int(cand[0])
        ratios = np.maximum(zrow[cand], 0.0) / -entries[cand]
        least = ratios[ratios.argmin()]
        tied = ratios <= least + _DUAL_TIE_RTOL * max(1.0, least)
        if np.count_nonzero(tied) == 1:
            return int(row), int(cand[tied.argmax()])
        return int(row), self._lowest_label(cand[tied])

    def _iterate(self, zrow: np.ndarray, dual: bool = False) -> str:
        """Pivot until a verdict; `zrow` is the objective row as `_zrow`
        returned it, which the pivots update.

        Primal simplex lowers the objective and ends "optimal" or
        "unbounded"; dual simplex, from a basis whose reduced costs are
        >= 0, raises it and ends "feasible", which is optimal for the
        costs priced, or "infeasible".  Either uses Dantzig's rule until
        _STALL_LIMIT pivots in a row leave the objective where it was,
        and Bland's rule from then on."""
        choose = self._dual_pivot if dual else self._primal_pivot
        sign = -1.0 if dual else 1.0  # progress raises sign * zrow[-1]
        stall = 0
        last = sign * zrow[-1]
        bland = False
        while True:
            if self.iterations > _MAX_ITER:
                raise SimplexError("simplex iteration limit exceeded")
            bland = bland or stall >= _STALL_LIMIT
            pick = choose(zrow, bland)
            if isinstance(pick, str):
                return pick
            self._pivot(*pick)
            if bland:
                self.by_bland = True
            progress = sign * zrow[-1]
            if progress > last + 1e-12:
                stall = 0
                last = progress
            else:
                stall += 1

    def dual_simplex(self, zrow: np.ndarray) -> str:
        """Pivot a dual-feasible basis to primal feasibility: "feasible"
        or "infeasible" (see `_iterate`), the latter also setting
        `infeasible`."""
        verdict = self._iterate(zrow, dual=True)
        self.infeasible = verdict == "infeasible"
        return verdict

    def phase_two(self, c: np.ndarray) -> str:
        """Minimize c'z from the current feasible basis, which is optimal
        as it stands when there is no column."""
        return self._iterate(self._zrow(c)) if self.ns else "optimal"

    def columns(self, labels: np.ndarray) -> np.ndarray:
        """The full tableau's columns of `labels`: a basic variable's unit
        vector, a nonbasic one's stored column."""
        out = (self.basis[:, None] == labels).astype(float)
        stored, at = np.nonzero(self.nonbasic[:, None] == labels)
        out[:, at] = self.T[:, stored]
        return out

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


def region_basis(region: LpProblem) -> _Tableau:
    """The final tableau of `region`'s own LP, solved cold by solve_lp with
    a kept `Start`: a feasible basis of its rows, right-hand side and
    bounds, flagged `infeasible` when the region is empty.  That LP
    counts its pivots."""
    start = Start(region, keep=True)
    solve_lp(region, start)
    return start.tableau


def _same_arrays(*pairs) -> bool:
    """Whether the two arrays of each pair are equal: the same object,
    which is the usual case since callers pass a region's own arrays
    through, or equal in shape and every entry."""
    return all(a is b or np.array_equal(a, b) for a, b in pairs)


class Start:
    """Start of one LP over `region`: a standard form of its rows and
    bounds, the standard-form rhs `b` the LP is solved at, and `parent`,
    a solved tableau to begin from, or None to solve cold at b.

    A parent given here lends the start its form and b: a vertex of the
    region, its basis (`region_basis`) or an earlier LP's optimal
    tableau.  Without one, the form is `region`'s and b the form's for
    `region`.  `at` moves a start to another LP of the form, from a
    parent at another b: a node's parent or a reference root.  `_warm`
    makes the LP's tableau from either, or from the form's slack basis.
    With `keep`, solve_lp leaves the LP's final tableau in `tableau`, a
    later LP's parent once the caller has checked the LP was optimal;
    without it, the tableau is freed when the solve returns.
    """

    def __init__(self, region: LpProblem, parent=None, keep: bool = False):
        self.form = parent.form if parent is not None else _standard_form(
            region.rows, *region.bounds.T)
        self.b = parent.b if parent is not None else self.form.b(region)
        self.region, self.parent = region, parent
        self.keep, self.tableau = keep, None

    def at(self, region: LpProblem, parent) -> "Start":
        """An unsolved start of this start's class and standard form over
        `region`, an LP with this start's rows and costs, any rhs, and
        bounds that differ only on the variables the form was given as
        its `branch` (see `_standard_form`): at region's own b, from
        `parent`, or cold with None.  A MILP's roots from its reference,
        its final LPs from their commitment entries and its nodes'
        children all start by this move."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, region=region, b=self.form.b(region),
                            parent=parent, tableau=None)
        return out

    def _warm(self, problem: LpProblem, c: np.ndarray) -> _Tableau:
        """The LP's tableau for solve_lp, for `c`, the LP's costs as a
        minimisation.  A parent at this b is copied, for phase 2 alone.  A
        parent at another b is copied and its rhs moved to this b along
        the full tableau's columns of the moved rows' slacks; without a
        parent, the form's slack basis at b is built, a column-less one
        included.  Either is dual feasible for prices >= 0 whatever the
        signs of b, and dual simplex runs on it when it has rows.

        The prices are the standard-form costs, or ones when those are
        all 0 and, cold, when one is negative.  Zero prices would tie
        every dual ratio at 0 and leave each entering column to the
        lowest label alone; on a 100-bus load-box region that ran to
        _MAX_ITER.  Equal prices tie too where a row weighs its columns
        alike: on the screening projection of a 100-bus case, ones took
        1,214 pivots, as the balance row gave every dispatch column one
        ratio, and the units' costs over their mean 45.
        """
        r = self.region
        if not _same_arrays((problem.rows, r.rows), (problem.rhs, r.rhs),
                            (problem.bounds, r.bounds)):
            raise LpUsageError("LP start was built for a different region")
        if self.parent is not None and self.parent.b is self.b:
            return self.parent.copy()
        cost = c[self.form.var] * self.form.sign
        if self.parent is None:
            tab = _Tableau(self.form, self.b)
            if np.any(cost < 0.0):
                cost = np.ones(cost.size)
        else:
            tab = self.parent.copy()
            delta = self.b - tab.b
            moved = np.nonzero(delta)[0]
            tab.T[:, -1] += tab.columns(tab.ns + moved) @ delta[moved]
            tab.b = self.b
        if not np.count_nonzero(cost):
            cost = np.ones(cost.size)
        if tab.m:
            tab.dual_simplex(tab._zrow(cost))
        return tab


def _minimisation(lp: LpProblem) -> LpProblem:
    """`lp` as a minimisation: its objective negated when it maximises."""
    return lp.with_objective(-lp.objective if lp.sense == "max" else lp.objective)


class NodeStart(Start):
    """Start of one branch-and-bound node LP, `region`: `milp`'s LP as a
    minimisation at the node's bounds, read-only below the root.

    Node LPs differ only in the bounds of binaries, so the whole tree has
    one standard form, `_standard_form`'s with the binaries that `milp`
    leaves open as its `branch`: each keeps its column and gets an
    upper-bound row and a lower-bound row, and a node's bounds change
    only those rows' right-hand sides.  `child(var, value)` is `at` over the LP with `var`
    fixed at `value`, from this node's tableau.  The root solves cold,
    or starts from a reference root (`at`).  A node always keeps its
    final tableau in `tableau` for its children, which share it
    read-only.
    """

    keep = True

    def __init__(self, milp: MilpProblem):
        region = _minimisation(milp.lp)
        lo, hi = region.bounds.T
        self.form = _standard_form(region.rows, lo, hi, [
            i for i in milp.binary_indices if lo[i] < hi[i]])
        self.b = self.form.b(region)
        self.region, self.parent, self.tableau = region, None, None

    def child(self, var: int, value: float) -> "NodeStart":
        """The start of this node's child with binary `var` fixed at
        `value`, once solve_lp has solved this node."""
        bounds = self.region.bounds.copy()
        bounds[var] = value
        bounds.flags.writeable = False
        return self.at(self.region._with(bounds=bounds), self.tableau)


class MilpReference:
    """The optimal root of one MILP, the reference, from which the roots
    and final LPs of MILPs that differ from it in their right-hand side
    alone start (Koberstein, 2005, dual simplex after a change of the
    right-hand side).

    `tree` is the reference's root `NodeStart`, whose standard form such
    a MILP's root takes at its own b (`Start.at`), and `root`, once
    solved, the reference root's optimal tableau, which that root moves.
    The reference root is solved one way only: cold, in its own solve_lp
    call, by the first `solve_milp` whose rhs differs from the
    reference's.  A MILP at the reference's own rhs solves its root cold
    and leaves the reference unsolved.  A reference whose root is not
    optimal (`root` False) serves no start, and its MILPs solve their
    roots cold.

    `commitments` maps the bytes of a commitment, one bool per binary,
    to its entry: a kept `Start` of the LP over the reference's rows and
    rhs whose bounds fix the binaries at that commitment, solved cold,
    in its own LP, by the first MILP off that rhs that ends at the
    commitment, and keeping its tableau only when optimal.  That MILP and
    every later one with the commitment start their final LP from it
    (see `solve_milp`).  Each tableau is a function of the reference
    MILP and the commitment alone, so no result depends on the order in
    which the MILPs that share it are solved.
    """

    def __init__(self, problem: MilpProblem):
        self.binary_indices = problem.binary_indices
        self.tree = NodeStart(problem)
        self.base = self.tree.region
        self.root = None  # the optimal tableau; False when not optimal
        self.commitments: dict[bytes, Start] = {}

    def _start(self, problem: MilpProblem) -> NodeStart:
        """The root start of `problem`: cold when its rhs is the
        reference's, or when the reference root is not optimal; otherwise
        from the reference root, solved first if need be."""
        mine, base = self.base, _minimisation(problem.lp)
        if not (problem.binary_indices == self.binary_indices
                and _same_arrays((base.rows, mine.rows), (base.bounds, mine.bounds),
                                 (base.objective, mine.objective))):
            raise LpUsageError("MILP reference was built for other rows, "
                               "bounds, costs or binaries")
        if _same_arrays((base.rhs, mine.rhs)):
            return self.tree.at(base, None)
        if self.root is None:
            sol = solve_lp(mine, self.tree)
            self.root = sol.status == "optimal" and self.tree.tableau
        return self.tree.at(base, self.root or None)

    def _final(self, final: LpProblem, commitment: bytes) -> Start:
        """The start of a MILP's final LP `final`, whose bounds fix the
        binaries at `commitment` and whose rhs is not the reference's:
        the commitment's entry at `final`'s rhs, the entry made and
        solved on first use."""
        entry = self.commitments.get(commitment)
        if entry is None:
            entry = self.commitments[commitment] = Start(
                self.base._with(bounds=final.bounds), keep=True)
            if solve_lp(entry.region, entry).status != "optimal":
                entry.tableau = None
        return entry.at(final, entry.tableau)


def solve_lp(problem: LpProblem, start: Start | None = None) -> LpSolution:
    """Solve an LP; exact status classification, deterministic output.

    The LP begins as `start` says (see `Start`); without one it solves
    cold from `Start(problem)`.  Every LP has a tableau, one with every
    variable fixed included; a start whose `keep` is set gets the final
    one as its `tableau`, and `iterations` is its own pivot count.  An
    optimum of 0 is 0.0, never -0.0, in either sense.
    """
    m = problem.n_rows
    flip = problem.sense == "max"
    c = -problem.objective if flip else problem.objective

    start = start or Start(problem)
    tab = start._warm(problem, c)
    if start.keep:
        start.tableau = tab
    if tab.infeasible:
        return LpSolution("infeasible", None, None, iterations=tab.iterations)

    form = tab.form
    if tab.phase_two(c[form.var] * form.sign) == "unbounded":
        return LpSolution("unbounded", None, None, iterations=tab.iterations)

    xstd, zrow = tab.extract()
    point = form.base.copy()
    np.add.at(point, form.var, form.sign * xstd[:tab.ns])
    if tab.by_bland:
        _check_rows(problem, point)
    obj = float(c @ point)
    return LpSolution(
        "optimal",
        (-obj if flip else obj) + 0.0,  # + 0.0 makes a -0.0 optimum 0.0
        point,
        # Row duals are the reduced costs of the original rows' slack columns.
        row_duals=np.maximum(zrow[tab.ns:tab.ns + m], 0.0),
        iterations=tab.iterations,
    )


def _violated_rows(problem: LpProblem, point: np.ndarray) -> np.ndarray:
    """Mask of the rows of `problem` that `point` exceeds by more than
    FEASIBILITY_TOL * max(1, |rhs|)."""
    excess = problem.rows @ point - problem.rhs
    return excess > FEASIBILITY_TOL * np.maximum(1.0, np.abs(problem.rhs))


def _check_rows(problem: LpProblem, point: np.ndarray) -> None:
    """Raise SimplexError unless `point` meets every row of `problem`
    (see `_violated_rows`)."""
    bad = _violated_rows(problem, point)
    if bad.any():
        row = int(bad.argmax())
        excess = problem.rows[row] @ point - problem.rhs[row]
        raise SimplexError(
            f"simplex point violates row {row} by {excess:.3g} after "
            "Bland's rule pivoted; the tableau has drifted")


def _no_better(value: float, incumbent: LpSolution | None) -> bool:
    """Whether a cost of `value` cannot improve on the incumbent's within
    OPTIMALITY_TOL; false while there is no incumbent."""
    if incumbent is None:
        return False
    best = incumbent.objective_value
    return value >= best - OPTIMALITY_TOL * max(1.0, abs(best))


def solve_milp(problem: MilpProblem, *, node_limit: int = 100_000,
               reference: MilpReference | None = None) -> LpSolution:
    """Globally optimal best-first branch and bound over the binaries.

    Each node is a `NodeStart` whose region is its LP, the problem's as a
    minimisation at the node's bounds, and that LP runs through solve_lp
    with it and no check: a branch fixes one binary of checked bounds at
    0 or 1.  At a node whose LP optimum has a fractional binary, simple
    rounding (Achterberg, 2007) rounds every binary above INTEGRALITY_TOL
    up, keeps the other values, and checks that point against every
    row, with no LP: a point that meets them all is an incumbent at its
    own cost, and closes the node when that cost meets the node's bound.
    Otherwise the node branches, down-branch first, on the lowest-index
    fractional binary in a row that the rounded point violates, or on
    the lowest-index fractional binary when snapping near-integral
    binaries made the only violations.  The point and objective returned
    are those of a final LP with every binary fixed at the incumbent's
    value, whose bounds alone are checked, or the incumbent's when that
    LP is not optimal, an objective of 0 as 0.0, never -0.0;
    `iterations` counts the pivots of every LP solved, that one
    included.  Every node but the root runs dual simplex from its
    parent's optimal tableau, to its optimum or to a proof that it is
    empty.

    Without `reference`, the root and the final LP solve cold: each
    starts at its slack basis and runs dual simplex (`Start._warm`); when
    every standard-form cost is >= 0 and one is > 0, as with unit
    commitment's costs over its nonnegative columns, that ends at the
    optimum with no primal pivot.  So do both at the reference's own
    rhs.  At any other rhs, the root runs dual simplex from `reference`'s
    root, and the final LP from the reference's entry for the commitment
    (see `MilpReference`), each when optimal, and cold otherwise.  A
    reference root or entry not yet solved is solved here first, in its
    own solve_lp call, whose pivots `iterations` leaves out, so that it
    counts the same pivots whichever MILP pays for it.  Raises
    LpUsageError when `reference` was built for other rows, bounds, costs
    or binaries.
    """
    flip = problem.lp.sense == "max"
    root = NodeStart(problem) if reference is None else reference._start(problem)
    base = root.region
    bidx = np.array(problem.binary_indices, dtype=int)
    bin_rows = base.rows[:, bidx]

    best: LpSolution | None = None
    nodes = 0
    pivots = 0
    seq = 0
    heap: list[tuple[float, int, NodeStart]] = [(-np.inf, seq, root)]

    while heap:
        est, _, node = heapq.heappop(heap)
        if _no_better(est, best):
            continue
        if nodes >= node_limit:
            raise NodeLimitExceeded(
                f"node limit {node_limit} exceeded",
                incumbent=best,
                bound=est if best is None else min(est, best.objective_value),
            )
        nodes += 1
        sol = solve_lp(node.region, node)
        pivots += sol.iterations
        if sol.status == "infeasible":
            continue
        if sol.status == "unbounded":
            return LpSolution("unbounded", None, None, iterations=pivots,
                              nodes=nodes)
        val = sol.objective_value
        if _no_better(val, best):
            continue
        vals = sol.point[bidx]
        frac = np.abs(vals - np.round(vals)) > INTEGRALITY_TOL
        if not frac.any():
            best = sol
            continue
        rounded = sol.point.copy()
        rounded[bidx] = vals > INTEGRALITY_TOL
        bad = _violated_rows(base, rounded)
        if not bad.any():
            cost = float(base.objective @ rounded)
            if not _no_better(cost, best):
                best = LpSolution("optimal", cost, rounded)
            if _no_better(val, best):
                continue
        needed = frac & (bin_rows[bad] != 0).any(axis=0)
        if not needed.any():
            needed = frac
        var = int(bidx[needed.argmax()])
        for v in (0.0, 1.0):  # down-branch first
            seq += 1
            heapq.heappush(heap, (val, seq, node.child(var, v)))

    if best is None:
        return LpSolution("infeasible", None, None, iterations=pivots,
                          nodes=nodes)
    commitment = best.point[bidx] > 0.5
    fixed = base.bounds.copy()
    fixed[bidx] = commitment[:, None].astype(float)
    last = base.with_bounds(fixed)
    if reference is None or _same_arrays((base.rhs, reference.base.rhs)):
        final = solve_lp(last)
    else:
        final = solve_lp(last, reference._final(last, commitment.tobytes()))
    pivots += final.iterations
    if final.status == "optimal":
        best = final
    obj = best.objective_value
    return LpSolution("optimal", (-obj if flip else obj) + 0.0, best.point,
                      iterations=pivots, nodes=nodes)
