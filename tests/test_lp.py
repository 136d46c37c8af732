"""LP and MILP solver tests, cross-checked against scipy and brute force."""

import heapq
import math
import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, linprog
from scipy.optimize import milp as scipy_milp

import ucscreen.lp as lp_module
from conftest import brute_force_milp, enumerate_polygon_vertices
from ucscreen.lp import (
    FEASIBILITY_TOL,
    LpProblem,
    LpUsageError,
    MilpProblem,
    MilpReference,
    NodeLimitExceeded,
    NodeStart,
    Start,
    lagrangian_bound,
    region_basis,
    solve_lp,
    solve_milp,
)


def test_bound_attained_optimum():
    sol = solve_lp(LpProblem([-1.0], np.zeros((0, 1)), [], bounds=[(0, 3)]))
    assert sol.status == "optimal"
    assert sol.objective_value == -3.0
    assert sol.point[0] == 3.0


def test_contradictory_rows_infeasible():
    sol = solve_lp(LpProblem([0.0], [[1.0], [-1.0]], [1.0, -2.0]))
    assert sol.status == "infeasible"


def test_polygon_max_matches_vertex_enumeration():
    # Box-with-diagonal polygon; oracle = explicit vertex enumeration.
    rows = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0],
                     [-1.0, 0.0], [0.0, -1.0]])
    rhs = np.array([5.0, 3.0, 3.0, 0.0, 0.0])
    vertices = enumerate_polygon_vertices(rows, rhs)
    expected = float(np.max(vertices.sum(axis=1)))
    assert expected == 5.0
    sol = solve_lp(LpProblem([1.0, 1.0], [[1.0, 1.0]], [5.0],
                             bounds=[(0, 3), (0, 3)], sense="max"))
    assert sol.status == "optimal"
    assert abs(sol.objective_value - expected) < 1e-9


def test_unbounded_detection():
    sol = solve_lp(LpProblem([-1.0, 0.0], [[0.0, 1.0]], [1.0],
                             bounds=[(0, None), (0, None)]))
    assert sol.status == "unbounded"
    assert sol.point is None and sol.objective_value is None


def test_beale_cycling_example_terminates():
    # Degenerate instance known to cycle without an anti-cycling rule.
    c = [-0.75, 150.0, -0.02, 6.0]
    A = [[0.25, -60.0, -1 / 25, 9.0],
         [0.5, -90.0, -1 / 50, 3.0],
         [0.0, 0.0, 1.0, 0.0]]
    b = [0.0, 0.0, 1.0]
    sol = solve_lp(LpProblem(c, A, b, bounds=[(0, None)] * 4))
    assert sol.status == "optimal"
    assert abs(sol.objective_value - (-0.05)) < 1e-9


def _random_problem(rng):
    n = int(rng.integers(1, 9))
    m = int(rng.integers(0, 14))
    A = np.round(rng.normal(size=(m, n)), 3)
    b = np.round(rng.normal(scale=2.0, size=m), 3)
    c = np.round(rng.normal(size=n), 3)
    bounds = []
    for _ in range(n):
        kind = rng.integers(0, 4)
        lo = None if kind in (2, 3) else float(np.round(rng.normal(scale=2), 3))
        if kind == 0:
            hi = lo + float(np.round(rng.uniform(0, 4), 3))
        elif kind == 2:
            hi = float(np.round(rng.normal(scale=2), 3))
        else:
            hi = None
        bounds.append((lo, hi))
    return c, A, b, bounds


def test_random_lps_match_scipy():
    rng = np.random.default_rng(7)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(150):
        c, A, b, bounds = _random_problem(rng)
        mine = solve_lp(LpProblem(c, A, b, bounds=bounds))
        # presolve off: HiGHS presolve mislabels some unbounded LPs infeasible
        ref = linprog(c, A_ub=A if len(b) else None, b_ub=b if len(b) else None,
                      bounds=[(lo if lo is not None else -np.inf,
                               hi if hi is not None else np.inf)
                              for lo, hi in bounds], method="highs",
                      options={"presolve": False})
        ref_status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        assert mine.status == ref_status
        statuses[mine.status] += 1
        if mine.status == "optimal":
            assert abs(mine.objective_value - ref.fun) <= 1e-6 * max(1, abs(ref.fun))
            if len(b):
                assert np.max(A @ mine.point - b) <= 1e-7
    # the generator must exercise all three verdicts
    assert min(statuses.values()) > 5


def _spy_cold_starts(monkeypatch):
    """Record the verdict of each dual simplex run, the pivots of each
    primal phase 2 and the number of objective rows priced at ones.
    Without a start, every dual simplex run starts from a slack basis; in
    branch and bound, children run it too."""
    record = {"dual": [], "primal": [], "ones": 0}
    dual_simplex = lp_module._Tableau.dual_simplex
    phase_two = lp_module._Tableau.phase_two
    zrow = lp_module._Tableau._zrow

    def recorded_zrow(self, cost):
        record["ones"] += bool(np.all(cost == 1.0))
        return zrow(self, cost)

    def recorded_dual(self, zrow):
        verdict = dual_simplex(self, zrow)
        record["dual"].append(verdict)
        return verdict

    def counted_phase_two(self, c):
        before = self.iterations
        status = phase_two(self, c)
        record["primal"].append(self.iterations - before)
        return status

    monkeypatch.setattr(lp_module._Tableau, "dual_simplex", recorded_dual)
    monkeypatch.setattr(lp_module._Tableau, "phase_two", counted_phase_two)
    monkeypatch.setattr(lp_module._Tableau, "_zrow", recorded_zrow)
    return record


def _nonnegative_cost_problem(rng):
    """c >= 0 over y >= 0 (some y capped above, some fixed) and rows
    whose right-hand sides take both signs: the dual start's case."""
    n = int(rng.integers(1, 9))
    m = int(rng.integers(1, 12))
    A = np.round(rng.normal(size=(m, n)), 3)
    b = np.round(rng.normal(scale=2.0, size=m), 3)
    c = np.round(np.abs(rng.normal(size=n)), 3) * (rng.random(n) < 0.8)
    bounds = []
    for _ in range(n):
        kind = rng.integers(0, 4)
        hi = float(np.round(rng.uniform(0, 4), 3))
        bounds.append((0.0, None) if kind < 2 else (0.0, hi) if kind == 2
                      else (hi, hi))
    return LpProblem(c, A, b, bounds=bounds)


def test_dual_start_matches_scipy(monkeypatch):
    record = _spy_cold_starts(monkeypatch)
    rng = np.random.default_rng(53)
    statuses = {"optimal": 0, "infeasible": 0}
    for _ in range(150):
        p = _nonnegative_cost_problem(rng)
        mine = solve_lp(p)
        ref = linprog(p.objective, A_ub=p.rows, b_ub=p.rhs, bounds=p.bounds,
                      method="highs", options={"presolve": False})
        assert mine.status == {0: "optimal", 2: "infeasible"}[ref.status]
        statuses[mine.status] += 1
        if mine.status == "optimal":
            assert abs(mine.objective_value - ref.fun) <= 1e-9 * max(
                1.0, abs(ref.fun))
            assert np.max(p.rows @ mine.point - p.rhs) <= 1e-7
    assert min(statuses.values()) > 20
    # Every LP has a row and started from its slack basis, one with no
    # column too, and dual simplex gave every verdict: an empty region,
    # or a basis at which phase 2 had nothing left to do whenever a cost
    # was > 0.
    assert len(record["dual"]) == 150
    assert record["dual"].count("infeasible") == statuses["infeasible"] > 20
    assert sum(record["primal"]) == 0


def test_cold_verdict_keeps_the_feasibility_tolerance():
    # x <= 1 and x >= 1 + gap.  A gap of 5e-8 is within FEASIBILITY_TOL,
    # as it is within HiGHS's primal tolerance, so the region is not
    # empty: dual simplex counts the row left at -5e-8, which no pivot
    # can raise, as satisfied.  A gap of 5e-7 is not.
    for gap, status in ((5e-8, "optimal"), (5e-7, "infeasible")):
        p = LpProblem([1.0], [[1.0], [-1.0]], [1.0, -1.0 - gap],
                      bounds=[(0, None)])
        ref = linprog(p.objective, A_ub=p.rows, b_ub=p.rhs, bounds=p.bounds,
                      method="highs", options={"presolve": False})
        mine = solve_lp(p)
        assert mine.status == status == {0: "optimal", 2: "infeasible"}[
            ref.status]
        if status == "optimal":
            assert abs(mine.objective_value - ref.fun) <= 1e-9
        # The branch-and-bound root and final LP go through the same cold
        # start.  A row u >= 1 forces the binary u to 1, so the root is
        # integral and no child solves.  With u >= 0.5 the root is
        # fractional, and the child u = 1 starts from the root's tableau
        # by dual simplex.  Either way the MILP is the LP plus 1.
        for u_min in (1.0, 0.5):
            rows = [[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]
            rhs = [1.0, -1.0 - gap, -u_min]
            milp = solve_milp(MilpProblem(LpProblem(
                [1.0, 1.0], rows, rhs, bounds=[(0, None), (0, 1)]), (1,)))
            assert milp.status == status
            if status == "optimal":
                assert abs(milp.objective_value - (ref.fun + 1.0)) <= 1e-9
                # HiGHS's MILP tolerance (1e-6) also accepts the larger
                # gap, so only the optimal case is compared with it.
                highs = scipy_milp([1.0, 1.0], integrality=[0, 1],
                                   bounds=Bounds([0, 0], [np.inf, 1]),
                                   constraints=LinearConstraint(
                                       rows, -np.inf, rhs))
                assert highs.status == 0
                assert abs(milp.objective_value - highs.fun) <= FEASIBILITY_TOL


def test_dual_start_on_a_form_without_rows():
    # No row and no finite upper bound: the standard form has columns but
    # no row, and the optimum sits at the lower bounds.
    sol = solve_lp(LpProblem([1.0, 0.5, 0.0], np.zeros((0, 3)), [],
                             bounds=[(0, None), (2, None), (0, None)]))
    assert sol.status == "optimal"
    assert sol.objective_value == 1.0
    assert sol.point.tolist() == [0.0, 2.0, 0.0]


def test_rows_without_columns_keep_their_count():
    # m rows over no variable were once reshaped to (0, 0), and the rhs
    # then failed "rhs length 3 != row count 0".  Each row reads 0 <= rhs.
    sol = solve_lp(LpProblem(np.zeros(0), np.zeros((3, 0)), [1.0, 0.0, 3.0]))
    assert sol.status == "optimal" and sol.objective_value == 0.0
    assert sol.point.shape == (0,) and sol.row_duals.tolist() == [0.0] * 3
    for rhs, status in ((-FEASIBILITY_TOL / 2, "optimal"),
                        (-2 * FEASIBILITY_TOL, "infeasible")):
        sol = solve_lp(LpProblem(np.zeros(0), np.zeros((3, 0)),
                                 [1.0, rhs, 3.0]))
        assert sol.status == status
    # Input that is not 2-D still means no row.
    assert LpProblem([1.0, 2.0], [], []).rows.shape == (0, 2)


def test_kept_start_with_every_variable_fixed_holds_a_tableau():
    # x fixed at 1 under x <= 1 - gap: the standard form has no column,
    # and its tableau's dual simplex decides feasibility at the same
    # tolerance as any other LP's, with no pivot.
    for gap, status in ((5e-8, "optimal"), (5e-7, "infeasible")):
        region = LpProblem([1.0], [[1.0]], [1.0 - gap], bounds=[(1, 1)])
        start = Start(region, keep=True)
        sol = solve_lp(region, start)
        assert sol.status == status
        assert isinstance(start.tableau, lp_module._Tableau)
        assert sol.iterations == start.tableau.iterations == 0
        assert start.tableau.infeasible == (status == "infeasible")
        if status == "optimal":
            assert sol.point.tolist() == [1.0] and sol.objective_value == 1.0
            assert sol.row_duals.tolist() == [0.0]
        assert isinstance(region_basis(region), lp_module._Tableau)


def _assert_same_optimum(a, b):
    assert a.status == b.status
    if a.status == "optimal":
        assert abs(a.objective_value - b.objective_value) <= 1e-9 * max(
            1.0, abs(a.objective_value))


def _solve_by_bland(monkeypatch, solve, problems):
    """Solve each problem by the default rules, then with no stall allowed,
    so that primal and dual simplex both pivot by Bland's rule from the
    first pivot on.  Each forced result must have the default's status
    and optimum.  Returns the forced results and the pivots of each kind
    (primal, dual) made by Bland's rule, the only rule that ran."""
    default = [solve(p) for p in problems]
    pivots = {}  # (pivot kind, by Bland's rule) -> pivots
    for name in ("_primal_pivot", "_dual_pivot"):
        real = getattr(lp_module._Tableau, name)

        def counted(self, zrow, rule, real=real, name=name):
            pick = real(self, zrow, rule)
            key = (name, bool(rule))
            pivots[key] = pivots.get(key, 0) + (not isinstance(pick, str))
            return pick

        monkeypatch.setattr(lp_module._Tableau, name, counted)
    monkeypatch.setattr(lp_module, "_STALL_LIMIT", 0)
    forced = [solve(p) for p in problems]
    assert sorted(pivots) == [("_dual_pivot", True), ("_primal_pivot", True)]
    for a, b in zip(default, forced):
        _assert_same_optimum(a, b)
    return forced, pivots


def test_bland_from_the_first_pivot_gives_the_same_lp_optima(monkeypatch):
    # The LPs of test_dual_start_matches_scipy, whose costs are >= 0, and
    # those of test_random_lps_match_scipy, whose costs take both signs,
    # so that primal phase 2 pivots too.  Both also match HiGHS.
    rng = np.random.default_rng(53)
    lps = [_nonnegative_cost_problem(rng) for _ in range(150)]
    rng = np.random.default_rng(7)
    for _ in range(150):
        c, A, b, bounds = _random_problem(rng)
        lps.append(LpProblem(c, A, b, bounds=bounds))
    forced, pivots = _solve_by_bland(monkeypatch, solve_lp, lps)
    assert min(pivots.values()) > 100
    for p, sol in zip(lps, forced):
        ref = linprog(p.objective, A_ub=p.rows if p.n_rows else None,
                      b_ub=p.rhs if p.n_rows else None, bounds=p.bounds,
                      method="highs", options={"presolve": False})
        assert sol.status == {0: "optimal", 2: "infeasible",
                              3: "unbounded"}[ref.status]
        if sol.status == "optimal":
            assert abs(sol.objective_value - ref.fun) <= 1e-9 * max(
                1.0, abs(ref.fun))


def test_bland_from_the_first_pivot_gives_the_same_milp_optima(monkeypatch):
    milps = _random_milps(np.random.default_rng(61), 20)
    forced, pivots = _solve_by_bland(
        monkeypatch, lambda p: solve_milp(p, node_limit=1_000), milps)
    assert min(pivots.values()) > 10
    for p, sol in zip(milps, forced):
        lp = p.lp
        ref = scipy_milp(lp.objective, integrality=np.isin(
            np.arange(lp.n_vars), p.binary_indices).astype(int),
            bounds=Bounds(lp.bounds[:, 0], lp.bounds[:, 1]),
            constraints=LinearConstraint(lp.rows, -np.inf, lp.rhs))
        assert sol.status == {0: "optimal", 2: "infeasible"}[ref.status]
        if sol.status == "optimal":
            assert abs(sol.objective_value - ref.fun) <= 1e-6 * max(
                1.0, abs(ref.fun))


def _dual_bound(problem, sol):
    """The Lagrangian bound that sol.row_duals certify over the problem's
    own variable bounds, which equals the optimum at an exact optimal
    basis.  Residual costs within 1e-9 (relative to the largest cost) of 0
    are the final basis's rounding noise and count as 0, so that a free
    basic variable's residual does not make the bound infinite."""
    sign = 1.0 if problem.sense == "max" else -1.0
    c = sign * problem.objective  # maximized
    y = sol.row_duals[None]
    priced = (y @ problem.rows)[0]  # as lagrangian_bound computes it
    scale = max(1.0, float(np.max(np.abs(c))) if c.size else 1.0)
    c = np.where(np.abs(c - priced) <= 1e-9 * scale, priced, c)
    return sign * float(lagrangian_bound(
        c[None], y, problem.rows, problem.rhs, problem.bounds[:, 0],
        problem.bounds[:, 1])[0])


def test_weak_duality_dual_bound_from_final_basis():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 40:
        c, A, b, bounds = _random_problem(rng)
        problem = LpProblem(c, A, b, bounds=bounds)
        sol = solve_lp(problem)
        if sol.status != "optimal":
            continue
        checked += 1
        assert sol.row_duals is not None and np.all(sol.row_duals >= 0)
        assert abs(sol.objective_value - _dual_bound(problem, sol)) <= 1e-7 * max(
            1, abs(sol.objective_value))


def test_determinism_identical_runs():
    rng = np.random.default_rng(3)
    c, A, b, bounds = _random_problem(rng)
    a = solve_lp(LpProblem(c, A, b, bounds=bounds))
    b2 = solve_lp(LpProblem(c, A, b, bounds=bounds))
    assert a.status == b2.status
    if a.status == "optimal":
        assert a.objective_value == b2.objective_value
        assert np.array_equal(a.point, b2.point)


def test_dimension_mismatch_raises():
    with pytest.raises(LpUsageError):
        LpProblem([1.0, 2.0], [[1.0]], [1.0])
    with pytest.raises(LpUsageError):
        LpProblem([1.0], [[1.0]], [1.0, 2.0])
    with pytest.raises(LpUsageError):
        LpProblem([1.0], [[1.0]], [1.0], bounds=[(2.0, 1.0)])


@pytest.mark.parametrize("pair", [(-np.inf, -np.inf), (np.inf, np.inf)])
def test_bound_pair_at_one_infinity_is_rejected(pair):
    # No number lies in such a pair; it once solved "optimal" at y0 = 0.
    with pytest.raises(LpUsageError, match="variable 0"):
        solve_lp(LpProblem([1, 1], [[1, 1]], [5], bounds=[pair, (0, 1)]))


@pytest.mark.parametrize("field, value, message", [
    ("objective", [np.nan, -1.0], "objective entry 0 is NaN"),
    ("rows", [[np.nan, 0.0]], "row 0 has a non-finite entry in column 0"),
    ("rows", [[1.0, np.inf]], "row 0 has a non-finite entry in column 1"),
    ("rhs", [np.nan], "rhs entry 0 is NaN"),
])
def test_nan_entries_and_infinite_row_entries_are_rejected(field, value, message):
    # Each was once accepted: a NaN objective solved "optimal" at a NaN
    # cost, a NaN row entry was ignored, and an infinite one warned in
    # the matmul.
    good = dict(objective=[1.0, -1.0], rows=[[1.0, 0.0]], rhs=[1.0],
                bounds=[(0, 5), (0, 5)])
    with pytest.raises(LpUsageError, match=f"^{message}$"):
        LpProblem(**{**good, field: value})
    with pytest.raises(LpUsageError, match="^objective entry 1 is NaN$"):
        LpProblem(**good).with_objective([0.0, np.nan])
    # An infinite objective or rhs entry is rejected as well: the kernel
    # gave it no meaning (see the probes below).
    for field, value in (("rhs", [np.inf]), ("rhs", [-np.inf]),
                         ("objective", [1.0, -np.inf])):
        with pytest.raises(LpUsageError, match="entry . is infinite$"):
            LpProblem(**{**good, field: value})
    with pytest.raises(LpUsageError, match="^objective entry 0 is infinite$"):
        LpProblem(**good).with_objective([np.inf, 0.0])


def test_huge_finite_entries_pass_the_finite_check():
    # The check once summed the squares, which overflow above about 1e154,
    # and numpy's overflow warning stopped a valid LP.
    region = LpProblem([0.0, 0.0], [[1.0, 1.0]], [1e200],
                       bounds=[(0, 1), (0, 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_lp(region.with_objective([1e200, 0.0]))
    assert sol.status == "optimal" and sol.point.tolist() == [0.0, 0.0]
    for value, what in ((np.nan, "NaN"), (np.inf, "infinite"),
                        (-np.inf, "infinite")):
        with pytest.raises(LpUsageError, match=f"^objective entry 0 is {what}$"):
            region.with_objective([value, 0.0])
        with pytest.raises(LpUsageError, match=f"^rhs entry 0 is {what}$"):
            LpProblem([0.0, 0.0], [[1.0, 1.0]], [value])


# Each was once solved: the first, third and fourth "optimal" at a NaN
# objective, the second and the MILP "optimal" at 0.0 over a region that
# no point meets.
@pytest.mark.parametrize("solve, message", [
    (lambda: solve_lp(LpProblem([1.0], [[1.0]], [np.inf], bounds=[(0, None)],
                                sense="max")), "rhs entry 0 is infinite"),
    (lambda: solve_lp(LpProblem([1.0, 1.0], [[1.0, 1.0], [-1.0, -1.0]],
                                [4.0, -np.inf], bounds=[(0, 10), (0, 10)])),
     "rhs entry 1 is infinite"),
    (lambda: solve_lp(LpProblem([1.0], [[-1.0]], [-np.inf], bounds=[(0, None)])),
     "rhs entry 0 is infinite"),
    (lambda: solve_lp(LpProblem([np.inf, 1.0], [[1.0, 1.0]], [4.0],
                                bounds=[(0, 5), (0, 5)])),
     "objective entry 0 is infinite"),
    (lambda: solve_milp(MilpProblem(LpProblem(
        [1.0, 2.0], [[1.0, 1.0], [-1.0, 0.0]], [4.0, -np.inf],
        bounds=[(0, 10), (0, 1)]), (1,))), "rhs entry 1 is infinite"),
], ids=["unbounded", "empty", "empty-alone", "infinite-cost", "milp"])
def test_infinite_objective_or_rhs_entry_is_rejected(solve, message):
    with pytest.raises(LpUsageError, match=f"^{message}$"):
        solve()


def test_row_duals_at_an_optimal_vertex_are_the_solution_duals():
    region = LpProblem(np.zeros(2), BOX_ROWS, BOX_RHS)
    basis = region_basis(region)
    for c in OBJECTIVES:
        for sense in ("min", "max"):
            start = Start(region, basis, keep=True)
            sol = solve_lp(LpProblem(c, BOX_ROWS, BOX_RHS, sense=sense), start)
            cost = np.array(c) * (-1.0 if sense == "max" else 1.0)
            priced = start.tableau.row_duals(cost[None], len(BOX_RHS))[0]
            assert np.allclose(priced, sol.row_duals, rtol=0.0, atol=1e-12)


# --- MILP ---


def test_milp_all_binaries_fixed_equals_lp_restriction():
    c = [1.0, -2.0, 0.5]
    A = [[1.0, 1.0, 1.0]]
    b = [2.0]
    bounds = [(1, 1), (0, 0), (0, 2)]
    milp = solve_milp(MilpProblem(LpProblem(c, A, b, bounds=bounds), (0, 1)))
    lp = solve_lp(LpProblem(c, A, b, bounds=bounds))
    assert milp.status == lp.status == "optimal"
    assert milp.objective_value == lp.objective_value


def test_a_zero_optimum_is_positive_zero():
    # Each maximisation's costs cancel to exactly 0 at its optimum, which
    # a negated minimum would give as -0.0.
    fixed = solve_lp(LpProblem([-1.0, 1.0], np.zeros((0, 2)), [],
                               bounds=[(1, 1), (1, 1)], sense="max"))
    open_above = solve_lp(LpProblem([1.0, -1.0], np.zeros((0, 2)), [],
                                    bounds=[(1, 1), (1, None)], sense="max"))
    milp = solve_milp(MilpProblem(LpProblem([-1.0, 0.0], [[1.0, 1.0]], [1.0],
                                            bounds=[(0, 1), (0, 1)], sense="max"),
                                  (0,)))
    for sol in (fixed, open_above, milp):
        assert sol.status == "optimal" and sol.objective_value == 0.0
        assert math.copysign(1.0, sol.objective_value) == 1.0


def test_milp_relaxation_is_lower_bound():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        nbin = int(rng.integers(1, n + 1))
        A = np.round(rng.normal(size=(4, n)), 3)
        b = np.round(rng.normal(scale=2.0, size=4) + 1.0, 3)
        c = np.round(rng.normal(size=n), 3)
        bounds = [(0.0, 1.0)] * nbin + [(0.0, 3.0)] * (n - nbin)
        prob = MilpProblem(LpProblem(c, A, b, bounds=bounds), tuple(range(nbin)))
        milp = solve_milp(prob)
        lp = solve_lp(prob.lp)
        if milp.status == "optimal":
            assert lp.status == "optimal"
            assert lp.objective_value <= milp.objective_value + 1e-9


def test_milp_against_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        nbin = int(rng.integers(1, min(n, 6) + 1))
        m = int(rng.integers(1, 10))
        A = np.round(rng.normal(size=(m, n)), 3)
        b = np.round(rng.normal(scale=2.0, size=m) + 1.0, 3)
        c = np.round(rng.normal(size=n), 3)
        bounds = ([(0.0, 1.0)] * nbin
                  + [(0.0, float(np.round(rng.uniform(0.5, 4), 3)))
                     for _ in range(n - nbin)])
        prob = MilpProblem(LpProblem(c, A, b, bounds=bounds), tuple(range(nbin)))
        mine = solve_milp(prob)
        status, best = brute_force_milp(c, A, b, bounds, tuple(range(nbin)))
        assert mine.status == status
        if status == "optimal":
            assert abs(mine.objective_value - best) <= 1e-6 * max(1, abs(best))


def test_milp_uc_two_unit_enumeration(cases):
    # Reconstructed two-unit case: enumerate all four commitment patterns.
    from ucscreen.model import build_uc, milp_problem

    inst = build_uc(cases["five_bus"], cases["five_bus"].nominal_load)
    prob = milp_problem(inst)
    mine = solve_milp(prob)
    status, best = brute_force_milp(
        prob.lp.objective, prob.lp.rows, prob.lp.rhs,
        [tuple(pair) for pair in prob.lp.bounds], prob.binary_indices)
    assert mine.status == status == "optimal"
    assert abs(mine.objective_value - best) <= 1e-9 * max(1, abs(best))


def test_negative_cost_unit_takes_the_primal_path(cases, monkeypatch):
    # The bundled costs are >= 0, so the root and final LPs' dual simplex
    # runs are priced at those costs and end at the optimum: no LP makes
    # a primal pivot.  A unit paid to run makes one standard-form cost
    # negative: both are then priced at ones, and primal phase 2 ends at
    # the same optimum as brute force.
    import dataclasses

    from ucscreen.model import build_uc, milp_problem

    record = _spy_cold_starts(monkeypatch)
    case = cases["five_bus"]
    assert solve_milp(milp_problem(build_uc(case, case.nominal_load))
                      ).status == "optimal"
    assert record["primal"] and sum(record["primal"]) == 0
    assert record["ones"] == 0
    gens = list(case.generators)
    gens[0] = dataclasses.replace(gens[0], cost=-1.5)
    case = dataclasses.replace(case, generators=tuple(gens))
    prob = milp_problem(build_uc(case, case.nominal_load))
    mine = solve_milp(prob)
    assert record["ones"] >= 2
    status, best = brute_force_milp(
        prob.lp.objective, prob.lp.rows, prob.lp.rhs,
        [tuple(pair) for pair in prob.lp.bounds], prob.binary_indices)
    assert mine.status == status == "optimal"
    assert abs(mine.objective_value - best) <= 1e-9 * max(1, abs(best))


def test_milp_infeasible_when_demand_exceeds_capacity(cases):
    from ucscreen.model import build_uc, milp_problem

    case = cases["five_bus"]
    load = np.full(case.n_buses, 10.0)  # far beyond total capacity 6
    sol = solve_milp(milp_problem(build_uc(case, load)))
    assert sol.status == "infeasible"


def test_milp_node_limit_carries_incumbent():
    rng = np.random.default_rng(13)
    n, nbin = 10, 10
    A = np.round(rng.normal(size=(6, n)), 3)
    b = np.round(rng.uniform(1, 3, size=6), 3)
    c = np.round(rng.normal(size=n), 3)
    prob = MilpProblem(LpProblem(c, A, b, bounds=[(0.0, 1.0)] * n),
                       tuple(range(nbin)))
    with pytest.raises(NodeLimitExceeded) as err:
        solve_milp(prob, node_limit=1)
    assert err.value.bound is not None


def test_milp_guards():
    # No cap on the binary count: with 70 distinct costs, the least cost
    # of sum(u) >= 23 runs the 23 cheapest units, at 1 + 2 + ... + 23.
    n, k = 70, 23
    cost = np.random.default_rng(3).permutation(n) + 1.0
    lp = LpProblem(cost, -np.ones((1, n)), [-k], bounds=[(0.0, 1.0)] * n)
    sol = solve_milp(MilpProblem(lp, tuple(range(n))))
    assert sol.status == "optimal"
    assert sol.objective_value == k * (k + 1) / 2
    assert np.array_equal(np.flatnonzero(sol.point), np.sort(np.argsort(cost)[:k]))
    lp2 =LpProblem([0.0], np.zeros((0, 1)), [], bounds=[(0.0, 2.0)])
    with pytest.raises(LpUsageError):
        MilpProblem(lp2, (0,))
    # A branch fixes a binary at 0 or 1, which must lie within its bounds.
    for pair in ((0.0, 0.5), (0.3, 1.0), (0.5, 0.5)):
        lp3 = LpProblem([0.0], np.zeros((0, 1)), [], bounds=[pair])
        with pytest.raises(LpUsageError, match="bounds 0 or 1"):
            MilpProblem(lp3, (0,))


def test_pruning_keeps_every_node_until_the_first_incumbent():
    # With no incumbent no bound prunes a node, -inf and +inf included.
    for value in (-np.inf, -1e300, 0.0, 1e300, np.inf):
        assert not lp_module._no_better(value, None)
    incumbent = lp_module.LpSolution("optimal", 2.0, np.zeros(1))
    assert lp_module._no_better(2.0 - 1e-10, incumbent)
    assert not lp_module._no_better(2.0 - 1e-8, incumbent)


# --- shared starts at the region's feasible basis ---

# A box 1 <= y1 <= 3, 0.5 <= y2 <= 2 with a diagonal cut, where each
# lower bound and the cut appear twice: once tight, once implied.
BOX_ROWS = np.array([[-1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [0.0, -1.0],
                     [0.0, -1.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
BOX_RHS = np.array([-1.0, 0.0, 3.0, -0.5, 0.0, 2.0, 4.0, 5.0])
OBJECTIVES = ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
              [1.0, 1.0], [1.0, -1.0], [-2.0, 1.0])


def _assert_same(problem, warm, cold):
    assert warm.status == cold.status
    if cold.status == "optimal":
        assert abs(warm.objective_value - cold.objective_value) <= 1e-9
        assert abs(_dual_bound(problem, warm)
                   - _dual_bound(problem, cold)) <= 1e-9


def _region_starts(region):
    """Starts for LPs over `region` from one `region_basis`, as the
    vertex store hands them out."""
    basis = region_basis(region)
    while True:
        yield Start(region, basis)


def test_warm_start_matches_cold():
    starts = _region_starts(LpProblem(np.zeros(2), BOX_ROWS, BOX_RHS))
    for c in OBJECTIVES:
        for sense in ("min", "max"):
            problem = LpProblem(c, BOX_ROWS, BOX_RHS, sense=sense)
            _assert_same(problem, solve_lp(problem, next(starts)),
                         solve_lp(problem))


def _row_kept_verdicts(rows, rhs):
    """Per row j, (verdict, maximum) of a_j y from the region's feasible
    basis and of the cold LP over the region less row j; the verdict is
    redundant when the maximum clears rhs[j] by FEASIBILITY_TOL."""
    starts = _region_starts(LpProblem(np.zeros(rows.shape[1]), rows, rhs))
    out = []
    for j in range(len(rhs)):
        keep = np.arange(len(rhs)) != j
        kept = solve_lp(LpProblem(rows[j], rows, rhs, sense="max"),
                        next(starts))
        dropped = solve_lp(LpProblem(rows[j], rows[keep], rhs[keep],
                                     sense="max"))
        out.append(tuple(
            (sol.status == "optimal"
             and sol.objective_value <= rhs[j] - FEASIBILITY_TOL,
             sol.objective_value) for sol in (kept, dropped)))
    return out


def test_row_kept_gives_the_row_dropped_verdict():
    verdicts = _row_kept_verdicts(BOX_ROWS, BOX_RHS)
    for (kept, kept_max), (dropped, dropped_max) in verdicts:
        assert kept == dropped
        if kept:
            assert abs(kept_max - dropped_max) <= 1e-9
    # Each twin pair has one tight, kept row and one implied, redundant one.
    assert [kept for (kept, _), _ in verdicts] == [
        False, True, False, False, True, False, False, True]
    # y >= 1 and a vacuous row: without y >= 1 the maximum of -y is
    # unbounded, with it the maximum is its own bound; kept both ways.
    rows, rhs = np.array([[-1.0], [0.0]]), np.array([-1.0, 1.0])
    (kept, kept_max), (dropped, dropped_max) = _row_kept_verdicts(rows, rhs)[0]
    assert not kept and not dropped
    assert kept_max == -1.0 and dropped_max is None


def test_warm_start_on_empty_region():
    rows, rhs = np.array([[1.0], [-1.0], [1.0]]), np.array([0.0, -1.0, 4.0])
    region = LpProblem([0.0], rows, rhs)
    assert region_basis(region).infeasible
    start = Start(region, region_basis(region))
    assert solve_lp(LpProblem([1.0], rows, rhs), start).status == "infeasible"


def test_warm_start_rejects_another_region():
    region = LpProblem(np.zeros(2), BOX_ROWS, BOX_RHS)
    start = Start(region, region_basis(region))
    with pytest.raises(LpUsageError):
        solve_lp(LpProblem([1.0, 0.0], BOX_ROWS, BOX_RHS + 1.0), start)
    with pytest.raises(LpUsageError):
        solve_lp(LpProblem([1.0, 0.0], BOX_ROWS[1:], BOX_RHS[1:]), start)


def test_warm_start_pivot_accounting():
    # `region_basis` is the region's own LP, solved cold with a kept
    # start.  With a zero objective its phase 2 makes no pivot, so it
    # counts the dual phase's, priced at ones, and its tableau holds them.
    region = LpProblem(np.zeros(2), BOX_ROWS, BOX_RHS)
    start = Start(region, None, keep=True)
    phase_one = solve_lp(region, start).iterations
    assert phase_one == start.tableau.iterations
    assert phase_one == region_basis(region).iterations > 0
    # Every LP from the basis counts its own phase 2 alone, the cold
    # solve's pivots less the dual phase's.  The variables are free, so a
    # nonzero cost gives a free variable's +z, -z pair opposite signs, and
    # each cold solve is priced at ones too.
    starts = _region_starts(region)
    for c in OBJECTIVES:
        problem = LpProblem(c, BOX_ROWS, BOX_RHS)
        cold = solve_lp(problem).iterations
        assert solve_lp(problem, next(starts)).iterations == cold - phase_one
    # y1 + y2 >= 3 in the unit box: dual simplex pivots before it finds
    # the region empty, and the basis LP counts them, its kept tableau
    # flagged; an LP copied from that tableau makes no pivot.
    empty = LpProblem([-1.0, -1.0], [[-1.0, -1.0]], [-3.0],
                      bounds=[(0, 1), (0, 1)])
    cold = solve_lp(empty)
    assert cold.status == "infeasible" and cold.iterations > 0
    start = Start(empty, None, keep=True)
    assert solve_lp(empty, start).iterations == cold.iterations
    assert start.tableau.infeasible
    later = solve_lp(empty, Start(empty, start.tableau))
    assert later.status == "infeasible" and later.iterations == 0


def test_phase_one_runs_once_per_instance_across_threads(cases,
                                                         monkeypatch):
    # Sixteen threads screen a fresh instance twice while the interpreter
    # switches threads every microsecond.  The region's feasible basis is
    # computed once, in the calling thread, by its own LP, which no
    # screening LP's count includes.  Each screen's pivots equal a
    # one-thread screen's.
    import ucscreen.model as model
    import ucscreen.screening as screening
    from ucscreen.model import build_uc, relax_binaries

    case = cases["fifty_bus"]
    calls, pivots = [], []
    basis, solve = model.region_basis, screening.solve_lp

    def counted(region):
        calls.append(region.rows.shape)
        return basis(region)

    def counted_pivots(problem, start=None):
        sol = solve(problem, start)
        pivots.append(sol.iterations)
        return sol

    monkeypatch.setattr(model, "region_basis", counted)
    monkeypatch.setattr(screening, "solve_lp", counted_pivots)
    serial = screening.eovl(relax_binaries(build_uc(case, case.nominal_load)))
    assert len(calls) == 1
    expected = sum(pivots)
    calls.clear()
    inst = relax_binaries(build_uc(case, case.nominal_load))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            pivots.clear()
            report = screening.eovl(inst, jobs=16)
            assert report.redundant == serial.redundant
            assert sum(pivots) == expected
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 1 and inst.region_basis.iterations > 0


def _random_region(rng):
    """(rows, rhs, bounds) of a region around a seeded point y0.  Each of
    the four bound kinds (fixed, shifted, mirrored, free) occurs.  Some
    rows have a negative right-hand side in the standard form, so the
    slack basis is infeasible; the most negative one appears twice, a tie
    for dual simplex's leaving row.  Two last rows make one equality
    through y0, the one whose standard-form rhs is positive first: their
    slacks sum to zero, so every feasible basis is degenerate, with one of
    them basic at zero."""
    n = int(rng.integers(4, 8))
    kind = rng.permutation(np.resize(np.arange(4), n))
    y0 = np.round(rng.normal(size=n), 3)
    width = np.round(rng.uniform(0.1, 2.0, size=n), 3)
    lo = np.where(kind == 0, y0, np.where(kind == 1, y0 - width, -np.inf))
    hi = np.where(kind == 0, y0, np.where(kind == 2, y0 + width, np.inf))
    capped = (kind == 1) & (rng.random(n) < 0.5)
    hi[capped] = y0[capped] + width[capped]
    while True:
        m = int(rng.integers(3, 9))
        rows = np.round(rng.normal(size=(m + 1, n)), 3)
        flip = (rows @ y0 > 0) & (rng.random(m + 1) < 0.5)
        rows[flip] *= -1.0
        rhs = np.round(rows @ y0 + rng.uniform(0.01, 1.0, size=m + 1), 3)
        rhs[m] = rows[m] @ y0
        b = lp_module._standard_form(rows, lo, hi).b(
            LpProblem(np.zeros(n), rows, rhs, bounds=np.column_stack([lo, hi])))
        if b[:m].min() < 0 and b[m] != 0:
            break
    k = int(np.argmin(b[:m]))
    eq = np.sign(b[m]) * rows[m]
    return (np.vstack([rows[:m], rows[k], eq, -eq]),
            np.concatenate([rhs[:m], [rhs[k], eq @ y0, -(eq @ y0)]]),
            np.column_stack([lo, hi]))


def test_warm_starts_match_highs_on_random_regions():
    rng = np.random.default_rng(43)
    statuses = {"optimal": 0, "unbounded": 0}
    verdicts = {True: 0, False: 0}
    for _ in range(30):
        rows, rhs, bounds = _random_region(rng)
        region = LpProblem(np.zeros(len(bounds)), rows, rhs, bounds=bounds)
        # Dual simplex pivots the slack basis to a feasible one, at which
        # a slack of the equality pair is basic at zero.
        tab = region_basis(region)
        assert tab.iterations > 0 and tab.T[:, -1].min() >= -FEASIBILITY_TOL
        pair = tab.ns + len(rhs) - np.arange(1, 3)
        at = np.isin(tab.basis, pair)
        assert at.any() and np.all(np.abs(tab.T[at, -1]) <= 1e-9)
        starts = _region_starts(region)
        for sense in ("min", "max"):
            sign = 1.0 if sense == "min" else -1.0
            for _ in range(4):
                c = np.round(rng.normal(size=len(bounds)), 3)
                mine = solve_lp(LpProblem(c, rows, rhs, bounds=bounds,
                                          sense=sense), next(starts))
                ref = linprog(sign * c, A_ub=rows, b_ub=rhs, bounds=bounds,
                              method="highs", options={"presolve": False})
                assert mine.status == {0: "optimal", 3: "unbounded"}[ref.status]
                statuses[mine.status] += 1
                if mine.status == "optimal":
                    assert abs(mine.objective_value - sign * ref.fun) <= (
                        1e-6 * max(1.0, abs(ref.fun)))
        # Row i's maximum with row i kept gives the verdict of HiGHS over
        # the region less row i, and its value when redundant.
        for i in range(len(rhs)):
            keep = np.arange(len(rhs)) != i
            mine = solve_lp(LpProblem(rows[i], rows, rhs, bounds=bounds,
                                      sense="max"), next(starts))
            ref = linprog(-rows[i], A_ub=rows[keep], b_ub=rhs[keep],
                          bounds=bounds, method="highs",
                          options={"presolve": False})
            redundant = (mine.status == "optimal"
                         and mine.objective_value <= rhs[i] - FEASIBILITY_TOL)
            assert redundant == (ref.status == 0
                                 and -ref.fun <= rhs[i] - FEASIBILITY_TOL), i
            verdicts[redundant] += 1
            if redundant:
                assert abs(mine.objective_value + ref.fun) <= (
                    1e-6 * max(1.0, abs(ref.fun)))
    assert min(statuses.values()) > 20
    assert min(verdicts.values()) > 20


# --- warm-started branch and bound ---


def _cold_branch_and_bound(prob: MilpProblem) -> float:
    """Reference: best-first branch and bound that solves every node LP
    cold; the optimal cost, or inf when no binary point is feasible."""
    lp = prob.lp
    best, seq = np.inf, 0
    heap = [(-np.inf, seq, lp.bounds.copy())]
    while heap:
        est, _, bnds = heapq.heappop(heap)
        if est >= best:
            continue
        sol = solve_lp(LpProblem(lp.objective, lp.rows, lp.rhs, bounds=bnds))
        if sol.status != "optimal" or sol.objective_value >= best:
            continue
        frac = [i for i in prob.binary_indices
                if abs(sol.point[i] - round(sol.point[i])) > 1e-6]
        if not frac:
            best = sol.objective_value
            continue
        for v in (0.0, 1.0):
            child = bnds.copy()
            child[frac[0]] = (v, v)
            seq += 1
            heapq.heappush(heap, (sol.objective_value, seq, child))
    return best


def _bundled_milps(cases, per_case=3):
    from ucscreen.model import build_uc, milp_problem

    rng = np.random.default_rng(17)
    return [milp_problem(build_uc(case, case.nominal_load
                                  * rng.uniform(0.5, 1.2, size=case.n_buses)))
            for _, case in sorted(cases.items()) for _ in range(per_case)]


def _random_milps(rng, count):
    """Random MILPs whose rows often have a negative right-hand side."""
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 8))
        nbin = int(rng.integers(1, min(n, 6) + 1))
        m = int(rng.integers(1, 10))
        A = np.round(rng.normal(size=(m, n)), 3)
        b = np.round(rng.normal(scale=2.0, size=m) + 0.5, 3)
        c = np.round(rng.normal(size=n), 3)
        bounds = ([(0.0, 1.0)] * nbin
                  + [(0.0, float(np.round(rng.uniform(0.5, 4), 3)))
                     for _ in range(n - nbin)])
        out.append(MilpProblem(LpProblem(c, A, b, bounds=bounds),
                               tuple(range(nbin))))
    return out


def _spy_node_lps(monkeypatch):
    """Record (started from a parent basis, status, pivots) per solve_lp."""
    calls = []
    real = lp_module.solve_lp

    def spy(problem, start=None):
        warm = isinstance(start, NodeStart) and start.parent is not None
        sol = real(problem, start)
        calls.append((warm, sol.status, sol.iterations))
        return sol

    monkeypatch.setattr(lp_module, "solve_lp", spy)
    return calls


def test_warm_branch_and_bound_matches_cold_on_bundled_cases(cases):
    branched = 0
    for prob in _bundled_milps(cases):
        warm = solve_milp(prob, node_limit=100)  # a wrong warm start fails fast
        cold = _cold_branch_and_bound(prob)
        if warm.status != "optimal":
            assert warm.status == "infeasible" and cold == np.inf
            continue
        branched += warm.nodes > 1
        assert abs(warm.objective_value - cold) <= 1e-9 * max(1.0, abs(cold))
        u = warm.point[list(prob.binary_indices)]
        assert np.all((u == 0.0) | (u == 1.0))
        assert np.max(prob.lp.rows @ warm.point - prob.lp.rhs) <= FEASIBILITY_TOL
    assert branched >= 3  # the warm path ran


def test_warm_branch_and_bound_matches_brute_force(monkeypatch):
    rng = np.random.default_rng(29)
    problems = _random_milps(rng, 60)
    assert sum(np.any(p.lp.rhs < 0) for p in problems) > 20
    calls = _spy_node_lps(monkeypatch)
    statuses = set()
    for prob in problems:
        lp = prob.lp
        mine = solve_milp(prob, node_limit=1_000)
        status, best = brute_force_milp(
            lp.objective, lp.rows, lp.rhs, [tuple(pair) for pair in lp.bounds],
            prob.binary_indices)
        assert mine.status == status
        statuses.add(status)
        if status == "optimal":
            assert abs(mine.objective_value - best) <= 1e-6 * max(1, abs(best))
    assert {"optimal", "infeasible"} <= statuses
    warm = [status for started, status, _ in calls if started]
    assert "infeasible" in warm and "optimal" in warm


def test_zero_cost_branch_and_bound_matches_brute_force(monkeypatch):
    # With every cost 0 the root prices its dual simplex at ones (see
    # `Start._warm`), and each child keeps those prices, so no dual simplex runs
    # with every reduced cost at 0, where every ratio ties and the
    # objective never moves.  Any rounded point that meets every row
    # closes its node at cost 0, so it takes 300 MILPs for more than 50
    # children to run.
    problems = [MilpProblem(LpProblem(np.zeros(p.lp.n_vars), p.lp.rows,
                                      p.lp.rhs, bounds=p.lp.bounds),
                            p.binary_indices)
                for p in _random_milps(np.random.default_rng(5), 300)]
    calls = _spy_node_lps(monkeypatch)
    priced = []
    dual_simplex = lp_module._Tableau.dual_simplex

    def spy(self, zrow):
        if self.ns:  # a column-less tableau has no price to check
            priced.append(bool(np.count_nonzero(zrow[:-1])))
        return dual_simplex(self, zrow)

    monkeypatch.setattr(lp_module._Tableau, "dual_simplex", spy)
    statuses = set()
    for prob in problems:
        lp = prob.lp
        mine = solve_milp(prob, node_limit=1_000)
        status, _ = brute_force_milp(
            lp.objective, lp.rows, lp.rhs, [tuple(pair) for pair in lp.bounds],
            prob.binary_indices)
        assert mine.status == status
        statuses.add(status)
        if status == "optimal":
            assert mine.objective_value == 0.0
            assert np.max(lp.rows @ mine.point - lp.rhs) <= FEASIBILITY_TOL
    assert statuses == {"optimal", "infeasible"}
    assert sum(started for started, _, _ in calls) > 50  # children ran
    assert priced and all(priced)


def test_branch_and_bound_solves_one_lp_per_node_and_the_final_lp(
        cases, monkeypatch):
    # The rounding check needs no LP, so the only LP outside the tree is
    # the final one with every binary fixed.
    calls = _spy_node_lps(monkeypatch)
    branched = 0
    for prob in _bundled_milps(cases):
        calls.clear()
        sol = solve_milp(prob, node_limit=100)
        assert sol.status == "optimal"
        assert len(calls) == sol.nodes + 1
        branched += sol.nodes > 1
    assert branched >= 3


def test_feasible_rounding_closes_the_root(monkeypatch):
    # Two units (u0, u1, x0, x1) with x_g <= 2 u_g, x0 + x1 >= 3 and no
    # cost on status: the root LP runs unit 0 at its limit and leaves
    # u1 = 0.5.  Rounding u1 up meets every row at the root's own cost.
    c = [0.0, 0.0, 1.0, 2.0]
    A = [[-2.0, 0.0, 1.0, 0.0], [0.0, -2.0, 0.0, 1.0], [0.0, 0.0, -1.0, -1.0]]
    b = [0.0, 0.0, -3.0]
    bounds = [(0.0, 1.0), (0.0, 1.0), (0.0, 2.0), (0.0, 2.0)]
    root = solve_lp(LpProblem(c, A, b, bounds=bounds))
    assert 0.0 < root.point[1] < 1.0
    status, best = brute_force_milp(c, A, b, bounds, (0, 1))
    calls = _spy_node_lps(monkeypatch)
    mine = solve_milp(MilpProblem(LpProblem(c, A, b, bounds=bounds), (0, 1)))
    assert mine.status == status == "optimal"
    assert mine.objective_value == best == 4.0
    assert mine.nodes == 1
    assert len(calls) == 2


def test_branching_takes_a_binary_that_a_violated_row_needs(monkeypatch):
    # (u0, u1, x, y): x <= 2 u0 with x >= 1.5 leaves u0 = 0.75, which
    # rounds up within every row; u1 + y <= 1.5 with y >= 0.8 and u1
    # paid to run leaves u1 = 0.7, and rounding it up breaks that row.
    # The tree branches on u1, not on the lower index u0.
    c = [0.01, -1.0, 1.0, 0.0]
    A = [[-2.0, 0.0, 1.0, 0.0], [0.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, 1.0],
         [0.0, 0.0, 0.0, -1.0]]
    b = [0.0, -1.5, 1.5, -0.8]
    bounds = [(0.0, 1.0), (0.0, 1.0), (0.0, 2.0), (0.0, 2.0)]
    root = solve_lp(LpProblem(c, A, b, bounds=bounds))
    assert np.allclose(root.point[:2], [0.75, 0.7])
    status, best = brute_force_milp(c, A, b, bounds, (0, 1))
    seen = []
    real = lp_module.solve_lp

    def spy(problem, start=None):
        seen.append(problem.bounds.copy())
        return real(problem, start)

    monkeypatch.setattr(lp_module, "solve_lp", spy)
    mine = solve_milp(MilpProblem(LpProblem(c, A, b, bounds=bounds), (0, 1)))
    assert mine.status == status == "optimal"
    assert abs(mine.objective_value - best) <= 1e-9
    first_child = seen[1]
    assert first_child[1].tolist() == [0.0, 0.0]  # down-branch on u1
    assert first_child[0].tolist() == [0.0, 1.0]


def test_milp_iterations_count_every_lp(cases, monkeypatch):
    calls = _spy_node_lps(monkeypatch)
    for prob in _bundled_milps(cases, per_case=1)[:4]:
        calls.clear()
        first, second = (solve_milp(prob, node_limit=100) for _ in range(2))
        assert first.iterations == second.iterations
        assert first.iterations >= first.nodes
        assert 2 * first.iterations == sum(pivots for _, _, pivots in calls)


def test_dual_simplex_ends_at_an_optimal_basis(cases, monkeypatch):
    # The dual ratio test keeps every reduced cost >= 0, so a basis made
    # primal feasible is optimal and phase 2 has nothing left to do.
    ends = []
    dual_simplex = lp_module._Tableau.dual_simplex

    def checked(self, zrow):
        verdict = dual_simplex(self, zrow)
        if verdict == "feasible" and self.ns:  # a column has a reduced cost
            ends.append((zrow[:-1].min(), self.T[:, -1].min()))
        return verdict

    monkeypatch.setattr(lp_module._Tableau, "dual_simplex", checked)
    for prob in _bundled_milps(cases) + _random_milps(np.random.default_rng(37), 30):
        solve_milp(prob, node_limit=1_000)
    assert len(ends) > 20
    assert min(z for z, _ in ends) >= -1e-9
    assert min(b for _, b in ends) >= -1e-9


def test_node_start_rejects_another_region():
    lp = LpProblem([1.0, -1.0], [[1.0, 1.0]], [1.5], bounds=[(0, 1), (0, 3)])
    root = NodeStart(MilpProblem(lp, (0,)))
    others = [
        LpProblem(lp.objective, lp.rows, [2.0], bounds=lp.bounds),
        LpProblem(lp.objective, [[1.0, 2.0]], lp.rhs, bounds=lp.bounds),
        LpProblem(lp.objective, lp.rows, lp.rhs, bounds=[(0, 1), (0, 2)]),
        LpProblem(lp.objective, lp.rows, lp.rhs, bounds=[(-1, 1), (0, 3)]),
    ]
    for other in others:
        with pytest.raises(LpUsageError):
            solve_lp(other, root)
    assert solve_lp(lp, root).objective_value == -1.5
    node = LpProblem(lp.objective, lp.rows, lp.rhs, bounds=[(1, 1), (0, 3)])
    assert solve_lp(node, root.child(0, 1.0)).objective_value == 0.5
    with pytest.raises(LpUsageError):
        solve_lp(others[2], root.child(0, 1.0))


def test_child_fixes_one_bound_pair_and_its_two_bound_rows(cases):
    # A child's bounds are its parent's with one binary fixed, and its b
    # is the region's rows' b and then each branched binary's bound rows,
    # hi - lo' and lo' - lo at the node's bounds (lo, hi), lo' being the
    # region's lower bound: bit for bit what the node's bounds give.
    rng = np.random.default_rng(31)
    for prob in _bundled_milps(cases, per_case=1) + _random_milps(rng, 20):
        root = NodeStart(prob)
        region = prob.lp
        branch = root.form.lower
        lo0 = region.bounds[branch, 0]
        open_hi = region.bounds[:, 1].copy()
        open_hi[branch] = np.inf
        opened = region.with_bounds(np.column_stack([region.bounds[:, 0], open_hi]))
        rows_b = lp_module._standard_form(opened.rows, *opened.bounds.T).b(opened)

        def expected_b(bounds):
            return np.concatenate([rows_b, bounds[branch, 1] - lo0,
                                   lo0 - bounds[branch, 0]])

        assert root.b.tobytes() == expected_b(region.bounds).tobytes()
        for var in branch[:3]:
            for value in (0.0, 1.0):
                node = root.child(var, value)
                bounds = region.bounds.copy()
                bounds[var] = value
                assert np.array_equal(node.region.bounds, bounds)
                assert not node.region.bounds.flags.writeable
                assert node.b.tobytes() == expected_b(bounds).tobytes()
                other = branch[-1]
                if other != var:
                    grand = node.child(other, 1.0 - value)
                    bounds[other] = 1.0 - value
                    assert np.array_equal(grand.region.bounds, bounds)
                    assert grand.b.tobytes() == expected_b(bounds).tobytes()
                with pytest.raises(LpUsageError):
                    solve_lp(region, node)  # the root's bounds, not the node's
                # An unsolved parent leaves the child cold, at its own b.
                mine = solve_lp(region._with(bounds=node.region.bounds), node)
                cold = solve_lp(region.with_bounds(node.region.bounds))
                assert mine.status == cold.status
                if cold.status == "optimal":
                    assert abs(mine.objective_value - cold.objective_value) \
                        <= 1e-9 * max(1.0, abs(cold.objective_value))


def test_tree_rows_are_the_regions_then_the_capped_then_the_open_binaries():
    # Random MILPs whose binaries are open or fixed at 0 or 1, and whose
    # other columns are free, mirrored, capped, shifted without a cap or
    # fixed.  The tree's A, built by hand column by column: the region's
    # rows, an upper row per capped column outside the open binaries,
    # then a +unit row and then a -unit row per open binary.
    rng = np.random.default_rng(59)
    kinds = {"open": (0.0, 1.0), "off": (0.0, 0.0), "on": (1.0, 1.0),
             "free": (-np.inf, np.inf), "mirrored": (-np.inf, 1.5),
             "capped": (-0.5, 2.0), "shifted": (0.25, np.inf), "fixed": (0.5, 0.5)}
    seen = set()
    for _ in range(40):
        nbin, ncont = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        names = ([str(k) for k in rng.choice(["open", "open", "off", "on"], nbin)]
                 + [str(k) for k in rng.choice(list(kinds)[3:], ncont)])
        seen.update(names)
        n, m = nbin + ncont, int(rng.integers(0, 4))
        rows = np.round(rng.normal(size=(m, n)), 3)
        lp = LpProblem(rng.normal(size=n), rows, np.ones(m),
                       bounds=[kinds[k] for k in names])
        form = NodeStart(MilpProblem(lp, tuple(range(nbin)))).form
        columns = []  # (variable, sign) per standard-form column
        for j, k in enumerate(names):
            if k == "free":
                columns += [(j, 1.0), (j, -1.0)]
            elif k == "mirrored":
                columns.append((j, -1.0))
            elif k not in ("off", "on", "fixed"):
                columns.append((j, 1.0))
        capped = [j for j, k in enumerate(names) if k == "capped"]
        opened = [j for j, k in enumerate(names) if k == "open"]
        by_hand = ([[row[j] * sign for j, sign in columns] for row in rows]
                   + [[float(j == var) for j, _ in columns]
                      for var in capped + opened]
                   + [[-float(j == var) for j, _ in columns] for var in opened])
        expected = np.array(by_hand).reshape(len(by_hand), len(columns))
        assert form.A.shape == expected.shape and np.array_equal(form.A, expected)
    assert seen == set(kinds)


def test_branch_and_bound_checks_only_the_final_lps_bounds(cases, monkeypatch):
    # A node's bounds are its parent's, checked, with one binary fixed,
    # so the one bounds check per MILP is the final LP's, when there is
    # an incumbent to fix; a root started from a reference checks none.
    rng = np.random.default_rng(43)
    families = [(prob, None) for prob in
                _bundled_milps(cases) + _random_milps(rng, 60)]
    for prob in _random_milps(rng, 20):
        lp = prob.lp
        shifted = MilpProblem(LpProblem(lp.objective, lp.rows, lp.rhs + 0.25,
                                        bounds=lp.bounds), prob.binary_indices)
        families.append((shifted, MilpReference(prob)))
    checks = []
    checked_bounds = lp_module._checked_bounds

    def counted(bounds, n):
        checks.append(n)
        return checked_bounds(bounds, n)

    monkeypatch.setattr(lp_module, "_checked_bounds", counted)
    branched = 0
    for prob, reference in families:
        checks.clear()
        sol = solve_milp(prob, node_limit=1_000, reference=reference)
        assert len(checks) == (sol.status == "optimal")
        branched += sol.nodes > 1
    assert branched >= 10


# --- the condensed tableau ---


def _assert_condensed(tab):
    """The tableau stores one column per nonbasic variable and the rhs;
    each label of the standard form is basic or nonbasic exactly once."""
    assert tab.T.shape == (tab.m, tab.nonbasic.size + 1)
    assert tab.basis.size == tab.m
    labels = np.sort(np.concatenate([tab.basis, tab.nonbasic]))
    assert np.array_equal(labels, np.arange(tab.ns + tab.form.A.shape[0]))


def test_tableau_stores_only_nonbasic_columns(cases):
    from ucscreen.model import build_uc, milp_problem, relax_binaries

    case = cases["fifty_bus"]
    inst = relax_binaries(build_uc(case, case.nominal_load))
    objective = np.zeros(inst.n_cols)
    objective[0] = 1.0
    shared = inst.region_basis
    _assert_condensed(shared)
    assert shared.T.shape[1] == shared.ns + 1

    milp = milp_problem(build_uc(case, case.nominal_load))
    root = NodeStart(milp)
    assert solve_lp(milp.lp, root).status == "optimal"
    child = root.child(milp.binary_indices[0], 0.0)
    bounds = milp.lp.bounds.copy()
    bounds[milp.binary_indices[0]] = (0.0, 0.0)
    solve_lp(LpProblem(milp.lp.objective, milp.lp.rows, milp.lp.rhs,
                       bounds=bounds), child)
    for start in (root, child):
        _assert_condensed(start.tableau)


def test_entering_variable_is_the_lowest_label_among_ties(monkeypatch):
    # A degenerate LP that meets three exact ties: labels 0 and 1 in the
    # dual ratio test of the dual phase (priced at ones, since a cost is
    # negative), then 5 and 2 and 4 and 5 in Dantzig's rule on phase 2's
    # reduced costs, the first with the higher label's column stored
    # first.
    entered, ties = [], []
    pivot = lp_module._Tableau._pivot
    lowest = lp_module._Tableau._lowest_label

    def recording_pivot(self, row, col):
        entered.append(int(self.nonbasic[col]))
        pivot(self, row, col)

    def recording_lowest(self, cols):
        ties.append(self.nonbasic[cols].tolist())
        return lowest(self, cols)

    monkeypatch.setattr(lp_module._Tableau, "_pivot", recording_pivot)
    monkeypatch.setattr(lp_module._Tableau, "_lowest_label", recording_lowest)
    sol = solve_lp(LpProblem([1.0, -1.0, 1.0],
                             [[0.0, 1.0, -1.0], [-1.0, -1.0, 0.0],
                              [1.0, -1.0, 2.0]],
                             [3.0, -1.0, 0.0], bounds=[(0, None)] * 3))
    assert sol.status == "optimal" and sol.objective_value == -3.0
    assert [t for t in ties if len(t) > 1] == [[0, 1], [5, 2], [4, 5]]
    assert entered == [0, 1, 2, 4]  # the pivots of the full tableau


def test_dual_ratio_ties_within_rounding_go_to_the_lowest_label():
    # Both ratios are 1/3 in exact arithmetic, but 0.1 / 0.3 rounds one
    # ulp above 1.0 / 3.0; the tie still goes to label 0.
    form = lp_module._standard_form(np.array([[-0.3, -3.0]]),
                                    np.zeros(2), np.full(2, np.inf))
    tab = lp_module._Tableau(form, np.array([1.0]))
    tab.T[0, -1] = -1.0
    zrow = tab._zrow(np.array([0.1, 1.0]))
    assert 0.1 / 0.3 != 1.0 / 3.0
    assert tab.dual_simplex(zrow) == "feasible"
    assert tab.basis.tolist() == [0]


# --- roots started from a reference ---


def test_reference_roots_match_cold_roots_on_random_milps(monkeypatch):
    """Each random MILP, a quarter of them at zero cost, is the reference
    of three MILPs with other right-hand sides.  Solved from it, each
    ends where a cold solve ends.  The reference's own rhs solves cold
    and leaves the reference unsolved; the first other rhs solves it,
    optimal when that cold root was."""
    rng = np.random.default_rng(41)
    calls = _spy_node_lps(monkeypatch)
    warm = optimal = 0
    for i, prob in enumerate(_random_milps(rng, 80)):
        lp = prob.lp
        objective = np.zeros(lp.n_vars) if i % 4 == 0 else lp.objective
        prob = MilpProblem(LpProblem(objective, lp.rows, lp.rhs,
                                     bounds=lp.bounds), prob.binary_indices)
        reference = MilpReference(prob)
        shifts = [np.zeros(lp.n_rows)] + [
            np.round(rng.normal(scale=0.5, size=lp.n_rows), 3) for _ in range(3)]
        for shift in shifts:
            other = MilpProblem(LpProblem(objective, lp.rows, lp.rhs + shift,
                                          bounds=lp.bounds), prob.binary_indices)
            calls.clear()
            mine = solve_milp(other, node_limit=1_000, reference=reference)
            cold = solve_milp(other, node_limit=1_000)
            if not np.any(shift):
                assert not calls[0][0]  # its own reference: a cold root
                assert reference.root is None
                root_optimal = calls[0][1] == "optimal"
                assert mine.iterations == cold.iterations
            else:
                assert bool(reference.root) == root_optimal
                if reference.root:
                    assert any(started for started, _, _ in calls[:2])
                    warm += 1
            assert mine.status == cold.status and mine.nodes >= 1
            if mine.status == "optimal":
                optimal += 1
                assert abs(mine.objective_value - cold.objective_value) <= \
                    1e-9 * max(1.0, abs(cold.objective_value))
                assert np.max(lp.rows @ mine.point - other.lp.rhs) <= FEASIBILITY_TOL
    assert optimal > 100 and warm > 100


def test_reference_rejects_other_rows_bounds_costs_or_binaries():
    lp = LpProblem([1.0, -1.0], [[1.0, 1.0]], [1.5], bounds=[(0, 1), (0, 3)])
    reference = MilpReference(MilpProblem(lp, (0,)))
    others = [
        MilpProblem(LpProblem(lp.objective, [[1.0, 2.0]], lp.rhs,
                              bounds=lp.bounds), (0,)),
        MilpProblem(LpProblem(lp.objective, lp.rows, lp.rhs,
                              bounds=[(0, 1), (0, 2)]), (0,)),
        MilpProblem(LpProblem([2.0, -1.0], lp.rows, lp.rhs,
                              bounds=lp.bounds), (0,)),
        MilpProblem(LpProblem(lp.objective, lp.rows, lp.rhs, bounds=lp.bounds,
                              sense="max"), (0,)),
        MilpProblem(lp, ()),
    ]
    for other in others:
        with pytest.raises(LpUsageError):
            solve_milp(other, reference=reference)
    assert reference.root is None  # no check passed, so nothing was solved
    shifted = MilpProblem(LpProblem(lp.objective, lp.rows, [2.5],
                                    bounds=lp.bounds), (0,))
    mine = solve_milp(shifted, reference=reference)
    assert reference.root
    assert mine.objective_value == solve_milp(shifted).objective_value == -2.5
