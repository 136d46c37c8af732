"""LP and MILP solver tests, cross-checked against scipy and brute force."""

import heapq
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import linprog

import ucscreen.lp as lp_module
from conftest import brute_force_milp, enumerate_polygon_vertices
from ucscreen.lp import (
    FEASIBILITY_TOL,
    LpProblem,
    LpSolution,
    LpStart,
    LpUsageError,
    MilpProblem,
    NodeLimitExceeded,
    NodeStart,
    VertexStart,
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


def test_weak_duality_dual_bound_from_final_basis():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 40:
        c, A, b, bounds = _random_problem(rng)
        sol = solve_lp(LpProblem(c, A, b, bounds=bounds))
        if sol.status != "optimal":
            continue
        checked += 1
        assert sol.row_duals is not None and np.all(sol.row_duals >= 0)
        assert abs(sol.objective_value - sol.dual_bound) <= 1e-7 * max(
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


def test_dual_bound_waits_for_first_access():
    rng = np.random.default_rng(21)
    sol = None
    while sol is None or sol.status != "optimal":
        c, A, b, bounds = _random_problem(rng)
        sol = solve_lp(LpProblem(c, A, b, bounds=bounds))
    assert "dual_bound" not in vars(sol)
    assert sol.dual_bound == vars(sol)["dual_bound"] is not None
    assert LpSolution("optimal", 0.0, np.zeros(1)).dual_bound is None


def test_row_duals_at_an_optimal_vertex_are_the_solution_duals():
    region = LpProblem(np.zeros(2), BOX_ROWS, BOX_RHS)
    shared = LpStart(region)
    for c in OBJECTIVES:
        for sense in ("min", "max"):
            start = VertexStart(shared, keep=True)
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
    lp = LpProblem(np.zeros(61), np.zeros((0, 61)), [],
                   bounds=[(0.0, 1.0)] * 61)
    with pytest.raises(LpUsageError):
        solve_milp(MilpProblem(lp, tuple(range(61))))
    lp2 = LpProblem([0.0], np.zeros((0, 1)), [], bounds=[(0.0, 2.0)])
    with pytest.raises(LpUsageError):
        MilpProblem(lp2, (0,))


# --- shared phase-1 starts ---

# A box 1 <= y1 <= 3, 0.5 <= y2 <= 2 with a diagonal cut, where each
# lower bound and the cut appear twice: once tight, once implied.
BOX_ROWS = np.array([[-1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [0.0, -1.0],
                     [0.0, -1.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
BOX_RHS = np.array([-1.0, 0.0, 3.0, -0.5, 0.0, 2.0, 4.0, 5.0])
OBJECTIVES = ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
              [1.0, 1.0], [1.0, -1.0], [-2.0, 1.0])


def _assert_same(warm, cold):
    assert warm.status == cold.status
    if cold.status == "optimal":
        assert abs(warm.objective_value - cold.objective_value) <= 1e-9
        assert abs(warm.dual_bound - cold.dual_bound) <= 1e-9


def test_warm_start_matches_cold():
    start = LpStart(LpProblem(np.zeros(2), BOX_ROWS, BOX_RHS))
    for c in OBJECTIVES:
        for sense in ("min", "max"):
            problem = LpProblem(c, BOX_ROWS, BOX_RHS, sense=sense)
            _assert_same(solve_lp(problem, start), solve_lp(problem))


def _row_kept_verdicts(rows, rhs):
    """Per row j, (verdict, maximum) of a_j y from the region's shared
    start and of the cold LP over the region less row j; the verdict is
    redundant when the maximum clears rhs[j] by FEASIBILITY_TOL."""
    start = LpStart(LpProblem(np.zeros(rows.shape[1]), rows, rhs))
    out = []
    for j in range(len(rhs)):
        keep = np.arange(len(rhs)) != j
        kept = solve_lp(LpProblem(rows[j], rows, rhs, sense="max"), start)
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
    start = LpStart(LpProblem([0.0], rows, rhs))
    assert solve_lp(LpProblem([1.0], rows, rhs), start).status == "infeasible"


def test_warm_start_rejects_another_region():
    start = LpStart(LpProblem(np.zeros(2), BOX_ROWS, BOX_RHS))
    with pytest.raises(LpUsageError):
        solve_lp(LpProblem([1.0, 0.0], BOX_ROWS, BOX_RHS + 1.0), start)
    with pytest.raises(LpUsageError):
        solve_lp(LpProblem([1.0, 0.0], BOX_ROWS[1:], BOX_RHS[1:]), start)


def test_warm_start_pivot_accounting():
    # With a zero objective phase 2 makes no pivot, so this is phase 1's.
    region = LpProblem(np.zeros(2), BOX_ROWS, BOX_RHS)
    phase_one = solve_lp(region).iterations
    assert phase_one > 0
    # The first LP from a start runs the shared phase 1 and counts it, as
    # the cold solve does; every later LP skips it.
    start = LpStart(region)
    for k, c in enumerate(OBJECTIVES):
        problem = LpProblem(c, BOX_ROWS, BOX_RHS)
        cold = solve_lp(problem).iterations
        assert solve_lp(problem, start).iterations == cold - (k and phase_one)
    # y1 + y2 >= 3 in the unit box: phase 1 pivots before it gives up.
    empty = LpProblem([1.0, 1.0], [[-1.0, -1.0]], [-3.0],
                      bounds=[(0, 1), (0, 1)])
    cold = solve_lp(empty)
    assert cold.status == "infeasible" and cold.iterations > 0
    assert solve_lp(empty, LpStart(empty)).iterations == cold.iterations


def test_warm_start_phase_one_runs_once_across_threads():
    problems = [LpProblem(c, BOX_ROWS, BOX_RHS, sense=s)
                for c in OBJECTIVES for s in ("min", "max")] * 6
    region = LpProblem(np.zeros(2), BOX_ROWS, BOX_RHS)
    serial = [solve_lp(p, s) for p, s in
              zip(problems, [LpStart(region)] * len(problems))]
    start = LpStart(region)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            futures = [pool.submit(solve_lp, p, start) for p in problems]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    # A second phase 1 would add its pivots again.
    assert (sum(s.iterations for s in threaded)
            == sum(s.iterations for s in serial))
    assert [s.objective_value for s in threaded] == [
        s.objective_value for s in serial]


def _random_region(rng):
    """(rows, rhs, bounds) of a region around a seeded point y0.  Each of
    the four bound kinds (fixed, shifted, mirrored, free) occurs.  Rows
    with a negative right-hand side in the standard form get artificials;
    the most negative one appears twice.  Two last rows make one equality
    through y0, the one whose standard-form rhs is positive first: phase 1
    then ends with the second row's artificial basic at zero, and the
    drive-out pivots it out."""
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
        b = lp_module._standard_form(rows, rhs, lo, hi).b
        if b[:m].min() < 0 and b[m] != 0:
            break
    k = int(np.argmin(b[:m]))
    eq = np.sign(b[m]) * rows[m]
    return (np.vstack([rows[:m], rows[k], eq, -eq]),
            np.concatenate([rhs[:m], [rhs[k], eq @ y0, -(eq @ y0)]]),
            np.column_stack([lo, hi]))


def test_warm_starts_match_highs_on_random_regions(monkeypatch):
    driven_out = []
    drive_out = lp_module._Tableau._drive_out_artificials

    def recording(self):
        driven_out.append(bool(np.any(self.basis >= self.art_start)))
        drive_out(self)

    monkeypatch.setattr(lp_module._Tableau, "_drive_out_artificials", recording)
    rng = np.random.default_rng(43)
    statuses = {"optimal": 0, "unbounded": 0}
    verdicts = {True: 0, False: 0}
    for _ in range(30):
        rows, rhs, bounds = _random_region(rng)
        start = LpStart(LpProblem(np.zeros(len(bounds)), rows, rhs,
                                  bounds=bounds))
        for sense in ("min", "max"):
            sign = 1.0 if sense == "min" else -1.0
            for _ in range(4):
                c = np.round(rng.normal(size=len(bounds)), 3)
                mine = solve_lp(LpProblem(c, rows, rhs, bounds=bounds,
                                          sense=sense), start)
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
                                      sense="max"), start)
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
    assert sum(driven_out) >= 30  # each shared phase 1 pivots one out


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
        warm = isinstance(start, NodeStart) and start._parent is not None
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


def test_milp_iterations_count_every_lp(cases, monkeypatch):
    calls = _spy_node_lps(monkeypatch)
    for prob in _bundled_milps(cases, per_case=1)[:4]:
        calls.clear()
        first, second = (solve_milp(prob, node_limit=100) for _ in range(2))
        assert first.iterations == second.iterations
        assert first.iterations >= first.nodes
        assert 2 * first.iterations == sum(pivots for _, _, pivots in calls)


def test_dual_pivot_limit_falls_back_to_cold(cases, monkeypatch):
    problems = _bundled_milps(cases) + _random_milps(np.random.default_rng(31), 30)
    cold_starts = []
    phase_one = lp_module._Tableau.phase_one

    def counting(self):
        cold_starts.append(1)
        return phase_one(self)

    monkeypatch.setattr(lp_module._Tableau, "phase_one", counting)
    default = [solve_milp(p, node_limit=1_000) for p in problems]
    default_cold = len(cold_starts)
    monkeypatch.setattr(lp_module, "_DUAL_PIVOT_LIMIT", 0)
    forced = [solve_milp(p, node_limit=1_000) for p in problems]
    assert len(cold_starts) - default_cold > default_cold
    # the warm start is what saves the pivots
    assert (sum(s.iterations for s in default)
            < sum(s.iterations for s in forced))
    for a, b in zip(default, forced):
        assert a.status == b.status
        if a.status == "optimal":
            assert abs(a.objective_value - b.objective_value) <= 1e-9 * max(
                1.0, abs(a.objective_value))


def test_dual_simplex_ends_at_an_optimal_basis(cases, monkeypatch):
    # The dual ratio test keeps every reduced cost >= 0, so a basis made
    # primal feasible is optimal and phase 2 has nothing left to do.
    ends = []
    dual_simplex = lp_module._Tableau.dual_simplex

    def checked(self, zrow, limit):
        verdict = dual_simplex(self, zrow, limit)
        if verdict == "feasible":
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
    assert solve_lp(node, root.child()).objective_value == 0.5
    with pytest.raises(LpUsageError):
        solve_lp(others[2], root.child())


# --- the condensed tableau ---


def _assert_condensed(tab):
    """The tableau stores one column per nonbasic variable and the rhs;
    each label of the standard form, and no artificial, is basic or
    nonbasic exactly once."""
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
    solve_lp(inst.lp(objective), inst.lp_start)
    shared = inst.lp_start._basis[0]
    _assert_condensed(shared)
    assert shared.T.shape[1] == shared.ns + 1

    milp = milp_problem(build_uc(case, case.nominal_load))
    root = NodeStart(milp)
    assert solve_lp(milp.lp, root).status == "optimal"
    child = root.child()
    bounds = milp.lp.bounds.copy()
    bounds[milp.binary_indices[0]] = (0.0, 0.0)
    solve_lp(LpProblem(milp.lp.objective, milp.lp.rows, milp.lp.rhs,
                       bounds=bounds), child)
    for start in (root, child):
        _assert_condensed(start._solved[0])


def test_entering_variable_is_the_lowest_label_among_ties(monkeypatch):
    # A degenerate LP on which Dantzig's rule meets three exact ties in
    # reduced cost: labels 0 and 1 in phase 1, then 5 and 2 and 5 and 4 in
    # phase 2, where the higher label's column is stored first.
    entered, ties = [], []
    pivot = lp_module._Tableau._pivot
    lowest = lp_module._Tableau._lowest_label

    def recording_pivot(self, zrow, row, col):
        entered.append(int(self.nonbasic[col]))
        pivot(self, zrow, row, col)

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
    assert [t for t in ties if len(t) > 1] == [[0, 1], [5, 2], [5, 4]]
    assert entered == [0, 1, 2, 4]  # the pivots of the full tableau


def test_dual_ratio_ties_within_rounding_go_to_the_lowest_label():
    # Both ratios are 1/3 in exact arithmetic, but 0.1 / 0.3 rounds one
    # ulp above 1.0 / 3.0; the tie still goes to label 0.
    form = lp_module._standard_form(np.array([[-0.3, -3.0]]), np.array([1.0]),
                                    np.zeros(2), np.full(2, np.inf))
    tab = lp_module._Tableau(form)
    tab.T[0, -1] = -1.0
    zrow = tab._zrow(np.array([0.1, 1.0]))
    assert 0.1 / 0.3 != 1.0 / 3.0
    assert tab.dual_simplex(zrow, 10) == "feasible"
    assert tab.basis.tolist() == [0]
