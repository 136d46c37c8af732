"""LP and MILP solver tests, cross-checked against scipy and brute force."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import brute_force_milp, enumerate_polygon_vertices
from ucscreen.lp import (
    LpProblem,
    LpStart,
    LpUsageError,
    MilpProblem,
    NodeLimitExceeded,
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
# lower bound and the cut appear twice, so the region stays bounded
# whichever single row is dropped.
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


def test_warm_start_matches_cold_for_full_and_dropped_rows():
    start = LpStart(LpProblem(np.zeros(2), BOX_ROWS, BOX_RHS))
    for c in OBJECTIVES:
        for sense in ("min", "max"):
            problem = LpProblem(c, BOX_ROWS, BOX_RHS, sense=sense)
            _assert_same(solve_lp(problem, start), solve_lp(problem))
    # Row i is tight at the shared basis when its slack is nonbasic.
    phase_one = start._phase_one.tableau
    tight = [i for i in range(len(BOX_RHS))
             if phase_one.ns + i not in phase_one.basis]
    assert tight and len(tight) < len(BOX_RHS)  # both re-basing branches
    for i in range(len(BOX_RHS)):
        keep = np.arange(len(BOX_RHS)) != i
        for c in OBJECTIVES:
            for sense in ("min", "max"):
                problem = LpProblem(c, BOX_ROWS[keep], BOX_RHS[keep], sense=sense)
                warm = solve_lp(problem, start.without_row(i))
                _assert_same(warm, solve_lp(problem))
                assert np.all(problem.rows @ warm.point <= problem.rhs + 1e-9)


def test_warm_start_drop_that_unbounds_the_region_solves_cold():
    # y >= 1 and a vacuous row: no row limits y once y >= 1 is gone, so
    # the slack of y >= 1 finds no leaving row and the LP solves cold.
    rows, rhs = np.array([[-1.0], [0.0]]), np.array([-1.0, 1.0])
    start = LpStart(LpProblem([0.0], rows, rhs))
    for c in ([1.0], [-1.0]):
        problem = LpProblem(c, rows[1:], rhs[1:])
        assert solve_lp(problem, start.without_row(0)).status == "unbounded"
        assert solve_lp(problem).status == "unbounded"


def test_warm_start_on_empty_region():
    rows, rhs = np.array([[1.0], [-1.0], [1.0]]), np.array([0.0, -1.0, 4.0])
    start = LpStart(LpProblem([0.0], rows, rhs))
    assert solve_lp(LpProblem([1.0], rows, rhs), start).status == "infeasible"
    # Without y >= 1 the region is y <= 0: the shared verdict cannot hold.
    problem = LpProblem([-1.0], rows[[0, 2]], rhs[[0, 2]])
    warm = solve_lp(problem, start.without_row(1))
    assert warm.status == "optimal" and warm.objective_value == 0.0


def test_warm_start_rejects_another_region():
    start = LpStart(LpProblem(np.zeros(2), BOX_ROWS, BOX_RHS))
    with pytest.raises(LpUsageError):
        solve_lp(LpProblem([1.0, 0.0], BOX_ROWS, BOX_RHS + 1.0), start)
    with pytest.raises(LpUsageError):
        solve_lp(LpProblem([1.0, 0.0], BOX_ROWS[1:], BOX_RHS[1:]),
                 start.without_row(2))
    with pytest.raises(LpUsageError):
        start.without_row(len(BOX_RHS))


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
