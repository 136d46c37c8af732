"""Shared fixtures: bundled cases, cached UC solves, small oracles."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from ucscreen import oracle, screening
from ucscreen.case import load_bundled_case
from ucscreen.lp import FEASIBILITY_TOL, solve_lp
from ucscreen.model import UcInfeasibleError, build_uc, solve_uc

CORPUS = ("five_bus", "nine_bus", "fourteen_bus", "thirty_bus", "fifty_bus")


@pytest.fixture(scope="session")
def cases():
    return {name: load_bundled_case(name) for name in CORPUS + ("negcontrol",)}


@pytest.fixture(scope="session")
def uc_cache():
    """Memoized UC solves keyed by (case name, load bytes); acceptance
    criteria reuse many full-model solves."""
    cache: dict = {}

    def solve(case, load, name=None):
        key = (name or case.name, np.asarray(load, dtype=float).tobytes())
        if key not in cache:
            try:
                cache[key] = ("optimal", solve_uc(build_uc(case, load)))
            except UcInfeasibleError:
                cache[key] = ("infeasible", None)
        return cache[key]

    return solve


def enumerate_polygon_vertices(rows: np.ndarray, rhs: np.ndarray,
                               tol: float = 1e-9) -> np.ndarray:
    """All vertices of a 2-D polyhedron {rows @ x <= rhs} by pairwise
    hyperplane intersection plus feasibility filtering.  Test-side oracle,
    independent of any solver."""
    m = rows.shape[0]
    points = []
    for i, j in itertools.combinations(range(m), 2):
        A = rows[[i, j]]
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        p = np.linalg.solve(A, rhs[[i, j]])
        if np.all(rows @ p <= rhs + tol):
            points.append(p)
    assert points, "polygon has no vertices"
    return np.array(points)


def brute_force_milp(c, A, b, bounds, binary_indices):
    """Reference MILP: enumerate binary patterns, solve each restriction."""
    from ucscreen.lp import LpProblem, solve_lp

    best = None
    any_feasible = False
    for pattern in itertools.product((0.0, 1.0), repeat=len(binary_indices)):
        bb = [list(pair) for pair in bounds]
        for i, v in zip(binary_indices, pattern):
            bb[i] = [v, v]
        sol = solve_lp(LpProblem(c, A, b, bounds=bb))
        if sol.status == "unbounded":
            return "unbounded", None
        if sol.status == "optimal":
            any_feasible = True
            if best is None or sol.objective_value < best:
                best = sol.objective_value
    if not any_feasible:
        return "infeasible", None
    return "optimal", best


def screen_checking_skips(inst):
    """S3 screen of `inst` that checks every LP the screen skipped.

    A dispatch column's bound LP is skipped exactly when an optimum of an
    earlier column's bound LP attains the side's proven limit, and no
    status column's bound LP is solved; each skipped bound equals a cold
    solve of its LP over the full region within 1e-9.  An undecided line
    row gets no LP exactly when an optimum of a bound LP meets it within
    the margin, or else when its Lagrangian certificate passes.  The cold per-row oracle finds each
    witnessed row not redundant and each certified row redundant, and each
    certificate y is re-checked here with one product y @ rows: y >= 0 and
    y @ rhs + the box maximum of (a_j - y @ rows) <= b_j - margin."""
    solved, sent = [], []
    in_lfgs = False  # set while the line-flow pass runs
    solve, lfgs = screening.solve_lp, screening.lfgs_screen

    def recording_solve(problem, start=None):
        solved.append((problem, solve(problem, start), in_lfgs))
        return solved[-1][1]

    def recording_lfgs(region, candidates, pool=None, vertices=None):
        nonlocal in_lfgs
        sent.extend(candidates)
        in_lfgs = True
        try:
            return lfgs(region, candidates, pool, vertices)
        finally:
            in_lfgs = False

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(screening, "solve_lp", recording_solve)
        mp.setattr(screening, "lfgs_screen", recording_lfgs)
        report = screening.eovl(inst)
    assert report.lp_solved == len(solved) <= report.lp_count

    bound = [(int(np.flatnonzero(pb.objective)[0]), pb.sense, sol)
             for pb, sol, line_flow in solved if not line_flow]
    points = np.array([sol.point for _, _, sol in bound
                       if sol.status == "optimal"]).reshape(-1, inst.n_cols)
    box = report.box
    assert box.lp_solved == len(bound)
    assert len(solved) - len(bound) == len(sent)

    G = inst.n_gens
    lo, hi = inst.bounds[:, 0].copy(), inst.bounds[:, 1].copy()
    for g, gen in enumerate(inst.case.generators):
        lo[g], hi[g] = gen.x_min * lo[G + g], gen.x_max * hi[G + g]
    done = {(p, sense) for p, sense, _ in bound}
    for p, origin in enumerate(box.provenance):
        if origin != "lp_solved":
            continue
        earlier = np.array([sol.point[p] for q, _, sol in bound
                            if q < p and sol.status == "optimal"])
        for sense, value, limit in (("max", box.upper[p], hi[p]),
                                    ("min", box.lower[p], lo[p])):
            attained = p >= G or np.any(np.abs(earlier - limit)
                                        <= 1e-9 * max(1.0, abs(limit)))
            assert attained == ((p, sense) not in done), (p, sense)
            if attained:
                obj = np.zeros(inst.n_cols)
                obj[p] = 1.0
                cold = solve_lp(inst.lp(obj, sense=sense)).objective_value
                assert abs(value - cold) <= 1e-9, (p, sense)

    assert np.all(np.isfinite(box.lower) & np.isfinite(box.upper))
    for lb in report.candidates:
        if report.attribution.get(lb) == "vgs":
            continue
        coeffs, rhs = inst.row(lb)
        witnessed = bool(len(points)) and (
            np.max(points @ coeffs) > rhs - FEASIBILITY_TOL)
        certified = lb in report.certificates
        assert not (witnessed and certified), lb
        assert (witnessed or certified) == (lb not in sent), lb
        if witnessed:
            assert not oracle.lp_redundancy(inst, lb), lb
        if certified:
            y = report.certificates[lb]
            assert y.shape == inst.rhs.shape and np.all(y >= 0), lb
            residual = coeffs - y @ inst.rows
            bound = y @ inst.rhs + np.sum(np.maximum(residual * box.upper,
                                                     residual * box.lower))
            assert bound <= rhs - FEASIBILITY_TOL, lb
            assert report.attribution[lb] == "lfgs", lb
            assert oracle.lp_redundancy(inst, lb), lb
    assert set(report.certificates) <= set(report.redundant)
    return report


def screen_checking_vertex_starts(inst):
    """S3 screen of `inst` that re-solves cold every LP started from a
    stored vertex.  Each must give the cold LP's status and, within 1e-9
    relative, its objective, and so the same verdict for every candidate
    row it maximizes.  Only the first bound round, max and min, may start
    from the instance's feasible basis (`region_basis`).  Returns the
    number of vertex starts."""
    warm, shared = [], []
    solve = screening.solve_lp

    def recording(problem, start=None):
        sol = solve(problem, start)
        basis = inst.region_basis
        (shared if start.parent is basis else warm).append((problem, sol))
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(screening, "solve_lp", recording)
        report = screening.eovl(inst)
    assert len(shared) <= 2
    assert len(warm) + len(shared) == report.lp_solved

    idx = np.array([inst.row_index(lb) for lb in inst.candidates], dtype=int)
    for problem, sol in warm:
        cold = solve_lp(problem)
        assert sol.status == cold.status
        if cold.status != "optimal":
            continue
        value, ref = sol.objective_value, cold.objective_value
        assert abs(value - ref) <= 1e-9 * max(1.0, abs(ref))
        same = np.all(inst.rows[idx] == problem.objective, axis=1)
        for b in inst.rhs[idx[same]]:
            assert ((value <= b - FEASIBILITY_TOL)
                    == (ref <= b - FEASIBILITY_TOL))
    return len(warm)
