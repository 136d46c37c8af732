"""Oracle self-tests: the brute-force machinery must be able to certify,
refute, and agree with itself."""

import numpy as np
import pytest

from conftest import enumerate_polygon_vertices
from ucscreen import oracle
from ucscreen.lp import solve_lp
from ucscreen.model import (
    CutSet,
    RowLabel,
    apply_cuts,
    build_uc,
    relax_binaries,
)
from ucscreen.screening import (
    BoundsBox,
    eovl,
    variable_bounds,
    vgs_screen,
)


def relaxed(case):
    return relax_binaries(build_uc(case, case.nominal_load))


def u_one(case):
    inst = build_uc(case, case.nominal_load)
    fixes = tuple((g, 1) for g in range(case.n_gens))
    return relax_binaries(apply_cuts(inst, CutSet(commitment_fixes=fixes)))


def test_duplicate_with_looser_bound_is_redundant(cases):
    inst = relaxed(cases["nine_bus"])
    assert oracle.lp_redundancy(inst, RowLabel("line_upper", 9))
    assert not oracle.lp_redundancy(inst, RowLabel("line_upper", 0))


def test_binding_row_is_not_redundant(cases):
    inst = relaxed(cases["negcontrol"])
    assert not oracle.lp_redundancy(inst, RowLabel("line_upper", 1))


def test_five_bus_full_classification_matches_figure(cases):
    """Under u = 1: limits of lines 1-2 kept, upper limits 3-6 redundant;
    cross-checked against 2-D polygon vertex enumeration."""
    inst = u_one(cases["five_bus"])
    verdict = {str(lb): oracle.lp_redundancy(inst, lb)
               for lb in inst.candidates}
    assert not verdict["line_upper(0)"]
    assert not verdict["line_upper(1)"]
    for j in (2, 3, 4, 5):
        assert verdict[f"line_upper({j})"]

    # cross-check: the (x1, x2) polygon without a given upper row
    rows, rhs = [], []
    for i, coeffs in enumerate(inst.rows):
        rhs.append(inst.rhs[i] - coeffs[2:].sum())  # u pinned at 1
        rows.append(coeffs[:2])
    rows, rhs = np.array(rows), np.array(rhs)
    for j in range(6):
        i = inst.row_index(RowLabel("line_upper", j))
        keep = np.arange(rows.shape[0]) != i
        vertices = enumerate_polygon_vertices(rows[keep], rhs[keep])
        explicit_max = float(np.max(vertices @ rows[i]))
        assert (explicit_max <= rhs[i] - 1e-7) == verdict[f"line_upper({j})"]


def test_oracle_self_consistency_random_objectives(cases):
    # removing a certified-redundant row never moves any LP optimum
    case = cases["nine_bus"]
    inst = relaxed(case)
    redundant = [lb for lb in inst.candidates if oracle.lp_redundancy(inst, lb)]
    assert redundant
    target = redundant[0]
    pruned = inst.without_rows([target])
    rng = np.random.default_rng(31)
    for _ in range(20):
        c = rng.normal(size=inst.n_cols)
        a = solve_lp(inst.lp(c, sense="min"))
        b = solve_lp(pruned.lp(c, sense="min"))
        assert a.status == b.status == "optimal"
        assert abs(a.objective_value - b.objective_value) <= 1e-7 * max(
            1, abs(a.objective_value))


# --- vertex enumeration ---


def test_vertices_of_square():
    box = BoundsBox(np.zeros(2), np.full(2, 3.0), ("lp_solved",) * 2)
    V = oracle.enumerate_vertices(box)
    assert V.shape == (4, 2)
    assert {tuple(v) for v in V} == {(0, 0), (3, 0), (0, 3), (3, 3)}
    # binary-counter order: bit p of the row index picks column p's upper
    assert np.array_equal(V[0], [0, 0]) and np.array_equal(V[3], [3, 3])


def test_degenerate_columns_collapse_after_dedup():
    box = BoundsBox(np.array([1.0, 2.0]), np.array([1.0, 5.0]),
                    ("fixed_by_cut", "lp_solved"))
    V = oracle.enumerate_vertices(box)
    assert V.shape == (4, 2)
    assert np.unique(V, axis=0).shape == (2, 2)


def test_vertex_guard():
    n = 21
    box = BoundsBox(np.zeros(n), np.ones(n), ("lp_solved",) * n)
    with pytest.raises(oracle.VertexBudgetError):
        oracle.enumerate_vertices(box)
    inf_box = BoundsBox(np.zeros(2), np.array([np.inf, 1.0]),
                        ("lp_solved",) * 2)
    with pytest.raises(oracle.VertexBudgetError):
        oracle.enumerate_vertices(inf_box)


def test_five_bus_sixteen_vertices_reproduce_omega(cases):
    inst = u_one(cases["five_bus"])
    box = variable_bounds(inst)
    V = oracle.enumerate_vertices(box)
    assert V.shape == (16, 4)
    report = vgs_screen(inst, box)
    for lb, w in report.omega.items():
        coeffs, bound = inst.row(lb)
        assert abs(float(np.max(V @ coeffs)) - (w + bound)) <= 1e-9


def test_vertex_check_corner_cases():
    rows = np.array([[1.0, 1.0], [1.0, 0.0]])
    box = BoundsBox(np.zeros(2), np.ones(2), ("lp_solved",) * 2)

    class Tiny:
        def row(self, label):
            return rows[label.index], (10.0 if label.index == 0 else 1.0)

    t = Tiny()
    assert oracle.vertex_check(t, box, RowLabel("line_upper", 0))
    # row x1 <= 1 is tight at two corners: not strictly satisfied
    assert not oracle.vertex_check(t, box, RowLabel("line_upper", 1))


def test_vertex_check_agrees_with_omega_sign(cases):
    for name in ("five_bus", "nine_bus", "fourteen_bus", "thirty_bus"):
        inst = relaxed(cases[name])
        box = variable_bounds(inst)
        report = vgs_screen(inst, box)
        for lb, w in report.omega.items():
            assert oracle.vertex_check(inst, box, lb) == (w < -1e-7), (name, lb)


def test_projected_box_maximum_matches_full_enumeration():
    rng = np.random.default_rng(37)
    n = 8
    lower = rng.normal(size=n)
    upper = lower + rng.uniform(0.1, 2.0, size=n)
    box = BoundsBox(lower, upper, ("lp_solved",) * n)
    row = rng.normal(size=n)
    free = np.array([1, 3, 4, 6])
    corner = rng.integers(0, 2, size=n)
    got = oracle.projected_box_maximum(row, box, free, corner)
    fixed = np.setdiff1d(np.arange(n), free)
    vals = np.where(corner[fixed] == 1, upper[fixed], lower[fixed])
    best = -np.inf
    for q in range(2 ** free.size):
        v = np.where((q >> np.arange(free.size)) & 1, upper[free], lower[free])
        best = max(best, float(row[free] @ v + row[fixed] @ vals))
    assert abs(got - best) <= 1e-12


@pytest.mark.parametrize("load_box", [False, True], ids=["s3", "s4"])
def test_matrix_test_reads_omega_beyond_the_vertex_guard(cases, load_box):
    # fifty_bus has 24 columns at S3 and 74 at S4, so the test enumerates
    # sub-boxes; a point of one beats an omega lowered by 1.0.
    case = cases["fifty_bus"]
    nom = case.nominal_load
    cuts = CutSet(load_range=(0.9 * nom, 1.1 * nom) if load_box else None)
    inst = relax_binaries(apply_cuts(build_uc(case, nom), cuts))
    assert inst.n_cols > oracle.VERTEX_COLUMN_GUARD
    report = eovl(inst)
    assert oracle.matrix_test_exactness(inst, report.box, report.omega, 42) is None
    label = RowLabel("line_upper", 1)
    lowered = {**report.omega, label: report.omega[label] - 1.0}
    failure = oracle.matrix_test_exactness(inst, report.box, lowered, 42)
    assert failure is not None and failure.startswith(f"{label} ")


@pytest.mark.parametrize("load_box", [False, True], ids=["s3", "s4"])
@pytest.mark.parametrize("name", ["five_bus", "nine_bus", "fourteen_bus",
                                  "thirty_bus", "fifty_bus", "negcontrol"])
def test_matrix_test_catches_a_lowered_or_raised_omega(cases, name, load_box):
    # Each row's other columns sit at its own box maximum, so its
    # enumerated maximum is its box maximum on either side of the guard:
    # an omega moved by 1.0 either way fails, naming its row.
    case = cases[name]
    nom = case.nominal_load
    cuts = CutSet(load_range=(0.9 * nom, 1.1 * nom) if load_box else None)
    inst = relax_binaries(apply_cuts(build_uc(case, nom), cuts))
    report = eovl(inst)
    assert oracle.matrix_test_exactness(inst, report.box, report.omega, 42) is None
    labels = list(report.omega)
    rng = np.random.default_rng(61)
    for k in rng.choice(len(labels), size=min(4, len(labels)), replace=False):
        label = labels[k]
        for delta in (-1.0, 1.0):
            moved = {**report.omega, label: report.omega[label] + delta}
            failure = oracle.matrix_test_exactness(inst, report.box, moved, 42)
            assert failure is not None and failure.startswith(f"{label} ")


# --- gap verification ---


def test_gap_identity(cases):
    case = cases["five_bus"]
    inst = build_uc(case, case.nominal_load)
    report = oracle.verify_zero_gap(inst, inst)
    assert report.gap == 0.0 and report.zero_gap and report.commitment_match


def test_gap_detects_binding_row_removal(cases):
    case = cases["negcontrol"]
    inst = build_uc(case, case.nominal_load)
    bad = inst.without_rows([RowLabel("line_upper", 1)])
    report = oracle.verify_zero_gap(inst, bad)
    assert report.gap is not None and report.gap > 1e-3
    assert not report.zero_gap


def test_gap_on_infeasible_pair(cases):
    case = cases["five_bus"]
    heavy = np.full(case.n_buses, 9.0)
    inst = build_uc(case, heavy)
    report = oracle.verify_zero_gap(inst, inst)
    assert report.full_status == report.reduced_status == "infeasible"
    assert report.gap is None and report.zero_gap
