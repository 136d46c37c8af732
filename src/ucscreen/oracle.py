"""Brute-force ground truth for every screening claim.

Nothing here is fast, and that is the point: per-row LP redundancy is the
direct test the engines are judged against, explicit vertex enumeration
checks the sign-split box maximum, and full-versus-reduced MILP solves
certify that a reduction introduced no solution gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ucscreen.lp import FEASIBILITY_TOL, solve_lp
from ucscreen.model import RowLabel, UcInstance, UcInfeasibleError, solve_uc
from ucscreen.screening import BoundsBox, box_row_maximum

VERTEX_COLUMN_GUARD = 20


class VertexBudgetError(RuntimeError):
    """Enumeration request beyond the 2^20 guard."""


def lp_redundancy(inst: UcInstance, label: RowLabel) -> bool:
    """Direct per-row test: maximize the row with the row itself removed;
    redundant iff the optimum clears the bound by the strict margin.

    Unbounded maxima are not certifiable and count as non-redundant.
    """
    if not label.is_line:
        raise ValueError(f"{label} is not a screening candidate")
    coeffs, bound = inst.row(label)
    sol = solve_lp(inst.without_rows([label]).lp(coeffs, sense="max"))
    if sol.status != "optimal":
        return False
    return sol.objective_value <= bound - FEASIBILITY_TOL


def enumerate_vertices(box: BoundsBox) -> np.ndarray:
    """All corner points of the box, (2^n, n), in binary-counter order:
    bit p of the row number selects the upper bound of column p.

    Degenerate columns (equal bounds) produce duplicate rows; callers
    deduplicate if they care.
    """
    n = box.n_cols
    if n > VERTEX_COLUMN_GUARD:
        raise VertexBudgetError(
            f"{n} columns would enumerate 2^{n} vertices "
            f"(guard is {VERTEX_COLUMN_GUARD})")
    if not (np.all(np.isfinite(box.lower)) and np.all(np.isfinite(box.upper))):
        raise VertexBudgetError("box has infinite bounds; vertices undefined")
    q = np.arange(2 ** n, dtype=np.int64)
    bits = (q[:, None] >> np.arange(n)) & 1
    return np.where(bits == 1, box.upper, box.lower)


def vertex_check(inst: UcInstance, box: BoundsBox, label: RowLabel) -> bool:
    """True iff every box vertex satisfies the row strictly (margin
    FEASIBILITY_TOL); agrees exactly with the sign of omega."""
    coeffs, bound = inst.row(label)
    vertices = enumerate_vertices(box)
    return bool(np.max(vertices @ coeffs) - bound < -FEASIBILITY_TOL)


def projected_box_maximum(row: np.ndarray, box: BoundsBox,
                          free_cols: np.ndarray, corner: np.ndarray) -> float:
    """Row maximum over the sub-box where only free_cols vary and the rest
    sit at the given corner (0 selects lower, 1 upper).

    Enumerates the 2^|free_cols| sub-vertices explicitly; used to validate
    the sign-split formula when the full box exceeds the vertex guard.
    """
    free_cols = np.asarray(free_cols, dtype=int)
    if free_cols.size > VERTEX_COLUMN_GUARD:
        raise VertexBudgetError(f"{free_cols.size} free columns exceed the guard")
    fixed_cols = np.setdiff1d(np.arange(box.n_cols), free_cols)
    fixed_vals = np.where(corner[fixed_cols] == 1,
                          box.upper[fixed_cols], box.lower[fixed_cols])
    sub = BoundsBox(box.lower[free_cols].copy(), box.upper[free_cols].copy(),
                    tuple(box.provenance[c] for c in free_cols))
    vertices = enumerate_vertices(sub)
    return (float(row[fixed_cols] @ fixed_vals)
            + float(np.max(vertices @ row[free_cols])))


def matrix_test_exactness(inst: UcInstance, box: BoundsBox, omega: dict,
                          seed: int) -> str | None:
    """Compare omega against explicit vertex maxima; None means pass.

    Up to VERTEX_COLUMN_GUARD columns every box vertex is enumerated.
    Beyond it, three seeded projections each free 16 columns and fix the
    rest at a random corner, and each enumerates its sub-box once for
    every row.  A row's maximum over that sub-box must match the
    sign-split formula, and, the sub-box lying in the box, must not
    exceed its rhs plus omega by more than 1e-9.
    """
    labels = list(omega)
    idx = np.array([inst.row_index(lb) for lb in labels], dtype=int)
    rows, rhs = inst.rows[idx], inst.rhs[idx]
    if inst.n_cols <= VERTEX_COLUMN_GUARD:
        vertices = enumerate_vertices(box)
        for lb, row, bound in zip(labels, rows, rhs.tolist()):
            explicit = float(np.max(vertices @ row) - bound)
            if abs(explicit - omega[lb]) > 1e-9:
                return (f"{lb}: omega {omega[lb]!r} vs vertex max {explicit!r}")
        return None
    rng = np.random.default_rng(seed)
    for trial in range(3):
        free = np.sort(rng.choice(inst.n_cols, size=16, replace=False))
        corner = rng.integers(0, 2, size=inst.n_cols)
        fixed = np.setdiff1d(np.arange(inst.n_cols), free)
        base = rows[:, fixed] @ np.where(corner[fixed] == 1, box.upper[fixed],
                                         box.lower[fixed])
        sub = BoundsBox(box.lower[free], box.upper[free],
                        tuple(box.provenance[c] for c in free))
        vertices = enumerate_vertices(sub)
        formula = box_row_maximum(rows[:, free], sub) + base
        for lb, row, b, f, bound in zip(labels, rows[:, free], base.tolist(),
                                        formula.tolist(), rhs.tolist()):
            explicit = float(np.max(vertices @ row)) + b
            if abs(explicit - f) > 1e-9:
                return (f"{lb} (projection {trial}): formula {f!r} "
                        f"vs enumerated {explicit!r}")
            if explicit - bound > omega[lb] + 1e-9:
                return (f"{lb} (projection {trial}): omega {omega[lb]!r} "
                        f"below a box point's {explicit - bound!r}")
    return None


@dataclass(frozen=True)
class GapReport:
    """Full-versus-reduced MILP comparison."""

    full_status: str
    reduced_status: str
    full_cost: float | None
    reduced_cost: float | None
    gap: float | None
    commitment_match: bool | None

    @property
    def zero_gap(self) -> bool:
        """Equal objectives (1e-6 relative) or matching infeasibility."""
        if self.gap is not None:
            return self.gap <= 1e-6
        return self.full_status == self.reduced_status


def verify_zero_gap(full: UcInstance, reduced: UcInstance) -> GapReport:
    """Solve both MILPs and report the relative objective gap."""
    results = []
    for inst in (full, reduced):
        try:
            sol = solve_uc(inst)
            results.append(("optimal", sol))
        except UcInfeasibleError:
            results.append(("infeasible", None))
    (fs, fsol), (rs, rsol) = results
    if fs != "optimal" or rs != "optimal":
        return GapReport(fs, rs, None, None, None, None)
    gap = abs(fsol.cost - rsol.cost) / max(abs(fsol.cost), 1.0)
    return GapReport(fs, rs, fsol.cost, rsol.cost, gap,
                     fsol.commitment == rsol.commitment)
