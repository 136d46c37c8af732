"""The simplex pivot choosers against a reference copy of the rules.

`_ref_primal_pivot`, `_ref_leaving_row` and `_ref_dual_pivot` are the
choosers as they stood before the kernel was made lean: each step written
for clarity, with no shortcut.  The kernel's choosers must return the same
verdict or the same (row, column) on every tableau, under Dantzig's rule
and under Bland's, ties and edge cases included.
"""

from collections import Counter

import numpy as np
import pytest

import ucscreen.lp as lp_module
from ucscreen.lp import _DUAL_TIE_RTOL, _PIVOT_TOL, _RATIO_TOL, FEASIBILITY_TOL


# Tie sets of more than one member that the reference rules met, by kind.
_TIES = Counter()


def _ref_lowest_label(tab, cols, kind):
    _TIES[kind] += cols.size > 1
    return int(cols[np.argmin(tab.nonbasic[cols])])


def _ref_leaving_row(tab, col, bland=False):
    T = tab.T
    colvals = T[:, col]
    pos = colvals > _RATIO_TOL
    if not pos.any():
        return None
    ratios = np.divide(T[:, -1], colvals, out=np.full(tab.m, np.inf),
                       where=pos)
    ties = np.nonzero(ratios <= ratios.min() + 1e-12)[0]
    _TIES["ratio"] += ties.size > 1
    if bland and ties.size > 1:
        return int(ties[np.argmin(tab.basis[ties])])
    return int(ties[0])


def _ref_primal_pivot(tab, zrow, bland):
    rc = zrow[:-1]
    if bland:
        neg = np.nonzero(rc < -_PIVOT_TOL)[0]
        if neg.size == 0:
            return "optimal"
        col = _ref_lowest_label(tab, neg, "bland")
    else:
        best = rc.min()
        if best >= -_PIVOT_TOL:
            return "optimal"
        col = _ref_lowest_label(tab, np.nonzero(rc == best)[0], "dantzig")
    row = _ref_leaving_row(tab, col, bland)
    return "unbounded" if row is None else (row, col)


def _ref_dual_pivot(tab, zrow, bland):
    T = tab.T
    rhs = T[:, -1]
    if not bland:
        row = int(np.argmin(rhs))
        if rhs[row] >= -_PIVOT_TOL:
            return "feasible"
        entries = T[row, :-1]
        cand = np.nonzero(entries < -_PIVOT_TOL)[0]
    if bland or cand.size == 0:
        rows = np.nonzero(rhs < -_PIVOT_TOL)[0]
        key = tab.basis[rows] if bland else rhs[rows]
        for row in rows[np.argsort(key, kind="stable")]:
            entries = T[row, :-1]
            cand = np.nonzero(entries < -_PIVOT_TOL)[0]
            if cand.size:
                break
            if rhs[row] < -FEASIBILITY_TOL:
                return "infeasible"
        else:
            return "feasible"
    ratios = np.maximum(zrow[cand], 0.0) / -entries[cand]
    least = ratios.min()
    tied = ratios <= least + _DUAL_TIE_RTOL * max(1.0, least)
    return int(row), _ref_lowest_label(tab, cand[tied], "dual")


def _outcome(choose, *args):
    """What a chooser returns, or the type of what it raises."""
    try:
        return choose(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return type(exc)


def _random_tableau(rng):
    """A tableau with random entries and a random split of the labels
    into basic and nonbasic, with ties and edge cases planted: equal
    reduced costs, primal ratios within 1e-12, dual ratios within
    _DUAL_TIE_RTOL, columns with no positive entry, basic values in the
    (-FEASIBILITY_TOL, -_PIVOT_TOL) band, and 0 or 1 rows."""
    m = int(rng.choice([0, 1, 1, 2, 3, 5, 8, 13]))
    ns = int(rng.integers(1, 9))
    no_rows = np.zeros(0, dtype=int)
    form = lp_module._StandardForm(np.zeros((m, ns)), np.arange(ns), np.ones(ns),
                                   np.zeros(ns), no_rows, no_rows)
    tab = lp_module._Tableau(form, np.zeros(m))
    labels = rng.permutation(ns + m)
    tab.basis[:] = labels[:m]
    tab.nonbasic[:] = labels[m:]
    buf = tab.buf
    # Entries on a coarse grid tie often; a few are exactly zero.
    buf[:] = rng.integers(-4, 5, size=buf.shape) * rng.choice([0.25, 1.0, 3.0])
    buf[:-1, -1] = np.abs(buf[:-1, -1]) * rng.choice([0.0, 1.0, 1.0])
    if m and rng.random() < 0.5:  # violated rows for dual simplex
        bad = rng.random(m) < 0.5
        buf[:-1, -1][bad] = -rng.uniform(0.1, 3.0, size=bad.sum())
    if m and rng.random() < 0.3:  # a row inside the tolerance band
        r = rng.integers(m)
        buf[r, -1] = -rng.uniform(2 * _PIVOT_TOL, FEASIBILITY_TOL / 2)
        if rng.random() < 0.7:
            buf[r, :-1] = np.abs(buf[r, :-1])  # nothing can enter there
    if m and rng.random() < 0.3:  # a row with no entering column
        r = rng.integers(m)
        buf[r, :-1] = np.abs(buf[r, :-1])
    if rng.random() < 0.3:  # a column that nothing limits
        q = rng.integers(ns)
        buf[:-1, q] = -np.abs(buf[:-1, q]) * (rng.random(m) < 0.7)
        buf[:-1, q][rng.random(m) < 0.2] = _RATIO_TOL / 2
    if m >= 2 and rng.random() < 0.5:  # primal ratios within 1e-12
        q = rng.integers(ns)
        r1, r2 = rng.choice(m, size=2, replace=False)
        buf[[r1, r2], q] = rng.uniform(0.5, 2.0, size=2)
        buf[r2, -1] = (buf[r1, -1] / buf[r1, q]
                       * (1 + rng.choice([0.0, 3e-13, -3e-13, 5e-12]))
                       * buf[r2, q])
    if ns >= 2 and rng.random() < 0.5:  # equal reduced costs
        cols = rng.choice(ns, size=min(ns, 3), replace=False)
        buf[-1, cols] = buf[-1, cols[0]] if rng.random() < 0.5 else -1.5
    if m and ns >= 2 and rng.random() < 0.5:  # dual ratios within the tie
        r = int(buf[:-1, -1].argmin())
        q1, q2 = rng.choice(ns, size=2, replace=False)
        buf[r, [q1, q2]] = -rng.uniform(0.3, 3.0, size=2)
        z1 = abs(buf[-1, q1]) + rng.choice([0.0, 0.1, 1.0])
        buf[-1, q1] = z1
        buf[-1, q2] = (z1 / -buf[r, q1] * -buf[r, q2]
                       * (1 + rng.choice([0.0, 4e-13, -4e-13, 3e-12])))
    if rng.random() < 0.2:  # reduced costs all nonnegative: optimal
        buf[-1, :-1] = np.abs(buf[-1, :-1])
    return tab


def _kind(outcome):
    return outcome if isinstance(outcome, (str, type)) else "pivot"


@pytest.mark.parametrize("bland", [False, True])
def test_choosers_match_the_reference_rules(bland):
    rng = np.random.default_rng(2024 + bland)
    _TIES.clear()
    seen = set()
    for _ in range(1500):
        tab = _random_tableau(rng)
        zrow = tab.z
        primal = _outcome(tab._primal_pivot, zrow, bland)
        assert primal == _outcome(_ref_primal_pivot, tab, zrow, bland)
        dual = _outcome(tab._dual_pivot, zrow, bland)
        assert dual == _outcome(_ref_dual_pivot, tab, zrow, bland)
        for col in range(tab.ns):
            assert (_outcome(tab._leaving_row, col, bland)
                    == _outcome(_ref_leaving_row, tab, col, bland))
        seen |= {("m", min(tab.m, 2)), ("primal", _kind(primal)),
                 ("dual", _kind(dual))}
    # Every verdict and both edge sizes were met; with no row and
    # Dantzig's rule, dual simplex has no row to take and both raise.
    assert {("m", 0), ("m", 1), ("m", 2), ("primal", "optimal"),
            ("primal", "unbounded"), ("primal", "pivot"), ("dual", "feasible"),
            ("dual", "infeasible"), ("dual", "pivot")} <= seen
    assert (("dual", ValueError) in seen) == (not bland)
    # The planted ties reached the label and first-row rules many times.
    kinds = ("bland", "ratio", "dual") if bland else ("dantzig", "ratio", "dual")
    assert min(_TIES[k] for k in kinds) > 50, _TIES
