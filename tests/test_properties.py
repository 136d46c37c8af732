"""Property and regression tests over seeded ring-plus-chord cases from
bench/gen.py."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import screen_checking_skips, screen_checking_vertex_starts
from ucscreen import oracle
from ucscreen.case import load_bundled_case, parse_case
import ucscreen.lp as lp_module
from ucscreen.lp import (
    FEASIBILITY_TOL,
    MilpProblem,
    SimplexError,
    lagrangian_bound,
    solve_milp,
)
from ucscreen.model import (
    GEN_ROW_KINDS,
    CutSet,
    apply_cuts,
    build_uc,
    relax_binaries,
)
from ucscreen.screening import eovl

_spec = importlib.util.spec_from_file_location(
    "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


@st.composite
def regions(draw):
    """A relaxed S3 region (fixed nominal load) or S4 region (+-beta load
    box) of a small seeded ring-plus-chord case."""
    n_buses = draw(st.integers(5, 9))  # room for 3 chords off the ring
    beta = draw(st.sampled_from((0.0, 0.05, 0.1)))
    doc = gen.ring_chord_case(
        draw(st.integers(0, 2**32 - 1)), n_buses=n_buses,
        n_chords=draw(st.integers(0, 3)),
        n_gens=draw(st.integers(2, min(4, n_buses))), beta=beta,
        tight_share=draw(st.sampled_from((0.0, 0.25, 0.5))), name="prop")
    case = parse_case(json.dumps(doc))
    full = build_uc(case, case.nominal_load)
    if draw(st.booleans()):
        load = case.nominal_load
        full = apply_cuts(full, CutSet(load_range=((1 - beta) * load,
                                                   (1 + beta) * load)))
    return relax_binaries(full)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(regions())
def test_skips_keep_every_verdict(inst):
    s3, _ = screen_checking_skips(inst)
    s2 = eovl(inst, use_vgs=False)
    assert set(s3.redundant) == set(s2.redundant)
    assert s3.lp_solved <= s3.lp_count
    assert s2.lp_solved == s2.lp_count
    # S2's LPs keep their own row; the oracle's cold LP drops it.
    assert set(s2.redundant) == {lb for lb in inst.candidates
                                 if oracle.lp_redundancy(inst, lb)}


@settings(derandomize=True, max_examples=25, deadline=None)
@given(regions())
def test_vertex_starts_match_cold_solves(inst):
    screen_checking_vertex_starts(inst)


def _ring_case(seed, n_buses):
    """The ring-plus-chord case of `n_buses` with n_buses/2 chords and
    n_buses/5 units, beta 0.1 and 25% tight lines."""
    doc = gen.ring_chord_case(seed, n_buses=n_buses, n_chords=n_buses // 2,
                              n_gens=n_buses // 5, beta=0.1, tight_share=0.25,
                              name=f"ring{n_buses}")
    return parse_case(json.dumps(doc))


def _load_box(case):
    """The case's UC model over its +-10% load box."""
    load = case.nominal_load
    return apply_cuts(build_uc(case, load),
                      CutSet(load_range=(0.9 * load, 1.1 * load)))


def test_region_basis_of_a_100_bus_load_box_is_cheap():
    # The S4 region (+-10% load box) of the 100-bus ring-plus-chord case:
    # dual simplex from the slack basis, priced at ones, ends feasible in
    # fewer pivots than the region has rows.  Priced at zero it ran to the
    # 100,000-pivot cap.
    inst = relax_binaries(_load_box(_ring_case(7, 100)))
    tab = inst.region_basis
    assert tab.T[:, -1].min() >= -FEASIBILITY_TOL
    assert 0 < tab.iterations < tab.m


def test_zero_cost_milp_over_a_100_bus_load_box_is_solved():
    # The same region with its binaries and every cost 0.  Each child
    # prices its dual simplex at ones, as the root does; priced at zero,
    # the round-up child's dual simplex ran to the 100,000-pivot cap.
    inst = _load_box(_ring_case(7, 100))
    sol = solve_milp(MilpProblem(inst.lp(np.zeros(inst.n_cols)),
                                 inst.binary_indices))
    assert sol.status == "optimal" and sol.objective_value == 0.0
    assert sol.iterations < 10_000
    assert np.max(inst.rows @ sol.point - inst.rhs) <= FEASIBILITY_TOL
    u = sol.point[list(inst.binary_indices)]
    assert np.all((u == 0.0) | (u == 1.0))


def test_screen_raises_when_bland_pivots_leave_a_drifted_tableau(monkeypatch):
    # With no stall allowed, primal and dual simplex pivot by Bland's rule
    # from the first pivot.  Over this case's full region the dense
    # tableau drifts until an LP's point violates a row by 3e-3 of
    # max(1, |rhs|).  Each such LP's point is checked against its rows, so
    # the cold per-row LPs raise rather than return a verdict.  The screen
    # runs over the region's projection, which has no status column or
    # generation row, and there Bland's pivots keep the default set.
    case = _ring_case(3, 90)
    default = eovl(relax_binaries(build_uc(case, case.nominal_load))).redundant
    assert len(default) == 145
    monkeypatch.setattr(lp_module, "_STALL_LIMIT", 0)
    inst = relax_binaries(build_uc(case, case.nominal_load))
    assert eovl(inst).redundant == default
    with pytest.raises(SimplexError, match="Bland"):
        for lb in inst.candidates:
            oracle.lp_redundancy(inst, lb)


def _screen_matches_the_full_region(inst):
    """The S3 screen, which runs over the instance's projection, removes
    exactly the rows that the cold per-row LP over the full region finds
    redundant.  Every certificate is zero on the generation rows and
    passes against the instance's own rows in one `lagrangian_bound`
    product."""
    s3 = eovl(inst)
    assert set(s3.redundant) == {lb for lb in inst.candidates
                                 if oracle.lp_redundancy(inst, lb)}
    if not s3.certificates:
        return 0
    idx = inst.rows_of(s3.certificates)
    y = np.array(list(s3.certificates.values()))
    gen_rows = [i for i, lb in enumerate(inst.row_labels)
                if lb.kind in GEN_ROW_KINDS]
    assert np.all(y >= 0) and not np.any(y[:, gen_rows])
    bound = lagrangian_bound(inst.rows[idx], y, inst.rows, inst.rhs,
                             s3.box.lower, s3.box.upper)
    assert np.all(bound <= inst.rhs[idx] - FEASIBILITY_TOL)
    return len(idx)


def test_projection_screens_like_the_full_region():
    # The 48 benchmark synth cases at seed 1, the range case (30 buses,
    # 14 units, beta 0.2, case seed 2) at its nominal load and over its
    # load box, and thirty_bus and fifty_bus over their +-10% load box.
    regions = []
    for i in range(48):
        doc = gen.ring_chord_case((1, i), n_buses=24, n_chords=12, n_gens=8,
                                  beta=0.2, tight_share=0.25, name="synth")
        case = parse_case(json.dumps(doc))
        regions.append(relax_binaries(build_uc(case, case.nominal_load)))
    doc = gen.ring_chord_case((2,), n_buses=30, n_chords=15, n_gens=14,
                              beta=0.2, tight_share=0.25, name="range")
    range_case = parse_case(json.dumps(doc))
    regions.append(relax_binaries(build_uc(range_case,
                                           range_case.nominal_load)))
    for case, beta in ((range_case, 0.2), (load_bundled_case("thirty_bus"), 0.1),
                       (load_bundled_case("fifty_bus"), 0.1)):
        load = case.nominal_load
        regions.append(relax_binaries(apply_cuts(
            build_uc(case, load),
            CutSet(load_range=((1 - beta) * load, (1 + beta) * load)))))
    assert sum(_screen_matches_the_full_region(inst) for inst in regions) > 0


def _line_flow_regions():
    """The range case at its nominal load and over its +-20% load box,
    and four benchmark synth cases at seed 301: cases whose line-flow
    LPs run long enough to stop, with rows left to witness."""
    doc = gen.ring_chord_case((2,), n_buses=30, n_chords=15, n_gens=14,
                              beta=0.2, tight_share=0.25, name="range")
    case = parse_case(json.dumps(doc))
    load = case.nominal_load
    full = build_uc(case, load)
    regions = [relax_binaries(full), relax_binaries(apply_cuts(
        full, CutSet(load_range=(0.8 * load, 1.2 * load))))]
    for i in range(4):
        doc = gen.ring_chord_case((301, i), n_buses=24, n_chords=12, n_gens=8,
                                  beta=0.2, tight_share=0.25, name="synth")
        case = parse_case(json.dumps(doc))
        regions.append(relax_binaries(build_uc(case, case.nominal_load)))
    return regions


def test_line_flow_rounds_witness_and_stop():
    # Every engine decides some candidate: the line-flow pass witnesses
    # later rows with its rounds' points and stops LPs at a certificate,
    # and the sets, lp_count and certificates equal those of S2 and of
    # --jobs 2 (see `screen_checking_skips`).  A stopped LP's cold
    # optimum is at most its limit (`screen_checking_vertex_starts`).
    seen = set()
    for inst in _line_flow_regions():
        s3, engines = screen_checking_skips(inst)
        seen.update(engines.values())
        s2 = eovl(inst, use_vgs=False)
        assert s3.redundant == s2.redundant and s3.lp_count > s3.lp_solved
        two = eovl(inst, jobs=2)
        assert (two.redundant, two.lp_count, two.lp_solved) == (
            s3.redundant, s3.lp_count, s3.lp_solved)
        assert list(two.certificates) == list(s3.certificates)
        assert all(two.certificates[lb].tobytes() == y.tobytes()
                   for lb, y in s3.certificates.items())
        screen_checking_vertex_starts(inst)
    assert seen == {"vgs", "bound witness", "certificate", "line witness",
                    "stopped", "optimum"}
