"""Property and regression tests over seeded ring-plus-chord cases from
bench/gen.py."""

import importlib.util
import json
from pathlib import Path

from hypothesis import given, settings, strategies as st

from conftest import screen_checking_skips, screen_checking_vertex_starts
from ucscreen import oracle
from ucscreen.case import parse_case
from ucscreen.lp import FEASIBILITY_TOL
from ucscreen.model import CutSet, apply_cuts, build_uc, relax_binaries
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
    s3 = screen_checking_skips(inst)
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


def test_region_basis_of_a_100_bus_load_box_is_cheap():
    # The S4 region (+-10% load box) of the 100-bus ring-plus-chord case:
    # dual simplex from the slack basis, priced at ones, ends feasible in
    # fewer pivots than the region has rows.  Priced at zero it ran to the
    # 100,000-pivot cap.
    doc = gen.ring_chord_case(7, n_buses=100, n_chords=50, n_gens=20,
                              beta=0.1, tight_share=0.25, name="ring100")
    case = parse_case(json.dumps(doc))
    load = case.nominal_load
    inst = relax_binaries(apply_cuts(build_uc(case, load), CutSet(
        load_range=(0.9 * load, 1.1 * load))))
    pivots, tab = inst.region_basis
    assert tab.T[:, -1].min() >= -FEASIBILITY_TOL
    assert 0 < pivots < tab.m
