"""Screening engine tests: bounds, the matrix criterion, per-line LPs,
the ensemble, and model reduction."""

import dataclasses
import importlib.util
import json
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import ucscreen.lp
import ucscreen.screening
from conftest import (
    CORPUS,
    enumerate_polygon_vertices,
    screen_checking_skips,
    screen_checking_vertex_starts,
)
from ucscreen import oracle
from ucscreen.case import case_to_json, compute_ptdf, parse_case
from ucscreen.cli import SchemeConfig, verify_case
from ucscreen.lp import (
    FEASIBILITY_TOL,
    LpProblem,
    LpUsageError,
    box_maximum,
    solve_lp,
)
from ucscreen.model import (
    CutSet,
    RowLabel,
    apply_cuts,
    build_uc,
    relax_binaries,
    solve_uc,
)
from ucscreen.screening import (
    BoundsBox,
    ScreeningInfeasibleError,
    _Vertices,
    balance_multiplier,
    box_row_maximum,
    eovl,
    lagrangian_certificates,
    lfgs_screen,
    reduce_model,
    variable_bounds,
    vgs_screen,
)


def relaxed(case, load=None):
    return relax_binaries(build_uc(case, case.nominal_load if load is None
                                   else load))


def u_one_instance(case):
    """Relaxed instance with every status pinned to 1 (the toy-figure view)."""
    inst = build_uc(case, case.nominal_load)
    fixes = tuple((g, 1) for g in range(case.n_gens))
    return relax_binaries(apply_cuts(inst, CutSet(commitment_fixes=fixes)))


# --- variable bounds ---


def test_status_bounds_stay_in_unit_box(cases):
    for name in ("five_bus", "nine_bus", "fourteen_bus"):
        inst = relaxed(cases[name])
        box = variable_bounds(inst)
        G = cases[name].n_gens
        assert np.all(box.lower[G:2 * G] >= -1e-9)
        assert np.all(box.upper[G:2 * G] <= 1 + 1e-9)


def test_dispatch_bounds_respect_capacity(cases):
    for name in ("five_bus", "thirty_bus"):
        case = cases[name]
        box = variable_bounds(relaxed(case))
        for g, gen in enumerate(case.generators):
            assert box.upper[g] <= gen.x_max + 1e-9
            assert box.lower[g] >= -1e-9


def test_five_bus_u1_box_corner_is_3_3(cases):
    """Bound LPs against an independent 2-D vertex enumeration."""
    case = cases["five_bus"]
    inst = u_one_instance(case)
    box = variable_bounds(inst)
    assert box.lp_count == 4  # two LPs per dispatch column, none for fixed u
    assert box.provenance == ("lp_solved", "lp_solved",
                              "fixed_by_cut", "fixed_by_cut")
    # Oracle: project the u=1 region onto (x1, x2) and enumerate vertices.
    rows, rhs = [], []
    for i, lb in enumerate(inst.row_labels):
        coeffs = inst.rows[i]
        if np.any(coeffs[2:] != 0):  # substitute u = 1
            rhs.append(inst.rhs[i] - coeffs[2:].sum())
        else:
            rhs.append(inst.rhs[i])
        rows.append(coeffs[:2])
    vertices = enumerate_polygon_vertices(np.array(rows), np.array(rhs))
    assert np.allclose(vertices.max(axis=0), box.upper[:2], atol=1e-8)
    assert np.allclose(vertices.min(axis=0), box.lower[:2], atol=1e-8)
    assert np.allclose(box.upper[:2], [3.0, 3.0], atol=1e-8)
    assert np.allclose(box.lower[:2], [2.0, 2.0], atol=1e-8)


def test_status_bounds_in_closed_form_meet_zero_limits(cases):
    # nine_bus with unit 0 at zero capacity (x_min = x_max = 0) and unit 2
    # at x_min = 0: each status box divides by neither zero, and equals
    # the bound LPs over the full region, u_1 in [0.38, 1] among them.
    doc = json.loads(case_to_json(cases["nine_bus"]))
    doc["generators"][0].update(x_min=0.0, x_max=0.0)
    doc["generators"][2]["x_min"] = 0.0
    inst = relaxed(parse_case(json.dumps(doc)))
    s3 = eovl(inst)
    direct = {lb for lb in inst.candidates if oracle.lp_redundancy(inst, lb)}
    assert set(s3.redundant) == set(eovl(inst, use_vgs=False).redundant) == direct
    G = inst.n_gens
    for p in range(G, 2 * G):
        obj = np.zeros(inst.n_cols)
        obj[p] = 1.0
        for sense, value in (("max", s3.box.upper[p]), ("min", s3.box.lower[p])):
            cold = solve_lp(inst.lp(obj, sense=sense)).objective_value
            assert abs(value - cold) <= 1e-9, (p, sense)
    assert np.allclose([s3.box.lower[G + 1], s3.box.upper[G + 1]], [0.38, 1.0],
                       rtol=0, atol=1e-12)


def test_projection_needs_every_generation_row(cases):
    inst = relaxed(cases["five_bus"]).without_rows([RowLabel("gen_upper", 1)])
    with pytest.raises(LpUsageError, match="generation rows"):
        eovl(inst)


def test_bounds_infeasible_cost_cut_raises(cases):
    case = cases["five_bus"]
    inst = relax_binaries(apply_cuts(build_uc(case, case.nominal_load),
                                     CutSet(cost_bound=1.0)))  # below any cost
    with pytest.raises(ScreeningInfeasibleError):
        variable_bounds(inst)


def test_load_columns_take_box_without_lps(cases):
    case = cases["five_bus"]
    inst = build_uc(case, case.nominal_load)
    lo, hi = 0.5 * case.nominal_load, 1.5 * case.nominal_load
    ranged = relax_binaries(apply_cuts(inst, CutSet(load_range=(lo, hi))))
    box = variable_bounds(ranged)
    G = case.n_gens
    assert box.lp_count == 4 * G
    assert np.array_equal(box.lower[2 * G:], lo)
    assert np.array_equal(box.upper[2 * G:], hi)
    assert set(box.provenance[2 * G:]) == {"load_box"}


# --- vertex-guided pass ---


def _toy_instance(rows, rhs):
    """Wrap bare rows in a BoundsBox-compatible shape for formula tests."""
    return np.asarray(rows, dtype=float), np.asarray(rhs, dtype=float)


def test_omega_single_positive_coefficient():
    rows, rhs = _toy_instance([[1.0, 0.0]], [5.0])
    box = BoundsBox(np.zeros(2), np.full(2, 3.0), ("lp_solved",) * 2)
    omega = box_row_maximum(rows, box) - rhs
    assert omega[0] == -2.0  # max is 3, bound is 5: certified redundant


def test_omega_sign_split():
    rows, rhs = _toy_instance([[1.0, -1.0]], [2.0])
    box = BoundsBox(np.zeros(2), np.full(2, 3.0), ("lp_solved",) * 2)
    omega = box_row_maximum(rows, box) - rhs
    assert omega[0] == 1.0  # corner (3, 0) violates the limit: undecided


# --- the balance-pair knapsack multiplier ---


def _knapsack_bound(rows, balance, total, lam, lower, upper):
    """lam * total + the box maximum of each rows[k] - lam[k] * balance."""
    return lam * total + box_maximum(rows - lam[:, None] * balance,
                                     lower, upper)


def test_balance_multiplier_matches_every_breakpoint():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        K = int(rng.integers(1, 6))
        rows = np.round(rng.normal(size=(K, n)), 2)
        rows[rng.uniform(size=(K, n)) < 0.2] = 0.0
        balance = rng.choice([-1.0, 0.0, 1.0, 0.5, -2.0], size=n)
        lower = np.round(rng.normal(scale=3.0, size=n), 2)
        upper = lower + np.round(rng.uniform(0.0, 5.0, size=n), 2)
        ends = box_maximum(np.array([-balance, balance]), lower, upper)
        total = rng.uniform(-ends[0], ends[1])  # the box meets the equality
        lam = balance_multiplier(rows, balance, total, lower, upper)
        found = _knapsack_bound(rows, balance, total, lam, lower, upper)
        for k in range(K):
            cols = np.nonzero(balance)[0]
            breaks = rows[k, cols] / balance[cols] if cols.size else np.zeros(1)
            every = _knapsack_bound(np.repeat(rows[k:k + 1], breaks.size, 0),
                                    balance, total, breaks, lower, upper)
            best = every.min()
            assert abs(found[k] - best) <= 1e-9 * max(1.0, abs(best))


def test_balance_multiplier_certifies_a_row_the_box_cannot():
    # x1, x2 in [0, 8] with x1 + x2 = 10: x1 - x2 reaches 6 on the region
    # but 8 on the box, so the limit x1 - x2 <= 7 is redundant and the
    # vertex pass (y = 0) cannot tell.
    row, balance = np.array([[1.0, -1.0]]), np.array([1.0, 1.0])
    lower, upper = np.zeros(2), np.full(2, 8.0)
    limit = 7.0 - 1e-7
    assert box_maximum(row, lower, upper)[0] > limit
    lam = balance_multiplier(row, balance, 10.0, lower, upper)
    assert lam[0] == -1.0
    bound = _knapsack_bound(row, balance, 10.0, lam, lower, upper)[0]
    exact = solve_lp(LpProblem(row[0], [balance, -balance], [10.0, -10.0],
                               bounds=np.column_stack([lower, upper]),
                               sense="max"))
    assert bound == exact.objective_value == 6.0 <= limit


def test_balance_multiplier_with_infinite_box_sides_gives_no_nan():
    rows = np.array([[1.0, -1.0, 0.0, 2.0], [0.0, 1.0, 3.0, 0.0],
                     [1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
    balance = np.array([1.0, 1.0, 0.0, -1.0])
    for lower, upper in (
            (np.array([0.0, -np.inf, 0.0, 0.0]), np.full(4, 5.0)),
            (np.zeros(4), np.array([np.inf, 5.0, np.inf, 5.0])),
            (np.full(4, -np.inf), np.full(4, np.inf))):
        lam = balance_multiplier(rows, balance, 2.0, lower, upper)
        assert not np.any(np.isnan(lam))
        bound = _knapsack_bound(rows, balance, 2.0, lam, lower, upper)
        assert not np.any(np.isnan(bound))


def test_certificates_keep_the_strict_margin(cases):
    # Move each certified row's limit to just above and just below its
    # certificate's bound plus the margin; only the latter certifies.
    inst = relaxed(cases["fifty_bus"])
    box = variable_bounds(inst)
    certs = lagrangian_certificates(inst, box, inst.candidates,
                                    _Vertices(inst))
    assert len(certs) > 10
    for lb, y in certs.items():
        j = inst.row_index(lb)
        residual = inst.rows[j] - y @ inst.rows
        bound = y @ inst.rhs + box_row_maximum(residual[None], box)[0]
        for slack, passes in ((0.5, False), (2.0, True)):
            rhs = inst.rhs.copy()
            rhs[j] = bound + slack * FEASIBILITY_TOL
            moved = dataclasses.replace(inst, rhs=rhs)
            again = lagrangian_certificates(moved, box, (lb,),
                                            _Vertices(moved))
            assert (lb in again) == passes, (lb, slack)


def _synth_case(i):
    """The benchmark's synthetic case i at seed 301."""
    spec = importlib.util.spec_from_file_location(
        "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return parse_case(json.dumps(gen.ring_chord_case(
        (301, i), n_buses=24, n_chords=12, n_gens=8, beta=0.2,
        tight_share=0.25, name=f"synth{i}")))


def test_lagrangian_certificates_use_both_multipliers():
    # A benchmark-shaped synthetic case, where both kinds certify rows.
    case = _synth_case(0)
    pair = {RowLabel("balance_le"), RowLabel("balance_ge")}
    kinds = []
    for scheme in ("s3", "s4"):
        inst = _region(case, scheme)
        for y in eovl(inst).certificates.values():
            support = {inst.row_labels[i] for i in np.nonzero(y)[0]}
            kinds.append("balance" if support <= pair else "vertex")
    assert kinds.count("balance") > 0 and kinds.count("vertex") > 0


@pytest.mark.parametrize("name, scheme", [(name, scheme) for name in CORPUS
                                          for scheme in ("s3", "s4")]
                         + [(f"synth{i}", "s3") for i in range(4)])
def test_ensemble_report_is_the_sum_of_its_passes(cases, name, scheme):
    # The line-flow pass gets every row the vertex test leaves and
    # decides it, so each count of the report is the bound pass's plus
    # the line-flow pass's.
    case = (cases[name] if name in cases
            else _synth_case(int(name.removeprefix("synth"))))
    inst = _region(case, scheme)
    boxes, parts = [], []
    bounds, lfgs = ucscreen.screening.variable_bounds, ucscreen.screening.lfgs_screen

    def spied_bounds(*args):
        boxes.append(bounds(*args))
        return boxes[-1]

    def spied_lfgs(*args):
        parts.append(lfgs(*args))
        return parts[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ucscreen.screening, "variable_bounds", spied_bounds)
        mp.setattr(ucscreen.screening, "lfgs_screen", spied_lfgs)
        report = eovl(inst)
    (box,), (part,) = boxes, parts
    vertex = vgs_screen(inst, box)
    assert part.candidates == vertex.kept
    assert report.lp_count == box.lp_count + part.lp_count
    assert report.lp_solved == box.lp_solved + part.lp_solved
    assert list(report.certificates) == list(part.certificates)
    for lb, y in part.certificates.items():
        assert np.array_equal(report.certificates[lb], y), lb
    removed = set(vertex.redundant) | set(part.redundant)
    assert len(removed) == len(vertex.redundant) + len(part.redundant)
    assert report.redundant == tuple(lb for lb in inst.candidates
                                     if lb in removed)


def test_five_bus_vgs_upper_split(cases):
    inst = u_one_instance(cases["five_bus"])
    report = vgs_screen(inst, variable_bounds(inst))
    redundant_uppers = {lb.index for lb in report.redundant
                        if lb.kind == "line_upper"}
    assert redundant_uppers == {2, 3, 4, 5}
    assert report.lp_count == 0
    assert set(report.attribution.values()) == {"vgs"}
    assert len(report.omega) == len(inst.candidates)


def test_omega_matches_vertex_enumeration(cases):
    for name in ("five_bus", "nine_bus", "fourteen_bus", "thirty_bus"):
        inst = relaxed(cases[name])
        box = variable_bounds(inst)
        report = vgs_screen(inst, box)
        vertices = oracle.enumerate_vertices(box)
        for lb, w in report.omega.items():
            coeffs, bound = inst.row(lb)
            explicit = float(np.max(vertices @ coeffs) - bound)
            assert abs(explicit - w) <= 1e-9


def test_vgs_soundness_against_oracle(cases):
    for name in CORPUS:
        inst = relaxed(cases[name])
        report = vgs_screen(inst, variable_bounds(inst))
        for lb in report.redundant:
            assert oracle.lp_redundancy(inst, lb), f"{name}: {lb}"


def test_vgs_kept_and_redundant_partition_candidates(cases):
    for name in CORPUS:
        inst = relaxed(cases[name])
        report = vgs_screen(inst, variable_bounds(inst))
        assert report.kept, name  # every corpus case keeps a binding limit
        assert not set(report.kept) & set(report.redundant)
        assert sorted(report.kept + report.redundant) == sorted(inst.candidates)
        assert report.kept == tuple(lb for lb in inst.candidates
                                    if lb not in report.redundant)
        report.check_partition()


# --- line-flow-guided pass ---


def test_dominated_twin_circuit_is_redundant(cases):
    # nine_bus carries a parallel pair on (1,2): same row, looser bound.
    inst = relaxed(cases["nine_bus"])
    report = lfgs_screen(inst)
    red = set(report.redundant)
    assert RowLabel("line_upper", 9) in red
    assert RowLabel("line_upper", 0) not in red
    r0 = inst.rows[inst.row_index(RowLabel("line_upper", 0))]
    r9 = inst.rows[inst.row_index(RowLabel("line_upper", 9))]
    assert np.allclose(r0, r9, atol=1e-12)  # genuinely the same hyperplane


def test_binding_candidate_is_kept(cases):
    # negcontrol line_upper(1) binds at the optimum; LFGS must keep it.
    inst = relaxed(cases["negcontrol"])
    report = lfgs_screen(inst)
    assert RowLabel("line_upper", 1) in set(report.kept)


def test_lfgs_contains_vgs(cases):
    for name in CORPUS:
        inst = relaxed(cases[name])
        vgs = vgs_screen(inst, variable_bounds(inst))
        lfgs = lfgs_screen(inst)
        assert set(vgs.redundant) <= set(lfgs.redundant), name


def test_lfgs_rejects_non_line_candidates(cases):
    inst = relaxed(cases["five_bus"])
    with pytest.raises(LpUsageError):
        lfgs_screen(inst, (RowLabel("balance_le"),))


# --- ensemble ---


def test_s1_skips_lfgs_and_s2_skips_bounds(cases):
    inst = relaxed(cases["nine_bus"])
    s1 = eovl(inst, use_lfgs=False)
    assert s1.lp_count == 4 * cases["nine_bus"].n_gens
    assert set(s1.attribution.values()) <= {"vgs"}
    s2 = eovl(inst, use_vgs=False)
    assert s2.lp_count == len(inst.candidates)
    assert s2.omega == {}
    assert isinstance(s1.box, BoundsBox) and s2.box is None


def test_ensemble_equals_lfgs_everywhere(cases):
    for name in CORPUS:
        inst = relaxed(cases[name])
        s3 = eovl(inst)
        s2 = eovl(inst, use_vgs=False)
        assert set(s3.redundant) == set(s2.redundant), name
        s3.check_partition()
        s2.check_partition()


def test_lp_count_bookkeeping(cases):
    for name in CORPUS:
        case = cases[name]
        inst = relaxed(case)
        s3 = eovl(inst)
        n_v = sum(1 for v in s3.attribution.values() if v == "vgs")
        assert s3.lp_count == 4 * case.n_gens + len(inst.candidates) - n_v, name


def test_screening_reports_are_schedule_independent(cases):
    inst = relaxed(cases["thirty_bus"])
    a = eovl(inst, jobs=1)
    b = eovl(inst, jobs=4)
    assert a.redundant == b.redundant
    assert a.kept == b.kept
    assert a.attribution == b.attribution
    assert a.omega == b.omega
    assert a.lp_count == b.lp_count


def test_one_thread_pool_per_screen(cases, monkeypatch):
    made = []

    class CountingPool(ucscreen.screening.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(ucscreen.screening, "ThreadPoolExecutor", CountingPool)
    inst = relaxed(cases["thirty_bus"])
    report = eovl(inst, jobs=8)
    assert len(made) == 1
    # both passes ran LPs, the bound pass in many rounds of one column
    assert report.box.lp_solved > 2 and report.lp_solved > report.box.lp_solved
    assert eovl(inst, jobs=1).redundant == report.redundant
    assert len(made) == 1


def test_slack_bus_invariance(cases):
    for name, other_slack in (("five_bus", 3), ("nine_bus", 6)):
        case = cases[name]
        doc = json.loads(case_to_json(case))
        doc["slack_bus"] = other_slack
        moved = parse_case(json.dumps(doc))
        base = eovl(relaxed(case), use_vgs=False)
        alt = eovl(relaxed(moved), use_vgs=False)
        assert set(base.redundant) == set(alt.redundant), name
        # the ensemble's final set is slack-invariant as well
        assert set(eovl(relaxed(moved)).redundant) == set(base.redundant)


def _degenerate_variants(cases):
    """(label, case, unit) for variants of five_bus and nine_bus:
    - the unit has x_min == x_max, so its two generation rows form an
      equality pair;
    - an exact twin of line 0 (same endpoints, susceptance and limits),
      whose rows repeat the line's;
    - every line's limit on the side its flow takes at the full-model
      optimum moved to that flow, so every line row binds there and the
      optimum stays optimal;
    - line 0's susceptance at 1e-6 of its own, so the susceptance matrix
      has one entry near zero and the line's PTDF row is near zero."""
    for name, unit in (("five_bus", 0), ("nine_bus", 2)):
        case = cases[name]
        doc = json.loads(case_to_json(case))
        fixed = json.loads(json.dumps(doc))
        fixed["generators"][unit]["x_min"] = fixed["generators"][unit]["x_max"]
        twin = json.loads(json.dumps(doc))
        twin["lines"].append(dict(twin["lines"][0]))
        binding = json.loads(json.dumps(doc))
        x = solve_uc(build_uc(case, case.nominal_load)).dispatch
        flow = compute_ptdf(case).entries @ (case.gen_bus_matrix() @ x
                                             - case.nominal_load)
        for line, f in zip(binding["lines"], flow.tolist()):
            line["f_max" if f >= 0 else "f_min"] = f
        weak = json.loads(json.dumps(doc))
        weak["lines"][0]["susceptance"] *= 1e-6
        yield f"{name} fixed unit", parse_case(json.dumps(fixed)), unit
        yield f"{name} twin line", parse_case(json.dumps(twin)), unit
        yield f"{name} binding limits", parse_case(json.dumps(binding)), unit
        yield f"{name} weak line", parse_case(json.dumps(weak)), unit


def test_degenerate_regions_screen_like_the_oracle(cases, tmp_path):
    for label, case, unit in _degenerate_variants(cases):
        full = build_uc(case, case.nominal_load)
        committed = apply_cuts(full, CutSet(commitment_fixes=((unit, 1),)))
        for inst in (relax_binaries(full), relax_binaries(committed)):
            s3 = eovl(inst)
            s2 = eovl(inst, use_vgs=False)
            direct = {lb for lb in inst.candidates
                      if oracle.lp_redundancy(inst, lb)}
            assert set(s3.redundant) == set(s2.redundant) == direct, label
            # The screens started from this basis: dual simplex made the
            # slack basis feasible, the balance pair's negative side too.
            tab = inst.region_basis
            assert tab.iterations > 0, label
            assert tab.T[:, -1].min() >= -FEASIBILITY_TOL, label
        path = tmp_path / "case.json"
        path.write_text(case_to_json(case), encoding="utf-8")
        for scheme, beta in (("s3", None), ("s4", 0.1)):
            verdicts = verify_case(SchemeConfig(case_path=str(path),
                                                scheme=scheme, beta=beta))
            assert [v["passed"] for v in verdicts] == [True] * 4, label


def test_monotonicity_under_cuts(cases):
    for name in ("five_bus", "nine_bus", "fourteen_bus"):
        case = cases[name]
        inst = build_uc(case, case.nominal_load)
        best = solve_uc(inst)
        plain = set(eovl(relax_binaries(inst)).redundant)
        cost_cut = apply_cuts(inst, CutSet(cost_bound=best.cost * 1.005))
        with_cost = set(eovl(relax_binaries(cost_cut)).redundant)
        assert plain <= with_cost, name
        commit_cut = apply_cuts(inst, CutSet(
            commitment_fixes=tuple(enumerate(best.commitment))))
        with_commit = set(eovl(relax_binaries(commit_cut)).redundant)
        assert plain <= with_commit, name


def test_screening_requires_relaxed_instance(cases):
    case = cases["five_bus"]
    inst = build_uc(case, case.nominal_load)
    with pytest.raises(LpUsageError):
        eovl(inst)
    with pytest.raises(LpUsageError):
        variable_bounds(inst)


# --- model reduction ---


def test_reduce_model_empty_is_identity(cases):
    inst = build_uc(cases["five_bus"], cases["five_bus"].nominal_load)
    same = reduce_model(inst, ())
    assert np.array_equal(same.rows, inst.rows)
    assert same.row_labels == inst.row_labels


def test_reduce_model_zero_gap_on_corpus(cases, uc_cache):
    for name in CORPUS:
        case = cases[name]
        inst = build_uc(case, case.nominal_load)
        s3 = eovl(relax_binaries(inst))
        red = reduce_model(inst, s3.redundant)
        report = oracle.verify_zero_gap(inst, red)
        assert report.zero_gap, name
        assert report.gap == 0.0


def test_reduce_model_refuses_non_line_rows(cases):
    inst = build_uc(cases["five_bus"], cases["five_bus"].nominal_load)
    with pytest.raises(LpUsageError):
        reduce_model(inst, (RowLabel("balance_le"),))
    with pytest.raises(LpUsageError):
        reduce_model(inst, (RowLabel("line_upper", 99),))


def test_removing_binding_row_shifts_optimum(cases):
    # negative control: deleting a kept (binding) row must change the cost
    case = cases["negcontrol"]
    inst = build_uc(case, case.nominal_load)
    dropped = inst.without_rows([RowLabel("line_upper", 1)])
    full = solve_uc(inst)
    loose = solve_uc(dropped)
    assert loose.cost < full.cost - 1e-6


# --- shared region basis against cold solves ---


def _region(case, scheme):
    full = build_uc(case, case.nominal_load)
    if scheme == "s4":
        nominal = case.nominal_load
        full = apply_cuts(full, CutSet(load_range=(0.9 * nominal, 1.1 * nominal)))
    return relax_binaries(full)


@pytest.mark.parametrize("scheme", ["s3", "s4"])
@pytest.mark.parametrize("name", CORPUS + ("negcontrol",))
def test_warm_screening_matches_cold_solves(cases, name, scheme):
    inst = _region(cases[name], scheme)
    box = variable_bounds(inst)
    for p, origin in enumerate(box.provenance):
        if origin != "lp_solved":
            continue
        obj = np.zeros(inst.n_cols)
        obj[p] = 1.0
        hi = solve_lp(inst.lp(obj, sense="max")).objective_value
        lo = solve_lp(inst.lp(obj, sense="min")).objective_value
        assert abs(box.upper[p] - hi) <= 1e-9
        assert abs(box.lower[p] - lo) <= 1e-9
    report = lfgs_screen(inst)
    assert set(report.redundant) == {
        lb for lb in inst.candidates if oracle.lp_redundancy(inst, lb)}


@pytest.mark.parametrize("scheme", ["s3", "s4"])
@pytest.mark.parametrize("name", CORPUS + ("negcontrol",))
def test_skipped_lps_match_cold_verdicts(cases, name, scheme):
    inst = _region(cases[name], scheme)
    s3, _ = screen_checking_skips(inst)
    assert set(s3.redundant) == set(eovl(inst, use_vgs=False).redundant)


def test_s2_solves_every_lp(cases, monkeypatch):
    calls = []
    solve_lp = ucscreen.screening.solve_lp

    def counted(*args):
        calls.append(1)
        return solve_lp(*args)

    monkeypatch.setattr(ucscreen.screening, "solve_lp", counted)
    for name in CORPUS:
        calls.clear()
        s2 = eovl(relaxed(cases[name]), use_vgs=False)
        assert s2.lp_solved == s2.lp_count == len(calls), name


def test_empty_region_raises_from_every_warm_pass(cases):
    case = cases["five_bus"]
    cut = CutSet(cost_bound=1.0)  # below any attainable cost
    for screen in (variable_bounds, lfgs_screen,
                   lambda inst: eovl(inst, use_vgs=False)):
        inst = relax_binaries(apply_cuts(build_uc(case, case.nominal_load), cut))
        with pytest.raises(ScreeningInfeasibleError):
            screen(inst)


@pytest.mark.parametrize("scheme", ["s3", "s4"])
@pytest.mark.parametrize("name", CORPUS + ("negcontrol",))
def test_vertex_starts_match_cold_solves(cases, name, scheme):
    warm = screen_checking_vertex_starts(_region(cases[name], scheme))
    if name == "fifty_bus":
        assert warm >= 10


def test_s2_never_starts_from_a_vertex(cases, monkeypatch):
    starts = []
    solve_lp = ucscreen.screening.solve_lp

    def recording(problem, start=None):
        starts.append((start.parent, start.keep))
        return solve_lp(problem, start)

    monkeypatch.setattr(ucscreen.screening, "solve_lp", recording)
    for name in CORPUS:
        starts.clear()
        inst = relaxed(cases[name])
        eovl(inst, use_vgs=False)
        assert len(starts) == len(inst.candidates) > 0, name
        basis = inst.region_basis
        assert all(vertex is basis and not keep for vertex, keep in starts)


@pytest.mark.parametrize("use_vgs", [True, False])
def test_region_basis_is_an_lp_that_alone_counts_its_pivots(cases, use_vgs,
                                                            monkeypatch):
    # S3 (use_vgs) or S2 over a fresh instance: the projection's basis is
    # the first LP solved, a cold one whose start keeps its tableau.  Every
    # LP counts exactly the pivots made while it runs, so no later LP
    # counts the basis's, and together they count every pivot.  A second
    # screen of the instance reuses the basis and solves no LP for it.
    import ucscreen.model

    made = [0]
    pivot = ucscreen.lp._Tableau._pivot

    def counted_pivot(self, row, col):
        made[0] += 1
        pivot(self, row, col)

    calls = []  # (start, iterations, pivots made during the call)
    real = ucscreen.lp.solve_lp

    def spy(problem, start=None):
        before = made[0]
        sol = real(problem, start)
        calls.append((start, sol.iterations, made[0] - before))
        return sol

    monkeypatch.setattr(ucscreen.lp._Tableau, "_pivot", counted_pivot)
    for module in (ucscreen.lp, ucscreen.model, ucscreen.screening):
        monkeypatch.setattr(module, "solve_lp", spy)
    inst = relaxed(cases["fifty_bus"])
    for screen in (1, 2):
        calls.clear()
        made[0] = 0
        report = eovl(inst, use_vgs=use_vgs)
        assert [it for _, it, _ in calls] == [piv for _, _, piv in calls]
        assert sum(it for _, it, _ in calls) == made[0] > 0
        screening_lps = calls[2 - screen:]
        if screen == 1:
            basis = calls[0][0]
            assert basis.parent is None and basis.keep
            assert basis.tableau is inst.region_basis
            assert calls[0][1] == inst.region_basis.iterations > 0
        assert len(screening_lps) == report.lp_solved
        assert all(st.parent is not None for st, _, _ in screening_lps)


@pytest.mark.parametrize("jobs", [1, 8])
def test_vertex_store_is_freed_when_the_screen_returns(cases, jobs,
                                                       monkeypatch):
    stored = []
    solve_lp = ucscreen.screening.solve_lp

    def recording(problem, start=None):
        sol = solve_lp(problem, start)
        if start.tableau is not None:
            stored.append(weakref.ref(start.tableau))
        return sol

    monkeypatch.setattr(ucscreen.screening, "solve_lp", recording)
    inst = relaxed(cases["fifty_bus"])
    report = eovl(inst, jobs=jobs)
    assert len(stored) == report.box.lp_solved > 0
    assert all(ref() is None for ref in stored)


def test_threads_share_vertices_without_changing_a_pivot(cases, monkeypatch):
    # Eight threads copy the same stored vertices while the interpreter
    # switches threads every microsecond; a vertex written by one LP while
    # another copies it would change some LP's pivots or verdict.
    counts = []
    solve_lp = ucscreen.screening.solve_lp

    def counted(problem, start=None):
        sol = solve_lp(problem, start)
        counts.append((problem.objective.tobytes(), problem.sense,
                       sol.iterations, sol.objective_value))
        return sol

    monkeypatch.setattr(ucscreen.screening, "solve_lp", counted)
    # Each screen is of a fresh instance, so each finds the region's basis.
    reference = eovl(_region(cases["fifty_bus"], "s4"))
    expected = sorted(counts)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            counts.clear()
            report = eovl(_region(cases["fifty_bus"], "s4"), jobs=8)
            assert report.redundant == reference.redundant
            assert sorted(counts) == expected
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("scheme", ["s3", "s4"])
def test_pivots_do_not_depend_on_the_thread_schedule(cases, scheme,
                                                     monkeypatch):
    # The region's basis is found by its own LP when the first start is
    # picked, before any screening LP runs, so under any schedule every
    # LP's pivots, in input order, equal a one-thread screen's.
    # Under threads each max LP waits a little, so a bound round's min LP
    # usually runs first.
    batches = []
    solve_many = ucscreen.screening._solve_many
    solve_lp = ucscreen.screening.solve_lp

    def max_last(problem, start=None):
        if problem.sense == "max" and threading.current_thread().name != (
                "MainThread"):
            time.sleep(0.002)
        return solve_lp(problem, start)

    def recording(vertices, problems, pool, keep=False):
        solutions = solve_many(vertices, problems, pool, keep)
        batches.append([(p.objective.tobytes(), p.sense, sol.iterations,
                         sol.objective_value)
                        for p, sol in zip(problems, solutions)])
        return solutions

    monkeypatch.setattr(ucscreen.screening, "_solve_many", recording)
    monkeypatch.setattr(ucscreen.screening, "solve_lp", max_last)
    eovl(_region(cases["fifty_bus"], scheme))
    expected = list(batches)
    assert sum(len(b) for b in expected) > 10
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            batches.clear()
            eovl(_region(cases["fifty_bus"], scheme), jobs=8)
            assert batches == expected
    finally:
        sys.setswitchinterval(interval)
