"""UC instance construction, cuts, and solve tests."""

import dataclasses
import importlib.util
import itertools
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

import ucscreen.model as model_module
from conftest import brute_force_milp
from ucscreen.case import load_bundled_case, parse_case
import ucscreen.lp as lp_module
from ucscreen.lp import FEASIBILITY_TOL, LpUsageError, Start, solve_milp
from ucscreen.model import (
    CutSet,
    RowLabel,
    UcInfeasibleError,
    apply_cuts,
    build_uc,
    milp_problem,
    relax_binaries,
    solve_uc,
)
from ucscreen.screening import eovl, reduce_model

_spec = importlib.util.spec_from_file_location(
    "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def test_row_counts_by_construction(cases):
    inst = build_uc(cases["five_bus"], cases["five_bus"].nominal_load)
    kinds = [lb.kind for lb in inst.row_labels]
    assert kinds.count("line_upper") == kinds.count("line_lower") == 6
    assert kinds.count("balance_le") == kinds.count("balance_ge") == 1
    assert kinds.count("gen_upper") == kinds.count("gen_lower") == 2
    assert inst.rows.shape == (18, 4)
    assert inst.binary_indices == (2, 3)
    assert len(inst.candidates) == 12
    # x >= 0 (implied by its generation rows) and u in [0, 1], as column
    # bounds rather than rows
    assert inst.bounds.tolist() == [[0.0, np.inf]] * 2 + [[0.0, 1.0]] * 2


def test_dispatch_lower_bound_is_implied_by_the_rows(cases):
    # x >= x_min u >= 0 by the generation rows, so the bound x >= 0 that
    # the model states cuts nothing off: with x free again, each x_g's
    # minimum over the relaxed region (fixed load and load box) is >= 0.
    from ucscreen.lp import LpProblem, solve_lp

    checked = 0
    for case in cases.values():
        full = build_uc(case, case.nominal_load)
        box = CutSet(load_range=(0.8 * case.nominal_load,
                                 1.2 * case.nominal_load))
        for inst in (relax_binaries(full),
                     relax_binaries(apply_cuts(full, box))):
            G = inst.n_gens
            assert inst.bounds[:G].tolist() == [[0.0, np.inf]] * G
            free = inst.bounds.copy()
            free[:G] = (-np.inf, np.inf)
            for g in range(G):
                objective = np.zeros(inst.n_cols)
                objective[g] = 1.0
                sol = solve_lp(LpProblem(objective, inst.rows, inst.rhs,
                                         bounds=free))
                assert sol.status == "optimal"
                assert sol.objective_value >= -FEASIBILITY_TOL
                checked += 1
    assert checked >= 2 * sum(case.n_gens for case in cases.values())


def test_lp_carries_instance_bounds(cases):
    case = cases["five_bus"]
    inst = apply_cuts(build_uc(case, case.nominal_load),
                      CutSet(load_range=(0.8 * case.nominal_load,
                                         1.2 * case.nominal_load),
                             commitment_fixes=((1, 0),)))
    row = inst.row_labels[0]
    for lp in (inst.lp(inst.cost), inst.without_rows([row]).lp(inst.cost),
               milp_problem(inst).lp):
        assert np.array_equal(lp.bounds, inst.bounds)


def test_row_label_map_is_bijection(cases):
    inst = build_uc(cases["thirty_bus"], cases["thirty_bus"].nominal_load)
    assert len(set(inst.row_labels)) == inst.rows.shape[0]
    # removing by label then filtering by label produce the same matrix
    drop = {RowLabel("line_upper", 3), RowLabel("gen_lower", 1)}
    removed = inst.without_rows(drop)
    keep = [i for i, lb in enumerate(inst.row_labels) if lb not in drop]
    assert np.array_equal(removed.rows, inst.rows[keep])
    assert removed.row_labels == tuple(inst.row_labels[i] for i in keep)


def test_zero_load_all_off(cases):
    case = cases["five_bus"]
    sol = solve_uc(build_uc(case, np.zeros(case.n_buses)))
    assert sol.cost == 0.0
    assert sol.commitment == (0, 0)


def test_overload_is_capacity_infeasible(cases):
    case = cases["five_bus"]
    with pytest.raises(UcInfeasibleError) as err:
        solve_uc(build_uc(case, np.full(case.n_buses, 5.0)))
    assert err.value.aggregate == "capacity"


def test_network_infeasibility_diagnosed(cases):
    import json

    from ucscreen.case import case_to_json, parse_case

    doc = json.loads(case_to_json(cases["negcontrol"]))
    for line in doc["lines"]:
        line["f_max"] = 0.4
        line["f_min"] = -0.4
    case = parse_case(json.dumps(doc))
    # capacity (8) covers the load (3), but no line can deliver it
    with pytest.raises(UcInfeasibleError) as err:
        solve_uc(build_uc(case, case.nominal_load))
    assert err.value.aggregate == "network"


def test_wrong_load_length(cases):
    with pytest.raises(LpUsageError):
        build_uc(cases["five_bus"], [1.0, 2.0])


@pytest.mark.parametrize("value, word", [(np.nan, "NaN"), (np.inf, "infinite")])
def test_non_finite_load_entry_is_rejected(cases, value, word):
    # Each was once accepted: a NaN load solved at commitment (0, 0) and
    # cost 0.0, an infinite one at a NaN cost.
    case = cases["five_bus"]
    load = case.nominal_load.copy()
    load[2] = value
    with pytest.raises(LpUsageError, match=f"^load entry 2 is {word}$"):
        build_uc(case, load)


def test_relaxation_contains_every_binary_feasible_point(cases):
    case = cases["nine_bus"]
    rng = np.random.default_rng(23)
    inst = build_uc(case, case.nominal_load)
    relaxed = relax_binaries(inst)
    assert relaxed.binary_indices == ()
    assert np.array_equal(relaxed.rows, inst.rows)
    for _ in range(6):
        load = case.nominal_load * rng.uniform(0.6, 1.2, size=case.n_buses)
        inst2 = build_uc(case, load)
        try:
            sol = solve_uc(inst2)
        except UcInfeasibleError:
            continue
        point = np.concatenate([sol.dispatch, np.array(sol.commitment, float)])
        residual = relax_binaries(inst2).rows @ point - relax_binaries(inst2).rhs
        assert np.max(residual) <= FEASIBILITY_TOL


def test_relaxation_bound_and_fractional_gap(cases):
    from ucscreen.lp import solve_lp

    case = cases["five_bus"]
    inst = build_uc(case, case.nominal_load)
    prob = milp_problem(inst)
    milp = solve_uc(inst)
    lp = solve_lp(prob.lp)
    assert lp.objective_value <= milp.cost + 1e-9

    # A fractional status vector is relax-feasible but UC-infeasible.
    low = np.array([0.0, 0.0, 0.8, 0.8, 0.4])
    inst2 = build_uc(case, low)
    y = np.array([0.5, 1.5, 0.5, 0.5])  # x inside the 0.5-scaled gen bounds
    relaxed = relax_binaries(inst2)
    assert np.max(relaxed.rows @ y - relaxed.rhs) <= FEASIBILITY_TOL
    for u in itertools.product((0.0, 1.0), repeat=2):
        point = np.array([y[0], y[1], *u])
        violated = np.max(inst2.rows @ point - inst2.rhs) > FEASIBILITY_TOL
        assert violated  # x1 = 0.5 sits strictly inside (0, x_min)


def test_apply_cuts_empty_is_identity(cases):
    inst = build_uc(cases["five_bus"], cases["five_bus"].nominal_load)
    same = apply_cuts(inst, CutSet())
    assert same is inst


def test_derived_instances_equal_checked_ones(cases):
    """relax_binaries, status fixes and without_rows skip the checks of
    what they keep, and give what a fully checked instance over the same
    fields gives; a derivation that changes nothing is the identity."""
    case = cases["nine_bus"]
    relaxed = relax_binaries(build_uc(case, case.nominal_load))
    assert relax_binaries(relaxed) is relaxed
    assert relaxed.without_rows(()) is relaxed
    relaxed.region_basis  # a derived region must not inherit it
    for derived in (apply_cuts(relaxed, CutSet(commitment_fixes=((1, 0),))),
                    relaxed.without_rows([RowLabel("line_upper", 2)])):
        checked = dataclasses.replace(derived)
        assert "region_basis" not in vars(derived)
        assert derived._row_of == checked._row_of
        for name in ("rows", "rhs", "bounds"):
            got = getattr(derived, name)
            assert getattr(derived.region, name) is got
            assert not got.flags.writeable
            assert np.array_equal(got, getattr(checked, name))
        a, b = eovl(derived), eovl(checked)
        assert (a.redundant, a.lp_count) == (b.redundant, b.lp_count)


def test_without_rows_builds_its_label_map_on_first_lookup(cases):
    # Reducing a model looks up only the dropped labels, in the parent's
    # map; the reduced model's own map waits for its first lookup.
    case = cases["nine_bus"]
    full = build_uc(case, case.nominal_load)
    reduced = full.without_rows([RowLabel("line_upper", 2)])
    assert "_row_of" not in vars(reduced)
    balance = RowLabel("balance_le")
    assert reduced.row_index(balance) == full.row_index(balance) - 1
    assert vars(reduced)["_row_of"] == {
        lb: i for i, lb in enumerate(reduced.row_labels)}
    assert relax_binaries(reduced)._row_of is reduced._row_of
    assert "_row_of" not in vars(reduced.without_rows([balance]))


def test_nan_cost_bound_is_rejected():
    # One was once accepted; the screen then ended in divide-by-zero
    # warnings and a SimplexError that said "ended unbounded".
    with pytest.raises(LpUsageError, match="^cost bound is NaN$"):
        CutSet(cost_bound=float("nan"))
    with pytest.raises(LpUsageError, match="^cost bound is infinite$"):
        CutSet(cost_bound=float("inf"))


def test_huge_cost_bound_changes_nothing(cases):
    case = cases["nine_bus"]
    inst = relax_binaries(build_uc(case, case.nominal_load))
    plain = eovl(inst)
    cut = apply_cuts(inst, CutSet(cost_bound=1e9))
    with_cut = eovl(cut)
    assert set(plain.redundant) == set(with_cut.redundant)


def test_degenerate_load_range_equals_fixed_mode(cases):
    case = cases["five_bus"]
    inst = build_uc(case, case.nominal_load)
    plain = eovl(relax_binaries(inst))
    boxed = apply_cuts(inst, CutSet(load_range=(case.nominal_load,
                                                case.nominal_load)))
    ranged = eovl(relax_binaries(boxed))
    assert set(plain.redundant) == set(ranged.redundant)


def test_load_range_row_shapes(cases):
    case = cases["five_bus"]
    inst = build_uc(case, case.nominal_load)
    lo = 0.8 * case.nominal_load
    hi = 1.2 * case.nominal_load
    ranged = apply_cuts(inst, CutSet(load_range=(lo, hi)))
    assert ranged.range_mode
    assert ranged.n_cols == 2 * case.n_gens + case.n_buses
    # the load columns are bounded by the range, with no rows of their own
    assert ranged.row_labels == inst.row_labels
    G = case.n_gens
    assert np.array_equal(ranged.bounds[:2 * G], inst.bounds)
    assert np.array_equal(ranged.bounds[2 * G:, 0], lo)
    assert np.array_equal(ranged.bounds[2 * G:, 1], hi)
    # load range must come first
    with pytest.raises(LpUsageError):
        apply_cuts(apply_cuts(inst, CutSet(cost_bound=100.0)),
                   CutSet(load_range=(lo, hi)))


def _same_bits(a, b) -> bool:
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    return (np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("box", [False, True])
def test_rows_equal_their_definitions_bit_for_bit(cases, box):
    # The simplex's pivots depend on every bit of the rows, the sign of
    # each zero included, so each block must be exactly its definition:
    # +0.0 wherever a row does not touch a column.
    for case in cases.values():
        nominal = case.nominal_load
        inst = build_uc(case, nominal)
        if box:
            inst = apply_cuts(inst, CutSet(load_range=(0.9 * nominal,
                                                       1.1 * nominal)))
        G, L = case.n_gens, case.n_lines
        P = inst.case.ptdf.entries
        PB = P @ case.gen_bus_matrix()
        fmax = np.array([ln.f_max for ln in case.lines])
        fmin = np.array([ln.f_min for ln in case.lines])
        xmax = np.array([g.x_max for g in case.generators])
        xmin = np.array([g.x_min for g in case.generators])
        x, u, load = slice(0, G), slice(G, 2 * G), slice(2 * G, None)
        upper, lower = slice(0, L), slice(L, 2 * L)
        le, ge = 2 * L, 2 * L + 1
        gen_upper = slice(2 * L + 2, 2 * L + 2 + G)
        gen_lower = slice(2 * L + 2 + G, 2 * L + 2 + 2 * G)
        rows, rhs = inst.rows, inst.rhs
        assert inst.row_labels == (
            tuple(RowLabel("line_upper", j) for j in range(L))
            + tuple(RowLabel("line_lower", j) for j in range(L))
            + (RowLabel("balance_le"), RowLabel("balance_ge"))
            + tuple(RowLabel("gen_upper", g) for g in range(G))
            + tuple(RowLabel("gen_lower", g) for g in range(G)))

        assert _same_bits(rows[upper, x], PB)
        assert _same_bits(rows[lower, x], -PB)
        assert _same_bits(rows[:2 * L, u], 0.0)
        assert _same_bits(rows[le, x], 1.0) and _same_bits(rows[le, u], 0.0)
        assert _same_bits(rows[ge], -rows[le])
        diagonal = np.eye(G, dtype=bool)
        assert _same_bits(rows[gen_upper, x], np.where(diagonal, 1.0, 0.0))
        assert _same_bits(rows[gen_lower, x], np.where(diagonal, -1.0, 0.0))
        assert _same_bits(rows[gen_upper, u], np.diag(-xmax))
        assert _same_bits(rows[gen_lower, u], np.diag(xmin))
        assert _same_bits(rows[gen_upper.start:, load], 0.0)
        assert _same_bits(rhs[gen_upper.start:], 0.0)
        if box:
            assert _same_bits(rows[upper, load], -P)
            assert _same_bits(rows[lower, load], P)
            assert _same_bits(rows[le, load], -1.0)
            assert _same_bits(rhs[:2 * L], np.concatenate([fmax, -fmin]))
            assert _same_bits(rhs[[le, ge]], 0.0)
            assert _same_bits(inst.bounds[load],
                              np.column_stack([0.9 * nominal, 1.1 * nominal]))
        else:
            flow, total = P @ nominal, float(np.sum(nominal))
            assert rows.shape[1] == 2 * G
            assert _same_bits(rhs[:2 * L],
                              np.concatenate([fmax + flow, -fmin - flow]))
            assert _same_bits(rhs[[le, ge]], [total, -total])
        assert _same_bits(inst.bounds[x], [0.0, np.inf])
        assert _same_bits(inst.bounds[u], [0.0, 1.0])


def test_second_cost_cut_names_the_first(cases):
    case = cases["five_bus"]
    cut = apply_cuts(build_uc(case, case.nominal_load),
                     CutSet(cost_bound=100.0))
    with pytest.raises(LpUsageError,
                       match=r"already has a cost cut at 100\.0"):
        apply_cuts(cut, CutSet(cost_bound=90.0))


def test_commit_fix_rows_pin_status(cases):
    case = cases["five_bus"]
    inst = build_uc(case, case.nominal_load)
    best = solve_uc(inst)
    pinned = apply_cuts(inst, CutSet(
        commitment_fixes=tuple(enumerate(best.commitment))))
    again = solve_uc(pinned)
    assert abs(again.cost - best.cost) <= 1e-9
    assert again.commitment == best.commitment
    with pytest.raises(LpUsageError):
        apply_cuts(inst, CutSet(commitment_fixes=((7, 1),)))
    with pytest.raises(LpUsageError):
        CutSet(commitment_fixes=((0, 1), (0, 0)))


@pytest.mark.parametrize("relax", [False, True])
def test_commitment_fix_is_a_bound_not_a_row(cases, relax):
    case = cases["nine_bus"]
    inst = build_uc(case, case.nominal_load)
    if relax:
        inst = relax_binaries(inst)
    G = case.n_gens
    fixes = ((0, 1), (G - 1, 0))
    pinned = apply_cuts(inst, CutSet(commitment_fixes=fixes))
    assert pinned.row_labels == inst.row_labels
    assert np.array_equal(pinned.rows, inst.rows)
    for k, v in fixes:
        assert tuple(pinned.bounds[G + k]) == (v, v)
    free = [p for p in range(pinned.n_cols) if p - G not in (0, G - 1)]
    assert np.array_equal(pinned.bounds[free], inst.bounds[free])


def test_solve_uc_matches_pattern_enumeration(cases):
    case = cases["five_bus"]
    inst = build_uc(case, case.nominal_load)
    prob = milp_problem(inst)
    status, best = brute_force_milp(
        prob.lp.objective, prob.lp.rows, prob.lp.rhs,
        [tuple(p) for p in prob.lp.bounds], prob.binary_indices)
    sol = solve_uc(inst)
    assert status == "optimal"
    assert abs(sol.cost - best) <= 1e-9
    assert sol.commitment == (1, 1)
    # per-unit dispatch obeys the status-scaled bounds
    for g, gen in enumerate(case.generators):
        u = sol.commitment[g]
        assert u * gen.x_min - 1e-9 <= sol.dispatch[g] <= u * gen.x_max + 1e-9


def test_equal_costs_assert_objective_not_point(cases):
    import json

    from ucscreen.case import case_to_json, parse_case

    doc = json.loads(case_to_json(cases["five_bus"]))
    for g in doc["generators"]:
        g["cost"] = 9.0
    case = parse_case(json.dumps(doc))
    inst = build_uc(case, case.nominal_load)
    prob = milp_problem(inst)
    _, best = brute_force_milp(
        prob.lp.objective, prob.lp.rows, prob.lp.rhs,
        [tuple(p) for p in prob.lp.bounds], prob.binary_indices)
    sol = solve_uc(inst)
    assert abs(sol.cost - best) <= 1e-9  # ties: objective only


def test_cost_cut_above_optimum_preserves_solution(cases):
    case = cases["nine_bus"]
    inst = build_uc(case, case.nominal_load)
    best = solve_uc(inst)
    for factor in (1.0, 1.005, 1.5):
        cut = apply_cuts(inst, CutSet(cost_bound=best.cost * factor))
        sol = solve_uc(cut)
        assert abs(sol.cost - best.cost) <= 1e-6 * max(1.0, best.cost)


def test_containment_chain_by_rejection_sampling(cases):
    # R_uc subset of R_relaxed subset of cut-free region, via random points.
    case = cases["five_bus"]
    inst = build_uc(case, case.nominal_load)
    relaxed = relax_binaries(inst)
    cut = apply_cuts(inst, CutSet(cost_bound=60.0))
    rng = np.random.default_rng(29)
    hits = 0
    total = float(np.sum(case.nominal_load))
    for _ in range(4000):
        x1 = rng.uniform(0, 3.2)
        y = np.concatenate([[x1, total - x1],  # on the balance manifold
                            rng.integers(0, 2, size=2).astype(float)])
        if np.max(inst.rows @ y - inst.rhs) <= 1e-12:
            hits += 1
            assert np.max(relaxed.rows @ y - relaxed.rhs) <= 1e-12
            feasible_for_cut = np.max(cut.rows @ y - cut.rhs) <= 1e-12
            assert feasible_for_cut == (float(inst.cost @ y) <= 60.0 + 1e-12)
    assert hits > 20


def test_solve_uc_requires_binaries_or_fixes(cases):
    case = cases["five_bus"]
    relaxed = relax_binaries(build_uc(case, case.nominal_load))
    with pytest.raises(LpUsageError):
        solve_uc(relaxed)
    pinned = apply_cuts(relaxed, CutSet(commitment_fixes=((0, 1), (1, 1))))
    sol = solve_uc(pinned)
    assert sol.commitment == (1, 1)


def test_row_label_parse_roundtrip():
    for lb in (RowLabel("line_upper", 3), RowLabel("balance_le"),
               RowLabel("commit_fix_ge", 11)):
        assert RowLabel.parse(str(lb)) == lb


def test_row_labels_hash_and_order_as_their_fields():
    # str and parse round-trip both ways; equal labels hash alike; a
    # label equals the plain tuple of its fields; labels order by kind,
    # then index.
    labels = [RowLabel("line_upper", 3), RowLabel("line_upper", 12),
              RowLabel("balance_le"), RowLabel("line_lower", 0),
              RowLabel("gen_upper", 2), RowLabel("cost_cut")]
    for lb in labels:
        text = str(lb)
        assert str(RowLabel.parse(text)) == text
        again = RowLabel.parse(f" {text} ")
        assert again == lb and hash(again) == hash(lb)
        assert lb == (lb.kind, lb.index) and hash(lb) == hash((lb.kind, lb.index))
        assert again is not lb and {again: 1}[lb] == 1
    assert str(RowLabel("line_upper", 3)) == "line_upper(3)"
    assert str(RowLabel("balance_le")) == "balance_le"
    assert RowLabel("line_upper", 3).is_line and RowLabel("line_lower", 0).is_line
    assert not RowLabel("balance_le").is_line
    indexed = [lb for lb in labels if lb.index is not None]
    assert sorted(indexed) == [RowLabel("gen_upper", 2), RowLabel("line_lower", 0),
                               RowLabel("line_upper", 3), RowLabel("line_upper", 12)]
    assert RowLabel("line_upper", 3) < RowLabel("line_upper", 12)
    assert len({RowLabel("a", 1), RowLabel("a", 1), RowLabel("a")}) == 2


def test_milp_problem_checks_a_cases_binaries_once(monkeypatch):
    # Every load's MILP of one case, reduced or not, equals the checked
    # constructor's field for field, and only the first one runs the
    # check; an instance with other binaries or bounds is checked, and
    # bad binaries still raise.
    case = load_bundled_case("fourteen_bus")  # a case with a fresh store
    checks = []
    post_init = lp_module.MilpProblem.__post_init__

    def counted(self):
        checks.append(self.binary_indices)
        post_init(self)

    monkeypatch.setattr(lp_module.MilpProblem, "__post_init__", counted)
    drop = [RowLabel("line_upper", 2)]
    for scale in (1.0, 1.05, 0.95):
        for inst in (build_uc(case, case.nominal_load * scale),
                     build_uc(case, case.nominal_load * scale).without_rows(drop)):
            mine = milp_problem(inst)
            checked = lp_module.MilpProblem(inst.lp(inst.cost), inst.binary_indices)
            assert mine.binary_indices == checked.binary_indices
            assert type(mine.binary_indices) is tuple
            for name in ("objective", "rows", "rhs", "bounds"):
                assert np.array_equal(getattr(mine.lp, name),
                                      getattr(checked.lp, name)), name
            assert mine.lp.sense == checked.lp.sense
    assert len(checks) == 1 + 6  # the case's once, then the six checked above
    inst = build_uc(case, case.nominal_load)
    fixed = apply_cuts(inst, CutSet(commitment_fixes=((0, 1),)))
    checks.clear()
    milp_problem(fixed)
    assert len(checks) == 1
    for bad in ((0.5,), (inst.n_cols,), (0,)):
        with pytest.raises(LpUsageError):
            milp_problem(inst._with(binary_indices=bad))


# --- branch-and-bound references ---


def _range_case():
    """The benchmark's load-range case: 30 buses, 14 units, beta 0.2."""
    return parse_case(json.dumps(gen.ring_chord_case(
        (2,), n_buses=30, n_chords=15, n_gens=14, beta=0.2,
        tight_share=0.25, name="range")))


def _loads(case, count, seed, beta=0.2):
    nominal = case.nominal_load
    return np.random.default_rng(seed).uniform(
        (1 - beta) * nominal, (1 + beta) * nominal, size=(count, nominal.size))


def _spy_milps(monkeypatch):
    """Record (solution, reference passed) for each MILP solve_uc runs."""
    calls = []

    def spy(problem, **kwargs):
        sol = solve_milp(problem, **kwargs)
        calls.append((sol, kwargs.get("reference")))
        return sol

    monkeypatch.setattr(model_module, "solve_milp", spy)
    return calls


def _as_uc(inst, sol):
    G = inst.n_gens
    commitment = tuple(int(round(sol.point[G + g])) for g in range(G))
    return commitment, sol.point[:G].tobytes(), float(sol.objective_value)


def test_reference_solves_give_the_cold_commitments_and_costs(monkeypatch):
    """solve_uc starts each root from its rows' reference, and each final
    LP off the nominal load from the reference's entry for its commitment.
    At eight seeded loads of the range case (full and reduced) and of two
    bundled cases it returns the commitment a cold solve_milp returns, its
    cost within 1e-12 relative and its dispatch within 1e-9; at the
    nominal load, whose final LP is cold, it returns the same bits."""
    calls = _spy_milps(monkeypatch)
    range_case = _range_case()
    box = CutSet(load_range=(0.8 * range_case.nominal_load,
                             1.2 * range_case.nominal_load))
    redundant = eovl(relax_binaries(apply_cuts(
        build_uc(range_case, range_case.nominal_load), box))).redundant
    assert redundant
    warm = 0
    for case, reduce in ((range_case, True), (load_bundled_case("thirty_bus"),
                                               False),
                         (load_bundled_case("fifty_bus"), False)):
        loads = list(_loads(case, 8, seed=11, beta=0.05)) + [case.nominal_load]
        for load in loads:
            full = build_uc(case, load)
            for inst in (full, reduce_model(full, redundant)) if reduce else (full,):
                calls.clear()
                mine = solve_uc(inst)
                (sol, reference), = calls
                assert reference is not None and reference.root
                cold = solve_milp(milp_problem(inst))
                commitment, dispatch, cost = _as_uc(inst, cold)
                if load is case.nominal_load:
                    assert (mine.commitment, mine.dispatch.tobytes(), mine.cost) \
                        == (commitment, dispatch, cost)
                    continue
                assert mine.commitment == commitment
                assert abs(mine.cost - cost) <= 1e-12 * abs(cost)
                assert np.max(np.abs(mine.dispatch - cold.point[:inst.n_gens])) \
                    <= 1e-9
                warm += sol.iterations < cold.iterations
    assert warm >= 12  # the references saved pivots


def test_final_lp_starts_from_one_entry_per_commitment(monkeypatch):
    """A nominal-load solve builds no commitment entry and solves its
    final LP cold.  The first other load with a commitment solves that
    commitment's entry once, in its own LP; each later load with it
    reuses the entry, and its final LP, started from the entry's root,
    takes fewer pivots than the cold final LP."""
    lps = []
    real = lp_module.solve_lp

    def spy(problem, start=None):
        warm = isinstance(start, Start) and start.parent is not None
        sol = real(problem, start)
        lps.append((problem, start, warm, sol.iterations))
        return sol

    monkeypatch.setattr(lp_module, "solve_lp", spy)
    case = _range_case()
    nominal = build_uc(case, case.nominal_load)
    reference = model_module._reference(nominal)
    loads = [case.nominal_load, *_loads(case, 12, seed=6),
             case.nominal_load]
    first = later = 0
    for load in loads:
        entries = dict(reference.commitments)
        lps.clear()
        solve_uc(build_uc(case, load))
        final, start, warm, pivots = lps[-1]
        if load is case.nominal_load:
            assert start is None and reference.commitments == entries
            continue
        new = [e for k, e in reference.commitments.items() if k not in entries]
        roots = [e for e in reference.commitments.values()
                 if any(st is e for _, st, _, _ in lps)]
        if new:  # its root solved once, here
            assert roots == new and new[0].tableau
            assert sum(st is new[0] for _, st, _, _ in lps) == 1
            first += 1
        else:
            assert roots == []
            later += 1
        assert all(reference.commitments.get(k) is e for k, e in entries.items())
        assert warm and pivots < real(final).iterations
    assert len(reference.commitments) == first >= 2 and later >= 8


def test_reference_results_do_not_depend_on_the_order_of_loads(monkeypatch):
    """The same loads, the nominal one among them, solved in two orders,
    each on a freshly parsed case, give the same solutions and pivot
    counts: the reference is a function of the case and rows alone."""
    text = json.dumps(gen.ring_chord_case(
        (2,), n_buses=30, n_chords=15, n_gens=14, beta=0.2,
        tight_share=0.25, name="range"))
    loads = list(_loads(parse_case(text), 5, seed=3))
    loads.insert(2, parse_case(text).nominal_load)
    runs = []
    for order in (range(len(loads)), reversed(range(len(loads)))):
        case = parse_case(text)
        calls = _spy_milps(monkeypatch)
        got = {}
        for k in order:
            full = build_uc(case, loads[k])
            reduced = full.without_rows([RowLabel("line_upper", 0),
                                         RowLabel("line_lower", 3)])
            for name, inst in (("full", full), ("reduced", reduced)):
                solve_uc(inst)
                sol = calls[-1][0]
                got[k, name] = (sol.point.tobytes(), sol.objective_value,
                                sol.iterations, sol.nodes)
        runs.append(got)
        assert len(model_module._MODELS[case].references) == 2
    assert runs[0] == runs[1]


def test_reference_is_per_case_and_only_for_uncut_fixed_loads(monkeypatch):
    case = load_bundled_case("nine_bus")
    load = case.nominal_load * 1.02
    calls = _spy_milps(monkeypatch)
    solve_uc(build_uc(case, load))
    (_, reference), = calls
    assert model_module._MODELS[case].references == {
        np.arange(build_uc(case, load).rows.shape[0]).tobytes(): reference}

    copy = dataclasses.replace(case)
    assert copy not in model_module._MODELS
    solve_uc(build_uc(copy, load))
    assert calls[-1][1] is not None and calls[-1][1] is not reference
    assert model_module._MODELS[copy] is not model_module._MODELS[case]

    inst = build_uc(case, load)
    cut = [apply_cuts(inst, CutSet(commitment_fixes=((0, 1),))),
           apply_cuts(inst, CutSet(cost_bound=1e6)),
           apply_cuts(inst, CutSet(load_range=(0.9 * case.nominal_load,
                                               1.1 * case.nominal_load)))]
    for other in cut:
        calls.clear()
        solve_uc(other)
        assert calls[0][1] is None
    # an instance rebuilt through its constructor has no reference
    calls.clear()
    solve_uc(dataclasses.replace(inst))
    assert calls[0][1] is None

    # What the case keeps does not keep the case: it goes with its last
    # reference, with no cyclic garbage collection.
    gone = weakref.ref(case)
    del case, inst, cut, other
    assert gone() is None


def test_infeasible_nominal_load_leaves_every_root_cold(monkeypatch):
    base = load_bundled_case("five_bus")
    capacity = sum(g.x_max for g in base.generators)
    scale = 1.2 * capacity / float(np.sum(base.nominal_load))
    case = dataclasses.replace(base, nominal_load=base.nominal_load * scale)
    calls = _spy_milps(monkeypatch)
    inst = build_uc(case, base.nominal_load)  # a feasible sample
    mine = solve_uc(inst)
    (_, reference), = calls
    assert reference.root is False  # solved first, and found empty
    cold = solve_milp(milp_problem(inst))
    assert (mine.commitment, mine.dispatch.tobytes(), mine.cost) \
        == _as_uc(inst, cold)
    assert calls[0][0].iterations == cold.iterations
    for load in (case.nominal_load * 1.01, case.nominal_load):
        with pytest.raises(UcInfeasibleError):
            solve_uc(build_uc(case, load))


def test_builds_share_the_case_rows_and_labels(cases):
    case = cases["fourteen_bus"]
    a, b = build_uc(case, case.nominal_load), build_uc(case, case.nominal_load * 1.1)
    for name in ("rows", "bounds", "cost", "row_labels", "_row_of"):
        assert getattr(a, name) is getattr(b, name)
    assert a.rhs is not b.rhs and not b.rhs.flags.writeable
    checked = dataclasses.replace(b)
    for name in ("rows", "rhs", "bounds", "cost"):
        assert np.array_equal(getattr(b, name), getattr(checked, name))
    assert b.row_labels == checked.row_labels and b._row_of == checked._row_of
    assert b.region.rhs is b.rhs and "region_basis" not in vars(b)
    ranged = apply_cuts(a, CutSet(load_range=(0.9 * case.nominal_load,
                                              1.1 * case.nominal_load)))
    assert ranged.row_labels is a.row_labels
    rechecked = dataclasses.replace(ranged)
    for name in ("rows", "rhs", "bounds", "cost"):
        assert np.array_equal(getattr(ranged, name), getattr(rechecked, name))
        assert not getattr(ranged, name).flags.writeable


def test_reductions_share_the_rows_of_their_row_set(cases):
    # Instances of one case reduced to the same rows share one rows
    # array, so the reference's check of each load's MILP meets its own
    # rows, bounds and costs, and compares only the right-hand side.
    from ucscreen.lp import _minimisation
    from ucscreen.model import _reference

    case = cases["fourteen_bus"]
    drop = [RowLabel("line_upper", 2), RowLabel("line_lower", 5)]
    a, b = (build_uc(case, case.nominal_load * s).without_rows(drop)
            for s in (1.0, 1.1))
    assert a.rows is b.rows and not b.rows.flags.writeable
    assert b.region.rows is b.rows and a.rhs is not b.rhs
    checked = dataclasses.replace(b)
    assert np.array_equal(b.rows, checked.rows)
    assert b.without_rows([RowLabel("line_upper", 3)]).rows is not b.rows
    other = build_uc(case, case.nominal_load).without_rows(drop[:1])
    assert other.rows is not b.rows
    mine, base = _reference(b).base, _minimisation(milp_problem(b).lp)
    for name in ("rows", "bounds", "objective"):
        assert getattr(mine, name) is getattr(base, name)
    cold = solve_uc(checked).cost
    assert abs(solve_uc(b).cost - cold) <= 1e-9 * max(1.0, abs(cold))
