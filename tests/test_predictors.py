"""Dataset generation and KNN predictor tests."""

import numpy as np
import pytest

from ucscreen.lp import LpUsageError
from ucscreen.model import CutSet, apply_cuts, build_uc, relax_binaries, solve_uc
from ucscreen.oracle import verify_zero_gap
from ucscreen.predictors import (
    Dataset,
    PredictorConfig,
    commitment_fixes,
    cost_bound,
    default_k,
    generate_dataset,
    oracle_cost_bound,
    read_dataset_csv,
    write_dataset_csv,
)
from ucscreen.screening import eovl, reduce_model


def test_beta_zero_degenerates_to_nominal(cases):
    case = cases["nine_bus"]
    ds = generate_dataset(case, 0.0, 5, seed=1)
    assert np.allclose(ds.loads, case.nominal_load)
    assert np.allclose(ds.costs, ds.costs[0])
    assert np.all(ds.commitments == ds.commitments[0])


def test_empty_dataset_is_valid(cases):
    ds = generate_dataset(cases["nine_bus"], 0.5, 0, seed=1)
    assert len(ds) == 0 and ds.feasibility_rate == 1.0


def test_dataset_determinism_and_infeasible_resampling(cases):
    case = cases["five_bus"]  # ~75% feasible at beta = 0.5: resampling happens
    a = generate_dataset(case, 0.5, 30, seed=42)
    b = generate_dataset(case, 0.5, 30, seed=42)
    assert np.array_equal(a.loads, b.loads)
    assert np.array_equal(a.costs, b.costs)
    assert a.feasibility_rate == b.feasibility_rate
    assert a.feasibility_rate < 1.0  # some draws were discarded
    # every record solved to optimality within the generation range
    for i in range(len(a)):
        sol = solve_uc(build_uc(case, a.loads[i]))
        assert abs(sol.cost - a.costs[i]) <= 1e-9


def test_dataset_beta_bounds_and_detection(cases):
    case = cases["nine_bus"]
    ds = generate_dataset(case, 0.5, 60, seed=7)
    lo = 0.5 * case.nominal_load
    hi = 1.5 * case.nominal_load
    assert np.all(ds.loads >= lo - 1e-12) and np.all(ds.loads <= hi + 1e-12)
    # the always-on unit shows up as a constant column
    constant = [g for g in range(case.n_gens)
                if np.all(ds.commitments[:, g] == ds.commitments[0, g])]
    assert 0 in constant
    with pytest.raises(LpUsageError):
        generate_dataset(case, 1.5, 3, seed=1)


def test_always_on_off_detection_at_scale(cases):
    # beta = 0.5, 200 records, seed 42: constant commitment columns surface
    case = cases["thirty_bus"]
    ds = generate_dataset(case, 0.5, 200, seed=42)
    cols = ds.commitments
    always_on = {g for g in range(case.n_gens) if np.all(cols[:, g] == 1)}
    always_off = {g for g in range(case.n_gens) if np.all(cols[:, g] == 0)}
    varying = set(range(case.n_gens)) - always_on - always_off
    assert always_on or always_off
    assert varying  # the case is not commitment-trivial
    fixes = dict(commitment_fixes(ds, case.nominal_load,
                                  PredictorConfig(k=5, epsilon=0.0)))
    for g in always_on:
        assert fixes[g] == 1
    for g in always_off:
        assert fixes[g] == 0


def test_csv_roundtrip(tmp_path, cases):
    case = cases["nine_bus"]
    ds = generate_dataset(case, 0.4, 12, seed=3)
    path = tmp_path / "ds.csv"
    write_dataset_csv(ds, path)
    back = read_dataset_csv(path)
    assert np.array_equal(back.loads, ds.loads)
    assert np.array_equal(back.costs, ds.costs)
    assert np.array_equal(back.commitments, ds.commitments)
    assert back.n_train == ds.n_train
    # byte-identical rewrite
    path2 = tmp_path / "ds2.csv"
    write_dataset_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_predictor_config_validation():
    with pytest.raises(LpUsageError):
        PredictorConfig(k=2)
    with pytest.raises(LpUsageError):
        PredictorConfig(k=0)
    with pytest.raises(LpUsageError):
        PredictorConfig(epsilon=-0.1)
    assert default_k(70) == 5 and default_k(71) == 3


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), float("-inf")])
def test_predictor_config_rejects_a_non_finite_epsilon(epsilon):
    with pytest.raises(LpUsageError, match=f"got {epsilon}"):
        PredictorConfig(epsilon=epsilon)


def test_cost_bound_zero_distance_neighbor(cases):
    case = cases["nine_bus"]
    ds = generate_dataset(case, 0.4, 10, seed=5)
    cfg = PredictorConfig(k=1, epsilon=0.005)
    target = ds.loads[0]
    assert ds.n_train >= 1
    got = cost_bound(ds, target, cfg)
    assert abs(got - ds.costs[0] * 1.005) <= 1e-12


def test_oracle_cost_bound_ratio(cases):
    case = cases["nine_bus"]
    sol = solve_uc(build_uc(case, case.nominal_load))
    got = oracle_cost_bound(case, case.nominal_load, 0.01)
    assert abs(got / sol.cost - 1.01) <= 1e-12


def test_oracle_cost_cut_is_gap_free(cases, uc_cache):
    # Proposition-4 safety: screening under C*(1+eps) never moves the optimum.
    rng = np.random.default_rng(11)
    for name in ("five_bus", "nine_bus", "fourteen_bus"):
        case = cases[name]
        for _ in range(3):
            load = case.nominal_load * rng.uniform(0.8, 1.2, size=case.n_buses)
            status, _ = uc_cache(case, load, name)
            if status != "optimal":
                continue
            inst = build_uc(case, load)
            bound = oracle_cost_bound(case, load, 0.005)
            cut = apply_cuts(inst, CutSet(cost_bound=bound))
            report = eovl(relax_binaries(cut))
            reduced = reduce_model(inst, report.redundant)
            gap = verify_zero_gap(inst, reduced)
            assert gap.zero_gap, (name, load)


def _handmade_dataset():
    """Loads on a line; unit 0 constant, unit 1 learnable, unit 2 noisy."""
    loads = np.array([[float(i)] for i in range(10)])
    costs = np.arange(10, dtype=float)
    u = np.zeros((10, 3), dtype=int)
    u[:, 0] = 1                      # constant: always on
    u[:, 1] = (loads[:, 0] >= 5)     # threshold: KNN-learnable
    u[:, 2] = (loads[:, 0].astype(int) % 2)  # parity: hopeless for KNN
    return Dataset(loads, costs, u, n_train=8)


def test_commitment_fixes_gate_on_perfect_validation():
    ds = _handmade_dataset()
    cfg = PredictorConfig(k=1, epsilon=0.0)
    fixes = dict(commitment_fixes(ds, [7.2], cfg))
    assert fixes[0] == 1          # constant column fixed outright
    assert fixes[1] == 1          # validated at 100%, predicted on at 7.2
    assert 2 not in fixes         # parity unit misclassifies validation


def test_commitment_fixes_99_percent_is_not_enough():
    # same dataset, but poison one validation label of the learnable unit
    ds = _handmade_dataset()
    ds.commitments[9, 1] = 0
    cfg = PredictorConfig(k=1, epsilon=0.0)
    fixes = dict(commitment_fixes(ds, [7.2], cfg))
    assert 1 not in fixes
    assert fixes == {0: 1}


def test_commitment_fixes_vote_over_an_odd_k_on_an_even_split():
    # Four training records and K = 5: a vote over all four ties 2-2 on
    # both units; over the three nearest, unit 0 validates and unit 1 not.
    ds = Dataset(np.array([[1.0], [2.0], [3.0], [4.0], [2.5]]), np.ones(5),
                 np.array([[1, 1], [1, 0], [0, 1], [0, 0], [1, 0]]), n_train=4)
    assert commitment_fixes(ds, [2.5], PredictorConfig(k=5)) == ((0, 1),)


def test_constant_column_never_contradicted_on_train(cases):
    case = cases["nine_bus"]
    ds = generate_dataset(case, 0.5, 40, seed=9)
    cfg = PredictorConfig(k=5, epsilon=0.0)
    fixes = dict(commitment_fixes(ds, case.nominal_load, cfg))
    train_u = ds.train[2]
    for g, v in fixes.items():
        col = train_u[:, g]
        if np.all(col == col[0]):
            assert v == int(col[0])


def test_fix_determinism(cases):
    case = cases["nine_bus"]
    ds = generate_dataset(case, 0.5, 40, seed=13)
    cfg = PredictorConfig(k=3, epsilon=0.005)
    a = commitment_fixes(ds, case.nominal_load, cfg)
    b = commitment_fixes(ds, case.nominal_load, cfg)
    assert a == b
    assert cost_bound(ds, case.nominal_load, cfg) == cost_bound(
        ds, case.nominal_load, cfg)


def test_cost_bound_needs_training_data():
    ds = Dataset(np.zeros((0, 2)), np.zeros(0), np.zeros((0, 1), dtype=int),
                 n_train=0)
    with pytest.raises(LpUsageError):
        cost_bound(ds, [0.0, 0.0], PredictorConfig())
