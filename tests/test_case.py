"""Case parsing, validation, and PTDF tests."""

import dataclasses
import json
import sys

import numpy as np
import pytest

from ucscreen.case import (
    CaseFormatError,
    CaseValidationError,
    compute_ptdf,
    case_to_json,
    load_bundled_case,
    parse_case,
)

MINIMAL = {
    "buses": [1, 2],
    "lines": [{"from": 1, "to": 2, "susceptance": 5.0, "f_min": -2.0, "f_max": 2.0}],
    "generators": [{"bus": 1, "x_min": 0.0, "x_max": 1.5, "cost": 10.0}],
    "nominal_load": [0.0, 1.0],
}


def make(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return doc


def test_minimal_two_bus_case():
    case = parse_case(json.dumps(MINIMAL))
    assert case.n_buses == 2 and case.n_lines == 1 and case.n_gens == 1
    assert case.slack_bus == 1  # defaults to the lowest bus id


def test_generator_on_undeclared_bus_names_it():
    doc = make(generators=[{"bus": 7, "x_min": 0.0, "x_max": 1.0, "cost": 1.0}])
    with pytest.raises(CaseValidationError, match="bus 7"):
        parse_case(json.dumps(doc))


def test_five_bus_roundtrip_field_equality(cases):
    case = cases["five_bus"]
    again = parse_case(case_to_json(case))
    assert again.buses == case.buses
    assert again.lines == case.lines
    assert again.generators == case.generators
    assert again.slack_bus == case.slack_bus
    assert np.array_equal(again.nominal_load, case.nominal_load)
    assert case.n_gens == 2 and case.n_lines == 6


@pytest.mark.parametrize("mutate, error, fragment", [
    (lambda d: d["lines"][0].update(f_min=0.5), CaseValidationError, "f_min"),
    (lambda d: d["lines"][0].update(susceptance=-1.0), CaseValidationError,
     "susceptance"),
    (lambda d: d["generators"][0].update(x_min=2.0, x_max=1.0),
     CaseValidationError, "x_min"),
    (lambda d: d.update(nominal_load=[0.0]), CaseValidationError, "nominal_load"),
    (lambda d: d.update(nominal_load=[0.0, -1.0]), CaseValidationError, ">= 0"),
    (lambda d: d.update(buses=[1, 3]), CaseValidationError, "1..2"),
    (lambda d: d.update(slack_bus=9), CaseValidationError, "slack_bus"),
    (lambda d: d["lines"][0].update(to=1), CaseValidationError, "self-loop"),
])
def test_validation_errors(mutate, error, fragment):
    doc = make()
    mutate(doc)
    with pytest.raises(error, match=fragment):
        parse_case(json.dumps(doc))


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.pop("buses"), "buses"),
    (lambda d: d.update(extra_key=1), "unknown"),
    (lambda d: d["lines"][0].pop("susceptance"), r"lines\[0\]"),
    (lambda d: d["lines"][0].update(susceptance="high"), "susceptance"),
    (lambda d: d["generators"][0].update(bus=1.5), r"generators\[0\]\.bus"),
    # Once accepted, then `run` failed far from the cause: "rhs length 14
    # != row count 0" on five_bus.
    (lambda d: d.update(generators=[]), "^generators: expected a non-empty array$"),
])
def test_schema_errors_carry_paths(mutate, fragment):
    doc = make()
    mutate(doc)
    with pytest.raises(CaseFormatError, match=fragment):
        parse_case(json.dumps(doc))


def test_invalid_json_is_format_error():
    with pytest.raises(CaseFormatError):
        parse_case("not json {")


def test_disconnected_network_rejected():
    doc = make(buses=[1, 2, 3], nominal_load=[0.0, 1.0, 0.0])
    with pytest.raises(CaseValidationError, match="disconnected"):
        parse_case(json.dumps(doc))


def test_slack_override():
    doc = make(slack_bus=2)
    assert parse_case(json.dumps(doc)).slack_bus == 2


# --- PTDF ---


def test_ptdf_two_bus_row():
    case = parse_case(json.dumps(MINIMAL))
    ptdf = compute_ptdf(case)
    # Injection at bus 2 returns over the single line against orientation.
    assert np.allclose(ptdf.entries, [[0.0, -1.0]], atol=1e-12)


def test_ptdf_slack_column_zero(cases):
    for case in cases.values():
        ptdf = compute_ptdf(case)
        s = case.bus_index(case.slack_bus)
        assert np.all(ptdf.entries[:, s] == 0.0)
        # injection at the slack alone induces no flow anywhere
        inj = np.zeros(case.n_buses)
        inj[s] = 2.5
        assert np.allclose(ptdf.entries @ inj, 0.0)


def test_ptdf_three_bus_triangle_by_hand():
    doc = {
        "buses": [1, 2, 3],
        "lines": [
            {"from": 1, "to": 2, "susceptance": 3.0, "f_min": -9, "f_max": 9},
            {"from": 1, "to": 3, "susceptance": 3.0, "f_min": -9, "f_max": 9},
            {"from": 2, "to": 3, "susceptance": 3.0, "f_min": -9, "f_max": 9},
        ],
        "generators": [{"bus": 2, "x_min": 0.0, "x_max": 1.0, "cost": 1.0}],
        "nominal_load": [0.0, 0.0, 0.5],
    }
    ptdf = compute_ptdf(parse_case(json.dumps(doc)))
    # Reduced Laplacian solved by hand: injection at bus 2 gives
    # (-2/3, -1/3, +1/3) on lines (1-2), (1-3), (2-3).
    assert np.allclose(ptdf.entries[:, 1], [-2 / 3, -1 / 3, 1 / 3], atol=1e-12)


def _direct_dc_flows(case, injection):
    """Independent oracle: solve the full nodal system for this injection."""
    n = case.n_buses
    inc = np.zeros((case.n_lines, n))
    susc = np.empty(case.n_lines)
    for j, ln in enumerate(case.lines):
        inc[j, case.bus_index(ln.from_bus)] = 1.0
        inc[j, case.bus_index(ln.to_bus)] = -1.0
        susc[j] = ln.susceptance
    lap = inc.T @ (susc[:, None] * inc)
    s = case.bus_index(case.slack_bus)
    keep = [i for i in range(n) if i != s]
    theta = np.zeros(n)
    theta[keep] = np.linalg.solve(lap[np.ix_(keep, keep)], injection[keep])
    return susc * (inc @ theta)


def test_ptdf_reproduces_direct_dc_solve(cases):
    rng = np.random.default_rng(17)
    for case in cases.values():
        ptdf = compute_ptdf(case)
        for _ in range(5):
            inj = rng.normal(size=case.n_buses)
            s = case.bus_index(case.slack_bus)
            inj[s] -= inj.sum()  # balanced: slack absorbs the residual
            assert np.allclose(ptdf.entries @ inj,
                               _direct_dc_flows(case, inj), atol=1e-9)


def test_line_reorder_permutes_ptdf_rows(cases):
    case = cases["five_bus"]
    doc = json.loads(case_to_json(case))
    perm = [3, 0, 5, 1, 4, 2]
    doc["lines"] = [doc["lines"][j] for j in perm]
    shuffled = compute_ptdf(parse_case(json.dumps(doc)))
    original = compute_ptdf(case)
    assert np.allclose(shuffled.entries, original.entries[perm], atol=1e-12)


def test_case_keeps_one_ptdf(monkeypatch):
    """Every model built from one case shares its PTDF, computed once;
    a copy with other lines computes its own.  Calls are counted
    wherever a module of the package binds `compute_ptdf`, as a tracer
    that rebinds it would count them."""
    from ucscreen.predictors import generate_dataset

    computed = []

    def counting(case):
        computed.append(case)
        return compute_ptdf(case)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ucscreen":
            for attr, value in list(vars(module).items()):
                if value is compute_ptdf:
                    monkeypatch.setattr(module, attr, counting)
    case = load_bundled_case("nine_bus")
    generate_dataset(case, 0.1, 5, seed=3)
    assert computed == [case]
    fresh = compute_ptdf(case)
    assert np.array_equal(case.ptdf.entries, fresh.entries)
    assert np.array_equal(np.signbit(case.ptdf.entries), np.signbit(fresh.entries))
    assert not np.any(case.ptdf.entries[:, case.bus_index(case.slack_bus)])
    assert not case.ptdf.entries.flags.writeable

    copy = dataclasses.replace(case, lines=case.lines[::-1])
    assert np.array_equal(copy.ptdf.entries, fresh.entries[::-1])
    assert computed == [case, copy]


def test_bundled_corpus_parses(cases):
    assert {"five_bus", "nine_bus", "fourteen_bus", "thirty_bus",
            "fifty_bus", "negcontrol"} <= set(cases)
    fifty = cases["fifty_bus"]
    assert fifty.n_buses == 50 and fifty.n_gens == 12


def test_load_bundled_case_unknown_name():
    with pytest.raises(CaseValidationError, match="no bundled case"):
        load_bundled_case("does_not_exist")
