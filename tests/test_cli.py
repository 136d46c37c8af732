"""CLI behavior: schemes, reports, exit codes, determinism."""

import importlib.util
import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import ucscreen.cli
import ucscreen.model
import ucscreen.screening
from ucscreen.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_PROPERTY,
    EXIT_SCREENING_INFEASIBLE,
    SchemeConfig,
    dump_json,
    main,
    run_scheme,
    verify_case,
)
from ucscreen.lp import LpSolution, NodeLimitExceeded, SimplexError
from ucscreen.predictors import (
    Dataset,
    DatasetError,
    read_dataset_csv,
    write_dataset_csv,
)


def case_path(name: str) -> str:
    return str(resources.files("ucscreen") / "cases" / f"{name}.json")


def run_cli(*argv) -> int:
    return main(list(argv))


def read(path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def test_run_s3_equals_s2_sets(tmp_path):
    out3 = tmp_path / "s3.json"
    out2 = tmp_path / "s2.json"
    assert run_cli("run", "--case", case_path("five_bus"), "--scheme", "s3",
                   "--out", str(out3)) == EXIT_OK
    assert run_cli("run", "--case", case_path("five_bus"), "--scheme", "s2",
                   "--out", str(out2)) == EXIT_OK
    r3, r2 = read(out3), read(out2)
    assert set(r3["redundant_rows"]) == set(r2["redundant_rows"])
    assert r3["lp_count"] < r2["lp_count"]
    assert r3["gap"]["gap"] == 0.0


def test_run_report_shape_and_roundtrip(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("run", "--case", case_path("nine_bus"), "--scheme", "s3",
                   "--out", str(out)) == EXIT_OK
    doc = read(out)
    assert set(doc) == {"case", "scheme", "redundant_rows", "kept_rows",
                        "n_v", "lp_count", "r", "gap", "timings", "config"}
    assert doc["case"] == "nine_bus" and doc["scheme"] == "s3"
    assert doc["timings"] is None
    assert doc["r"] == len(doc["redundant_rows"]) / doc["lp_count"]
    n_candidates = len(doc["redundant_rows"]) + len(doc["kept_rows"])
    assert doc["lp_count"] == 4 * 3 + n_candidates - doc["n_v"]  # G = 3
    # serialize -> parse -> serialize is a fixed point
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out.read_text()


def test_config_and_report_fields_are_named_once(tmp_path):
    # Every field set off its default: the report's config is each field
    # but `jobs`, the paths under their options' names, and the parser
    # fills each field from the option of its name.
    config = SchemeConfig(case_path="c.json", scheme="s7", beta=0.25,
                          epsilon=0.01, k=3, dataset_path="d.csv",
                          oracle_cost=True, seed=7, jobs=3,
                          drop_rows=["line_upper(0)", "line_lower(2)"])
    assert config.to_json_dict() == {
        "case": "c.json", "scheme": "s7", "beta": 0.25, "epsilon": 0.01,
        "k": 3, "dataset": "d.csv", "oracle_cost": True, "seed": 7,
        "drop_rows": ("line_upper(0)", "line_lower(2)")}
    for command in ("run", "verify"):
        args = ucscreen.cli._parser().parse_args([
            command, "--case", "c.json", "--scheme", "s7", "--beta", "0.25",
            "--epsilon", "0.01", "--k", "3", "--dataset", "d.csv",
            "--oracle-cost", "--seed", "7", "--jobs", "3",
            "--drop-row", "line_upper(0)", "--drop-row", "line_lower(2)",
            "--out", "r.json"])
        assert ucscreen.cli._config_from_args(args) == config
    report = run_scheme(SchemeConfig(case_path=case_path("nine_bus"),
                                     scheme="s3"))
    assert set(report.to_json_dict()["gap"]) == {
        "full_status", "reduced_status", "full_cost", "reduced_cost", "gap",
        "commitment_match"}


def test_s4_beta_zero_matches_s3(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli("run", "--case", case_path("five_bus"), "--scheme", "s4",
                   "--beta", "0.0", "--out", str(a)) == EXIT_OK
    assert run_cli("run", "--case", case_path("five_bus"), "--scheme", "s3",
                   "--out", str(b)) == EXIT_OK
    assert set(read(a)["redundant_rows"]) == set(read(b)["redundant_rows"])


def test_s5_oracle_cost_superset_and_zero_gap(tmp_path):
    a = tmp_path / "s5.json"
    b = tmp_path / "s3.json"
    assert run_cli("run", "--case", case_path("five_bus"), "--scheme", "s5",
                   "--oracle-cost", "--epsilon", "0.005",
                   "--out", str(a)) == EXIT_OK
    assert run_cli("run", "--case", case_path("five_bus"), "--scheme", "s3",
                   "--out", str(b)) == EXIT_OK
    s5, s3 = read(a), read(b)
    assert set(s5["redundant_rows"]) >= set(s3["redundant_rows"])
    assert s5["gap"]["gap"] == 0.0


def test_byte_determinism_across_runs_and_jobs(tmp_path):
    outs = []
    for i, jobs in enumerate(("1", "1", "8")):
        out = tmp_path / f"r{i}.json"
        assert run_cli("run", "--case", case_path("thirty_bus"),
                       "--scheme", "s3", "--jobs", jobs,
                       "--out", str(out)) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_verify_corpus_passes(tmp_path):
    for name in ("five_bus", "nine_bus", "fourteen_bus"):
        out = tmp_path / f"{name}.json"
        assert run_cli("verify", "--case", case_path(name), "--scheme", "s3",
                       "--out", str(out)) == EXIT_OK
        doc = read(out)
        assert doc["passed"] is True
        assert [p["name"] for p in doc["properties"]] == [
            "matrix_test_exactness", "vgs_soundness", "ensemble_equivalence",
            "zero_gap"]


def test_verify_negative_control_names_property(tmp_path, capsys):
    out = tmp_path / "neg.json"
    code = run_cli("verify", "--case", case_path("negcontrol"),
                   "--scheme", "s3", "--drop-row", "line_upper(1)",
                   "--out", str(out))
    assert code == EXIT_PROPERTY
    doc = read(out)
    assert doc["passed"] is False
    assert doc["properties"][-1]["name"] == "zero_gap"
    assert "zero_gap" in capsys.readouterr().err


def test_drop_row_the_screen_removed_changes_nothing(tmp_path):
    """--drop-row of a row the screen already removed: the reduced model
    is the one the run without the flag solves."""
    plain, dropped = tmp_path / "plain.json", tmp_path / "dropped.json"
    argv = ["run", "--case", case_path("fifty_bus"), "--scheme", "s3"]
    assert run_cli(*argv, "--out", str(plain)) == EXIT_OK
    assert run_cli(*argv, "--drop-row", "line_upper(0)",
                   "--out", str(dropped)) == EXIT_OK
    a, b = read(plain), read(dropped)
    assert "line_upper(0)" in a["redundant_rows"]
    assert b["config"].pop("drop_rows") == ["line_upper(0)"]
    assert a["config"].pop("drop_rows") == []
    assert a == b


def test_main_reused_in_one_process(tmp_path, capsys):
    """Calls of `main` in one process give the bytes that the first call
    of each argv in a process gives, and leave nothing to the next call:
    the negative control's dropped row stays out of the run without it."""
    neg = case_path("negcontrol")
    calls = {
        "run-drop": (["run", "--case", neg, "--scheme", "s3",
                      "--drop-row", "line_upper(1)"], EXIT_PROPERTY),
        "run": (["run", "--case", neg, "--scheme", "s3"], EXIT_OK),
        "gen-data": (["gen-data", "--case", case_path("five_bus"), "--beta",
                      "0.1", "--n", "3", "--seed", "2"], EXIT_OK),
        "verify": (["verify", "--case", neg, "--scheme", "s3"], EXIT_OK),
        "bad-flag": (["run", "--case", neg, "--no-such-flag"], EXIT_INPUT),
    }

    def call(key):
        argv, code = calls[key]
        out = tmp_path / key
        try:
            assert main([*argv, "--out", str(out)]) == code
        except SystemExit as exc:  # argparse rejects the argv
            assert exc.code == code
        err = capsys.readouterr().err
        # the run's one-line summary ends with its wall time
        err = "\n".join(line.rsplit(", ", 1)[0] for line in err.splitlines())
        body = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return err, body

    first = {}
    for key in calls:
        ucscreen.cli._parser.cache_clear()  # as in a fresh process
        first[key] = call(key)
    assert first["run"][1] is not None and first["bad-flag"][1] is None
    assert json.loads(first["run"][1])["config"]["drop_rows"] == []
    for key in [*calls, *reversed(calls)]:
        assert call(key) == first[key], key


@pytest.mark.parametrize("name, scheme, beta", [("nine_bus", "s3", None),
                                                ("fifty_bus", "s4", 0.1)])
def test_verify_screens_once(name, scheme, beta, monkeypatch):
    """verify solves the S3 screen's LPs and the S2 screen's, no more."""
    calls, reports = [], []
    solve_lp, eovl = ucscreen.screening.solve_lp, ucscreen.cli.eovl

    def counted(*args):
        calls.append(1)
        return solve_lp(*args)

    def recorded(*args, **kwargs):
        reports.append(eovl(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(ucscreen.screening, "solve_lp", counted)
    monkeypatch.setattr(ucscreen.cli, "eovl", recorded)
    verdicts = verify_case(SchemeConfig(case_path=case_path(name),
                                        scheme=scheme, beta=beta))
    assert all(v["passed"] for v in verdicts)
    s3, s2 = reports
    assert len(calls) == s3.lp_solved + s2.lp_solved
    if name == "fifty_bus":
        assert s3.lp_solved < s3.lp_count


@pytest.mark.parametrize("scheme, beta", [("s3", None), ("s4", 0.1)])
def test_skips_do_not_depend_on_jobs(scheme, beta):
    reports = [run_scheme(SchemeConfig(case_path=case_path("fifty_bus"),
                                       scheme=scheme, beta=beta, jobs=jobs))
               for jobs in (1, 8)]
    docs = [dump_json(r.to_json_dict()) for r in reports]
    assert docs[0] == docs[1]
    solved = [r.screening.lp_solved for r in reports]
    assert solved[0] == solved[1] < reports[0].screening.lp_count


@pytest.mark.parametrize("scheme, beta", [("s3", None), ("s4", 0.1)])
def test_certificates_do_not_depend_on_jobs(scheme, beta):
    reports = [run_scheme(SchemeConfig(case_path=case_path("fifty_bus"),
                                       scheme=scheme, beta=beta, jobs=jobs))
               for jobs in (1, 2)]
    docs = [dump_json(r.to_json_dict()) for r in reports]
    assert docs[0] == docs[1]
    assert reports[0].screening.lp_solved == reports[1].screening.lp_solved
    one, two = (r.screening.certificates for r in reports)
    assert one and list(one) == list(two)
    assert all(np.array_equal(one[lb], two[lb]) for lb in one)


_spec = importlib.util.spec_from_file_location(
    "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


@pytest.fixture(scope="module")
def synth_paths(tmp_path_factory):
    """Two seeded 24-bus ring-plus-chord cases, the benchmark's shape."""
    out = {}
    for i in range(2):
        path = tmp_path_factory.mktemp("synth") / f"synth{i}.json"
        path.write_text(json.dumps(gen.ring_chord_case(
            (301, i), n_buses=24, n_chords=12, n_gens=8, beta=0.2,
            tight_share=0.25, name=f"synth{i}")))
        out[f"synth{i}"] = str(path)
    return out


@pytest.mark.parametrize("scheme, beta", [("s2", None), ("s3", None),
                                          ("s4", 0.1)])
@pytest.mark.parametrize("name", ["five_bus", "nine_bus", "fourteen_bus",
                                  "thirty_bus", "fifty_bus", "negcontrol",
                                  "synth0", "synth1"])
def test_vertex_starts_do_not_depend_on_jobs(name, scheme, beta, synth_paths,
                                             monkeypatch):
    pivots = []
    solve_lp = ucscreen.screening.solve_lp

    def counted(*args):
        sol = solve_lp(*args)
        pivots.append(sol.iterations)
        return sol

    monkeypatch.setattr(ucscreen.screening, "solve_lp", counted)
    path = synth_paths.get(name) or case_path(name)
    docs, solved, totals = [], [], []
    for jobs in (1, 8):
        pivots.clear()
        report = run_scheme(SchemeConfig(case_path=path, scheme=scheme,
                                         beta=beta, jobs=jobs))
        docs.append(dump_json(report.to_json_dict()))
        solved.append(report.screening.lp_solved)
        totals.append(sum(pivots))
    assert docs[0] == docs[1]
    assert solved[0] == solved[1] == len(pivots)
    assert totals[0] == totals[1]


def test_verify_determinism(tmp_path):
    outs = []
    for i, jobs in enumerate(("1", "8")):
        out = tmp_path / f"v{i}.json"
        assert run_cli("verify", "--case", case_path("nine_bus"),
                       "--jobs", jobs, "--out", str(out)) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_missing_case_file_is_input_error(capsys):
    assert run_cli("run", "--case", "/nonexistent/case.json",
                   "--scheme", "s3") == EXIT_INPUT
    assert "not found" in capsys.readouterr().err


def test_infeasible_case_is_input_error(tmp_path, capsys):
    doc = json.loads((resources.files("ucscreen") / "cases"
                      / "five_bus.json").read_text())
    doc["nominal_load"] = [0.0, 0.0, 9.0, 9.0, 9.0]  # beyond total capacity
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(doc))
    assert run_cli("run", "--case", str(path), "--scheme", "s3") == EXIT_INPUT
    assert "infeasible" in capsys.readouterr().err


def test_scheme_prerequisites():
    with pytest.raises(Exception):
        SchemeConfig(case_path="x", scheme="s4")  # missing beta
    with pytest.raises(Exception):
        SchemeConfig(case_path="x", scheme="s5", epsilon=0.005)  # no source
    with pytest.raises(Exception):
        SchemeConfig(case_path="x", scheme="s6")  # no dataset
    with pytest.raises(Exception):
        SchemeConfig(case_path="x", scheme="s9")
    assert run_cli("run", "--case", case_path("five_bus"),
                   "--scheme", "s4") == EXIT_INPUT  # beta missing via CLI


def test_bad_cost_cut_dataset_gives_exit_3(tmp_path):
    # A dataset claiming near-zero costs drives the cut below any
    # attainable cost: the relaxed region empties out.
    loads = np.tile(np.array([[0.0, 0.0, 2.0, 2.0, 1.0]]), (5, 1))
    ds = Dataset(loads, np.full(5, 1e-3), np.ones((5, 2), dtype=int),
                 n_train=4)
    path = tmp_path / "bogus.csv"
    write_dataset_csv(ds, path)
    code = run_cli("run", "--case", case_path("five_bus"), "--scheme", "s5",
                   "--epsilon", "0.005", "--dataset", str(path))
    assert code == EXIT_SCREENING_INFEASIBLE


def test_gen_data_deterministic_and_flagged(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli("gen-data", "--case", case_path("nine_bus"),
                       "--beta", "0.5", "--n", "10", "--seed", "3",
                       "--out", str(out)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    err = capsys.readouterr().err
    assert "per-bus independent uniform" in err
    assert "feasibility rate" in err


def test_gen_data_beta_zero_constant_columns(tmp_path):
    out = tmp_path / "c.csv"
    assert run_cli("gen-data", "--case", case_path("nine_bus"),
                   "--beta", "0.0", "--n", "6", "--seed", "1",
                   "--out", str(out)) == EXIT_OK
    rows = out.read_text().strip().splitlines()[1:]
    assert len(set(rows)) == 1


def test_gen_data_feasibility_rate_reported(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run_cli("gen-data", "--case", case_path("nine_bus"),
                   "--beta", "0.5", "--n", "200", "--seed", "42",
                   "--out", str(out)) == EXIT_OK
    err = capsys.readouterr().err
    rate = float(err.split("feasibility rate ")[1].split(",")[0])
    assert rate >= 0.95


def test_s6_with_dataset_reports_gap(tmp_path):
    ds_path = tmp_path / "nine.csv"
    assert run_cli("gen-data", "--case", case_path("nine_bus"),
                   "--beta", "0.5", "--n", "40", "--seed", "21",
                   "--out", str(ds_path)) == EXIT_OK
    out = tmp_path / "s6.json"
    assert run_cli("run", "--case", case_path("nine_bus"), "--scheme", "s6",
                   "--dataset", str(ds_path), "--k", "5",
                   "--out", str(out)) == EXIT_OK
    doc = read(out)
    assert doc["gap"]["gap"] is not None  # measured, not asserted
    assert doc["config"]["dataset"] == str(ds_path)


def test_s7_combines_cuts(tmp_path):
    ds_path = tmp_path / "nine.csv"
    assert run_cli("gen-data", "--case", case_path("nine_bus"),
                   "--beta", "0.5", "--n", "40", "--seed", "21",
                   "--out", str(ds_path)) == EXIT_OK
    s7 = tmp_path / "s7.json"
    s3 = tmp_path / "s3.json"
    assert run_cli("run", "--case", case_path("nine_bus"), "--scheme", "s7",
                   "--dataset", str(ds_path), "--epsilon", "0.01",
                   "--oracle-cost", "--out", str(s7)) == EXIT_OK
    assert run_cli("run", "--case", case_path("nine_bus"), "--scheme", "s3",
                   "--out", str(s3)) == EXIT_OK
    assert set(read(s7)["redundant_rows"]) >= set(read(s3)["redundant_rows"])


def test_verify_has_no_timings_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--case", case_path("five_bus"), "--timings")
    assert exc.value.code == EXIT_INPUT
    assert "--timings" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "run --scheme s3 --out {missing}",
    "run --scheme s3 --out {directory}",
    "verify --scheme s3 --out {missing}",
    "gen-data --beta 0.1 --n 2 --out {missing}",
])
def test_unwritable_out_is_input_error(argv, tmp_path, capsys):
    paths = {"missing": str(tmp_path / "missing" / "x.out"),
             "directory": str(tmp_path)}
    command, *rest = argv.format(**paths).split()
    code = run_cli(command, "--case", case_path("five_bus"), *rest)
    assert code == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {rest[-1]}")


@pytest.mark.parametrize("argv", ["--out {missing}", "--out {directory}"])
def test_gen_data_checks_out_before_generating(argv, tmp_path, capsys,
                                               monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("generated samples for an unwritable --out")

    monkeypatch.setattr(ucscreen.cli, "generate_dataset", must_not_run)
    out = argv.format(missing=tmp_path / "missing" / "x.csv",
                      directory=tmp_path).split()
    code = run_cli("gen-data", "--case", case_path("five_bus"), "--beta", "0.1",
                   "--n", "2", *out)
    assert code == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {out[-1]}")


def test_gen_data_late_write_error_is_input_error(tmp_path, capsys,
                                                  monkeypatch):
    def full_disk(ds, path):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(ucscreen.cli, "write_dataset_csv", full_disk)
    out = tmp_path / "x.csv"
    code = run_cli("gen-data", "--case", case_path("five_bus"), "--beta", "0.1",
                   "--n", "2", "--out", str(out))
    assert code == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: cannot write {out}: No space left on device"]


def test_gen_data_bad_beta_writes_nothing(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = run_cli("gen-data", "--case", case_path("five_bus"), "--beta", "1.5",
                   "--n", "2", "--out", str(out))
    assert code == EXIT_INPUT
    assert not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: --beta must be within [0, 1], got 1.5"]


# five_bus has 5 buses and 2 units.
@pytest.mark.parametrize("n_load, n_unit", [(3, 1), (5, 1)])
@pytest.mark.parametrize("scheme", ["s5", "s6", "s7"])
def test_dataset_shape_must_match_case(scheme, n_load, n_unit, tmp_path,
                                       capsys):
    rng = np.random.default_rng(3)
    n = 8
    ds = Dataset(rng.uniform(10.0, 40.0, size=(n, n_load)),
                 rng.uniform(500.0, 900.0, size=n),
                 np.ones((n, n_unit), dtype=int), n_train=6)
    path = tmp_path / "shape.csv"
    write_dataset_csv(ds, path)
    code = run_cli("run", "--case", case_path("five_bus"), "--scheme", scheme,
                   "--epsilon", "0.05", "--dataset", str(path))
    assert code == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: dataset {path} has {n_load} load and {n_unit} unit "
                   "columns; the case has 5 buses and 2 units"]


def test_case_file_not_utf8_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    text = (resources.files("ucscreen") / "cases" / "five_bus.json").read_text()
    path.write_bytes(text.replace("five_bus", "f\u00fcnf").encode("latin-1"))
    assert run_cli("run", "--case", str(path), "--scheme", "s3") == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: not UTF-8")


@pytest.mark.parametrize("content, message", [
    pytest.param(b"load_1,\xfc\n", "not UTF-8", id="latin1"),
    pytest.param(b"", "empty", id="empty"),
])
def test_undecodable_or_empty_dataset_is_input_error(content, message,
                                                     tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    with pytest.raises(DatasetError, match=message):
        read_dataset_csv(path)
    code = run_cli("run", "--case", case_path("five_bus"), "--scheme", "s6",
                   "--dataset", str(path))
    assert code == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: {message}")


def test_timings_flag_breaks_no_other_fields(tmp_path):
    out = tmp_path / "t.json"
    assert run_cli("run", "--case", case_path("five_bus"), "--scheme", "s3",
                   "--timings", "--out", str(out)) == EXIT_OK
    doc = read(out)
    assert isinstance(doc["timings"], dict)
    assert "total" in doc["timings"]


# The status box u in [0, 1] is column bounds, so u_upper(0) is no row.
@pytest.mark.parametrize("label", ["line_upper(x)", "no_such_row(3)",
                                   "u_upper(0)"])
def test_bad_drop_row_label_is_input_error(label, capsys):
    code = run_cli("run", "--case", case_path("five_bus"), "--scheme", "s3",
                   "--drop-row", label)
    assert code == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and label in err[0]


def _check_bad_dataset_cell(tmp_path, capsys, column, cell):
    """Put `cell` in one column of line 3 of a five_bus dataset: reading
    it names the file and line, and a run using it exits 2 with one line."""
    ds_path = tmp_path / "five.csv"
    assert run_cli("gen-data", "--case", case_path("five_bus"),
                   "--beta", "0.1", "--n", "4", "--seed", "1",
                   "--out", str(ds_path)) == EXIT_OK
    lines = ds_path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[column] = cell
    lines[2] = ",".join(cells)
    ds_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match=r"five\.csv, line 3"):
        read_dataset_csv(ds_path)
    capsys.readouterr()
    code = run_cli("run", "--case", case_path("five_bus"), "--scheme", "s6",
                   "--dataset", str(ds_path))
    assert code == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "line 3" in err[0]


def test_non_numeric_dataset_cell_is_input_error(tmp_path, capsys):
    _check_bad_dataset_cell(tmp_path, capsys, 0, "abc")


# float() reads each cell; column 5 is the cost, 6 and 7 are u_1 and u_2.
@pytest.mark.parametrize("column, cell", [(0, "nan"), (5, "inf"), (6, "inf"),
                                          (7, "-inf"), (6, "0.7"), (7, "2")])
def test_out_of_range_dataset_cell_is_input_error(tmp_path, capsys,
                                                  column, cell):
    _check_bad_dataset_cell(tmp_path, capsys, column, cell)


# json.loads reads the NaN and Infinity literals into floats.
@pytest.mark.parametrize("path, value", [
    ("generators[0].cost", float("nan")),
    ("generators[0].x_max", float("inf")),
    ("nominal_load[1]", float("inf")),
    ("nominal_load[1]", float("nan")),
    ("lines[0].f_max", float("inf")),
    ("lines[0].f_min", float("-inf")),
    ("lines[0].susceptance", float("inf")),
])
def test_non_finite_case_number_is_input_error(tmp_path, capsys, path, value):
    doc = json.loads((resources.files("ucscreen") / "cases"
                      / "five_bus.json").read_text())
    key, _, field = path.partition(".")
    name, index = key.rstrip("]").split("[")
    if field:
        doc[name][int(index)][field] = value
    else:
        doc[name][int(index)] = value
    case = tmp_path / "bad.json"
    case.write_text(json.dumps(doc))
    assert run_cli("run", "--case", str(case), "--scheme", "s3") == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {path}: expected a finite number, got {value}"]


@pytest.mark.parametrize("argv", [
    "run --scheme s3 --out {tmp}/r.json",
    "verify --out {tmp}/v.json",
    "gen-data --beta 0.1 --n 3 --out {tmp}/d.csv",
])
def test_load_that_overflows_the_rows_is_input_error(argv, tmp_path, capsys):
    # A nominal load of 1e308 MW parses, and its flows overflow the line
    # rows' right-hand sides.  It once ended run and verify in a
    # traceback, and gen-data wrote NaN costs with exit 0.
    doc = json.loads((resources.files("ucscreen") / "cases"
                      / "five_bus.json").read_text())
    doc["nominal_load"] = [1e308] * len(doc["nominal_load"])
    case = tmp_path / "huge.json"
    case.write_text(json.dumps(doc))
    command, *rest = argv.format(tmp=tmp_path).split()
    assert run_cli(command, "--case", str(case), *rest) == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: the load overflows")
    for csv in tmp_path.glob("*.csv"):
        assert "nan" not in csv.read_text().lower()


# The flag with the bad value comes last.
@pytest.mark.parametrize("argv", [
    "run --scheme s4 --beta nan",
    "run --scheme s4 --beta -0.1",
    "run --scheme s5 --oracle-cost --epsilon nan",
    "run --scheme s5 --oracle-cost --epsilon inf",
    "run --scheme s3 --k 0",
    "verify --scheme s5 --oracle-cost --epsilon -1",
    "verify --scheme s4 --beta 0.1 --seed -1",
    "gen-data --beta 0.1 --out unused.csv --n -3",
    "gen-data --beta 0.1 --n 3 --out unused.csv --seed -1",
])
def test_bad_flag_value_is_input_error(argv, capsys):
    command, *rest = argv.split()
    code = run_cli(command, "--case", case_path("five_bus"), *rest)
    assert code == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {rest[-2]} must be")


@pytest.mark.parametrize("error", [
    SimplexError("simplex iteration limit exceeded"),
    NodeLimitExceeded("node limit 100000 exceeded"),
])
def test_solver_giving_up_is_input_error(error, monkeypatch, capsys):
    def give_up(problem, *, reference=None):
        raise error

    monkeypatch.setattr(ucscreen.model, "solve_milp", give_up)
    code = run_cli("run", "--case", case_path("five_bus"), "--scheme", "s3")
    assert code == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {error}"]


def test_line_flow_lp_ending_unbounded_is_a_solver_fault(monkeypatch, capsys):
    # Each line-flow LP keeps its own row, which bounds its maximum; a
    # solver that reports it unbounded anyway must not keep the row.
    solve_lp = ucscreen.screening.solve_lp

    def faulty(problem, start=None):
        if np.count_nonzero(problem.objective) > 1:  # a line row
            return LpSolution("unbounded", None, None)
        return solve_lp(problem, start)

    monkeypatch.setattr(ucscreen.screening, "solve_lp", faulty)
    code = run_cli("run", "--case", case_path("five_bus"), "--scheme", "s2")
    assert code == EXIT_INPUT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: screening LP for line_")
    assert "unbounded" in err[0]
