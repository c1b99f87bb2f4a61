import json
import os
import subprocess
import sys

import pytest

import numevents
from numevents import format_subset, get_eps
from numevents.cli import main
from conftest import DATA_DIR, GOLDEN_DIR


def data(name):
    return os.path.join(DATA_DIR, name)


def golden(name):
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("NUMEVENT_EPS", raising=False)


GOLDEN_CASES = [
    ("classify_polarizer.txt", ["classify", data("polarizer.csv")], 0),
    ("classify_polarizer.json", ["--format", "json", "classify", data("polarizer.csv")], 0),
    ("classify_comparable.txt", ["classify", data("comparable_pair.csv")], 2),
    ("classify_two_valued.txt", ["classify", data("two_valued.csv")], 0),
    ("classify_undecided.txt", ["classify", data("undecided.csv")], 3),
    ("boolean_even.txt", ["boolean", data("even_logic.json")], 2),
    ("boolean_even.json", ["--format", "json", "boolean", data("even_logic.json")], 2),
    ("boolean_power.txt", ["boolean", data("power_logic.json")], 0),
    ("bell_chsh_pairs.txt", ["bell", data("chsh3.csv")], 0),
    ("bell_chsh_all.txt", ["bell", data("chsh3.csv"), "--all-valuations"], 2),
    ("bell_chsh_all.json", ["--format", "json", "bell", data("chsh3.csv"), "--all-valuations"], 2),
    ("bell_boolean_n4.txt", ["bell", data("boolean_n4.csv")], 0),
    ("bell_pairs_n2.txt", ["bell", data("pairs_n2.csv")], 0),
    ("enumerate_2.txt", ["enumerate", "2"], 0),
    ("enumerate_2.json", ["--format", "json", "enumerate", "2"], 0),
]


@pytest.mark.parametrize("name,argv,code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_output_matches_golden_file(name, argv, code, capsys):
    assert main(argv) == code
    assert capsys.readouterr().out == golden(name)


@pytest.mark.parametrize("name,argv,code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_output_is_repeatable(name, argv, code, capsys):
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


class TestFormatAgreement:
    def run_json(self, argv, capsys):
        code = main(["--format", "json"] + argv)
        return code, json.loads(capsys.readouterr().out)

    def run_text(self, argv, capsys):
        code = main(argv)
        return code, capsys.readouterr().out

    @pytest.mark.parametrize(
        "source,verdict",
        [
            ("polarizer.csv", "EMBEDDABLE"),
            ("comparable_pair.csv", "NOT_EMBEDDABLE"),
            ("undecided.csv", "UNDECIDED"),
        ],
    )
    def test_classify_verdicts(self, source, verdict, capsys):
        code_t, text = self.run_text(["classify", data(source)], capsys)
        code_j, payload = self.run_json(["classify", data(source)], capsys)
        assert code_t == code_j
        assert payload["verdict"] == verdict
        assert f"verdict: {verdict}" in text

    def test_boolean_verdicts(self, capsys):
        code_t, text = self.run_text(["boolean", data("even_logic.json")], capsys)
        code_j, payload = self.run_json(["boolean", data("even_logic.json")], capsys)
        assert (code_t, code_j) == (2, 2)
        assert payload["boolean"] is False
        assert "verdict: not Boolean" in text
        assert payload["missing_minimum"] == [1, 2]
        assert "missing minimum: {1,2}" in text

    def test_bell_counts(self, capsys):
        argv = ["bell", data("chsh3.csv"), "--all-valuations"]
        code_t, text = self.run_text(argv, capsys)
        code_j, payload = self.run_json(argv, capsys)
        assert (code_t, code_j) == (2, 2)
        assert payload["violations"] == 16
        assert "violations: 16" in text
        assert "verdict: violated" in text
        assert len(payload["rows"]) == 16

    def test_enumerate_payload(self, capsys):
        code, payload = self.run_json(["enumerate", "2"], capsys)
        assert code == 0
        assert payload["count"] == 7
        assert payload["valuations"][0] == [1, 0, -1]


class TestExitCodes:
    def test_positive_negative_undecided_error(self, capsys):
        assert main(["classify", data("polarizer.csv")]) == 0
        assert main(["classify", data("comparable_pair.csv")]) == 2
        assert main(["classify", data("undecided.csv")]) == 3
        assert main(["classify", data("improper.csv")]) == 1
        capsys.readouterr()

    def test_improper_event_message(self, capsys):
        assert main(["classify", data("improper.csv")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "p_2" in err

    def test_broken_axioms_are_an_input_error(self, capsys):
        assert main(["boolean", data("bad_logic.json")]) == 1
        err = capsys.readouterr().err
        assert "A2" in err

    def test_bell_missing_subset(self, capsys):
        assert main(["bell", data("missing_subset.csv")]) == 1
        err = capsys.readouterr().err
        assert "{1,2}" in err

    def test_bell_violation_is_negative(self, capsys):
        assert main(["bell", data("violated_n2.csv")]) == 2
        out = capsys.readouterr().out
        assert "verdict: violated" in out

    def test_enumerate_above_cap(self, capsys):
        assert main(["enumerate", "5"]) == 1
        err = capsys.readouterr().err
        assert "--override-enumeration-cap" in err

    def test_missing_file(self, capsys):
        assert main(["classify", data("no_such_file.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_csv_reports_line(self, capsys):
        assert main(["classify", data("malformed.csv")]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        capsys.readouterr()


class TestTolerance:
    def test_eps_flag_can_change_the_verdict(self, capsys):
        # the fixture breaches the bound by 0.3, inside a 0.31 band
        assert main(["bell", data("violated_n2.csv")]) == 2
        assert main(["--eps", "0.31", "bell", data("violated_n2.csv")]) == 0
        capsys.readouterr()

    def test_eps_flag_can_merge_events(self, capsys):
        assert main(["--eps", "0.35", "classify", data("polarizer.csv")]) == 1
        assert "coincide" in capsys.readouterr().err

    def test_env_variable_is_honoured(self, capsys, monkeypatch):
        monkeypatch.setenv("NUMEVENT_EPS", "0.31")
        assert main(["bell", data("violated_n2.csv")]) == 0
        capsys.readouterr()

    def test_flag_beats_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("NUMEVENT_EPS", "0.31")
        assert main(["--eps", "1e-9", "bell", data("violated_n2.csv")]) == 2
        capsys.readouterr()

    def test_invalid_eps_rejected(self, capsys):
        assert main(["--eps", "0.9", "classify", data("polarizer.csv")]) == 1
        assert "error:" in capsys.readouterr().err


class TestBudget:
    def test_classify_budget_caps_the_closure(self, capsys):
        assert main(["--budget", "4", "classify", data("two_valued.csv")]) == 1
        err = capsys.readouterr().err
        assert "budget exceeded" in err

    def test_ample_budget_passes(self, capsys):
        assert main(["--budget", "64", "classify", data("two_valued.csv")]) == 0
        capsys.readouterr()


class TestToleranceScope:
    def test_eps_flag_ends_with_main(self, capsys):
        before = get_eps()
        assert main(["--eps", "0.31", "bell", data("violated_n2.csv")]) == 0
        assert get_eps() == before
        capsys.readouterr()

    def test_eps_flag_ends_with_main_on_error(self, capsys):
        before = get_eps()
        assert main(["--eps", "0.35", "classify", data("polarizer.csv")]) == 1
        assert get_eps() == before
        assert main(["--eps", "0.31", "classify", data("no_such_file.csv")]) == 1
        assert get_eps() == before
        capsys.readouterr()

    def test_env_variable_ends_with_main(self, capsys, monkeypatch):
        before = get_eps()
        monkeypatch.setenv("NUMEVENT_EPS", "0.31")
        assert main(["bell", data("violated_n2.csv")]) == 0
        assert get_eps() == before
        capsys.readouterr()


class TestBudgetScope:
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_budget_below_one_is_rejected(self, value, capsys):
        assert main(["--budget", value, "classify", data("two_valued.csv")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --budget must be at least 1, got {value}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["boolean", data("power_logic.json")],
            ["bell", data("chsh3.csv")],
            ["bell", data("chsh3.csv"), "--all-valuations"],
            ["enumerate", "2"],
        ],
    )
    def test_budget_is_rejected_outside_classify(self, argv, capsys):
        assert main(["--budget", "64"] + argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --budget applies only to classify\n"

    def test_help_says_what_the_budget_caps(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "closure size cap for classify" in " ".join(capsys.readouterr().out.split())


def test_pairs_only_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bell", data("chsh3.csv"), "--pairs-only"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_boolean_checks_the_logic_once(kernel_frontiers, capsys):
    assert main(["--format", "json", "boolean", data("power_logic.json")]) == 0
    assert kernel_frontiers == [json.loads(capsys.readouterr().out)["logic_size"]]


def test_cli_import_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(numevents.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = "import sys, numevents.cli; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert (done.returncode, done.stdout) == (0, "False\n")


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _bell_table(num_events):
    rows = [f"s1,{{{i}}},0.5" for i in range(1, num_events + 1)]
    return "state,subset,value\n" + "\n".join(rows) + "\n"


def test_flat_table_json_is_the_indent_encoders_text(tmp_path, capsys):
    # "\u00fc" has singletons 0.5 and joints 0, so every valuation that
    # selects three or four singletons sums past 1 there: 2**11 * 5 rows
    rows = ["state,subset,value"]
    for mask in range(1, 16):
        subset = format_subset(mask)
        flat = 0.5 if mask.bit_count() == 1 else 0.0
        rows += [f's1,"{subset}",0', f'\u00fc,"{subset}",{flat}']
    path = _write(tmp_path / "flat.csv", "\n".join(rows) + "\n")
    assert main(["--format", "json", "bell", path, "--all-valuations"]) == 2
    out = capsys.readouterr().out
    report = json.loads(out)
    assert out == json.dumps(report, indent=2) + "\n"
    assert report["violations"] == len(report["rows"]) == 10240
    assert {row["violating_state"] for row in report["rows"]} == {"\u00fc"}


class TestErrorMessages:
    """Exact stderr and exit code 1 for input errors of each kind."""

    def run_error(self, argv, capsys):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        return err

    def test_enumerate_zero(self, capsys):
        err = self.run_error(["enumerate", "0"], capsys)
        assert err == "error: n must be positive, got 0\n"

    def test_boolean_with_an_empty_family(self, tmp_path, capsys):
        logic = {"states": ["s1", "s2"], "logic": [[0, 0], [1, 1]], "family": []}
        path = _write(tmp_path / "logic.json", json.dumps(logic))
        err = self.run_error(["boolean", path], capsys)
        assert err == "error: 'family' must select at least one logic member\n"

    @pytest.mark.parametrize("num_events", [1, 5])
    def test_bell_outside_two_to_four(self, num_events, tmp_path, capsys):
        path = _write(tmp_path / "table.csv", _bell_table(num_events))
        err = self.run_error(["bell", path], capsys)
        assert err == f"error: n outside {{2,3,4}}: {num_events}\n"

    def test_bell_on_the_missing_subset_file(self, capsys):
        err = self.run_error(["bell", data("missing_subset.csv")], capsys)
        assert err == "error: missing correlations: {1,2}\n"

    @pytest.mark.parametrize("all_valuations", [False, True])
    def test_bell_lists_the_missing_correlations_in_order(
        self, all_valuations, tmp_path, capsys
    ):
        path = _write(tmp_path / "table.csv", _bell_table(3))
        argv = ["bell", path] + (["--all-valuations"] if all_valuations else [])
        err = self.run_error(argv, capsys)
        assert err == "error: missing correlations: {1,2}, {1,3}, {2,3}, {1,2,3}\n"

    def test_unparsable_logic_json(self, tmp_path, capsys):
        path = _write(tmp_path / "logic.json", '{"states": [')
        err = self.run_error(["boolean", path], capsys)
        assert err == (
            "error: invalid JSON: Expecting value: line 1 column 13 (char 12)\n"
        )

    @pytest.mark.parametrize("command", ["classify", "boolean", "bell"])
    def test_missing_input_file(self, command, tmp_path, capsys):
        path = str(tmp_path / "absent")
        err = self.run_error([command, path], capsys)
        assert err == f"error: [Errno 2] No such file or directory: {path!r}\n"


def test_module_entry_point_exits_with_the_error_code():
    src = os.path.dirname(os.path.dirname(numevents.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-m", "numevents.cli", "enumerate", "0"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        1,
        "",
        "error: n must be positive, got 0\n",
    )
