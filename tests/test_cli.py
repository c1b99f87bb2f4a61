import argparse
import gc
import inspect
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import numevents
import numevents.cli as cli
from numevents import (
    StateSpace,
    count_01_valuations,
    enumerate_01_valuations,
    format_subset,
    get_eps,
    mask_event,
    read_correlations_csv,
    violated_01_valuations,
    write_logic_json,
)
from numevents.cli import main
from conftest import DATA_DIR, GOLDEN_DIR
from helpers import valuation_rows_01


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
        assert capsys.readouterr() == ("", "error: n must be at most 4, got 5\n")
        # the override flag is gone: a usage error
        with pytest.raises(SystemExit) as info:
            main(["enumerate", "5", "--override-enumeration-cap"])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --override-enumeration-cap" in err

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
        assert capsys.readouterr() == ("", "error: eps must lie in (0, 0.5], got 0.9\n")

    @pytest.mark.parametrize(
        "value, message",
        [
            ("abc", "could not convert string to float: 'abc'"),
            ("0.9", "eps must lie in (0, 0.5], got 0.9"),
        ],
    )
    def test_env_variable_errors_name_the_variable(
        self, value, message, capsys, monkeypatch
    ):
        monkeypatch.setenv("NUMEVENT_EPS", value)
        assert main(["bell", data("violated_n2.csv")]) == 1
        assert capsys.readouterr() == ("", f"error: NUMEVENT_EPS: {message}\n")

    def test_a_bad_env_variable_is_not_read_under_the_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("NUMEVENT_EPS", "abc")
        assert main(["--eps", "0.31", "bell", data("violated_n2.csv")]) == 0
        capsys.readouterr()

    def test_empty_env_variable_counts_as_absent(self, capsys, monkeypatch):
        monkeypatch.setenv("NUMEVENT_EPS", "")
        assert main(["bell", data("violated_n2.csv")]) == 2
        capsys.readouterr()


class TestBudget:
    def test_classify_budget_caps_the_closure(self, capsys):
        assert main(["--budget", "4", "classify", data("two_valued.csv")]) == 1
        err = capsys.readouterr().err
        assert "budget exceeded" in err

    def test_default_budget_caps_a_wide_closure(self, capsys, tmp_path):
        # 30 indicator events of single states close to all 2**30 subsets
        rows = [
            f"s{i},e{j},{float(i == j)}" for j in range(1, 31) for i in range(1, 31)
        ]
        path = _write(tmp_path / "wide.csv", "\n".join(["state,event,value", *rows]) + "\n")
        assert main(["classify", path]) == 1
        assert capsys.readouterr() == ("", "error: budget exceeded: closure size\n")

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


def test_boolean_checks_the_logic_once(named_gaps, bitset_passes, capsys):
    assert main(["--format", "json", "boolean", data("power_logic.json")]) == 0
    # one bitset pass, over the three singletons of the 8-member power set
    assert bitset_passes == [3]
    assert named_gaps == []
    assert json.loads(capsys.readouterr().out)["logic_size"] == 8


def test_boolean_runs_the_full_pass_once_on_a_logic_failing_a3(
    named_gaps, bitset_passes, tmp_path, capsys
):
    # the power set of four states without {s1,s2} and its complement
    sp = StateSpace(("s1", "s2", "s3", "s4"))
    path = str(tmp_path / "broken.json")
    write_logic_json(sp, [mask_event(m, sp) for m in range(16) if m not in (3, 12)], [1], path)
    assert main(["boolean", path]) == 1
    # the constructor's bitset pass, then check_concrete_logic's bitset
    # pass and the one loop that names the first pair
    assert bitset_passes == [4, 4]
    assert named_gaps == [(0b0001, 0b0010)]
    assert capsys.readouterr() == (
        "",
        "error: axiom A3 violated: orthogonal sum missing "
        "([1.0, 0.0, 0.0, 0.0]; [0.0, 1.0, 0.0, 0.0])\n",
    )


def _logic_text(logic, family=(1, 2), states=("s1", "s2")):
    return json.dumps({"states": list(states), "logic": logic, "family": list(family)})


_POWER2 = [[0, 0], [1, 0], [0, 1], [1, 1]]
_A3_FAILING = [[0, 0, 0], [1, 1, 1], [1, 0, 0], [0, 1, 1], [0, 1, 0], [1, 0, 1]]

# Logic files at the edges of the mask reader, with what `boolean` printed
# when every row became an Event: the exit code, then either the text
# report and the JSON report, or the error on stderr (in both formats).
# A row that is not exactly 0 or 1, or a bad shape or type, sends the
# whole file down the per-row path, where the first offending row names
# the error; a logic read as masks that fails an axiom names the same
# offenders as its rows would.
BOOLEAN_EDGE_CASES = [
    (
        "within-eps",
        _logic_text([[0, 1e-12], [1 - 1e-12, 0], [0, 1], [1, 1 - 1e-12]]),
        0,
        (
            "logic: 4 events over 2 states\nfamily: n=2\nverdict: Boolean\n"
            "witnesses:\n- a_12 = [1.0, 0.0]\n",
            {
                "command": "boolean",
                "logic_size": 4,
                "states": ["s1", "s2"],
                "n": 2,
                "boolean": True,
                "missing_minimum": None,
                "witnesses": [{"name": "a_12", "values": [1.0, 0.0]}],
            },
        ),
    ),
    (
        "half",
        _logic_text([[0, 0], [0.5, 0.5], [1, 0], [0, 1], [1, 1]], (2, 3)),
        1,
        "axiom two-valued violated: member is not two-valued ([0.5, 0.5])",
    ),
    (
        "half-then-two",
        _logic_text([[0, 0], [0.5, 0.5], [2, 0], [0, 1], [1, 1]], (3, 4)),
        1,
        "logic row 2: value 2 at state s1 outside [0, 1]",
    ),
    (
        "two",
        _logic_text([[0, 0], [1, 0], [2, 1], [1, 1]]),
        1,
        "logic row 2: value 2 at state s1 outside [0, 1]",
    ),
    (
        "minus-0.1",
        _logic_text([[0, 0], [1, 0], [-0.1, 1], [1, 1]]),
        1,
        "logic row 2: value -0.1 at state s1 outside [0, 1]",
    ),
    (
        "NaN",
        _logic_text([[0, 0], [float("nan"), 0], [0, 1], [1, 1]]),
        1,
        "logic row 1: value nan at state s1 outside [0, 1]",
    ),
    (
        "Infinity",
        _logic_text([[0, 0], [1, 0], [0, float("inf")], [1, 1]]),
        1,
        "logic row 2: value inf at state s2 outside [0, 1]",
    ),
    (
        "400-digit-integer",
        _logic_text([[0, 0], [1, 0], [0, 10**399], [1, 1]]),
        1,
        "logic row 2: value at state s2 outside the float range",
    ),
    (
        "true",
        _logic_text([[0, 0], [True, 0], [0, 1], [1, 1]]),
        1,
        "logic row 1 must contain numbers",
    ),
    (
        "short-row",
        _logic_text([[0, 0], [1], [0, 1], [1, 1]]),
        1,
        "logic row 1 must list 2 values",
    ),
    (
        "non-list-row",
        _logic_text([[0, 0], 1, [0, 1], [1, 1]]),
        1,
        "logic row 1 must list 2 values",
    ),
    ("bad-family-index", _logic_text(_POWER2, (1, 9)), 1, "family index 9 outside 0..3"),
    (
        "empty-family",
        _logic_text(_POWER2, ()),
        1,
        "'family' must select at least one logic member",
    ),
    (
        "empty-family-failing-a2",
        _logic_text([[0, 0], [1, 0], [1, 1]], ()),
        1,
        "axiom A2 violated: complement missing ([1.0, 0.0])",
    ),
    (
        "A1",
        _logic_text([[1, 0], [0, 1], [1, 1]], (0, 1)),
        1,
        "axiom A1 violated: zero event missing",
    ),
    (
        "A2",
        _logic_text([[0, 0], [1, 0], [1, 1]]),
        1,
        "axiom A2 violated: complement missing ([1.0, 0.0])",
    ),
    (
        "A3",
        _logic_text(_A3_FAILING, (2, 4), ("a", "b", "c")),
        1,
        "axiom A3 violated: orthogonal sum missing ([1.0, 0.0, 0.0]; [0.0, 1.0, 0.0])",
    ),
    (
        "A3-floats",
        _logic_text(
            [[0.0, -0.0, 0], [1.0, 1, 1]] + _A3_FAILING[2:], (2, 4), ("a", "b", "c")
        ),
        1,
        "axiom A3 violated: orthogonal sum missing ([1.0, 0.0, 0.0]; [0.0, 1.0, 0.0])",
    ),
]


@pytest.mark.parametrize(
    "text, code, expected",
    [case[1:] for case in BOOLEAN_EDGE_CASES],
    ids=[case[0] for case in BOOLEAN_EDGE_CASES],
)
def test_boolean_on_the_edges_of_the_mask_reader(text, code, expected, tmp_path, capsys):
    path = _write(tmp_path / "logic.json", text)
    if isinstance(expected, str):
        outputs = [("", "error: " + expected + "\n")] * 2
    else:
        report_text, report = expected
        outputs = [(report_text, ""), (json.dumps(report, indent=2) + "\n", "")]
    for fmt, output in zip(("text", "json"), outputs):
        assert main(["--format", fmt, "boolean", path]) == code
        assert capsys.readouterr() == output


def test_boolean_builds_events_only_for_the_family_and_witnesses(
    tmp_path, monkeypatch, capsys
):
    import numevents.logic as logic_module
    from numevents import Event, gfe_closure

    # the 14-state chain of adjacent pairs, whose logic has 3432 members
    sp = StateSpace(tuple(f"q{k}" for k in range(14)))
    pairs = [3 << k for k in range(13)]
    members = sorted(gfe_closure([mask_event(m, sp) for m in pairs], sp).masks)
    family = [members.index(pairs[0]), members.index(pairs[2])]
    path = str(tmp_path / "chain.json")
    write_logic_json(sp, [mask_event(m, sp) for m in members], family, path)
    built, masked = [], []
    init, mask = Event.__init__, logic_module.event_mask

    def counting_init(self, values, space):
        built.append(values)
        init(self, values, space)

    def counting_mask(p):
        masked.append(p)
        return mask(p)

    monkeypatch.setattr(Event, "__init__", counting_init)
    monkeypatch.setattr(logic_module, "event_mask", counting_mask)
    assert main(["--format", "json", "boolean", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["logic_size"], report["boolean"]) == (3432, True)
    # the family's two rows and the witnesses, against one per member
    assert len(built) <= len(family) + len(report["witnesses"])
    # boolean_by_minima's look-up of each family member
    assert len(masked) == len(family)


def test_cli_import_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(numevents.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # nor the dataclasses code generator with inspect, nor the fixtures,
    # nor json, which only reading a logic file needs, nor csv, which
    # only reading or writing a CSV file needs
    code = (
        "import sys, numevents.cli; print([m for m in "
        "('numpy', 'dataclasses', 'inspect', 'numevents.fixtures', 'json', 'csv') "
        "if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert (done.returncode, done.stdout) == (0, "[]\n")


# The calls between layers that the benchmark's tracer times: names it
# looks up on numevents.cli (and gfe_closure on numevents.embedding), and
# methods it wraps on their classes. A refactor that moves one of them
# makes its layer read as absent.
TRACED_CLI_NAMES = (
    "read_events_csv",
    "read_correlations_csv",
    "_read_logic_masks",
    "EventFamily",
    "check_bell_like",
    "violated_01_valuations",
    "enumerate_01_valuations",
    "check_concrete_logic",
    "boolean_by_minima",
    "classify_embedding",
)


def test_the_traced_call_boundaries_stay_in_place():
    import numevents.embedding as embedding
    from numevents.correlations import CorrelationTable
    from numevents.logic import ConcreteLogic

    absent = [name for name in TRACED_CLI_NAMES if not callable(getattr(cli, name, None))]
    assert absent == []
    assert callable(getattr(embedding, "gfe_closure", None))
    # the tracer times a generator per step
    assert inspect.isgeneratorfunction(cli.enumerate_01_valuations)
    assert isinstance(vars(CorrelationTable).get("build"), classmethod)
    assert inspect.isfunction(vars(ConcreteLogic).get("__init__"))


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _bell_table(num_events):
    rows = [f"s1,{{{i}}},0.5" for i in range(1, num_events + 1)]
    return "state,subset,value\n" + "\n".join(rows) + "\n"


class NullStdout:
    """A stdout that keeps nothing."""

    def write(self, text):
        return len(text)


class RecordingStdout:
    """A stdout that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.fixture
def flat_table(tmp_path):
    # "\u00fc" has singletons 0.5 and joints 0, so every valuation that
    # selects three or four singletons sums past 1 there: 2**11 * 5 rows
    rows = ["state,subset,value"]
    for mask in range(1, 16):
        subset = format_subset(mask)
        flat = 0.5 if mask.bit_count() == 1 else 0.0
        rows += [f's1,"{subset}",0', f'\u00fc,"{subset}",{flat}']
    return _write(tmp_path / "flat.csv", "\n".join(rows) + "\n")


def test_flat_table_json_is_the_indent_encoders_text(flat_table, monkeypatch):
    stdout = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["--format", "json", "bell", flat_table, "--all-valuations"]) == 2
    out = "".join(stdout.writes)
    report = json.loads(out)
    assert out == json.dumps(report, indent=2) + "\n"
    assert report["violations"] == len(report["rows"]) == 10240
    assert {row["violating_state"] for row in report["rows"]} == {"\u00fc"}
    # written in groups of 64 KiB, each ending with at most one row more
    group = 1 << 16
    row = max(map(len, out.split("\n    {")))
    assert max(map(len, stdout.writes)) <= group + row
    assert len(stdout.writes) <= -(-len(out.encode()) // group) + 2


def test_emitting_the_flat_report_holds_no_copy_of_it(flat_table, monkeypatch):
    emit, reports = cli._emit, []
    monkeypatch.setattr(cli, "_emit", reports.append)
    assert main(["--format", "json", "bell", flat_table, "--all-valuations"]) == 2
    (report,) = reports
    monkeypatch.setattr(sys, "stdout", NullStdout())
    tracemalloc.start()
    try:
        emit(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole text is about 3.7 MB
    assert peak < 1 << 20


def test_the_flat_tables_rows_share_their_coefficient_floats(flat_table):
    rows = violated_01_valuations(read_correlations_csv(flat_table))
    coefficients = [v for r in rows for v in r.coefficients.values]
    assert len(rows) == 10240
    assert len(set(map(id, coefficients))) <= len(set(map(repr, coefficients)))


@pytest.fixture
def int_string_limit():
    """Set Python's digit limit for int-to-text conversion for one test."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


def _enumerate_args(n):
    return argparse.Namespace(n=n)


def test_listing_makes_no_decoder_call_and_the_lister_still_does(monkeypatch):
    import numevents.correlations as correlations
    import numevents.valuations as valuations

    calls, decode = [], valuations.valuation_01

    def spy(packed, n):
        calls.append(packed)
        return decode(packed, n)

    monkeypatch.setattr(valuations, "valuation_01", spy)
    monkeypatch.setattr(correlations, "valuation_01", spy)
    _code, _report, lines = cli._cmd_enumerate(_enumerate_args(4))
    assert sum(1 for _ in lines) == 1 + 32767
    assert calls == []
    rows = violated_01_valuations(read_correlations_csv(data("chsh3.csv")))
    assert calls == [int(row.label.removeprefix("g#")) for row in rows] != []


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_text_is_the_recurrence_oracles(n, capsys):
    rows = valuation_rows_01(n)
    expected = f"{len(rows)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)
    assert main(["enumerate", str(n)]) == 0
    assert capsys.readouterr() == (expected, "")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_prints_each_valuation_as_integers(n, monkeypatch):
    expected = f"{count_01_valuations(n)}\n" + "".join(
        " ".join(str(int(v)) for v in f.values) + "\n"
        for f in enumerate_01_valuations(n)
    )
    stdout = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["enumerate", str(n)]) == 0
    assert "".join(stdout.writes) == expected
    assert len(stdout.writes) <= -(-len(expected) // (1 << 16)) + 2


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

    def test_logic_value_beyond_the_float_range(self, tmp_path, capsys):
        logic = '{"states": ["s1"], "logic": [[0], [1%s]], "family": [0]}' % ("0" * 400)
        path = _write(tmp_path / "logic.json", logic)
        err = self.run_error(["boolean", path], capsys)
        assert err == "error: logic row 1: value at state s1 outside the float range\n"

    @pytest.mark.parametrize("n", [17, 10**6])
    def test_enumerate_above_the_cap(self, n, capsys):
        # rejected before the count 2**(2**n - 1) - 1 or any table is built
        err = self.run_error(["enumerate", str(n)], capsys)
        assert err == f"error: n must be at most 4, got {n}\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("n, digits", [(14, 4932), (16, 19729)])
    def test_enumerate_count_above_the_int_string_limit(
        self, n, digits, fmt, int_string_limit, capsys
    ):
        int_string_limit(0)
        assert len(str(count_01_valuations(n))) == digits
        # the cap rejects n before its count meets the digit limit
        int_string_limit(4300)
        err = self.run_error(["--format", fmt, "enumerate", str(n)], capsys)
        assert err == f"error: n must be at most 4, got {n}\n"

    @pytest.mark.parametrize(
        "text, reason",
        [
            (
                '{"states": ["s1"], "logic": [[0], [1%s]], "family": [0]}' % ("0" * 5000),
                "Exceeds the limit (4300 digits) for integer string conversion: value "
                "has 5001 digits; use sys.set_int_max_str_digits() to increase the limit",
            ),
            (
                "[" * 100_000 + "]" * 100_000,
                "maximum recursion depth exceeded while decoding a JSON array "
                "from a unicode string",
            ),
        ],
        ids=["5001-digit-integer", "100000-deep"],
    )
    def test_logic_json_that_json_cannot_parse(self, text, reason, tmp_path, capsys):
        path = _write(tmp_path / "logic.json", text)
        err = self.run_error(["boolean", path], capsys)
        assert err == f"error: invalid JSON: {reason}\n"

    def test_logic_json_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "logic.json"
        path.write_bytes(b'{"states": ["\xff"]}')
        err = self.run_error(["boolean", str(path)], capsys)
        assert err == (
            "error: 'utf-8' codec can't decode byte 0xff in position 13: "
            "invalid start byte\n"
        )

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


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "fmt, first", [("text", b"32767\n"), ("json", b"{\n")], ids=["text", "json"]
)
def test_a_reader_that_closes_the_pipe_ends_the_program_quietly(unbuffered, fmt, first):
    # the report is about 1.1 MB, far more than a pipe holds
    src = os.path.dirname(os.path.dirname(numevents.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    argv = [sys.executable, "-m", "numevents.cli", "--format", fmt, "enumerate", "4"]
    with subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (line, code, err) == (first, 141, b"")


class TestProgramEntry:
    """``python -m numevents.cli`` and the console script run ``cli._run``,
    which freezes the collector once the report is written; ``main()``
    leaves it as it found it."""

    @staticmethod
    def collector():
        return gc.isenabled(), gc.get_freeze_count()

    @pytest.mark.parametrize(
        "argv, code", [(["enumerate", "2"], 0), (["enumerate", "0"], 1)]
    )
    def test_main_leaves_the_collector_as_it_found_it(self, argv, code, capsys):
        before = self.collector()
        assert main(argv) == code
        assert self.collector() == before
        capsys.readouterr()

    def test_a_usage_error_leaves_the_collector_as_it_found_it(self, capsys):
        before = self.collector()
        with pytest.raises(SystemExit) as info:
            main(["enumerate"])
        assert info.value.code == 2
        assert self.collector() == before
        capsys.readouterr()

    def test_the_entry_freezes_after_the_report(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["numevents", "enumerate", "2"])
        before = gc.get_freeze_count()
        try:
            assert cli._run() == 0
            assert gc.get_freeze_count() > before
        finally:
            gc.unfreeze()
        assert capsys.readouterr().out == golden("enumerate_2.txt")

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--format", "json", "bell", "{flat}", "--all-valuations"], 2),
            (["enumerate", "4"], 0),
        ],
    )
    def test_the_program_prints_what_main_prints(
        self, argv, code, flat_table, monkeypatch
    ):
        argv = [a.replace("{flat}", flat_table) for a in argv]
        src = os.path.dirname(os.path.dirname(numevents.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "numevents.cli", *argv], env=env, capture_output=True
        )
        stdout = RecordingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == code
        assert (done.returncode, done.stderr) == (code, b"")
        assert done.stdout == "".join(stdout.writes).encode()

    def test_the_console_script_runs_the_entry(self):
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["numevents"]
        module, _, name = target.partition(":")
        assert module == "numevents.cli"
        assert getattr(cli, name, None) is cli._run
