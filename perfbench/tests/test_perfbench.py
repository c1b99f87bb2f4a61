"""Tests of the benchmark's own arithmetic, generator and checks.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import filecmp
import json
import os
import shutil
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import stats  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", list(gen.GENERATORS))
def test_generator_is_deterministic_per_seed(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "inputs"
    gen.generate(workload, 5, str(out))
    shutil.copytree(out, tmp_path / "first")
    shutil.rmtree(out)
    gen.generate(workload, 5, str(out))
    names = sorted(os.listdir(out))
    assert names == sorted(os.listdir(tmp_path / "first"))
    match, mismatch, errors = filecmp.cmpfiles(out, tmp_path / "first", names, shallow=False)
    assert (mismatch, errors) == ([], [])


@pytest.mark.parametrize("workload", ["bell_all", "logic_closure"])
def test_generator_inputs_depend_on_the_seed(workload, tmp_path):
    first = gen.generate(workload, 5, str(tmp_path / "a"))
    second = gen.generate(workload, 6, str(tmp_path / "b"))
    assert [i["sha256"] for i in first["inputs"]] != [i["sha256"] for i in second["inputs"]]


def test_logic_closure_expectations_follow_the_construction(tmp_path):
    manifest = gen.generate("logic_closure", 5, str(tmp_path))
    expects = [c["expect"] for c in manifest["calls"]]
    assert expects[0]["container"] == "GFE_CLOSURE(3432)"
    assert [e["format"] for e in expects[1:]] == ["text", "json", "text", "json"]
    assert expects[1]["missing"] == expects[2]["missing"] is not None
    assert expects[3]["missing"] is expects[4]["missing"] is None
    assert len(gen.balanced_masks(list(range(14)))) == 3432


def test_minima_verdict_reports_the_first_missing_meet():
    logic = {0b0000, 0b0011, 0b0110, 0b1100, 0b1111, 0b1001}
    assert gen.minima_verdict([0b0011, 0b0110], logic, 4) == [1, 2]
    assert gen.minima_verdict([0b0011, 0b1100], logic, 4) is None


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    assert stats.tail(values) == (90.0, 90.0, 10)
    value, percentile, beyond = stats.tail([float(v) for v in range(1, 12)])
    assert (value, beyond) == (1.0, 10)
    assert percentile == pytest.approx(100 / 11)


def test_tail_falls_back_to_the_maximum_below_eleven_samples():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert stats.tail([float(v) for v in range(10)]) == (9.0, 100.0, 0)
    with pytest.raises(ValueError):
        stats.tail([])


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        (0, 100, -1),  # root
        (10, 30, 0),  # overlaps its sibling from 25 to 30
        (25, 50, 0),
        (12, 20, 1),  # grandchild: only its parent loses this time
        (90, 120, 0),  # runs past the root's end
    ]
    assert stats.self_times(spans) == [100 - 40 - 10, 20 - 8, 25, 8, 30]


def test_tracer_times_each_generator_step_apart_from_the_caller():
    tracer = Tracer()

    def steps():
        yield 1
        yield 2

    traced = tracer.wrap(steps, "gen", ("gen.count", None))
    outer = tracer.wrap(lambda: [x for x in traced()], "outer")
    assert outer() == [1, 2]
    assert [tracer.names[s[0]] for s in tracer.spans] == ["outer", "gen", "gen", "gen"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 0]
    assert tracer.counts == {"gen.count": 2}
    assert all(s[1] <= s[2] for s in tracer.spans)


def test_enumerate_oracle_matches_the_golden_file():
    with open(os.path.join(ROOT, "tests", "golden", "enumerate_2.txt"), "rb") as fh:
        assert checks.enumerate_text(2) == fh.read()


def test_flat_profile_check_expects_10240_rows():
    assert checks._bell_flat({"n": 4, "first_flat_state": "s1"}, 2, b"{}").startswith(
        "unreadable"
    )
    report = {"n": 4, "mode": "all-valuations", "checked": 32767, "violations": 10240,
              "verdict": "violated", "rows": []}
    assert "10240" in checks._bell_flat(
        {"n": 4, "first_flat_state": "s1"}, 2, json.dumps(report).encode()
    )

