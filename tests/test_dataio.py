import io
import itertools
import json
import os
import tempfile

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from numevents import (
    CorrelationTable,
    DataFormatError,
    Event,
    NumericalEventError,
    StateSpace,
    approx_equal,
    correlations_csv_text,
    dataio,
    events_csv_text,
    read_correlations_csv,
    read_events_csv,
    read_logic_json,
    write_correlations_csv,
    write_events_csv,
    write_logic_json,
)
from conftest import DATA_DIR
from helpers import space

SUBSET_HEADER = "state,subset,value\n"

# A failing write/read property reports its first counterexample instead
# of spending about a minute shrinking float tuples and mask sets.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)

# characters json escapes: a quote, a backslash, a control character and
# non-ASCII ones, one outside the Basic Multilingual Plane
LABEL_CHARS = st.sampled_from('ab"\\\x07\u00e9\u2603\U0001f600 ')

# one strategy per JSON scalar type
SCALAR_KINDS = (
    st.none(),
    st.booleans(),
    st.integers() | st.sampled_from([2**64, -(2**70) - 1]),
    st.floats()
    | st.sampled_from([-0.0, 1e-05, 1e16, float("nan"), float("inf"), float("-inf")]),
    st.text() | st.text(LABEL_CHARS),
)
SCALARS = st.one_of(SCALAR_KINDS)

JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(st.text(LABEL_CHARS) | st.text(), children),
    ),
    max_leaves=40,
)


def data(name):
    return os.path.join(DATA_DIR, name)


class TestEventsCsv:
    def test_read_keeps_file_order(self):
        family, names = read_events_csv(data("polarizer.csv"))
        assert names == ("p1", "p2")
        assert family.space.labels == ("s1", "s2")
        assert family.events[0].values == (0.3, 0.7)
        assert family.events[1].values == (0.6, 0.4)

    def test_blank_line_skipped(self):
        text = "state,event,value\ns1,p1,0.3\ns2,p1,0.7\ns1,p2,0.6\ns2,p2,0.4\n"
        blank = text.replace("s2,p1", "\ns2,p1")
        assert read_events_csv(io.StringIO(blank)) == read_events_csv(io.StringIO(text))

    def test_write_needs_one_name_per_event(self):
        family, _names = read_events_csv(data("polarizer.csv"))
        with pytest.raises(ValueError) as err:
            write_events_csv(family, ("p1",), io.StringIO())
        assert str(err.value) == "one name per event required"

    def test_write_read_write_is_stable(self):
        family, names = read_events_csv(data("polarizer.csv"))
        text = events_csv_text(family.events, names)
        with open(data("polarizer.csv"), encoding="utf-8") as fh:
            assert text == fh.read()

    def test_roundtrip_through_a_buffer(self):
        sp = space(3)
        events = [Event((0.125, 0.25, 1.0), sp), Event((0.0, 0.5, 0.625), sp)]
        buffer = io.StringIO(events_csv_text(events, ["alpha", "beta"]))
        family, names = read_events_csv(buffer)
        assert names == ("alpha", "beta")
        assert [e.values for e in family] == [e.values for e in events]

    def test_bad_number_reports_its_line(self):
        with pytest.raises(DataFormatError) as err:
            read_events_csv(data("malformed.csv"))
        assert "line 3" in str(err.value)

    def test_wrong_header_rejected(self):
        buffer = io.StringIO("state,name,value\ns1,p1,0.5\n")
        with pytest.raises(DataFormatError) as err:
            read_events_csv(buffer)
        assert "line 1" in str(err.value)

    def test_wrong_column_count_rejected(self):
        buffer = io.StringIO("state,event,value\ns1,p1\n")
        with pytest.raises(DataFormatError) as err:
            read_events_csv(buffer)
        assert "line 2" in str(err.value)

    def test_duplicate_cell_rejected(self):
        buffer = io.StringIO(
            "state,event,value\ns1,p1,0.5\ns1,p1,0.6\n"
        )
        with pytest.raises(DataFormatError) as err:
            read_events_csv(buffer)
        assert str(err.value) == "line 3: duplicate row for event 'p1', state 's1'"

    def test_missing_cell_rejected(self):
        buffer = io.StringIO(
            "state,event,value\ns1,p1,0.5\ns2,p1,0.6\ns1,p2,0.4\n"
        )
        with pytest.raises(DataFormatError) as err:
            read_events_csv(buffer)
        assert "missing value" in str(err.value)

    def test_out_of_range_value_names_the_event(self):
        buffer = io.StringIO("state,event,value\ns1,p1,1.5\n")
        with pytest.raises(DataFormatError) as err:
            read_events_csv(buffer)
        assert "'p1'" in str(err.value)

    def test_empty_file_rejected(self):
        with pytest.raises(DataFormatError):
            read_events_csv(io.StringIO(""))

    def test_header_only_rejected(self):
        with pytest.raises(DataFormatError):
            read_events_csv(io.StringIO("state,event,value\n"))

    @pytest.mark.parametrize(
        "states,names,message",
        [
            ((" a", "b"), ("n",), "state ' a' has surrounding whitespace"),
            (("a", "b"), ("n\t",), "event name 'n\\t' has surrounding whitespace"),
            (("a\rb",), ("n",), "state 'a\\rb' has a carriage return"),
            (("a",), ("n", "n"), "event names must be unique"),
        ],
    )
    def test_labels_that_do_not_read_back_are_refused(self, tmp_path, states, names, message):
        sp = StateSpace(states)
        events = [Event((i / 4,) * sp.size, sp) for i in range(len(names))]
        path = tmp_path / "events.csv"
        with pytest.raises(ValueError) as err:
            write_events_csv(events, names, str(path))
        assert str(err.value).startswith(message)
        assert not path.exists()

    @settings(max_examples=200, phases=NO_SHRINK)
    @given(picks=st.data())
    def test_written_files_read_back(self, picks):
        num_states = picks.draw(st.integers(1, 4), label="states")
        states = picks.draw(
            st.lists(st.text(max_size=4), min_size=num_states, max_size=num_states, unique=True),
            label="state labels",
        )
        names = picks.draw(st.lists(st.text(max_size=4), max_size=4), label="names")
        sp = StateSpace(tuple(states))
        events = [
            Event(picks.draw(st.tuples(*[st.floats(0.0, 1.0)] * num_states)), sp)
            for _ in names
        ]
        refused = (
            not events
            or len(set(names)) < len(names)
            or any(x != x.strip() or "\r" in x for x in states + names)
            or any(approx_equal(p, q) for p, q in itertools.combinations(events, 2))
        )
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "events.csv")
            if refused:
                with pytest.raises((ValueError, NumericalEventError)):
                    write_events_csv(events, names, path)
                assert not os.path.exists(path)
                return
            write_events_csv(events, names, path)
            family, back = read_events_csv(path)
        assert back == tuple(names)
        assert family.space.labels == sp.labels
        assert [e.values for e in family] == [e.values for e in events]


class TestCorrelationsCsv:
    def test_read_infers_n_from_the_largest_index(self):
        table = read_correlations_csv(data("chsh3.csv"))
        assert table.n == 3
        assert table.event(0b001).values == (0.5,)
        assert table.event(0b111).values == (0.0,)

    def test_write_read_write_is_stable(self):
        table = read_correlations_csv(data("boolean_n4.csv"))
        text = correlations_csv_text(table)
        with open(data("boolean_n4.csv"), encoding="utf-8") as fh:
            assert text == fh.read()

    def test_compact_subset_form_is_accepted(self):
        compact = read_correlations_csv(data("compact_subsets.csv"))
        braced = read_correlations_csv(data("pairs_n2.csv"))
        assert compact.n == braced.n == 2
        for mask in (1, 2, 3):
            assert compact.event(mask).values == braced.event(mask).values

    def test_writer_always_emits_braced_commas(self):
        table = read_correlations_csv(data("compact_subsets.csv"))
        text = correlations_csv_text(table)
        assert '"{1,2}"' in text
        assert "{12}" not in text

    def test_sparse_tables_keep_missing_masks(self):
        buffer = io.StringIO(
            "state,subset,value\ns1,{1},0.5\ns1,{2},0.5\n"
        )
        table = read_correlations_csv(buffer)
        assert table.missing_masks() == (3,)

    def test_header_only_rejected(self):
        with pytest.raises(DataFormatError, match="no data rows"):
            read_correlations_csv(io.StringIO("state,subset,value\n"))

    @pytest.mark.parametrize("label", [" a", "a ", "a\rb"])
    def test_state_labels_that_do_not_read_back_are_refused(self, tmp_path, label):
        sp = StateSpace(("s1", label))
        table = CorrelationTable.build(sp, 1, {1: Event((0.5, 0.25), sp)})
        path = tmp_path / "table.csv"
        with pytest.raises(ValueError) as err:
            write_correlations_csv(table, str(path))
        assert str(err.value).startswith(f"state {label!r} has ")
        assert not path.exists()

    def test_duplicate_subset_and_state_rejected(self):
        text = SUBSET_HEADER + 's1,{1},0.5\ns1,{2},0.5\ns1,"{1}",0.4\n'
        with pytest.raises(DataFormatError) as err:
            read_correlations_csv(io.StringIO(text))
        assert str(err.value) == "line 4: duplicate row for subset {1}, state 's1'"

    def test_out_of_range_value_names_its_subset(self):
        text = SUBSET_HEADER + 's1,{1},0.5\ns1,{2},0.5\ns1,"{1,2}",-0.5\n'
        with pytest.raises(DataFormatError) as err:
            read_correlations_csv(io.StringIO(text))
        assert str(err.value) == (
            "subset {1,2}: value -0.5 at state s1 outside [0, 1]"
        )

    def test_comma_free_subsets_are_single_indices_beyond_nine(self):
        rows = [f"s1,{{{i}}},0.5" for i in range(1, 13)] + ['s1,"{1,2}",0.25']
        table = read_correlations_csv(io.StringIO(SUBSET_HEADER + "\n".join(rows)))
        assert table.n == 12
        assert table.event(1 << 11).values == (0.5,)
        assert table.event(0b11).values == (0.25,)
        assert table.missing_masks()[:2] == (0b101, 0b110)

    @pytest.mark.parametrize("n", range(1, 17))
    @settings(max_examples=10, phases=NO_SHRINK)
    @given(picks=st.data())
    def test_sparse_tables_read_back_for_every_n(self, n, picks):
        num_states = picks.draw(st.integers(1, 2), label="states")
        sp = space(num_states)
        base = picks.draw(
            st.lists(
                st.tuples(*[st.floats(0.0, 1.0)] * num_states),
                min_size=n,
                max_size=n,
            ),
            label="singletons",
        )
        joints = picks.draw(
            st.sets(st.integers(1, (1 << n) - 1), max_size=8), label="joints"
        )
        masks = joints | {1 << i for i in range(n)}
        # p_I = min over i in I of p_i keeps every joint below its marginals
        entries = {
            mask: Event(
                tuple(
                    min(base[i][k] for i in range(n) if mask >> i & 1)
                    for k in range(num_states)
                ),
                sp,
            )
            for mask in masks
        }
        table = CorrelationTable.build(sp, n, entries)
        back = read_correlations_csv(io.StringIO(correlations_csv_text(table)))
        assert back.n == n
        assert back.space.labels == sp.labels
        assert {m: e.values for m, e in back.entries.items()} == {
            m: e.values for m, e in entries.items()
        }

    def test_unsorted_subset_rejected(self):
        buffer = io.StringIO('state,subset,value\ns1,{1},0.5\ns1,"{2,1}",0.4\n')
        with pytest.raises(DataFormatError) as err:
            read_correlations_csv(buffer)
        assert str(err.value) == (
            "line 3, column 'subset': indices must be sorted and distinct in '{2,1}'"
        )

    def test_repeated_subset_index_rejected(self):
        buffer = io.StringIO('state,subset,value\ns1,{1},0.5\ns1,"{1,1}",0.4\n')
        with pytest.raises(DataFormatError) as err:
            read_correlations_csv(buffer)
        assert str(err.value) == (
            "line 3, column 'subset': indices must be sorted and distinct in '{1,1}'"
        )

    def test_malformed_subset_rejected(self):
        for cell in ("{}", "1,2", "{1,}", "{a}", "{\u00b2}"):
            buffer = io.StringIO(
                "state,subset,value\ns1,{1},0.5\n" + f's1,"{cell}",0.4\n'
            )
            with pytest.raises(DataFormatError):
                read_correlations_csv(buffer)

    def test_subset_missing_a_state_rejected(self):
        buffer = io.StringIO(
            "state,subset,value\n"
            "s1,{1},0.5\ns2,{1},0.5\n"
            "s1,{2},0.4\n"
        )
        with pytest.raises(DataFormatError) as err:
            read_correlations_csv(buffer)
        assert str(err.value) == "missing value for state 's2', subset {2}"

    def test_monotonicity_still_enforced_at_read_time(self):
        buffer = io.StringIO(
            "state,subset,value\n"
            "s1,{1},0.2\ns1,{2},0.3\n"
            's1,"{1,2}",0.4\n'
        )
        from numevents import MonotonicityError

        with pytest.raises(MonotonicityError):
            read_correlations_csv(buffer)

    def test_roundtrip_of_a_generated_fixture(self):
        from numevents import gen_boolean_algebra

        algebra = gen_boolean_algebra(k=4, num_states=3, seed=9)
        table = algebra.correlation_table((0b0011, 0b0110, 0b1100))
        text = correlations_csv_text(table)
        back = read_correlations_csv(io.StringIO(text))
        assert back.n == table.n
        for mask in range(1, 8):
            assert back.event(mask).values == table.event(mask).values


@pytest.mark.parametrize(
    "reader, text, message",
    [
        (
            read_events_csv,
            "state,event,value\ns1,p1,0.5\ns1,p1,0.6\ns2,p1,0.5\ns2,p2,x\n",
            "line 3: duplicate row for event 'p1', state 's1'",
        ),
        (
            read_correlations_csv,
            SUBSET_HEADER + "s1,{1},0.5\ns1,{1},0.4\ns1,{2},0.5\ns1,{3},x\n",
            "line 3: duplicate row for subset {1}, state 's1'",
        ),
        (
            read_correlations_csv,
            SUBSET_HEADER + "s1,{1},0.5\ns1,{1},0.4\ns1,{2},0.5\ns1,{a},0.5\n",
            "line 3: duplicate row for subset {1}, state 's1'",
        ),
    ],
    ids=["events-value", "correlations-value", "correlations-subset"],
)
def test_readers_report_the_first_offending_line(reader, text, message):
    """A repeated row on line 3 is reported before a bad cell on line 5."""
    with pytest.raises(DataFormatError) as err:
        reader(io.StringIO(text))
    assert str(err.value) == message


class TestLogicJson:
    def test_read_even_logic(self):
        sp, events, family = read_logic_json(data("even_logic.json"))
        assert sp.labels == ("s1", "s2", "s3", "s4")
        assert len(events) == 8
        assert family == (1, 2)
        assert events[1].values == (1.0, 1.0, 0.0, 0.0)

    def test_write_read_write_is_stable(self):
        sp, events, family = read_logic_json(data("power_logic.json"))
        buffer = io.StringIO()
        write_logic_json(sp, events, family, buffer)
        with open(data("power_logic.json"), encoding="utf-8") as fh:
            assert buffer.getvalue() == fh.read()

    def test_family_index_out_of_range_rejected(self):
        payload = {"states": ["s1"], "logic": [[0], [1]], "family": [2]}
        with pytest.raises(DataFormatError):
            read_logic_json(io.StringIO(json.dumps(payload)))

    def test_row_length_must_match_states(self):
        payload = {"states": ["s1", "s2"], "logic": [[0]], "family": [0]}
        with pytest.raises(DataFormatError):
            read_logic_json(io.StringIO(json.dumps(payload)))

    def test_non_numeric_row_rejected(self):
        payload = {"states": ["s1"], "logic": [["x"]], "family": [0]}
        with pytest.raises(DataFormatError):
            read_logic_json(io.StringIO(json.dumps(payload)))

    def test_boolean_row_values_rejected(self):
        payload = {"states": ["s1"], "logic": [[True]], "family": [0]}
        with pytest.raises(DataFormatError):
            read_logic_json(io.StringIO(json.dumps(payload)))

    def test_missing_key_rejected(self):
        payload = {"states": ["s1"], "logic": [[0]]}
        with pytest.raises(DataFormatError):
            read_logic_json(io.StringIO(json.dumps(payload)))

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([["s1"]], "top level must be an object"),
            (
                {"states": [], "logic": [[0]], "family": [0]},
                "'states' must be a non-empty list of strings",
            ),
            (
                {"states": ["s1", 2], "logic": [[0, 0]], "family": [0]},
                "'states' must be a non-empty list of strings",
            ),
            (
                {"states": ["s1"], "logic": [], "family": [0]},
                "'logic' must be a non-empty list of value rows",
            ),
            (
                {"states": ["s1"], "logic": {"0": [0]}, "family": [0]},
                "'logic' must be a non-empty list of value rows",
            ),
            (
                {"states": ["s1"], "logic": [[0], [1.5]], "family": [0]},
                "logic row 1: value 1.5 at state s1 outside [0, 1]",
            ),
            (
                {"states": ["s1", "s2"], "logic": [[0, 0], [1, -(10**400)]], "family": [0]},
                "logic row 1: integer value outside the float range",
            ),
            (
                {"states": ["s1"], "logic": [[0], [1]], "family": [1.0]},
                "'family' must be a list of integers",
            ),
            (
                {"states": ["s1"], "logic": [[0], [1]], "family": [True]},
                "'family' must be a list of integers",
            ),
        ],
        ids=[
            "top-level-list",
            "no-states",
            "non-string-state",
            "no-logic",
            "logic-object",
            "member-value-out-of-range",
            "member-value-beyond-float",
            "float-family",
            "bool-family",
        ],
    )
    def test_malformed_payload_rejected(self, payload, message):
        with pytest.raises(DataFormatError) as err:
            read_logic_json(io.StringIO(json.dumps(payload)))
        assert str(err.value) == message

    def test_fractional_members_are_readable(self):
        # axiom checking happens later; the file format itself allows any
        # values in [0, 1]
        payload = {"states": ["s1"], "logic": [[0], [1], [0.5]], "family": [0]}
        sp, events, family = read_logic_json(io.StringIO(json.dumps(payload)))
        assert events[2].values == (0.5,)

    @settings(max_examples=40, phases=NO_SHRINK)
    @given(picks=st.data())
    def test_written_logic_reads_back(self, picks):
        labels = picks.draw(
            st.lists(
                st.text(LABEL_CHARS, min_size=1), min_size=1, max_size=4, unique=True
            ),
            label="states",
        )
        member = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
        rows = picks.draw(
            st.lists(
                st.tuples(*[member] * len(labels)), min_size=1, max_size=6
            ),
            label="logic",
        )
        family = picks.draw(
            st.lists(st.integers(0, len(rows) - 1), max_size=4), label="family"
        )
        sp = StateSpace(tuple(labels))
        buffer = io.StringIO()
        write_logic_json(sp, [Event(row, sp) for row in rows], family, buffer)
        payload = {
            "states": labels,
            "logic": [[int(v) if v in (0.0, 1.0) else v for v in row] for row in rows],
            "family": family,
        }
        assert buffer.getvalue() == json.dumps(payload, indent=2) + "\n"
        buffer.seek(0)
        back_space, back_events, back_family = read_logic_json(buffer)
        assert back_space.labels == tuple(labels)
        assert [e.values for e in back_events] == rows
        assert back_family == tuple(family)


class TestJsonText:
    """``dataio._json_text`` against the encoder it replaces."""

    @settings(max_examples=200)
    @given(value=JSON_VALUES)
    def test_matches_json_dumps_with_indent(self, value):
        expected = json.dumps(value, indent=2)
        assert dataio._json_text(value) == expected
        assert "".join(dataio._json_chunks(value)) == expected

    @given(values=st.one_of([st.lists(kind) for kind in SCALAR_KINDS]))
    def test_matches_json_dumps_on_lists_of_one_type(self, values):
        for value in (values, {"rows": [values, values], "empty": []}):
            expected = json.dumps(value, indent=2)
            assert dataio._json_text(value) == expected
            assert "".join(dataio._json_chunks(value)) == expected

    @given(values=st.lists(JSON_VALUES, max_size=8))
    def test_an_iterator_renders_as_the_list_of_its_items(self, values):
        assert "".join(dataio._json_chunks({"k": iter(values)})) == json.dumps(
            {"k": values}, indent=2
        )
        rows = (value for value in values)
        assert "".join(dataio._json_chunks(rows)) == json.dumps(values, indent=2)

    def test_subclasses_render_as_json_renders_them(self):
        class Label(str):
            pass

        class Count(int):
            def __repr__(self):
                return "Count()"

        class Mass(float):
            def __repr__(self):
                return "Mass()"

        value = [Label("x"), Count(3), Mass(0.5), [Mass(0.25)], {"k": Count(1)}]
        assert dataio._json_text(value) == json.dumps(value, indent=2)

    def test_unsupported_values_raise_type_error(self):
        with pytest.raises(TypeError):
            dataio._json_text({"k": {1, 2}})


def _events_case():
    family, names = read_events_csv(data("polarizer.csv"))
    return (
        lambda target: write_events_csv(family.events, names, target),
        read_events_csv,
        ([e.values for e in family], names),
        lambda back: ([e.values for e in back[0]], back[1]),
    )


def _correlations_case():
    table = read_correlations_csv(data("chsh3.csv"))
    return (
        lambda target: write_correlations_csv(table, target),
        read_correlations_csv,
        (table.n, {m: e.values for m, e in table.entries.items()}),
        lambda back: (back.n, {m: e.values for m, e in back.entries.items()}),
    )


def _logic_case():
    sp, events, family = read_logic_json(data("power_logic.json"))
    return (
        lambda target: write_logic_json(sp, events, family, target),
        read_logic_json,
        (sp.labels, [e.values for e in events], family),
        lambda back: (back[0].labels, [e.values for e in back[1]], back[2]),
    )


WRITER_CASES = {
    "events": _events_case,
    "correlations": _correlations_case,
    "logic": _logic_case,
}


@pytest.fixture
def opened_files(monkeypatch):
    """Every file ``numevents.dataio`` opens during the test."""
    files = []

    def tracking_open(*args, **kwargs):
        files.append(open(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(dataio, "open", tracking_open, raising=False)
    return files


class TestWritingThroughAPath:
    @pytest.mark.parametrize("as_text", [False, True], ids=["Path", "str"])
    @pytest.mark.parametrize("case", sorted(WRITER_CASES))
    def test_file_matches_the_stream_and_reads_back(
        self, case, as_text, tmp_path, opened_files
    ):
        write, read, expected, view = WRITER_CASES[case]()
        buffer = io.StringIO()
        write(buffer)
        path = tmp_path / f"{case}.out"
        target = str(path) if as_text else path
        write(target)
        assert path.read_bytes() == buffer.getvalue().encode("utf-8")
        assert view(read(target)) == expected
        assert opened_files and all(fh.closed for fh in opened_files)

    @pytest.mark.parametrize("case", sorted(WRITER_CASES))
    def test_a_callers_stream_stays_open(self, case):
        write, read, expected, view = WRITER_CASES[case]()
        buffer = io.StringIO()
        write(buffer)
        assert not buffer.closed
        buffer.seek(0)
        assert view(read(buffer)) == expected
        assert not buffer.closed
