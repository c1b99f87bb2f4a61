"""CSV and JSON ingestion and export for event data.

Three file shapes exist:

* events CSV with header ``state,event,value``, one row per state/event
  pair; the long form tolerates any row order but the matrix must be
  complete.
* correlation CSV with header ``state,subset,value`` where subset names
  a non-empty index set such as ``{1,3}``. Comma-free subsets are read
  as compact digits (``{13}`` is {1,3}) when all of them in the file are
  distinct ascending digits 1-9, else as one index (``{13}`` is {13}).
* concrete-logic JSON ``{"states": [...], "logic": [[0,1,...], ...],
  "family": [indices]}`` with 0-based indices into the logic list.
  ``read_logic_json`` makes each row an Event. The CLI's reader,
  ``_read_logic_masks``, makes each row one int mask when every row of
  the file is exactly 0 or 1, and reads any other file as
  ``read_logic_json`` does, with the same messages.

Parsers report the first offending line; writers emit rows in a fixed
order so identical data serializes identically.
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from .events import (
    Event,
    EventFamily,
    NumericalEventError,
    StateSpace,
)
from .correlations import CorrelationTable
from .valuations import MAX_N, format_subset, mask_from_indices

# json's own string encoder, taken from its C accelerator so that only
# reading a logic file, which parses JSON, imports json
try:
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter built without _json
    from json.encoder import encode_basestring_ascii

__all__ = [
    "DataFormatError",
    "read_events_csv",
    "write_events_csv",
    "read_correlations_csv",
    "write_correlations_csv",
    "read_logic_json",
    "write_logic_json",
    "events_csv_text",
    "correlations_csv_text",
]


class DataFormatError(NumericalEventError):
    """A file does not match its documented schema."""


@contextmanager
def _opened(source, mode: str) -> Iterator[IO[str]]:
    """A path opened as UTF-8 without newline translation and closed on
    exit, or the caller's stream as given, left open."""
    if isinstance(source, (str, Path)):
        with open(source, mode, newline="", encoding="utf-8") as stream:
            yield stream
    else:
        yield source


def _read_rows(source, expected_header: tuple[str, ...]):
    import csv

    with _opened(source, "r") as stream:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError("line 1: empty file") from None
        if tuple(h.strip() for h in header) != expected_header:
            raise DataFormatError(
                f"line 1: expected header '{','.join(expected_header)}'"
            )
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(expected_header):
                raise DataFormatError(
                    f"line {reader.line_num}: expected {len(expected_header)} "
                    f"columns, got {len(row)}"
                )
            rows.append((reader.line_num, tuple(cell.strip() for cell in row)))
    if not rows:
        raise DataFormatError("no data rows")
    return rows


def _float_text(x: float) -> str:
    if x - x == 0.0:  # false only for nan and the infinities
        return float.__repr__(x)
    if x != x:
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


# How json spells a value of each exact scalar type. A list whose items
# all share one of these types is rendered by one str.join over a map.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _shared_scalar(items) -> type | None:
    """The scalar type every item has, or None if there is no such type."""
    kinds = set(map(type, items))
    kind = kinds.pop() if len(kinds) == 1 else None
    return kind if kind in _SCALAR_TEXT else None


def _json_text(value, newline: str = "\n") -> str:
    """Exactly ``json.dumps(value, indent=2)`` for dicts with str keys,
    lists, tuples, str, int, bool, None and float.

    With an indent, CPython's json falls back to its pure-Python encoder;
    this renders the same bytes from C-level pieces. ``newline`` is a
    line break followed by the indent of the enclosing level.
    """
    render = _SCALAR_TEXT.get(type(value))
    if render is not None:
        return render(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            encode_basestring_ascii(key) + ": " + _json_text(item, inner)
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        separator = "," + inner
        kind = _shared_scalar(value)
        if kind is float:
            text = separator.join(map(float.__repr__, value))
            if "n" in text:  # nan or inf, which json spells differently
                text = separator.join(map(_float_text, value))
        elif kind is not None:
            text = separator.join(map(_SCALAR_TEXT[kind], value))
        else:
            text = separator.join([_json_text(item, inner) for item in value])
        return "[" + inner + text + newline + "]"
    # subclasses of the scalar types, rendered as json renders them
    for kind in (str, int, float):
        if isinstance(value, kind):
            return _SCALAR_TEXT[kind](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_chunks(value, newline: str = "\n") -> Iterator[str]:
    """The text of ``_json_text(value)`` in pieces, so that a writer never
    holds the whole document: a non-empty dict item by item, anything
    else as one piece. The whole value or a dict item may also be an
    iterator, such as a generator of report rows: it is rendered as the
    list of its items would be, one item per piece, and none of them is
    kept."""
    inner = newline + "  "
    if isinstance(value, dict) and value:
        separator = "{" + inner
        for key, item in value.items():
            yield separator + encode_basestring_ascii(key) + ": "
            yield from _json_chunks(item, inner)
            separator = "," + inner
        yield newline + "}"
    elif isinstance(value, Iterator):
        separator = "[" + inner
        for item in value:
            yield separator + _json_text(item, inner)
            separator = "," + inner
        # only an empty iterator gets here with no item written
        yield "[]" if separator[0] == "[" else newline + "]"
    else:
        yield _json_text(value, newline)


def _check_labels(kind: str, labels: Iterable[str]) -> None:
    """Reject a label the readers would not give back: _read_rows strips
    every cell, and csv quotes a field holding a line feed but not one
    holding only a carriage return, which then ends the row early."""
    for label in labels:
        if label != label.strip():
            problem = "surrounding whitespace"
        elif "\r" in label:
            problem = "a carriage return"
        else:
            continue
        raise ValueError(f"{kind} {label!r} has {problem}, which does not read back")


def _parse_value(text: str, line_num: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataFormatError(
            f"line {line_num}, column 'value': not a number: {text!r}"
        ) from None


def _columns(rows, parse_key, describe) -> tuple[StateSpace, dict]:
    """The long-form rows ``(line, (state, key, value))`` as one Event per
    key, in one pass: keys and states follow first appearance, a repeated
    (key, state) pair is rejected at its line, and every key needs a value
    at every state. ``parse_key(text, line)`` reads a key cell, and
    ``describe(key)`` names the key in messages."""
    states: dict[str, None] = {}
    columns: dict = {}
    for line_num, (state, text, raw) in rows:
        key = parse_key(text, line_num)
        value = _parse_value(raw, line_num)
        states[state] = None
        column = columns.setdefault(key, {})
        if state in column:
            raise DataFormatError(
                f"line {line_num}: duplicate row for {describe(key)}, state {state!r}"
            )
        column[state] = value
    space = StateSpace(tuple(states))
    events = {}
    for key, column in columns.items():
        try:
            events[key] = Event(tuple(map(column.__getitem__, space.labels)), space)
        except KeyError as exc:
            raise DataFormatError(
                f"missing value for state {exc.args[0]!r}, {describe(key)}"
            ) from None
        except NumericalEventError as exc:
            raise DataFormatError(f"{describe(key)}: {exc}") from exc
    return space, events


def read_events_csv(source) -> tuple[EventFamily, tuple[str, ...]]:
    """Parse an events CSV; returns the family and the event names.

    State and event order follow first appearance in the file.
    """
    _, events = _columns(
        _read_rows(source, ("state", "event", "value")),
        lambda name, _: name,
        lambda name: f"event {name!r}",
    )
    return EventFamily(tuple(events.values())), tuple(events)


def write_events_csv(
    events: Iterable[Event], names: Sequence[str], target
) -> None:
    import csv

    items = list(events)
    if len(items) != len(names):
        raise ValueError("one name per event required")
    # what read_events_csv returns, so it raises here what the reader would
    family = EventFamily(tuple(items))
    if len(set(names)) != len(names):
        raise ValueError("event names must be unique")
    _check_labels("state", family.space.labels)
    _check_labels("event name", names)
    with _opened(target, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(("state", "event", "value"))
        for event, name in zip(items, names):
            for label, value in zip(event.space.labels, event.values):
                writer.writerow((label, name, repr(value)))


def _is_compact(text: str) -> bool:
    """True if the text inside the braces is distinct ascending digits 1-9."""
    inner = text.strip()[1:-1]
    return set(inner) <= set("123456789") and inner == "".join(sorted(set(inner)))


def _parse_subset(text: str, line_num: int, compact: bool) -> tuple[int, ...]:
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")) or len(body) < 3:
        raise DataFormatError(
            f"line {line_num}, column 'subset': expected '{{1,3}}' form, got {text!r}"
        )
    inner = body[1:-1]
    parts = list(inner) if compact and "," not in inner else inner.split(",")
    indices = []
    for part in parts:
        part = part.strip()
        digits = part.lstrip("0")
        if not (part.isascii() and part.isdigit()) or not digits:
            raise DataFormatError(
                f"line {line_num}, column 'subset': bad index {part!r} in {text!r}"
            )
        # checked before int(), so a long digit run builds no large int
        if len(digits) > len(str(MAX_N)) or int(digits) > MAX_N:
            raise DataFormatError(
                f"line {line_num}, column 'subset': index {part} outside "
                f"1..{MAX_N} in {text!r}"
            )
        indices.append(int(digits))
    if indices != sorted(set(indices)):
        raise DataFormatError(
            f"line {line_num}, column 'subset': indices must be sorted and "
            f"distinct in {text!r}"
        )
    return tuple(indices)


def read_correlations_csv(source) -> CorrelationTable:
    """Parse a correlation CSV into a table.

    n is the largest index mentioned; all singletons up to n must be
    present. Sparse higher-order entries are allowed.
    """
    rows = _read_rows(source, ("state", "subset", "value"))
    # A table with n >= 10 holds {10}, which no compact spelling can be,
    # so comma-free subsets are compact only if every one of them is.
    compact = all(_is_compact(text) for _, (_, text, _) in rows if "," not in text)

    def parse_mask(text: str, line_num: int) -> int:
        indices = _parse_subset(text, line_num, compact)
        return mask_from_indices(indices, indices[-1])

    space, entries = _columns(
        rows, parse_mask, lambda mask: "subset " + format_subset(mask)
    )
    return CorrelationTable.build(space, max(entries).bit_length(), entries)


def write_correlations_csv(table: CorrelationTable, target) -> None:
    import csv

    _check_labels("state", table.space.labels)
    with _opened(target, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(("state", "subset", "value"))
        for mask in sorted(table.entries):
            event = table.entries[mask]
            for label, value in zip(table.space.labels, event.values):
                writer.writerow((label, format_subset(mask), repr(value)))


def _logic_document(source) -> tuple[StateSpace, list, object]:
    """The state space, the raw logic rows and the raw family of a
    concrete-logic JSON file, with the document checked up to the rows:
    the JSON, the keys, the states and a non-empty list of rows."""
    import json

    with _opened(source, "r") as stream:
        text = stream.read()
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep
        raise DataFormatError(f"invalid JSON: {exc}") from exc
    del text  # freed before the rows are built, as json.load frees it
    if not isinstance(data, dict):
        raise DataFormatError("top level must be an object")
    for key in ("states", "logic", "family"):
        if key not in data:
            raise DataFormatError(f"missing key {key!r}")
    states = data["states"]
    if (
        not isinstance(states, list)
        or not states
        or not all(isinstance(s, str) for s in states)
    ):
        raise DataFormatError("'states' must be a non-empty list of strings")
    space = StateSpace(tuple(states))
    logic_rows = data["logic"]
    if not isinstance(logic_rows, list) or not logic_rows:
        raise DataFormatError("'logic' must be a non-empty list of value rows")
    return space, logic_rows, data["family"]


def _row_events(space: StateSpace, rows: list) -> tuple[Event, ...]:
    """One Event per logic row, or the first offending row's error."""
    events = []
    numbers = {int, float}  # exact types, so json's true and false (bool) fail
    for idx, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != space.size:
            raise DataFormatError(
                f"logic row {idx} must list {space.size} values"
            )
        if not numbers.issuperset(map(type, row)):
            raise DataFormatError(f"logic row {idx} must contain numbers")
        try:
            events.append(Event(row, space))
        except NumericalEventError as exc:
            raise DataFormatError(f"logic row {idx}: {exc}") from exc
    return tuple(events)


def _family_indices(family, count: int) -> tuple[int, ...]:
    """The family's indices, each checked to name one of count rows."""
    if not isinstance(family, list) or not all(
        isinstance(i, int) and not isinstance(i, bool) for i in family
    ):
        raise DataFormatError("'family' must be a list of integers")
    for i in family:
        if not 0 <= i < count:
            raise DataFormatError(f"family index {i} outside 0..{count - 1}")
    return tuple(family)


def read_logic_json(source) -> tuple[StateSpace, tuple[Event, ...], tuple[int, ...]]:
    """Parse a concrete-logic JSON file.

    Returns the state space, the declared member events (not yet checked
    against the closure axioms) and the 0-based family indices.
    """
    space, rows, family = _logic_document(source)
    events = _row_events(space, rows)
    return space, events, _family_indices(family, len(events))


# the binary digit of each value a row may hold to become a mask; 0.0,
# -0.0 and 1.0 find their ints here
_BIT_TEXT = {0: "0", 1: "1"}


def _exact_masks(rows: list, size: int) -> list[int] | None:
    """One mask per row, bit k for state k, when every row is a list of
    size ints or floats that are each exactly 0 or 1; else None.

    Each step runs at C level: one type check over all the values, one
    join of their digits and one int() per row.
    """
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {size}:
        return None
    if not {int, float}.issuperset(map(type, chain.from_iterable(rows))):
        return None  # json's true and false too, which equal 1 and 0
    try:
        digits = "".join(map(_BIT_TEXT.__getitem__, chain.from_iterable(rows)))
    except KeyError:
        return None
    # reversed, the text holds the last row first, each row's state 0 lowest
    digits = digits[::-1]
    masks = [int(digits[k : k + size], 2) for k in range(0, len(digits), size)]
    masks.reverse()
    return masks


def _read_logic_masks(
    source,
) -> tuple[
    StateSpace, list[int] | None, tuple[Event, ...] | None, tuple[Event, ...]
]:
    """``read_logic_json`` for the CLI, which turns rows into masks.

    Returns the state space, the rows and the family's member events.
    When every row is exactly 0 or 1 the rows come as one mask each, with
    None in place of the events, and only the family's rows become
    events. Otherwise the rows come as ``read_logic_json``'s events, with
    None in place of the masks, and its messages.
    """
    space, rows, family = _logic_document(source)
    masks = _exact_masks(rows, space.size)
    events = _row_events(space, rows) if masks is None else None
    family_events = tuple(
        Event(rows[i], space) if events is None else events[i]
        for i in _family_indices(family, len(rows))
    )
    return space, masks, events, family_events


def write_logic_json(
    space: StateSpace, events: Iterable[Event], family: Sequence[int], target
) -> None:
    payload = {
        "states": list(space.labels),
        "logic": [
            [int(v) if v == int(v) else v for v in e.values] for e in events
        ],
        "family": list(family),
    }
    # rendered before the target is opened, so that a value json cannot
    # encode leaves no truncated file behind
    text = _json_text(payload) + "\n"
    with _opened(target, "w") as stream:
        stream.write(text)


def events_csv_text(events: Iterable[Event], names: Sequence[str]) -> str:
    buffer = io.StringIO()
    write_events_csv(events, names, buffer)
    return buffer.getvalue()


def correlations_csv_text(table: CorrelationTable) -> str:
    buffer = io.StringIO()
    write_correlations_csv(table, buffer)
    return buffer.getvalue()
