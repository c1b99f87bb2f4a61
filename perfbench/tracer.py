"""Spans around the calls between numevents layers, kept in memory.

``Tracer.install`` wraps the functions ``numevents.cli`` imports from the
other layers, and ``gfe_closure`` as ``numevents.embedding`` imports it,
plus the two constructors every caller shares. A target the code no
longer has is skipped, so its layer reads as absent rather than failing.
Times are CLOCK_MONOTONIC nanoseconds.
"""

import functools
import importlib
import inspect
import time


def _rows_of_table(table):
    return len(table.entries) * table.space.size


def _rows_of_events(result):
    family, _names = result
    return family.n * family.space.size


def _rows_of_logic(result):
    _space, events, _family = result
    return len(events)


# (module, attribute, span name, (counter, count of one result) or None)
FUNCTIONS = [
    ("numevents.cli", "read_events_csv", "dataio.read_events_csv",
     ("dataio.rows", _rows_of_events)),
    ("numevents.cli", "read_correlations_csv", "dataio.read_correlations_csv",
     ("dataio.rows", _rows_of_table)),
    ("numevents.cli", "read_logic_json", "dataio.read_logic_json",
     ("dataio.rows", _rows_of_logic)),
    ("numevents.cli", "EventFamily", "events.EventFamily", None),
    ("numevents.cli", "check_bell_like", "correlations.check_bell_like",
     ("correlations.violated", lambda rows: sum(r.violated for r in rows))),
    ("numevents.cli", "evaluate_inequality", "correlations.evaluate_inequality",
     ("correlations.violated", lambda r: int(r.violated))),
    ("numevents.cli", "enumerate_01_valuations", "valuations.enumerate_01_valuations",
     ("valuations.enumerate_01_valuations.count", None)),
    ("numevents.cli", "check_concrete_logic", "logic.check_concrete_logic", None),
    ("numevents.cli", "boolean_by_minima", "logic.boolean_by_minima", None),
    ("numevents.cli", "classify_embedding", "embedding.classify_embedding", None),
    ("numevents.embedding", "gfe_closure", "logic.gfe_closure",
     ("logic.gfe_closure.members", len)),
]

# (module, class, attribute, span name): constructors every caller shares
METHODS = [
    ("numevents.logic", "ConcreteLogic", "__init__", "logic.ConcreteLogic"),
    ("numevents.correlations", "CorrelationTable", "build",
     "correlations.CorrelationTable.build"),
]


class Tracer:
    """Spans as [name index, start ns, end ns, parent index] plus counters."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.counts = {}
        self._ids = {}
        self._stack = [-1]

    def _open(self, name):
        idx = len(self.spans)
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        self.spans.append([self._ids[name], time.monotonic_ns(), 0, self._stack[-1]])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.monotonic_ns()
        self._stack.pop()

    def _count(self, counter, result):
        name, measure = counter
        try:
            amount = measure(result)
        except (AttributeError, TypeError, ValueError):
            return
        self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, name, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, fn, name, counter=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name, counter)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                self._count(counter, result)
            return result

        return traced

    def _wrap_generator(self, fn, name, counter):
        # one span per step, so the caller's work between steps stays outside
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                if counter is not None:
                    self.counts[counter[0]] = self.counts.get(counter[0], 0) + 1
                yield item

        return traced

    def install(self):
        """Wrap every target present; returns the list of undo steps."""
        undo = []
        for module_name, attr, name, counter in FUNCTIONS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self.wrap(fn, name, counter))
                undo.append((module, attr, fn))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(raw, name))
            else:
                continue
            undo.append((cls, attr, raw))
        return undo
