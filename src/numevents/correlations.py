"""Correlation tables and the Bell-type inequalities they must satisfy.

A correlation table records, per system state, the probability p_I that
all measurements with indices in I fire together. The entries are user
data, not computed minima, but ingestion enforces the one structural
law any joint-probability reading implies: p_I <= p_J pointwise whenever
J is a subset of I.

``check_bell_like`` evaluates the explicit inequality lists for
n in {2, 3, 4}; every row has the shape p_I + p_J - p_(I u J) <= 1 and is
generated by ``pair_inequality``. When no row is violated, the same
(I, J) schedule yields commutation witnesses a = p_I - p_(I u J) whose
defining chains a <= p_I <= a + p_J <= 1 are exactly the inequalities.

``violated_01_valuations`` decides the full list of 2**(2**n - 1) - 1
inequalities of the 0/1 valuations g (f = f_transform(g)) without listing
them. Their sums are sums of atom masses: sum_I f(I) p_I equals the sum of
q_J over the J with g(J) = 1, where q_J = sum over I containing J of
(-1)**|I \\ J| p_I is the probability that exactly the events in J fire
(Boole's conditions of possible experience, Pitowsky's correlation
polytope). A state whose negative masses sum to no less than -eps and
whose positive masses sum to no more than 1 + eps breaks none of them.
Only at the other states are subset sums of q scanned, and only the
valuations they flag are built (by ``valuations.valuation_01``) and
evaluated, which alone decides each reported row.

Every row, of either list or of ``evaluate_inequality``, is evaluated by
the one batch evaluator ``_evaluate_rows``: rows that share a leading
run of coefficients share its per-state partial sums, and each value is
still the same products added in the same order as a row on its own.
"""

from __future__ import annotations

from itertools import combinations
from operator import add
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .events import (
    Event,
    EventFamily,
    NumericalEventError,
    SpaceMismatchError,
    StateSpace,
    _Record,
    difference,
    leq,
)
from .tolerance import get_eps
from .valuations import (
    MAX_N,
    SetFunction,
    _check_enumerable,
    format_subset,
    mask_from_indices,
    pair_inequality,
    subset_labels,
    valuation_01,
)

__all__ = [
    "MissingCorrelationError",
    "MonotonicityError",
    "InequalityViolatedError",
    "CorrelationTable",
    "InequalityResult",
    "evaluate_inequality",
    "check_bell_like",
    "violated_01_valuations",
    "pair_schedule",
    "witness_relations",
    "witnesses_from_correlations",
]


class MissingCorrelationError(NumericalEventError):
    """An inequality references a correlation the table does not hold."""


class MonotonicityError(NumericalEventError):
    """A joint correlation exceeds one of its marginals."""


class InequalityViolatedError(NumericalEventError):
    """An operation required a table with no violated inequality."""


class CorrelationTable(_Record):
    """Events p_I per non-empty index subset I, keyed by bitmask."""

    __slots__ = ("space", "n", "entries")
    space: StateSpace
    n: int
    entries: Mapping[int, Event]

    # a table is equal only to itself
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @classmethod
    def build(
        cls, space: StateSpace, n: int, entries: Mapping[int, Event]
    ) -> "CorrelationTable":
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        if n > MAX_N:
            raise ValueError(f"n must be at most {MAX_N}, got {n}")
        top = (1 << n) - 1
        clean: dict[int, Event] = {}
        for mask in sorted(entries):
            if not 1 <= mask <= top:
                raise ValueError(f"subset mask {mask} outside 1..{top}")
            event = entries[mask]
            if event.space != space:
                raise SpaceMismatchError(
                    f"correlation {format_subset(mask)} uses a different state space"
                )
            clean[mask] = event
        for i in range(n):
            if (1 << i) not in clean:
                raise MissingCorrelationError(
                    f"missing base event {format_subset(1 << i)}"
                )
        # p_I <= p_J whenever J subset of I: joint outcomes cannot out-probabilize marginals
        masks = sorted(clean)
        for big in masks:
            for small in masks:
                if small != big and big & small == small:
                    if not leq(clean[big], clean[small]):
                        raise MonotonicityError(
                            f"p_{subset_labels(big)} exceeds p_{subset_labels(small)}"
                        )
        return cls(space, n, MappingProxyType(clean))

    def event(self, mask: int) -> Event:
        try:
            return self.entries[mask]
        except KeyError:
            raise MissingCorrelationError(
                f"missing correlation {format_subset(mask)}"
            ) from None

    def missing_masks(self) -> tuple[int, ...]:
        """Masks of all absent subsets below 2**n."""
        return tuple(
            m for m in range(1, 1 << self.n) if m not in self.entries
        )

    def base_family(self) -> EventFamily:
        return EventFamily(tuple(self.entries[1 << i] for i in range(self.n)))


class InequalityResult(_Record):
    """Evaluation of one valuation against a correlation table."""

    __slots__ = (
        "label",
        "coefficients",
        "per_state",
        "min_value",
        "max_value",
        "violated",
        "violating_state",
    )
    label: str
    coefficients: SetFunction
    # None on the rows of violated_01_valuations; evaluate_inequality on a
    # row's coefficients gives it
    per_state: tuple[float, ...] | None
    min_value: float
    max_value: float
    violated: bool
    violating_state: str | None


def evaluate_inequality(
    f: SetFunction, table: CorrelationTable, label: str | None = None
) -> InequalityResult:
    """Evaluate sum_I f(I) p_I(s) per state and flag exits from [0, 1]."""
    return _results((f,), table, (label if label is not None else "valuation",))[0]


def _results(
    fs: Sequence[SetFunction],
    table: CorrelationTable,
    labels: Sequence[str],
    violated_only: bool = False,
) -> list[InequalityResult]:
    """The result of every row, in input order; with violated_only, of
    the violated rows only, each with per_state None."""
    results: list[InequalityResult | None] = [None] * len(fs)
    for row, per_state, lo, hi, violating_state in _evaluate_rows(fs, table):
        if violated_only:
            if violating_state is None:
                continue
            per_state = None
        # by position, which binds fastest: the flat table builds 10 240
        violated = violating_state is not None
        results[row] = InequalityResult(
            labels[row], fs[row], per_state, lo, hi, violated, violating_state
        )
    return [r for r in results if r is not None]


def _evaluate_rows(
    fs: Sequence[SetFunction], table: CorrelationTable
) -> Iterator[tuple[int, tuple[float, ...], float, float, str | None]]:
    """(row, per_state, min, max, violating state) for every row of fs.

    Each row's value at a state is 0 plus f(I) * p_I(s) for its non-zero
    f(I) in increasing mask order, added left to right. Rows are visited
    in coefficient order, and yielded in that order, and keep a stack of
    per-state partial sums, one per mask position, so a row recomputes
    only the positions from the first coefficient where it differs from
    the row before it. The sums are the same products added in the same
    order, bit for bit; a row with no non-zero coefficient is the integer
    0 at every state. A caller that drops each per_state holds none of
    them.
    """
    n = table.n
    top = (1 << n) - 1
    columns: dict[int, tuple[float, ...]] = {}
    # errors come out as evaluating the rows one by one in input order would raise them
    for f in fs:
        if f.n != n:
            raise ValueError(f"coefficients use n={f.n}, table uses n={n}")
        if len(columns) < top:
            for m in f.support():
                if m not in columns:
                    columns[m] = table.event(m).values
    size = table.space.size
    eps = get_eps()
    products: dict[tuple[int, float], tuple[float, ...]] = {}
    # stack[i] is the current row's partial sum over the first i mask positions
    stack = [(0.0,) * size] * (top + 1)
    previous: tuple[float, ...] = ()
    for row in sorted(range(len(fs)), key=lambda r: fs[r].values):
        values = fs[row].values
        start = 0
        for c, d in zip(values, previous):
            if c != d:
                break
            start += 1
        for i in range(start, len(values)):
            c = values[i]
            if c == 0.0:
                stack[i + 1] = stack[i]
                continue
            prod = products.get((i, c))
            if prod is None:
                prod = products[i, c] = tuple([c * x for x in columns[i + 1]])
            stack[i + 1] = tuple(map(add, stack[i], prod))
        previous = values
        per_state = stack[-1] if any(values) else (0,) * size
        lo = min(per_state)
        hi = max(per_state)
        violating_state = None
        # a row inside the band has no state to name; a NaN min is scanned too
        if not (-eps <= lo and hi <= 1.0 + eps):
            for k, v in enumerate(per_state):
                if v < -eps or v > 1.0 + eps:
                    violating_state = table.space.labels[k]
                    break
        yield row, per_state, lo, hi, violating_state


def pair_schedule(n: int) -> tuple[tuple[int, int], ...]:
    """The (I, J) rows of the displayed inequality lists, in display order.

    n=2 has one row, n=3 five, n=4 twenty-three.
    """
    if n not in (2, 3, 4):
        raise ValueError(f"no inequality list for n={n}; supported n are 2, 3, 4")
    rows = [((i,), (j,)) for i, j in combinations(range(1, n + 1), 2)]
    if n == 3:
        rows += [((1, 2), (1, 3)), ((1, 2), (2, 3))]
    if n == 4:
        triples = list(combinations(range(1, 5), 3))
        rows += [((i, j), (i, k)) for i, j, k in triples]
        rows += [((i, j), (j, k)) for i, j, k in triples]
        rows += [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]
        rows += combinations(triples, 2)
    return tuple((mask_from_indices(i, n), mask_from_indices(j, n)) for i, j in rows)


def _row_label(i_mask: int, j_mask: int) -> str:
    return (
        f"p_{subset_labels(i_mask)} + p_{subset_labels(j_mask)}"
        f" - p_{subset_labels(i_mask | j_mask)} <= 1"
    )


def check_bell_like(table: CorrelationTable) -> tuple[InequalityResult, ...]:
    """Evaluate the full displayed inequality list for table.n in {2, 3, 4}."""
    n = table.n
    schedule = pair_schedule(n)
    return tuple(
        _results(
            [pair_inequality(i, j, n) for i, j in schedule],
            table,
            [_row_label(i, j) for i, j in schedule],
        )
    )


# Slack that keeps the atom-mass filter from dropping a violated row. For
# n <= 4 every p_I lies in [0, 1], so |q_J| <= 2**(n - |J|) and the 15 atom
# masses have sum_J |q_J| <= 65, while a 0/1 valuation has sum_I |f(I)| <= 40.
# A term passes through at most 4 Moebius steps and, in the one subset-sum
# table of a flagged state, at most 15 additions (one per selected mass);
# in _evaluate_rows, through 1 product and 14 additions, because a row that
# takes over another row's partial sums takes over the same products added
# in the same order. Each step rounds by at most 2**-53 of what it adds. So
# the filter's sum lies within 20 * 2**-53 * 65 < 1.5e-13 of the exact sum,
# and the evaluated value within 16 * 2**-53 * 40 < 1e-13. A valuation the
# filter keeps inside [-eps + _MARGIN, 1 + eps - _MARGIN] therefore
# evaluates inside [-eps, 1 + eps].
_MARGIN = 1e-12


def _atom_masses(table: CorrelationTable) -> list[tuple[float, ...]]:
    """q_J per state, in mask order J = 1 .. 2**n - 1, by one Moebius pass."""
    top = 1 << table.n
    cols = [()] + [table.event(m).values for m in range(1, top)]
    for b in range(table.n):
        bit = 1 << b
        for mask in range(1, top):
            if not mask & bit:
                cols[mask] = [x - y for x, y in zip(cols[mask], cols[mask | bit])]
    return list(zip(*cols[1:]))


def _subset_sums(values: Sequence[float]) -> list[float]:
    """Sum of the selected values per bit pattern, pattern 0 first."""
    sums = [0.0]
    for v in values:
        sums += [s + v for s in sums]
    return sums


def violated_01_valuations(table: CorrelationTable) -> tuple[InequalityResult, ...]:
    """Every violated 0/1-valuation inequality, labelled g#<packed>.

    Rows come in increasing packed order, exactly as evaluating every
    valuation of ``enumerate_01_valuations`` in turn would report them,
    except that a row's ``per_state`` is None: ``evaluate_inequality`` on
    its coefficients gives the sums, with the same min, max and
    violating state. The atom masses rule out every state that satisfies
    the whole list and, at the other states, every valuation whose sum
    stays in the band; only the remaining candidates are built and
    decided, all in one ``_evaluate_rows`` pass, which keeps no row it
    does not report. Needs every correlation and n <= 4.
    """
    n = table.n
    _check_enumerable(n)
    eps = get_eps()
    lo, hi = -eps + _MARGIN, 1.0 + eps - _MARGIN
    candidates: set[int] = set()
    for masses in _atom_masses(table):
        if (
            sum(min(q, 0.0) for q in masses) >= lo
            and sum(max(q, 0.0) for q in masses) <= hi
        ):
            continue
        candidates.update(
            packed
            for packed, x in enumerate(_subset_sums(masses))
            if not lo <= x <= hi
        )
    candidates.discard(0)
    packed_rows = sorted(candidates)
    del candidates
    return tuple(
        _results(
            [valuation_01(packed, n) for packed in packed_rows],
            table,
            [f"g#{packed}" for packed in packed_rows],
            violated_only=True,
        )
    )


def witness_relations(n: int) -> tuple[tuple[str, int, int], ...]:
    """(witness name, I mask, J mask) per schedule row.

    The witness for a row is a = p_I - p_(I u J); its name is derived from
    the first row that introduces the pair (I, I u J).
    """
    names: dict[tuple[int, int], str] = {}
    relations = []
    for i_mask, j_mask in pair_schedule(n):
        key = (i_mask, i_mask | j_mask)
        if key not in names:
            names[key] = f"a_{subset_labels(i_mask)}{subset_labels(j_mask)}"
        relations.append((names[key], i_mask, j_mask))
    return tuple(relations)


def witnesses_from_correlations(table: CorrelationTable) -> dict[str, Event]:
    """Commutation witnesses a = p_I - p_(I u J) for a consistent table.

    Requires check_bell_like to pass; each witness then satisfies
    a <= p_I <= a + p_J <= 1 for every schedule row it serves.
    """
    violated = [r.label for r in check_bell_like(table) if r.violated]
    if violated:
        raise InequalityViolatedError(
            "witnesses need a consistent table; violated: " + "; ".join(violated)
        )
    witnesses: dict[str, Event] = {}
    for name, i_mask, j_mask in witness_relations(table.n):
        if name not in witnesses:
            witnesses[name] = difference(
                table.event(i_mask), table.event(i_mask | j_mask)
            )
    return witnesses
