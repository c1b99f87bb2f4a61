"""Numerical events over a finite state space and their pointwise algebra.

An event assigns to each state of a system the probability of one
measurement outcome. The constants 0 and 1 are the all-zero and all-one
events, the complement of p is 1 - p, and two events are orthogonal when
their sum stays below 1 everywhere. These primitives, together with
orthogonal sums, differences of comparable events and pointwise minima,
are all the structure the higher-level modules build on.

Every comparison uses the global tolerance from ``numevents.tolerance``.
Values are clamped to [0, 1] on ingestion when they lie within tolerance
of the interval; anything further out is rejected.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .tolerance import get_eps

__all__ = [
    "NumericalEventError",
    "SpaceMismatchError",
    "ValueRangeError",
    "NotOrthogonalError",
    "NotComparableError",
    "DuplicateEventError",
    "NotTwoValuedError",
    "ImproperEventError",
    "BudgetExceededError",
    "StateSpace",
    "Event",
    "EventFamily",
    "zero_event",
    "one_event",
    "approx_equal",
    "complement",
    "leq",
    "orthogonal",
    "ortho_sum",
    "difference",
    "pointwise_min",
    "is_proper",
    "is_two_valued",
]


class NumericalEventError(Exception):
    """Base class for domain errors raised by this package."""


class SpaceMismatchError(NumericalEventError):
    """Operands reference different state spaces."""


class ValueRangeError(NumericalEventError):
    """A probability value lies outside the tolerated [0, 1] band."""


class NotOrthogonalError(NumericalEventError):
    """Orthogonal sum requested for a non-orthogonal pair."""


class NotComparableError(NumericalEventError):
    """Difference requested for events that are not pointwise ordered."""


class DuplicateEventError(NumericalEventError):
    """A family contains two events that coincide within tolerance."""


class NotTwoValuedError(NumericalEventError):
    """A two-valued event was required."""


class ImproperEventError(NumericalEventError):
    """An event comparable with its own complement was rejected."""


class BudgetExceededError(NumericalEventError):
    """A bounded search or closure ran out of its configured budget."""


class _Record:
    """An immutable record whose fields are its __slots__, in constructor order.

    Records compare and hash by their field values, and only with their
    own class; repr is ``Name(field=value, ...)``, and copy and pickle
    rebuild a record through its constructor. A mutable record puts
    object's __setattr__ and __delattr__ back and sets __hash__ to None.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class StateSpace(_Record):
    """Ordered, distinct labels for the finitely many states of a system."""

    __slots__ = ("labels",)
    labels: tuple[str, ...]

    def __init__(self, labels: tuple[str, ...]) -> None:
        labels = tuple(str(x) for x in labels)
        if not labels:
            raise ValueError("state space needs at least one state")
        if len(set(labels)) != len(labels):
            raise ValueError("state labels must be unique")
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return len(self.labels)


class Event(_Record):
    """One probability value per state, clamped to [0, 1] on construction."""

    __slots__ = ("values", "space")
    values: tuple[float, ...]
    space: StateSpace

    def __init__(self, values: tuple[float, ...], space: StateSpace) -> None:
        raw = tuple(values)
        if len(raw) != space.size:
            raise ValueError(f"expected {space.size} values, got {len(raw)}")
        values = _unit_floats(raw)
        if values is None:
            eps = get_eps()
            clamped = []
            for label, item in zip(space.labels, raw):
                try:
                    v = float(item)
                except OverflowError:
                    # no repr: an int of over 4300 digits has no str
                    raise ValueRangeError(
                        f"value at state {label} outside the float range"
                    ) from None
                if v != v or v < -eps or v > 1.0 + eps:
                    raise ValueRangeError(
                        f"value {item!r} at state {label} outside [0, 1]"
                    )
                clamped.append(min(1.0, max(0.0, v)))
            values = tuple(clamped)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "space", space)


# -0.0 finds 0.0 here too, so the lookup turns it into 0.0
_SHARED_ENDS = {0.0: 0.0, 1.0: 1.0}


def _unit_floats(raw: tuple) -> tuple[float, ...] | None:
    """The non-empty raw values as floats when all lie in [0, 1], else None.

    Every step runs at C level. The result is what Event's clamping loop
    gives for such values: each value unchanged, except that -0.0 becomes
    0.0, as max(0.0, -0.0) does. Like the loop's min and max, it keeps
    one shared object for each of 0.0 and 1.0, which holds a large
    two-valued logic's memory down. Any other input returns None, and
    the loop rejects or clamps it value by value.
    """
    try:
        values = list(map(float, raw))
    except (TypeError, ValueError, OverflowError):
        return None
    total = sum(values)
    if total != total or min(values) < 0.0 or max(values) > 1.0:
        return None
    return tuple(map(_SHARED_ENDS.get, values, values))


def zero_event(space: StateSpace) -> Event:
    return Event((0.0,) * space.size, space)


def one_event(space: StateSpace) -> Event:
    return Event((1.0,) * space.size, space)


def _one_space(
    events: Sequence[Event], what: str, space: StateSpace | None = None
) -> StateSpace:
    """The state space that every event uses: space, or else the first
    event's. Raises SpaceMismatchError naming what the events are."""
    if space is None:
        space = events[0].space
    for e in events:
        if e.space != space:
            raise SpaceMismatchError(f"{what} reference different state spaces")
    return space


def approx_equal(p: Event, q: Event) -> bool:
    """Pointwise agreement within the global tolerance."""
    if p.space != q.space:
        return False
    eps = get_eps()
    return all(abs(a - b) <= eps for a, b in zip(p.values, q.values))


def complement(p: Event) -> Event:
    """The event 1 - p."""
    return Event(tuple(1.0 - v for v in p.values), p.space)


def leq(p: Event, q: Event) -> bool:
    """Pointwise order p <= q, tolerant within eps."""
    if p.space != q.space:
        raise SpaceMismatchError("events reference different state spaces")
    eps = get_eps()
    return all(a <= b + eps for a, b in zip(p.values, q.values))


def orthogonal(p: Event, q: Event) -> bool:
    """True iff p <= 1 - q, i.e. p(s) + q(s) <= 1 at every state."""
    return leq(p, complement(q))


def ortho_sum(p: Event, q: Event) -> Event:
    """Pointwise sum of an orthogonal pair; raises otherwise."""
    if not orthogonal(p, q):
        raise NotOrthogonalError("not orthogonal")
    # orthogonality bounds the sum by 1 + eps; snap rounding spill to 1
    return Event(tuple(min(1.0, a + b) for a, b in zip(p.values, q.values)), p.space)


def difference(q: Event, p: Event) -> Event:
    """Pointwise q - p for p <= q; raises otherwise."""
    if not leq(p, q):
        raise NotComparableError("not comparable")
    return Event(tuple(max(0.0, b - a) for a, b in zip(p.values, q.values)), q.space)


def pointwise_min(events: Sequence[Event] | Iterable[Event]) -> Event:
    """Coordinatewise minimum of a non-empty collection of events."""
    items = list(events)
    if not items:
        raise ValueError("pointwise minimum of an empty collection")
    space = _one_space(items, "events")
    return Event(tuple(min(e.values[k] for e in items) for k in range(space.size)), space)


def is_proper(p: Event) -> bool:
    """True iff p is comparable with its complement in neither direction."""
    c = complement(p)
    return not leq(p, c) and not leq(c, p)


def is_two_valued(p: Event) -> bool:
    """True iff every value is 0 or 1 within tolerance."""
    eps = get_eps()
    return all(v <= eps or v >= 1.0 - eps for v in p.values)


class EventFamily(_Record):
    """Finite ordered family of pairwise distinct events on one space."""

    __slots__ = ("events",)
    events: tuple[Event, ...]

    def __init__(self, events: tuple[Event, ...]) -> None:
        events = tuple(events)
        if not events:
            raise ValueError("family needs at least one event")
        _one_space(events, "family members")
        for i in range(len(events)):
            for j in range(i + 1, len(events)):
                if approx_equal(events[i], events[j]):
                    raise DuplicateEventError(
                        f"events {i + 1} and {j + 1} coincide within tolerance"
                    )
        object.__setattr__(self, "events", events)

    @property
    def n(self) -> int:
        return len(self.events)

    @property
    def space(self) -> StateSpace:
        return self.events[0].space

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def with_complements(self) -> tuple[Event, ...]:
        """The members followed by their complements, in family order."""
        return self.events + tuple(complement(e) for e in self.events)
