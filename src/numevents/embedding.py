"""Embeddability of a measured event family into an event algebra.

The decision procedure applies structural rules in a fixed order: an
all-two-valued family always embeds into the event field it generates; a
family whose members and complements are pairwise incomparable embeds
into the horizontal sum MO_n; over a two-state space a comparable pair
rules embedding out; and for exactly two comparable events everything
hinges on whether their difference is proper. Configurations no rule
covers stay undecided rather than guessed.
"""

from __future__ import annotations

from .events import (
    DuplicateEventError,
    Event,
    EventFamily,
    ImproperEventError,
    NotComparableError,
    _Record,
    approx_equal,
    complement,
    difference,
    is_proper,
    is_two_valued,
    leq,
    one_event,
    zero_event,
)
from .logic import DEFAULT_CLOSURE_CAP, gfe_closure

__all__ = [
    "EMBEDDABLE",
    "NOT_EMBEDDABLE",
    "UNDECIDED",
    "Container",
    "EmbeddingReport",
    "is_antichain",
    "classify_embedding",
    "boolean8_container",
]

EMBEDDABLE = "EMBEDDABLE"
NOT_EMBEDDABLE = "NOT_EMBEDDABLE"
UNDECIDED = "UNDECIDED"

LabeledEvent = tuple[str, Event]


class Container(_Record):
    """Descriptor of a smallest known containing algebra."""

    __slots__ = ("kind", "size")
    kind: str  # "MO" | "BOOLEAN_8" | "GFE_CLOSURE"
    size: int | None

    def __init__(self, kind: str, size: int | None = None) -> None:
        _Record.__init__(self, kind, size)

    def __str__(self) -> str:
        if self.kind == "MO":
            return f"MO_{self.size}"
        if self.kind == "GFE_CLOSURE":
            return f"GFE_CLOSURE({self.size})"
        return self.kind


class EmbeddingReport(_Record):
    __slots__ = ("verdict", "container", "reasons", "witnesses")
    verdict: str
    container: Container | None
    reasons: tuple[str, ...]
    witnesses: tuple[LabeledEvent, ...]

    # mutable, so unhashable
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


def _labeled(family: EventFamily, with_complements: bool) -> list[LabeledEvent]:
    items: list[LabeledEvent] = [
        (f"p_{i + 1}", e) for i, e in enumerate(family.events)
    ]
    if with_complements:
        items += [
            (f"p_{i + 1}'", complement(e)) for i, e in enumerate(family.events)
        ]
    return items


def is_antichain(
    family: EventFamily, include_complements: bool = False
) -> tuple[bool, tuple[LabeledEvent, LabeledEvent] | None]:
    """True iff no two distinct members are comparable.

    With include_complements the complements join the comparison set.
    Pairs that coincide within tolerance are not distinct and are
    skipped. On failure the offending ordered pair (smaller, larger)
    is returned.
    """
    items = _labeled(family, include_complements)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            (name_a, a), (name_b, b) = items[i], items[j]
            if approx_equal(a, b):
                continue
            if leq(a, b):
                return False, ((name_a, a), (name_b, b))
            if leq(b, a):
                return False, ((name_b, b), (name_a, a))
    return True, None


def _distinct_pair_count(family: EventFamily) -> int:
    """Number of distinct {p, p'} pairs among members and complements."""
    reps: list[Event] = []
    for p in family:
        if not any(
            approx_equal(p, r) or approx_equal(complement(p), r) for r in reps
        ):
            reps.append(p)
    return len(reps)


def boolean8_container(p1: Event, p2: Event) -> tuple[Event, ...]:
    """The eight events {0, 1, p1, p1', p2, p2', p2 - p1, (p2 - p1)'}.

    Requires proper, distinct p1 <= p2. Whether the difference is proper
    is the caller's concern; the arithmetic shape is the same either way.
    """
    for name, p in (("p_1", p1), ("p_2", p2)):
        if not is_proper(p):
            raise ImproperEventError(f"improper event: {name}")
    if approx_equal(p1, p2):
        raise DuplicateEventError("p_1 and p_2 coincide within tolerance")
    if not leq(p1, p2):
        raise NotComparableError("not comparable")
    d = difference(p2, p1)
    space = p1.space
    return (
        zero_event(space),
        one_event(space),
        p1,
        complement(p1),
        p2,
        complement(p2),
        d,
        complement(d),
    )


def classify_embedding(
    family: EventFamily, *, closure_cap: int = DEFAULT_CLOSURE_CAP
) -> EmbeddingReport:
    """Decide embeddability of a family of proper events.

    Rules fire in a fixed order; see the module docstring. Improper
    members are rejected up front: algebra members other than 0 and 1
    must be proper, so improper measured events are unusable data.
    """
    for i, p in enumerate(family):
        if not is_proper(p):
            raise ImproperEventError(f"improper event: p_{i + 1}")

    anti, offending = is_antichain(family, include_complements=True)
    pairs = _distinct_pair_count(family) if anti else 0
    container: Container | None = None
    witnesses: tuple[LabeledEvent, ...] = ()
    if all(is_two_valued(p) for p in family):
        closure = gfe_closure(family.events, family.space, max_size=closure_cap)
        verdict, container = EMBEDDABLE, Container("GFE_CLOSURE", len(closure))
        reasons = [
            "all events are two-valued; the event field they generate "
            "contains the family [rule two-valued-closure]"
        ]
        if anti:
            reasons.append(
                f"family and complements are also pairwise incomparable; "
                f"MO_{pairs} would contain the family [rule antichain-mo]"
            )
    elif anti:
        verdict, container = EMBEDDABLE, Container("MO", pairs)
        reasons = [
            f"family and complements form an antichain of {2 * pairs} "
            "pairwise incomparable events [rule antichain-mo]"
        ]
        if pairs < family.n:
            reasons.append(
                "complement coincidences inside the family reduce the "
                f"antichain to {pairs} complementary pairs"
            )
    else:
        assert offending is not None
        (name_a, a), (name_b, b) = offending
        if family.space.size == 2:
            verdict, witnesses = NOT_EMBEDDABLE, offending
            reasons = [
                f"two states and a comparable pair {name_a} <= {name_b}: over "
                "two states the difference of a comparable pair is never "
                "proper, so no event algebra contains both "
                "[rule two-state-comparability]"
            ]
        elif family.n == 2:
            d = difference(b, a)
            diff_name = f"{name_b} - {name_a}"
            if is_proper(d):
                verdict, container = EMBEDDABLE, Container("BOOLEAN_8")
                reasons = [
                    f"{name_a} <= {name_b} and the difference {diff_name} is "
                    "proper; an eight-element Boolean algebra contains the "
                    "pair [rule pair-difference]"
                ]
            else:
                verdict, witnesses = NOT_EMBEDDABLE, offending + ((diff_name, d),)
                reasons = [
                    f"{name_a} <= {name_b} but the difference {diff_name} is not "
                    "proper, and any containing algebra would have to contain it "
                    "[rule pair-difference-improper]"
                ]
        else:
            verdict, witnesses = UNDECIDED, offending
            reasons = [
                "not all events are two-valued [rule two-valued-closure not applicable]",
                f"family plus complements contains a comparable pair "
                f"{name_a} <= {name_b} [rule antichain-mo not applicable]",
                f"state space has {family.space.size} states "
                "[rule two-state-comparability not applicable]",
                f"family has n={family.n} members [rule pair-difference not applicable]",
                "embeddability undecided",
            ]
    return EmbeddingReport(verdict, container, tuple(reasons), witnesses)
