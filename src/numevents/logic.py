"""Concrete logics of two-valued events and Boolean-embeddability checks.

A concrete logic is a finite set of two-valued events containing 0 that
is closed under complement and under sums of orthogonal pairs. Because a
two-valued event is the indicator of a state subset, the whole module
works on bitmasks: complement is XOR with the full mask, orthogonality
is disjointness, and orthogonal sum is union.

One semi-naive kernel, ``_gaps``, finds every missing complement (A2)
or disjoint union (A3). It decides the axioms for all three users:
``gfe_closure`` adds its gaps round by round, ``ConcreteLogic``
validation reports the axiom of its first gap, and
``check_concrete_logic`` reports the first gap with its offenders. A
closure built by the kernel is not checked a second time. The kernel
pairs each member only with the members disjoint from it: one bitset
per state marks the sorted members lacking that state, and the AND of
those over a member's states is its partner set. Partners are visited
lowest first, so the gaps keep the order of a loop over all pairs.

Validation runs the kernel with only the atoms (minimal non-zero
members) on its frontier, by this lemma. Let L be a finite set of masks
that holds 0 and is closed under complement, and suppose a | x is in L
for every a in L and every atom x disjoint from a. Take a non-zero b in
L and an atom x inside b. The complement b' is disjoint from x, so
b' | x is in L, and so is its complement b - x. As b - x has fewer
states than b, induction makes b a disjoint union of atoms. Adding
those atoms to a disjoint a one at a time keeps every step in L, so
a | b is in L: L is closed under disjoint unions. (In orthomodular
terms, every element of a finite orthomodular poset is an orthogonal
sum of atoms; Ptak and Pulmannova, *Orthomodular Structures as Quantum
Logics*, 1991.)

So a set with L members, A of them atoms, costs O(L*A) subset tests to
find the atoms (``_atoms``) plus one kernel pass over the pairs of an
atom and a member disjoint from it, instead of a pass over every
disjoint pair. A set that fails needs the full pass only to name the
lexicographically first missing union, so only ``check_concrete_logic``
runs it; ``ConcreteLogic`` stops at the atom pass. On the 14-state
chain logic (3432 members) the 49 atoms meet 45 276 disjoint members,
against 136 417 disjoint pairs of members.

Two independent routes decide whether a family sits inside a Boolean
subalgebra of a logic P:

* ``boolean_by_minima`` checks that the pointwise minimum of every
  non-empty subfamily is a member of P (the criterion for n in
  {2, 3, 4}) and, on success, derives the commutation witnesses from the
  minima table.
* ``boolean_oracle`` searches directly for pairwise-orthogonal non-zero
  members of P that sum to 1 such that every family member is a sum of a
  subfamily. The two routes must agree; keep them separate.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import groupby
from typing import Container, Iterable, Iterator

from .correlations import CorrelationTable, witnesses_from_correlations
from .events import (
    BudgetExceededError,
    Event,
    EventFamily,
    NotTwoValuedError,
    NumericalEventError,
    SpaceMismatchError,
    StateSpace,
    _one_space,
    _Record,
    approx_equal,
    complement,
    is_two_valued,
    leq,
    pointwise_min,
)
from .tolerance import get_eps
from .valuations import indices_from_mask, mask_from_indices

__all__ = [
    "NotInLogicError",
    "LogicDefect",
    "ConcreteLogic",
    "CommuteWitness",
    "BooleanVerdict",
    "event_mask",
    "mask_event",
    "gfe_closure",
    "check_concrete_logic",
    "is_concrete_logic",
    "commute_witness",
    "commutation_chain_holds",
    "boolean_by_minima",
    "boolean_oracle",
    "DEFAULT_SEARCH_BUDGET",
    "DEFAULT_CLOSURE_CAP",
    "DEFAULT_MEMBER_CAP",
]

DEFAULT_SEARCH_BUDGET = 100_000
DEFAULT_CLOSURE_CAP = 1 << 16
DEFAULT_MEMBER_CAP = 4096


class NotInLogicError(NumericalEventError):
    """An event was required to be a member of the given logic or set."""


def event_mask(p: Event) -> int:
    """Bitmask of the states where a two-valued event equals 1."""
    eps = get_eps()
    mask = 0
    for k, v in enumerate(p.values):
        if v >= 1.0 - eps:
            mask |= 1 << k
        elif v > eps:
            raise NotTwoValuedError("not two-valued")
    return mask


def mask_event(mask: int, space: StateSpace) -> Event:
    """Indicator event of a state subset given as a bitmask."""
    if not 0 <= mask < (1 << space.size):
        raise ValueError(f"mask {mask} outside the state space")
    return Event(
        tuple(1.0 if mask & (1 << k) else 0.0 for k in range(space.size)), space
    )


class LogicDefect(_Record):
    """A violated closure axiom with the offending members.

    axiom is one of 'two-valued', 'A1' (zero member), 'A2' (complement),
    'A3' (orthogonal sum).
    """

    __slots__ = ("axiom", "detail", "offenders")
    axiom: str
    detail: str
    offenders: tuple[Event, ...]

    def __init__(self, axiom: str, detail: str, offenders: tuple[Event, ...]) -> None:
        object.__setattr__(self, "axiom", axiom)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "offenders", offenders)


class ConcreteLogic(_Record):
    """A closed set of two-valued events, stored as state-subset masks."""

    __slots__ = ("space", "masks")
    space: StateSpace
    masks: frozenset[int]

    def __init__(self, space: StateSpace, masks: frozenset[int]) -> None:
        full = (1 << space.size) - 1
        if any(not 0 <= m <= full for m in masks):
            raise ValueError("mask outside the state space")
        defect = _first_defect(masks, full, name_pair=False)
        if defect is not None:
            axiom = defect[0]
            raise ValueError(f"closure axiom {axiom} violated: {_AXIOM_DETAIL[axiom]}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "masks", masks)

    @classmethod
    def _closed(cls, space: StateSpace, masks: Iterable[int]) -> "ConcreteLogic":
        # masks the kernel has just closed; skips the second check in __init__
        logic = object.__new__(cls)
        object.__setattr__(logic, "space", space)
        object.__setattr__(logic, "masks", frozenset(masks))
        return logic

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "ConcreteLogic":
        items = list(events)
        if not items:
            raise ValueError("a concrete logic needs at least the zero event")
        space = _one_space(items, "logic members")
        return cls(space=space, masks=frozenset(event_mask(e) for e in items))

    @property
    def events(self) -> tuple[Event, ...]:
        return tuple(mask_event(m, self.space) for m in sorted(self.masks))

    def contains_mask(self, mask: int) -> bool:
        return mask in self.masks

    def contains(self, p: Event) -> bool:
        if p.space != self.space:
            return False
        try:
            return event_mask(p) in self.masks
        except NotTwoValuedError:
            return False

    def __len__(self) -> int:
        return len(self.masks)


_AXIOM_DETAIL = {
    "A1": "zero event missing",
    "A2": "complement missing",
    "A3": "orthogonal sum missing",
}


def _gaps(
    masks: Container[int], full: int, frontier: list[int]
) -> Iterator[tuple[str, int, tuple[int, ...]]]:
    """Yield (axiom, missing mask, offenders) for every A2 or A3 gap.

    Semi-naive: only frontier members are paired with all members, and a
    pair of two frontier members is taken once, as a < b. With a sorted
    frontier the complements come first, then the pairs in lexicographic
    order, so with frontier = all members the first gap is the smallest.

    Each frontier member a meets only its disjoint partners. Bit i of
    ``outside[s]`` is set when the i-th sorted member lacks state s, so
    ANDing ``outside[s]`` over the states of a leaves the members
    disjoint from a; masking that with the members above a or outside
    the frontier takes each pair once. The set bits are visited in
    ascending order, which is the order of the sorted members, so the
    gaps come out in the same sequence as from a loop over all pairs.
    """
    for m in frontier:
        if (m ^ full) not in masks:
            yield "A2", m ^ full, (m,)
    members = sorted(masks)
    span = 0
    for m in members:
        span |= m
    outside = _outside(members, span.bit_length())
    fresh = set(frontier)
    stale = int(
        "".join(["0" if m in fresh else "1" for m in reversed(members)]) or "0", 2
    )
    every = (1 << len(members)) - 1
    for a in frontier:
        low = bisect_right(members, a)
        partners = stale | (every >> low << low)
        states = a & span
        while states:
            bit = states & -states
            partners &= outside[bit.bit_length() - 1]
            states ^= bit
        # a linear scan of the binary digits, lowest member first
        digits = bin(partners)[:1:-1]
        i = digits.find("1")
        while i >= 0:
            b = members[i]
            if (a | b) not in masks:
                yield "A3", a | b, (a, b) if a < b else (b, a)
            i = digits.find("1", i + 1)


def _outside(members: list[int], width: int) -> list[int]:
    """Per state s below width, the bitset of the sorted members (all
    below 2**width) that lack s: bit i stands for members[i]. No members
    give no rows."""
    # one row of binary digits per member, highest member first; the
    # column for state s is a row of the transpose, counted from the right
    top = 1 << width
    columns = zip(*[bin(m | top)[3:] for m in reversed(members)])
    every = (1 << len(members)) - 1
    return [int("".join(column), 2) ^ every for column in columns][::-1]


def _atoms(members: Iterable[int]) -> list[int]:
    """The minimal non-zero masks among members, ascending.

    A member that is not minimal holds a minimal one of smaller popcount,
    so each member is tested only against the atoms of smaller popcount:
    m holds a exactly when m | a == m.
    """
    atoms: list[int] = []
    by_size = sorted(filter(None, members), key=int.bit_count)
    for _size, group in groupby(by_size, int.bit_count):
        # atoms holds only smaller ones here; with none, as in a horizontal
        # sum of Boolean blocks, the whole group is atoms
        atoms += [m for m in group if m not in map(m.__or__, atoms)] if atoms else group
    return sorted(atoms)


def _first_defect(
    masks: Container[int], full: int, name_pair: bool = True
) -> tuple[str, tuple[int, ...]] | None:
    """First violated axiom among A1-A3 with its offender masks, or None.

    With A1 and A2 holding, the unions with atoms decide A3 (see the
    module docstring); only when one is missing, and name_pair is set,
    does the pass over all members run, to name the smallest pair.
    Without name_pair an A3 defect has no offenders.
    """
    if 0 not in masks:
        return "A1", ()
    members = sorted(masks)
    for m in members:
        if (m ^ full) not in masks:
            return "A2", (m,)
    if next(_gaps(masks, full, _atoms(members)), None) is None:
        return None
    if not name_pair:
        return "A3", ()
    axiom, _missing, offenders = next(_gaps(masks, full, members))
    return axiom, offenders


def gfe_closure(
    events: Iterable[Event],
    space: StateSpace | None = None,
    *,
    max_size: int = DEFAULT_CLOSURE_CAP,
) -> ConcreteLogic:
    """Smallest concrete logic containing the given two-valued events.

    Fixpoint under complement and disjoint union, seeded with 0 and 1;
    each round pairs only the members the previous round added. More
    than max_size members, seeds included, raises BudgetExceededError.
    An empty collection needs an explicit state space and yields {0, 1}.
    """
    items = list(events)
    if space is None and not items:
        raise ValueError("empty generation needs an explicit state space")
    space = _one_space(items, "events", space)
    full = (1 << space.size) - 1
    masks = {0, full, *map(event_mask, items)}
    frontier = sorted(masks)
    while frontier:
        if len(masks) > max_size:
            raise BudgetExceededError("budget exceeded: closure size")
        frontier = sorted({gap for _axiom, gap, _offenders in _gaps(masks, full, frontier)})
        masks.update(frontier)
    return ConcreteLogic._closed(space, masks)


def check_concrete_logic(events: Iterable[Event]) -> LogicDefect | None:
    """Verify the closure axioms on a raw event set; None means all hold."""
    items = list(events)
    if not items:
        return LogicDefect("A1", _AXIOM_DETAIL["A1"], ())
    space = _one_space(items, "logic members")
    masks: dict[int, Event] = {}
    for e in items:
        try:
            masks.setdefault(event_mask(e), e)
        except NotTwoValuedError:
            return LogicDefect("two-valued", "member is not two-valued", (e,))
    defect = _first_defect(masks, (1 << space.size) - 1)
    if defect is None:
        return None
    axiom, offenders = defect
    return LogicDefect(axiom, _AXIOM_DETAIL[axiom], tuple(masks[m] for m in offenders))


def is_concrete_logic(events: Iterable[Event]) -> bool:
    return check_concrete_logic(events) is None


class CommuteWitness(_Record):
    """An element a with a <= f <= a + g <= 1."""

    __slots__ = ("a", "f", "g")
    a: Event
    f: Event
    g: Event

    def __init__(self, a: Event, f: Event, g: Event) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)


def commutation_chain_holds(a: Event, f: Event, g: Event) -> bool:
    """Check a <= f <= a + g <= 1 pointwise within tolerance."""
    eps = get_eps()
    if not leq(a, f):
        return False
    for fv, av, gv in zip(f.values, a.values, g.values):
        s = av + gv
        if fv > s + eps or s > 1.0 + eps:
            return False
    return True


def _witness_candidate(f: Event, g: Event) -> Event:
    # the chain forces a(s) = 1 exactly where f(s)=1 and g(s)=0
    return pointwise_min([f, complement(g)])


def commute_witness(
    logic: ConcreteLogic | Iterable[Event], f: Event, g: Event
) -> CommuteWitness | None:
    """Find a in P with a <= f <= a + g <= 1, or None.

    For two-valued f and g the witness is forced pointwise to the minimum
    of f and the complement of g, so only membership is checked. For
    general members the search is exhaustive over P.
    """
    if isinstance(logic, ConcreteLogic):
        members = None
        contains = logic.contains
        space = logic.space
    else:
        members = list(logic)
        if not members:
            raise ValueError("empty member set")
        space = members[0].space

        def contains(p: Event) -> bool:
            return any(approx_equal(p, e) for e in members)

    for name, item in (("f", f), ("g", g)):
        if item.space != space:
            raise SpaceMismatchError(f"{name} uses a different state space")
        if not contains(item):
            raise NotInLogicError(f"{name} is not a member of the logic")

    if is_two_valued(f) and is_two_valued(g):
        candidate = _witness_candidate(f, g)
        if contains(candidate):
            return CommuteWitness(a=candidate, f=f, g=g)
        return None

    assert members is not None  # a ConcreteLogic only has two-valued members
    for a in members:
        if commutation_chain_holds(a, f, g):
            return CommuteWitness(a=a, f=f, g=g)
    return None


class BooleanVerdict(_Record):
    """Outcome of the minima criterion on one family."""

    __slots__ = ("boolean", "missing_minimum", "witnesses")
    boolean: bool
    missing_minimum: tuple[int, ...] | None
    witnesses: dict[str, Event] | None

    # mutable, so unhashable
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        boolean: bool,
        missing_minimum: tuple[int, ...] | None,
        witnesses: dict[str, Event] | None,
    ) -> None:
        self.boolean = boolean
        self.missing_minimum = missing_minimum
        self.witnesses = witnesses


def boolean_by_minima(logic: ConcreteLogic, family: EventFamily) -> BooleanVerdict:
    """Minima criterion: the family is Boolean in P iff every non-empty
    subfamily's pointwise minimum belongs to P. Supported for n in
    {2, 3, 4}; the first missing subset in lexicographic order is
    reported. On success witnesses for the commutation chains are
    built from the minima table.
    """
    n = family.n
    if n not in (2, 3, 4):
        raise NumericalEventError(f"n outside {{2,3,4}}: {n}")
    if family.space != logic.space:
        raise SpaceMismatchError("family uses a different state space")
    member_masks = []
    for p in family:
        m = event_mask(p)
        if not logic.contains_mask(m):
            raise NotInLogicError("family member not in the logic")
        member_masks.append(m)
    minima: dict[int, int] = {}
    for subset in sorted(indices_from_mask(m) for m in range(1, 1 << n)):
        meet = (1 << logic.space.size) - 1
        for i in subset:
            meet &= member_masks[i - 1]
        if not logic.contains_mask(meet):
            return BooleanVerdict(boolean=False, missing_minimum=subset, witnesses=None)
        minima[mask_from_indices(subset, n)] = meet
    table = CorrelationTable.build(
        logic.space,
        n,
        {m: mask_event(meet, logic.space) for m, meet in minima.items()},
    )
    witnesses = witnesses_from_correlations(table)
    return BooleanVerdict(boolean=True, missing_minimum=None, witnesses=witnesses)


def _regions_by_signature(member_masks: list[int], size: int) -> list[int]:
    regions: dict[tuple[int, ...], int] = {}
    for k in range(size):
        sig = tuple((m >> k) & 1 for m in member_masks)
        regions[sig] = regions.get(sig, 0) | (1 << k)
    return list(regions.values())


class _Budget:
    __slots__ = ("left",)

    def __init__(self, budget: int) -> None:
        self.left = budget

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise BudgetExceededError("budget exceeded")


def _partition_region(region: int, masks: list[int], budget: _Budget) -> bool:
    if region == 0:
        return True
    budget.spend()
    low = region & -region
    for m in masks:
        if m & low and m & ~region == 0:
            if _partition_region(region ^ m, masks, budget):
                return True
    return False


def _oracle_two_valued(
    member_masks: list[int], family_masks: list[int], size: int, budget: _Budget
) -> bool:
    # atoms of any admissible decomposition respect the family's
    # coordinate min-terms, so each signature region partitions on its own
    candidates = sorted(set(member_masks) - {0})
    for region in _regions_by_signature(family_masks, size):
        usable = [m for m in candidates if m & ~region == 0]
        if not _partition_region(region, usable, budget):
            return False
    return True


def _sums_to(target: Event, atoms: list[Event], budget: _Budget) -> bool:
    eps = get_eps()
    size = target.space.size

    def walk(idx: int, acc: tuple[float, ...]) -> bool:
        if all(abs(a - t) <= eps for a, t in zip(acc, target.values)):
            return True
        if idx == len(atoms):
            return False
        budget.spend()
        nxt = tuple(a + v for a, v in zip(acc, atoms[idx].values))
        if all(v <= t + eps for v, t in zip(nxt, target.values)):
            if walk(idx + 1, nxt):
                return True
        return walk(idx + 1, acc)

    return walk(0, (0.0,) * size)


def _oracle_general(
    members: list[Event], family: EventFamily, budget: _Budget
) -> bool:
    eps = get_eps()
    space = members[0].space
    pool = [e for e in members if any(v > eps for v in e.values)]
    pool.sort(key=lambda e: e.values)
    ones = (1.0,) * space.size

    def extend(idx: int, chosen: list[Event], acc: tuple[float, ...]) -> bool:
        if all(abs(a - 1.0) <= eps for a in acc):
            return all(_sums_to(p, chosen, budget) for p in family)
        if idx == len(pool):
            return False
        budget.spend()
        cand = pool[idx]
        nxt = tuple(a + v for a, v in zip(acc, cand.values))
        if all(v <= o + eps for v, o in zip(nxt, ones)):
            chosen.append(cand)
            if extend(idx + 1, chosen, nxt):
                return True
            chosen.pop()
        return extend(idx + 1, chosen, acc)

    return extend(0, [], (0.0,) * space.size)


def boolean_oracle(
    members: ConcreteLogic | Iterable[Event],
    family: EventFamily,
    *,
    budget: int = DEFAULT_SEARCH_BUDGET,
    member_cap: int = DEFAULT_MEMBER_CAP,
) -> bool:
    """Independent Boolean test by direct search for an atom decomposition.

    True iff some pairwise-orthogonal non-zero members of P sum to 1 with
    every family member equal to the sum of a subfamily. Two-valued sets
    run an exact-cover search refined by the family's coordinate
    min-terms; mixed sets fall back to numeric backtracking. Exceeding
    the node budget raises instead of guessing.
    """
    items = list(members.events) if isinstance(members, ConcreteLogic) else list(members)
    if not items:
        raise ValueError("empty member set")
    if len(items) > member_cap:
        raise BudgetExceededError(f"budget exceeded: |P| > {member_cap}")
    space = _one_space(items, "members")
    if family.space != space:
        raise SpaceMismatchError("family uses a different state space")
    tracker = _Budget(budget)
    if all(is_two_valued(e) for e in items):
        member_masks = [event_mask(e) for e in items]
        mask_set = set(member_masks)
        family_masks = []
        for p in family:
            m = event_mask(p)
            if m not in mask_set:
                raise NotInLogicError("family member not in P")
            family_masks.append(m)
        return _oracle_two_valued(member_masks, family_masks, space.size, tracker)
    for p in family:
        if not any(approx_equal(p, e) for e in items):
            raise NotInLogicError("family member not in P")
    return _oracle_general(items, family, tracker)
