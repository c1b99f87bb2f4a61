"""Concrete logics of two-valued events and Boolean-embeddability checks.

A concrete logic is a finite set of two-valued events containing 0 that
is closed under complement and under sums of orthogonal pairs. Because a
two-valued event is the indicator of a state subset, the whole module
works on bitmasks: complement is XOR with the full mask, orthogonality
is disjointness, and orthogonal sum is union.

One algorithm decides the axioms and builds ``gfe_closure``: take the
complements, then the union of each atom (minimal non-zero member) with
every member disjoint from it. It runs on two representations of a set
of masks. Up to 16 states the set is one int, ``bits``, with bit m set
for member m: 2**S bits, 8 KiB at 16 and doubling with each state.
Complement (m -> full ^ m) reverses the bit order, and as a | b = a + b
for disjoint a and b, ``(bits & disjoint) << a`` adds a to every member
disjoint from it in one shift; ``disjoint`` ANDs one bitset per state of
a, of the masks lacking that state. Above 16 states the set is a Python
set, and each atom meets the members in a plain loop.

A3 is decided from the atoms alone, by this lemma. Let L be a finite
set of masks that holds 0 and is closed under complement, and suppose
a | x is in L for every a in L and every atom x disjoint from a. Take a
non-zero b in L and an atom x inside b. The complement b' is disjoint
from x, so b' | x is in L, and so is its complement b - x. As b - x has
fewer states than b, induction makes b a disjoint union of atoms.
Adding those atoms to a disjoint a one at a time keeps every step in
L, so a | b is in L: L is closed under disjoint unions. (In
orthomodular terms, every element of a finite orthomodular poset is an
orthogonal sum of atoms; Ptak and Pulmannova, *Orthomodular Structures
as Quantum Logics*, 1991.)

So a decision takes one shift per atom on a bitset, or one pass over
the pairs of an atom and a member on a set. The closure adds
complements, then each atom's unions, until nothing changes: every mask
it adds lies in every logic that holds the seeds, and the lemma makes
the fixpoint a logic, so it is the smallest one. Only
``check_concrete_logic`` names the pair behind a missing union, by one
loop over the pairs of sorted members, on either representation.

Two independent routes decide whether a family sits inside a Boolean
subalgebra of a logic P:

* ``boolean_by_minima`` checks that the pointwise minimum of every
  non-empty subfamily is a member of P (the criterion for n in
  {2, 3, 4}) and, on success, takes the commutation witnesses from the
  minima's masks.
* ``boolean_oracle`` searches directly for pairwise-orthogonal non-zero
  members of P that sum to 1 such that every family member is a sum of a
  subfamily. The two routes must agree; keep them separate.
"""

from __future__ import annotations

from itertools import combinations, compress, groupby
from typing import Collection, Iterable, Iterator

from .correlations import witness_relations
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
from .valuations import indices_from_mask

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
        # masks gfe_closure has just closed; skips the second check in __init__
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


_BITSET_STATES = 16  # a bitset of masks below 2**S has 2**S bits


def _bitset(masks: Iterable[int], size: int) -> int:
    """The masks, all below 2**size, as one int with bit m set for mask m."""
    digits = bytearray(b"0") * (1 << size)
    for m in masks:
        digits[m] = 49  # "1"
    return int(digits[::-1], 2)


def _set_bits(bits: int) -> Iterator[int]:
    digits = bin(bits)[:1:-1].encode().translate(bytes.maketrans(b"01", b"\0\1"))
    return compress(range(len(digits)), digits)


def _complements(bits: int, size: int) -> int:
    return int(format(bits, f"0{1 << size}b")[::-1], 2)


def _lacking(size: int) -> list[int]:
    """Per state k, the bitset of the masks below 2**size that lack k."""
    return [
        int(("0" * (1 << k) + "1" * (1 << k)) * (1 << (size - 1 - k)), 2)
        for k in range(size)
    ]


def _bitset_atoms(bits: int, lacking: list[int]) -> list[int]:
    """The minimal non-zero members: those no other member lies inside."""
    nonzero, above = bits & ~1, 0
    for k, row in enumerate(lacking):
        # the masks strictly above a member that add only states 0..k to it
        above |= ((nonzero | above) & row) << (1 << k)
    return list(_set_bits(nonzero & ~above))


def _add_unions(bits: int, lacking: list[int]) -> int:
    """The bitset with the union of each atom and each member disjoint from it."""
    for a in _bitset_atoms(bits, lacking):
        disjoint = bits
        for k in _set_bits(a):
            disjoint &= lacking[k]
        bits |= disjoint << a
    return bits


def _first_defect(
    masks: Collection[int], full: int, name_pair: bool = True
) -> tuple[str, tuple[int, ...]] | None:
    """First violated axiom among A1-A3 with its offender masks, or None.

    With A1 and A2 holding, the unions with atoms decide A3 (see the
    module docstring); only when one is missing, and name_pair is set,
    does ``_first_gap`` name the smallest pair. Without name_pair an A3
    defect has no offenders.
    """
    if 0 not in masks:
        return "A1", ()
    size = full.bit_length()
    if size <= _BITSET_STATES:
        bits = _bitset(masks, size)
        missing = bits & ~_complements(bits, size)
        if missing:
            return "A2", ((missing & -missing).bit_length() - 1,)
        closed = _add_unions(bits, _lacking(size)) == bits
    else:
        members = sorted(masks)
        for m in members:
            if (m ^ full) not in masks:
                return "A2", (m,)
        closed = all(
            a | b in masks for a in _atoms(members) for b in members if not a & b
        )
    if closed:
        return None
    return "A3", _first_gap(masks) if name_pair else ()


def _first_gap(masks: Collection[int]) -> tuple[int, int]:
    """The first disjoint pair a < b of sorted members whose union is not
    a member; masks must miss one."""
    return next(
        (a, b)
        for a, b in combinations(sorted(masks), 2)
        if not a & b and a | b not in masks
    )


def gfe_closure(
    events: Iterable[Event],
    space: StateSpace | None = None,
    *,
    max_size: int = DEFAULT_CLOSURE_CAP,
) -> ConcreteLogic:
    """Smallest concrete logic containing the given two-valued events.

    Fixpoint under complement and disjoint union, seeded with 0 and 1:
    each round adds the complements, then each atom's unions with the
    members disjoint from it. More than max_size members after a round,
    seeds included, raises BudgetExceededError; on a set the count is
    also tested before each atom, so it never passes 2 * max_size. An
    empty collection needs an explicit state space and yields {0, 1}.
    """
    items = list(events)
    if space is None and not items:
        raise ValueError("empty generation needs an explicit state space")
    space = _one_space(items, "events", space)
    full = (1 << space.size) - 1
    masks = {0, full, *map(event_mask, items)}
    if space.size <= _BITSET_STATES:
        bits, lacking, before = _bitset(masks, space.size), _lacking(space.size), 0
        while bits != before:  # bit 0 is set: 0 is a member
            before, bits = bits, _add_unions(bits | _complements(bits, space.size), lacking)
            if bits.bit_count() > max_size:
                raise BudgetExceededError("budget exceeded: closure size")
        return ConcreteLogic._closed(space, _set_bits(bits))
    before = 0
    while len(masks) != before:
        before = len(masks)
        masks |= {m ^ full for m in masks}
        for a in _atoms(masks):
            # a round can reach all 2**S masks; each atom at most doubles
            if len(masks) > max_size:
                break
            masks |= {a | b for b in masks if not a & b}
        if len(masks) > max_size:
            raise BudgetExceededError("budget exceeded: closure size")
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
        # the chain forces a(s) = 1 exactly where f(s) = 1 and g(s) = 0
        a = pointwise_min([f, complement(g)])
        return CommuteWitness(a, f, g) if contains(a) else None

    assert members is not None  # a ConcreteLogic only has two-valued members
    for a in members:
        if commutation_chain_holds(a, f, g):
            return CommuteWitness(a, f, g)
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


def boolean_by_minima(logic: ConcreteLogic, family: EventFamily) -> BooleanVerdict:
    """Minima criterion: the family is Boolean in P iff every non-empty
    subfamily's pointwise minimum belongs to P. Supported for n in
    {2, 3, 4}; the first missing subset in lexicographic order is
    reported. On success the witness a = p_I - p_(I u J) of each name in
    ``witness_relations`` is the mask meets[I] & ~meets[J] of the minima:
    for indicators the minimum over I u J is meets[I] & meets[J].
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
    # meets[s] is the minimum of the members in subset mask s; in
    # lexicographic order, s without its highest index comes before s
    meets = {0: (1 << logic.space.size) - 1}
    for subset in sorted(range(1, 1 << n), key=indices_from_mask):
        top = subset.bit_length() - 1
        meet = meets[subset ^ (1 << top)] & member_masks[top]
        if not logic.contains_mask(meet):
            missing = indices_from_mask(subset)
            return BooleanVerdict(boolean=False, missing_minimum=missing, witnesses=None)
        meets[subset] = meet
    witnesses: dict[str, Event] = {}
    for name, i_mask, j_mask in witness_relations(n):
        if name not in witnesses:
            witnesses[name] = mask_event(meets[i_mask] & ~meets[j_mask], logic.space)
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
