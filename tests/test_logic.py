import itertools
import math
import random
from collections import Counter

import pytest

from numevents import (
    BudgetExceededError,
    ConcreteLogic,
    CorrelationTable,
    Event,
    EventFamily,
    NotInLogicError,
    NotTwoValuedError,
    NumericalEventError,
    SpaceMismatchError,
    boolean_by_minima,
    boolean_oracle,
    check_concrete_logic,
    commutation_chain_holds,
    commute_witness,
    complement,
    event_mask,
    gen_boolean_algebra,
    gfe_closure,
    is_concrete_logic,
    mask_event,
    one_event,
    pointwise_min,
    witness_relations,
    witnesses_from_correlations,
    zero_event,
)
from numevents import correlations
from helpers import (
    blow_up,
    closure_oracle,
    gaps_reference,
    minimal_members,
    nontrivial_masks,
    random_logic,
    space,
)
from numevents.logic import (
    _atoms,
    _bitset,
    _bitset_atoms,
    _complements,
    _first_defect,
    _lacking,
    _set_bits,
)

SP3 = space(3)
SP4 = space(4)

# smallest logic with a non-Boolean pair: the even-cardinality subsets of
# a four-point space, generated by two overlapping two-point events
EVEN_SEEDS = (0b0011, 0b0101)
EVEN_LOGIC = gfe_closure([mask_event(m, SP4) for m in EVEN_SEEDS], SP4)
POWER3 = gfe_closure([mask_event(m, SP3) for m in (0b001, 0b010)], SP3)


def fam(logic, *masks):
    return EventFamily(tuple(mask_event(m, logic.space) for m in masks))


class TestMaskConversion:
    def test_bit_k_is_state_k(self):
        p = mask_event(0b011, SP4)
        assert p.values == (1.0, 1.0, 0.0, 0.0)
        assert event_mask(p) == 0b011

    def test_roundtrip_all_masks(self):
        for m in range(16):
            assert event_mask(mask_event(m, SP4)) == m

    def test_near_integer_values_snap(self):
        p = Event((1.0 - 1e-10, 1e-10, 0.0), SP3)
        assert event_mask(p) == 0b001

    def test_fractional_value_rejected(self):
        with pytest.raises(NotTwoValuedError):
            event_mask(Event((0.5, 0.0, 0.0), SP3))

    @pytest.mark.parametrize("mask", [-1, 16])
    def test_mask_outside_the_space_rejected(self, mask):
        with pytest.raises(ValueError) as err:
            mask_event(mask, SP4)
        assert str(err.value) == f"mask {mask} outside the state space"


class TestClosure:
    def test_empty_seed_gives_bounds_only(self):
        logic = gfe_closure([], SP3)
        assert logic.masks == frozenset({0, 0b111})

    def test_empty_seed_needs_a_space(self):
        with pytest.raises(ValueError):
            gfe_closure([])

    def test_space_taken_from_the_events(self):
        logic = gfe_closure([mask_event(m, SP4) for m in EVEN_SEEDS])
        assert logic == gfe_closure([mask_event(m, SP4) for m in EVEN_SEEDS], SP4)
        assert logic.space == SP4

    def test_every_space_checked_before_any_mask(self):
        # the first seed is not two-valued, the second on another space
        seeds = [Event((0.5, 0.0, 0.0), SP3), mask_event(0b0001, SP4)]
        with pytest.raises(SpaceMismatchError):
            gfe_closure(seeds)

    def test_single_seed(self):
        logic = gfe_closure([mask_event(0b0001, SP4)], SP4)
        assert logic.masks == frozenset({0, 0b1111, 0b0001, 0b1110})

    def test_two_overlapping_seeds(self):
        logic = gfe_closure([mask_event(m, SP4) for m in (0b0011, 0b0101)], SP4)
        assert logic.masks == frozenset(
            {0, 0b1111, 0b0011, 0b1100, 0b0101, 0b1010}
        )

    def test_even_cardinality_logic(self):
        logic = gfe_closure([mask_event(m, SP4) for m in (0b0011, 0b0101, 0b0110)], SP4)
        assert logic.masks == frozenset({0, 3, 5, 6, 9, 10, 12, 15})
        assert all(bin(m).count("1") % 2 == 0 for m in logic.masks)

    def test_matches_set_theoretic_fixpoint(self):
        rng = random.Random(7)
        for _ in range(30):
            num_states = rng.randint(2, 5)
            full = (1 << num_states) - 1
            seeds = rng.sample(range(1, full), min(3, full - 1))
            logic = gfe_closure(
                [mask_event(m, space(num_states)) for m in seeds],
                space(num_states),
            )
            assert logic.masks == closure_oracle(seeds, num_states)

    def test_closure_is_idempotent(self):
        again = gfe_closure(EVEN_LOGIC.events, EVEN_LOGIC.space)
        assert again.masks == EVEN_LOGIC.masks

    def test_result_satisfies_the_axioms(self):
        for seed in range(10):
            logic = random_logic(seed, 4, 2)
            assert check_concrete_logic(logic.events) is None

    def test_size_cap(self):
        seeds = [mask_event(1 << i, space(5)) for i in range(5)]
        with pytest.raises(BudgetExceededError):
            gfe_closure(seeds, space(5), max_size=8)

    def test_size_cap_stops_a_round_that_would_reach_every_subset(self):
        # one round from 30 singletons would add all 2**30 unions
        sp = space(30)
        with pytest.raises(BudgetExceededError, match="^budget exceeded: closure size$"):
            gfe_closure([mask_event(1 << i, sp) for i in range(30)], sp)

    def test_size_cap_covers_the_seeds(self):
        # the seeds are already closed, so no round adds a member
        with pytest.raises(BudgetExceededError):
            gfe_closure(POWER3.events, SP3, max_size=4)

    # the two cases above and the even logic, each as it is and blown up
    # above 16 states, where the closure runs on a set
    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize(
        "num_states, seeds, size",
        [(5, (1, 2, 4, 8, 16), 32), (3, tuple(range(8)), 8), (4, EVEN_SEEDS, 6)],
    )
    def test_both_routes_stop_at_the_same_size(
        self, wide, num_states, seeds, size, set_passes
    ):
        copies = [16 // num_states + 1 if wide else 1] * num_states
        sp = space(sum(copies))
        events = [mask_event(blow_up(m, copies), sp) for m in seeds]
        assert len(gfe_closure(events, sp, max_size=size)) == size
        with pytest.raises(BudgetExceededError, match="^budget exceeded: closure size$"):
            gfe_closure(events, sp, max_size=size - 1)
        assert bool(set_passes) == wide == (sp.size > 16)

    def test_non_two_valued_seed_rejected(self):
        with pytest.raises(NotTwoValuedError):
            gfe_closure([Event((0.5, 0.0, 0.0), SP3)], SP3)


class TestAxiomChecks:
    def test_power_set_is_a_logic(self):
        assert is_concrete_logic(POWER3.events)
        assert len(POWER3) == 8

    def test_missing_zero(self):
        events = [mask_event(m, SP4) for m in (1, 14, 15)]
        defect = check_concrete_logic(events)
        assert defect is not None and defect.axiom == "A1"

    def test_missing_complement(self):
        events = [mask_event(m, SP4) for m in (0, 15, 3)]
        defect = check_concrete_logic(events)
        assert defect is not None and defect.axiom == "A2"
        assert defect.offenders

    def test_missing_orthogonal_sum(self):
        events = [mask_event(m, SP4) for m in (0, 15, 1, 14, 2, 13)]
        defect = check_concrete_logic(events)
        assert defect is not None and defect.axiom == "A3"
        assert len(defect.offenders) == 2

    def test_fractional_member(self):
        events = [zero_event(SP3), one_event(SP3), Event((0.5, 0.0, 0.0), SP3)]
        defect = check_concrete_logic(events)
        assert defect is not None and defect.axiom == "two-valued"

    def test_constructor_enforces_the_same_axioms(self):
        with pytest.raises(ValueError):
            ConcreteLogic(space=SP4, masks=frozenset({0, 15, 3}))

    def test_constructor_rejects_a_mask_outside_the_space(self):
        with pytest.raises(ValueError) as err:
            ConcreteLogic(space=SP3, masks=frozenset({0, 7, 8, 15}))
        assert str(err.value) == "mask outside the state space"

    def test_from_events_needs_a_member(self):
        with pytest.raises(ValueError) as err:
            ConcreteLogic.from_events([])
        assert str(err.value) == "a concrete logic needs at least the zero event"

    def test_contains(self):
        assert EVEN_LOGIC.contains(mask_event(0b0011, SP4))
        assert not EVEN_LOGIC.contains(mask_event(0b0001, SP4))
        assert not EVEN_LOGIC.contains(Event((0.5, 0.0, 0.0, 0.0), SP4))
        assert not EVEN_LOGIC.contains(mask_event(0b001, SP3))


def _mask_sets(seed, count, max_states):
    """Closures of random seeds, some left whole, some broken on purpose."""
    rng = random.Random(seed)
    for _ in range(count):
        num_states = rng.randint(1, max_states)
        full = (1 << num_states) - 1
        seeds = rng.sample(range(full + 1), rng.randint(0, min(3, full + 1)))
        masks = set(closure_oracle(seeds, num_states))
        cut = rng.choice(sorted(masks))
        action = rng.randrange(4)
        if action == 1:
            masks.discard(cut)
        elif action == 2:
            # dropping a complementary pair keeps A2, so A3 is what breaks
            masks -= {cut, cut ^ full}
        elif action == 3:
            masks.add(rng.randrange(full + 1))
        yield num_states, frozenset(masks)


class TestKernelAgainstOracle:
    def test_checker_constructor_and_oracle_agree(self):
        seen = Counter()
        for num_states, masks in _mask_sets(11, 400, 6):
            sp = space(num_states)
            defect = check_concrete_logic([mask_event(m, sp) for m in masks])
            try:
                ConcreteLogic(space=sp, masks=masks)
                constructs = True
            except ValueError:
                constructs = False
            closed = 0 in masks and closure_oracle(masks, num_states) == masks
            assert (defect is None) == constructs == closed
            seen[defect.axiom if defect else None] += 1
        assert set(seen) == {None, "A1", "A2", "A3"}

    def test_a3_offenders_are_the_smallest_pair(self):
        checked = 0
        for num_states, masks in _mask_sets(12, 400, 6):
            sp = space(num_states)
            defect = check_concrete_logic([mask_event(m, sp) for m in masks])
            if defect is None or defect.axiom != "A3":
                continue
            smallest = min(
                (a, b)
                for a, b in itertools.combinations(sorted(masks), 2)
                if a & b == 0 and a | b not in masks
            )
            assert tuple(event_mask(e) for e in defect.offenders) == smallest
            checked += 1
        assert checked >= 10

    def test_closure_matches_the_oracle_up_to_8_states(self):
        rng = random.Random(13)
        for _ in range(60):
            num_states = rng.randint(1, 8)
            full = (1 << num_states) - 1
            seeds = rng.sample(range(full + 1), rng.randint(0, min(4, full + 1)))
            sp = space(num_states)
            logic = gfe_closure([mask_event(m, sp) for m in seeds], sp)
            assert logic.masks == closure_oracle(seeds, num_states)

    def test_set_route_closure_runs_the_bitset_rounds(self, set_passes, bitset_passes):
        small = gfe_closure([mask_event(m, space(6)) for m in (3, 6, 12, 24)], space(6))
        assert set_passes == []
        # three copies of each state: 18 states, where the closure runs on a set
        seeds = [mask_event(blow_up(m, [3] * 6), space(18)) for m in (3, 6, 12, 24)]
        logic = gfe_closure(seeds, space(18))
        assert len(logic) == len(small)
        # the blow-up keeps the order of the masks, so the set route runs
        # the bitset route's rounds, with one atom pass each, and the last
        # round, which adds nothing, finds the logic's atoms
        assert len(set_passes) > 1
        assert set_passes == bitset_passes
        assert set_passes[-1] == len(minimal_members(logic.masks))

    def test_constructor_checks_once(self, set_passes, named_gaps, bitset_passes):
        ConcreteLogic(space=EVEN_LOGIC.space, masks=EVEN_LOGIC.masks)
        # one bitset pass, over the four two-point members, and no set pass
        assert bitset_passes == [4]
        assert set_passes == named_gaps == []



def _blown_up_cases(seed, count):
    """Inputs of 6 to 8 states with each state blown up into 2 or 3
    copies, 17 to 24 states in all: closure seeds, and a member set with
    0 as _member_cases draws it, closed and cut or at random, or cut by
    a complementary pair or closed under complement, which only A3 fails."""
    rng = random.Random(seed)
    for _ in range(count):
        num_states = rng.randint(6, 8)
        copies = [rng.randint(2, 3) for _ in range(num_states)]
        while sum(copies) < 17:
            copies[rng.randrange(num_states)] = 3
        full = (1 << num_states) - 1
        seeds = rng.sample(range(1, full), rng.randint(0, 4))
        closure = sorted(closure_oracle(seeds, num_states))
        picks = rng.sample(range(full + 1), rng.randint(1, 30))
        masks = [
            set(closure) - set(rng.sample(closure, min(len(closure), rng.randint(0, 3)))),
            set(picks),
            set(closure) - {closure[-2], closure[-2] ^ full},
            {*picks, *(m ^ full for m in picks)},
        ][rng.randrange(4)]
        masks.add(0)
        yield num_states, copies, seeds, frozenset(masks)


class TestRoutesAgree:
    """Blowing each state up into adjacent copies embeds the masks of a
    small space in a space above 16 states, keeping their order, so the
    set route there must give the bitset route's results blown up."""

    def test_set_route_gives_the_blown_up_bitset_results(
        self, set_passes, bitset_passes
    ):
        seen = Counter()
        for num_states, copies, seeds, masks in _blown_up_cases(71, 60):
            wide = sum(copies)
            assert 17 <= wide <= 24

            def blown(items):
                return [blow_up(m, copies) for m in items]

            small, big = space(num_states), space(wide)
            logic = gfe_closure([mask_event(m, small) for m in seeds], small)
            defect = _first_defect(masks, (1 << num_states) - 1)
            set_passes.clear()
            bitset_passes.clear()
            wide_logic = gfe_closure([mask_event(m, big) for m in blown(seeds)], big)
            wide_masks = frozenset(blown(masks))
            wide_defect = _first_defect(wide_masks, (1 << wide) - 1)
            assert set_passes and not bitset_passes
            assert wide_logic.masks == closure_oracle(blown(seeds), wide)
            assert wide_logic.masks == frozenset(blown(logic.masks))
            gap = next(gaps_reference(wide_masks, (1 << wide) - 1, sorted(wide_masks)), None)
            assert wide_defect == (gap and (gap[0], gap[2]))
            assert wide_defect == (defect and (defect[0], tuple(blown(defect[1]))))
            seen[defect and defect[0]] += 1
        assert min(seen[axiom] for axiom in (None, "A2", "A3")) >= 5, seen


def _distinguishing_cases(seed, count):
    """Member sets with 0 over 17 to 20 states, where masks tell the
    states apart: the closure of up to five seeds of one to four states,
    whole or cut, and masks of one to four states, as drawn or closed
    under complement. Small masks are often disjoint, so unions matter."""
    rng = random.Random(seed)
    for _ in range(count):
        num_states = rng.randint(17, 20)
        full = (1 << num_states) - 1

        def small():
            return sum(1 << s for s in rng.sample(range(num_states), rng.randint(1, 4)))

        seeds = [small() for _ in range(rng.randint(0, 5))]
        closure = sorted(closure_oracle(seeds, num_states))
        cut = rng.choice(closure)
        picks = [small() for _ in range(rng.randint(1, 12))]
        masks = [
            set(closure),
            set(closure) - set(rng.sample(closure, min(len(closure), rng.randint(1, 3)))),
            # keeps A2, so A3 is what breaks
            set(closure) - {cut, cut ^ full},
            set(picks),
            {*picks, *(m ^ full for m in picks)},
        ][rng.randrange(5)]
        masks.add(0)
        yield num_states, seeds, closure, frozenset(masks)


def _chain_closed_form(chain, untouched):
    """The closure of a chain's adjacent pairs: the masks with as many
    even as odd chain positions, each also with the untouched states."""
    even, odd = chain[0::2], chain[1::2]
    balanced = [
        sum(1 << s for s in (*evens, *odds))
        for k in range(len(odd) + 1)
        for evens in itertools.combinations(even, k)
        for odds in itertools.combinations(odd, k)
    ]
    rest = sum(1 << s for s in untouched)
    return frozenset([*balanced, *(m | rest for m in balanced)])


class TestSetRoute:
    """Above 16 states, on masks that tell the states apart."""

    def test_chain_closure_in_a_wider_space_is_the_closed_form(
        self, set_passes, bitset_passes
    ):
        states = random.Random(2026).sample(range(18), 18)
        chain, untouched = states[:12], states[12:]
        sp = space(18)
        pairs = [(1 << a) | (1 << b) for a, b in zip(chain, chain[1:])]
        logic = gfe_closure([mask_event(m, sp) for m in pairs], sp)
        closed_form = _chain_closed_form(chain, untouched)
        assert len(closed_form) == 2 * math.comb(12, 6) == 1848
        assert logic.masks == closed_form
        assert set_passes and not bitset_passes

    def test_first_defect_is_the_first_reference_gap(self):
        seen = Counter()
        for num_states, seeds, closure, masks in _distinguishing_cases(81, 300):
            full = (1 << num_states) - 1
            sp = space(num_states)
            assert gfe_closure([mask_event(m, sp) for m in seeds], sp).masks == set(closure)
            gap = next(gaps_reference(masks, full, sorted(masks)), None)
            expected = gap and (gap[0], gap[2])
            assert _first_defect(masks, full) == expected
            seen[expected and expected[0]] += 1
        assert min(seen[axiom] for axiom in (None, "A2", "A3")) >= 20, seen


def _member_cases(seed, count):
    """Member sets with 0 over 1 to 10 states, some closed and broken."""
    rng = random.Random(seed)
    for _ in range(count):
        num_states = rng.randint(1, 10)
        full = (1 << num_states) - 1
        if rng.random() < 0.5:
            seeds = rng.sample(range(full + 1), rng.randint(0, min(4, full + 1)))
            masks = set(closure_oracle(seeds, num_states))
            # dropping members leaves missing complements and missing unions
            for cut in rng.sample(sorted(masks), min(len(masks), rng.randint(0, 3))):
                masks.discard(cut)
        else:
            masks = set(rng.sample(range(full + 1), min(full + 1, rng.randint(1, 60))))
        masks.add(0)
        yield masks, full


def _horizontal_sum(k, num_states):
    """MO_k: 0, 1 and k complementary pairs of half-size masks, none of
    them disjoint from another but its own complement."""
    full = (1 << num_states) - 1
    halves = [m for m in range(full + 1) if bin(m).count("1") * 2 == num_states]
    pairs = [m for m in halves if m < m ^ full][:k]
    return frozenset([0, full, *pairs, *(m ^ full for m in pairs)])


def _route_cases():
    """(masks, full) for the atom route: seeded sets, closed and broken,
    complement-closed sets, and small hand-made logics and near-logics."""
    for num_states, masks in _mask_sets(31, 300, 6):
        yield masks, (1 << num_states) - 1
    for masks, full in _member_cases(32, 600):
        yield frozenset(masks), full
    for num_states in range(1, 7):
        full = (1 << num_states) - 1
        yield frozenset([0]), full
        yield frozenset([0, full]), full
        yield frozenset(range(full + 1)), full
        # missing exactly one complement
        yield frozenset(range(full + 1)) - {1}, full
        # complement-closed, missing the unions that make a pair
        if num_states > 3:
            for pair in (m for m in range(full) if bin(m).count("1") == 2):
                yield frozenset(range(full + 1)) - {pair, pair ^ full}, full
    yield frozenset([1]), 1
    # complement-closed, so only a missing union can fail
    rng = random.Random(33)
    for _ in range(300):
        full = (1 << rng.randint(2, 6)) - 1
        picks = rng.sample(range(full + 1), rng.randint(1, min(12, full + 1)))
        yield frozenset([0, full, *picks, *(m ^ full for m in picks)]), full
    for k in range(1, 11):
        yield _horizontal_sum(k, 6), 63
        # without one member, its complement is missing
        yield _horizontal_sum(k, 6) - {0b000111}, 63
    # complement-closed, and only the atoms 0001 and 0010 lack their union
    yield frozenset([0, 0b0001, 0b1110, 0b0010, 0b1101, 0b1111]), 0b1111


class TestAtomRoute:
    def test_atoms_are_the_minimal_members(self):
        for masks, _full in _route_cases():
            assert _atoms(masks) == minimal_members(masks)

    def test_first_defect_is_the_first_reference_gap(self):
        seen = Counter()
        for masks, full in _route_cases():
            if 0 not in masks:
                expected = ("A1", ())
            else:
                gap = next(gaps_reference(masks, full, sorted(masks)), None)
                expected = gap and (gap[0], gap[2])
            assert _first_defect(masks, full) == expected
            seen[expected and expected[0]] += 1
        assert min(seen[axiom] for axiom in (None, "A1", "A2", "A3")) >= 20, seen

    def test_only_a_failing_set_runs_the_full_pass(self, named_gaps, bitset_passes):
        masks = frozenset([0, 0b0001, 0b1110, 0b0010, 0b1101, 0b1111])
        assert _first_defect(masks, 0b1111) == ("A3", (0b0001, 0b0010))
        assert bitset_passes == [2]
        assert named_gaps == [(0b0001, 0b0010)]

    def test_bitset_atoms_are_the_minimal_members(self):
        for masks, full in _route_cases():
            size = full.bit_length()
            atoms = _bitset_atoms(_bitset(masks, size), _lacking(size))
            assert atoms == minimal_members(masks)


class TestBitsets:
    def test_a_bitset_holds_its_masks(self):
        for masks, full in _member_cases(61, 300):
            bits = _bitset(masks, full.bit_length())
            assert bits == sum(1 << m for m in masks)
            assert list(_set_bits(bits)) == sorted(masks)
        assert list(_set_bits(0)) == []

    def test_reversal_complements_every_member(self):
        for masks, full in _member_cases(62, 300):
            size = full.bit_length()
            complements = _complements(_bitset(masks, size), size)
            assert complements == _bitset({m ^ full for m in masks}, size)

    def test_state_rows_mark_the_masks_lacking_the_state(self):
        for size in range(9):
            rows = _lacking(size)
            assert len(rows) == size
            for k, row in enumerate(rows):
                assert row == _bitset([m for m in range(1 << size) if not m >> k & 1], size)


def _balanced(chain):
    """Masks with as many even as odd chain positions."""
    even = sum(1 << s for s in chain[0::2])
    odd = sum(1 << s for s in chain[1::2])
    return frozenset(
        m
        for m in range(1 << len(chain))
        if bin(m & even).count("1") == bin(m & odd).count("1")
    )


class TestChainAtBenchmarkScale:
    """The closure of a 14-state chain of adjacent pairs has 3432 members.

    Each adjacent pair holds one even and one odd chain position, and
    complements and disjoint unions keep the two counts equal, so the
    closure is the set of balanced masks: C(14, 7) of them.
    """

    STATES = 14
    CHAIN = random.Random(2024).sample(range(STATES), STATES)
    FULL = (1 << STATES) - 1

    def test_closure_is_the_balanced_masks(self):
        sp = space(self.STATES)
        pairs = [(1 << a) | (1 << b) for a, b in zip(self.CHAIN, self.CHAIN[1:])]
        logic = gfe_closure([mask_event(m, sp) for m in pairs], sp)
        balanced = _balanced(self.CHAIN)
        assert len(balanced) == math.comb(self.STATES, self.STATES // 2) == 3432
        assert logic.masks == balanced
        assert len(ConcreteLogic(space=sp, masks=balanced)) == 3432

    def test_constructor_checks_the_49_atoms_once(self, set_passes, named_gaps):
        sp = space(self.STATES)
        pairs = [(1 << a) | (1 << b) for a, b in zip(self.CHAIN, self.CHAIN[1:])]
        logic = gfe_closure([mask_event(m, sp) for m in pairs], sp)
        assert len(logic) == 3432
        ConcreteLogic(space=sp, masks=logic.masks)
        assert set_passes == []
        # two copies of each state: 28 states, where the check runs on a set
        copies = [2] * self.STATES
        wide = space(2 * self.STATES)
        doubled = frozenset(blow_up(m, copies) for m in logic.masks)
        assert len(doubled) == 3432
        ConcreteLogic(space=wide, masks=doubled)
        # the atoms pair one even with one odd chain position: 7 * 7
        assert set_passes == [49]
        assert named_gaps == []

    @pytest.mark.parametrize("removal", ["member", "complement pair", "one"])
    def test_broken_chain_logic_reports_the_first_reference_gap(self, removal):
        balanced = _balanced(self.CHAIN)
        c = self.CHAIN
        union = (1 << c[0]) | (1 << c[1]) | (1 << c[2]) | (1 << c[3])
        cut = {
            "member": {union},
            # with its complement gone too, the union is missed only as a sum
            "complement pair": {union, union ^ self.FULL},
            "one": {self.FULL},
        }[removal]
        masks = balanced - cut
        axiom, _missing, offenders = next(gaps_reference(masks, self.FULL, sorted(masks)))
        assert axiom == ("A3" if removal == "complement pair" else "A2")
        sp = space(self.STATES)
        defect = check_concrete_logic([mask_event(m, sp) for m in sorted(masks)])
        assert defect.axiom == axiom
        assert tuple(event_mask(e) for e in defect.offenders) == offenders
        with pytest.raises(ValueError, match=f"closure axiom {axiom} violated"):
            ConcreteLogic(space=sp, masks=masks)

class TestCommuteWitness:
    def test_power_set_pairs_follow_the_truth_table(self):
        for f in POWER3.events:
            for g in POWER3.events:
                w = commute_witness(POWER3, f, g)
                assert w is not None
                for av, fv, gv in zip(w.a.values, f.values, g.values):
                    assert av == (1.0 if fv == 1.0 and gv == 0.0 else 0.0)

    def test_even_logic_pair_fails(self):
        f = mask_event(0b0011, SP4)
        g = mask_event(0b0101, SP4)
        assert commute_witness(EVEN_LOGIC, f, g) is None

    def test_self_pair_uses_the_zero_witness(self):
        f = mask_event(0b0011, SP4)
        w = commute_witness(EVEN_LOGIC, f, f)
        assert w is not None
        assert w.a.values == zero_event(SP4).values

    def test_witness_satisfies_the_chain(self):
        for seed in range(15):
            logic = random_logic(seed, 4, 2)
            events = logic.events
            for f, g in itertools.product(events, repeat=2):
                w = commute_witness(logic, f, g)
                if w is not None:
                    assert commutation_chain_holds(w.a, f, g)

    def test_comparable_members_always_commute(self):
        from numevents import leq

        for seed in range(15):
            logic = random_logic(seed, 4, 2)
            events = logic.events
            for f, g in itertools.product(events, repeat=2):
                if leq(f, g):
                    assert commute_witness(logic, f, g) is not None
                    assert commute_witness(logic, g, f) is not None

    def test_commuting_with_g_matches_commuting_with_its_complement(self):
        for seed in range(15):
            logic = random_logic(seed, 4, 2)
            events = logic.events
            for f, g in itertools.product(events, repeat=2):
                with_g = commute_witness(logic, f, g) is not None
                with_gc = commute_witness(logic, f, complement(g)) is not None
                assert with_g == with_gc

    def test_membership_required(self):
        with pytest.raises(NotInLogicError):
            commute_witness(EVEN_LOGIC, mask_event(0b0001, SP4), mask_event(0b0011, SP4))
        with pytest.raises(NotInLogicError):
            commute_witness(EVEN_LOGIC, mask_event(0b0011, SP4), mask_event(0b0001, SP4))

    def test_space_mismatch_rejected(self):
        with pytest.raises(SpaceMismatchError):
            commute_witness(EVEN_LOGIC, mask_event(0b001, SP3), mask_event(0b0011, SP4))

    def test_general_members_search_the_whole_set(self):
        sp = space(2)
        a = Event((0.3, 0.0), sp)
        f = Event((0.5, 0.3), sp)
        g = Event((0.2, 0.8), sp)
        members = [zero_event(sp), one_event(sp), a, f, g]
        w = commute_witness(members, f, g)
        assert w is not None
        assert w.a.values == a.values

    def test_empty_member_set_rejected(self):
        f = mask_event(0b0011, SP4)
        with pytest.raises(ValueError) as err:
            commute_witness([], f, f)
        assert str(err.value) == "empty member set"

    def test_general_members_can_fail(self):
        sp = space(2)
        f = Event((0.5, 0.3), sp)
        g = Event((0.2, 0.8), sp)
        members = [zero_event(sp), one_event(sp), f, g]
        assert commute_witness(members, f, g) is None


class TestMinimaCriterion:
    def test_even_logic_pair_is_not_boolean(self):
        verdict = boolean_by_minima(EVEN_LOGIC, fam(EVEN_LOGIC, 0b0011, 0b0101))
        assert verdict.boolean is False
        assert verdict.missing_minimum == (1, 2)
        assert verdict.witnesses is None

    def test_power_set_pair_is_boolean(self):
        verdict = boolean_by_minima(POWER3, fam(POWER3, 0b011, 0b101))
        assert verdict.boolean is True
        assert verdict.missing_minimum is None
        assert set(verdict.witnesses) == {"a_12"}
        assert verdict.witnesses["a_12"].values == (0.0, 1.0, 0.0)

    def test_complementary_pair_is_boolean(self):
        logic = gfe_closure([mask_event(0b0011, SP4)], SP4)
        family = fam(logic, 0b0011, 0b1100)
        verdict = boolean_by_minima(logic, family)
        assert verdict.boolean is True
        assert verdict.witnesses["a_12"].values == (1.0, 1.0, 0.0, 0.0)

    def test_power_set_triple(self):
        verdict = boolean_by_minima(POWER3, fam(POWER3, 0b011, 0b101, 0b110))
        assert verdict.boolean is True
        assert list(verdict.witnesses) == ["a_12", "a_13", "a_23", "a_1213"]
        family = fam(POWER3, 0b011, 0b101, 0b110).events
        for name, witness in verdict.witnesses.items():
            assert commutation_chain_holds(
                witness, family[0], family[int(name[3]) - 1]
            ) or name == "a_1213"

    def test_missing_subset_is_lexicographically_first(self):
        for seed in range(20):
            logic = random_logic(seed, 4, 2)
            pool = nontrivial_masks(logic)
            if len(pool) < 3:
                continue
            family = fam(logic, *pool[:3])
            verdict = boolean_by_minima(logic, family)
            expected = None
            for subset in sorted(
                tuple(sorted(c))
                for r in (1, 2, 3)
                for c in itertools.combinations(range(1, 4), r)
            ):
                combined = pointwise_min([family.events[i - 1] for i in subset])
                if not logic.contains(combined):
                    expected = subset
                    break
            if expected is None:
                assert verdict.boolean is True
            else:
                assert verdict.boolean is False
                assert verdict.missing_minimum == expected

    def test_family_size_bounds(self):
        with pytest.raises(NumericalEventError):
            boolean_by_minima(POWER3, fam(POWER3, 0b011))
        big = gfe_closure([mask_event(1 << i, space(5)) for i in range(5)], space(5))
        masks = (0b00001, 0b00010, 0b00100, 0b01000, 0b10000)
        with pytest.raises(NumericalEventError):
            boolean_by_minima(big, fam(big, *masks))

    def test_witnesses_equal_those_of_the_minima_table(self):
        rng = random.Random(7)
        booleans = Counter()
        for seed in range(80):
            logic = random_logic(seed, 3 + seed % 5, 2 + seed % 3)
            pool = nontrivial_masks(logic)
            for n in (2, 3, 4):
                if len(pool) < n:
                    continue
                family = fam(logic, *rng.sample(pool, n))
                verdict = boolean_by_minima(logic, family)
                if not verdict.boolean:
                    continue
                booleans[n] += 1
                table = CorrelationTable.build(
                    logic.space,
                    n,
                    {
                        mask: pointwise_min(
                            [p for i, p in enumerate(family) if mask >> i & 1]
                        )
                        for mask in range(1, 1 << n)
                    },
                )
                expected = witnesses_from_correlations(table)
                assert list(verdict.witnesses.items()) == list(expected.items())
        assert min(booleans[n] for n in (2, 3, 4)) >= 10

    def test_builds_no_table_and_evaluates_no_row(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("called from boolean_by_minima")

        monkeypatch.setattr(CorrelationTable, "build", classmethod(refuse))
        monkeypatch.setattr(correlations, "_evaluate_rows", refuse)
        family = fam(POWER3, 0b011, 0b101, 0b110)
        assert list(boolean_by_minima(POWER3, family).witnesses) == [
            "a_12",
            "a_13",
            "a_23",
            "a_1213",
        ]
        big = gfe_closure([mask_event(1 << i, SP4) for i in range(4)], SP4)
        family = fam(big, 0b0011, 0b0110, 0b1100, 0b1001)
        names = dict.fromkeys(name for name, _i, _j in witness_relations(4))
        assert list(boolean_by_minima(big, family).witnesses) == list(names)

    def test_family_must_belong_to_the_logic(self):
        family = fam(EVEN_LOGIC, 0b0011, 0b0111)
        with pytest.raises(NotInLogicError):
            boolean_by_minima(EVEN_LOGIC, family)

    def test_family_space_must_match(self):
        family = fam(POWER3, 0b011, 0b101)
        with pytest.raises(SpaceMismatchError):
            boolean_by_minima(EVEN_LOGIC, family)


class TestBooleanOracle:
    def test_even_logic_pair(self):
        assert boolean_oracle(EVEN_LOGIC, fam(EVEN_LOGIC, 0b0011, 0b0101)) is False

    def test_family_space_must_match(self):
        with pytest.raises(SpaceMismatchError):
            boolean_oracle(EVEN_LOGIC, fam(POWER3, 0b011, 0b101))

    def test_power_set_pair(self):
        assert boolean_oracle(POWER3, fam(POWER3, 0b011, 0b101)) is True

    def test_complementary_pair(self):
        logic = gfe_closure([mask_event(0b0011, SP4)], SP4)
        assert boolean_oracle(logic, fam(logic, 0b0011, 0b1100)) is True

    def test_agrees_with_the_minima_criterion(self):
        for seed in range(25):
            logic = random_logic(seed, 4, 2)
            pool = nontrivial_masks(logic)
            for a, b in itertools.combinations(pool[:6], 2):
                family = fam(logic, a, b)
                assert boolean_oracle(logic, family) == boolean_by_minima(
                    logic, family
                ).boolean

    def test_general_members_positive(self):
        algebra = gen_boolean_algebra(k=3, num_states=2, seed=11)
        family = algebra.family((0b011, 0b101))
        assert boolean_oracle(algebra.all_events(), family) is True

    def test_general_members_negative(self):
        sp = space(2)
        f = Event((0.5, 0.3), sp)
        g = Event((0.6, 0.8), sp)
        members = [zero_event(sp), one_event(sp), f, g]
        family = EventFamily((f, g))
        assert boolean_oracle(members, family) is False

    def test_budget_is_enforced(self):
        # a positive instance spends one node per coordinate region
        power4 = gfe_closure([mask_event(1 << i, SP4) for i in range(4)], SP4)
        family = fam(power4, 0b0011, 0b0101)
        assert boolean_oracle(power4, family) is True
        with pytest.raises(BudgetExceededError):
            boolean_oracle(power4, family, budget=2)

    def test_member_cap_is_enforced(self):
        with pytest.raises(BudgetExceededError):
            boolean_oracle(
                EVEN_LOGIC, fam(EVEN_LOGIC, 0b0011, 0b0101), member_cap=4
            )

    def test_family_membership_required(self):
        family = fam(EVEN_LOGIC, 0b0011, 0b0111)
        with pytest.raises(NotInLogicError):
            boolean_oracle(EVEN_LOGIC, family)

    def test_empty_member_set_rejected(self):
        with pytest.raises(ValueError) as err:
            boolean_oracle([], fam(POWER3, 0b011, 0b101))
        assert str(err.value) == "empty member set"

    def test_general_members_need_the_family_in_p(self):
        sp = space(2)
        f = Event((0.5, 0.3), sp)
        g = Event((0.6, 0.8), sp)
        members = [zero_event(sp), one_event(sp), f]
        with pytest.raises(NotInLogicError) as err:
            boolean_oracle(members, EventFamily((f, g)))
        assert str(err.value) == "family member not in P"


# one event on three states and one on four, for every shared-space check
MIXED = (mask_event(0b001, SP3), mask_event(0b0001, SP4))


@pytest.mark.parametrize(
    "call, what",
    [
        pytest.param(lambda: EventFamily(MIXED), "family members", id="EventFamily"),
        pytest.param(lambda: pointwise_min(MIXED), "events", id="pointwise_min"),
        pytest.param(
            lambda: ConcreteLogic.from_events(MIXED), "logic members", id="from_events"
        ),
        pytest.param(lambda: gfe_closure(MIXED), "events", id="gfe_closure"),
        pytest.param(
            lambda: gfe_closure(MIXED[1:], SP3), "events", id="gfe_closure-space"
        ),
        pytest.param(
            lambda: check_concrete_logic(MIXED), "logic members", id="check_concrete_logic"
        ),
        pytest.param(
            lambda: boolean_oracle(MIXED, fam(POWER3, 0b001, 0b010)),
            "members",
            id="boolean_oracle",
        ),
    ],
)
def test_each_shared_space_check_names_its_events(call, what):
    with pytest.raises(SpaceMismatchError) as err:
        call()
    assert str(err.value) == f"{what} reference different state spaces"
