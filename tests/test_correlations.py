import itertools

import pytest

from numevents import (
    CorrelationTable,
    Event,
    InequalityViolatedError,
    MissingCorrelationError,
    MonotonicityError,
    SetFunction,
    SpaceMismatchError,
    check_bell_like,
    commutation_chain_holds,
    evaluate_inequality,
    gen_boolean_algebra,
    is_bell_valuation,
    pair_inequality,
    pair_schedule,
    subset_labels,
    sum_all_elementary,
    witness_relations,
    witnesses_from_correlations,
)
from helpers import space

SP1 = space(1)
SP2 = space(2)


def table(space_, n, mapping):
    entries = {
        mask: Event(tuple(vals), space_) for mask, vals in mapping.items()
    }
    return CorrelationTable.build(space_, n, entries)


# single-state fixture: marginals one half, every joint correlation zero
CHSH = table(SP1, 3, {m: (0.5,) if m in (1, 2, 4) else (0.0,) for m in range(1, 8)})

# worked two-party fixture with an exactly consistent joint
PAIR2 = table(
    SP2,
    2,
    {0b01: (0.6, 0.2), 0b10: (0.5, 0.3), 0b11: (0.4, 0.1)},
)


class TestTableConstruction:
    def test_n_must_be_positive(self):
        with pytest.raises(ValueError) as err:
            CorrelationTable.build(SP1, 0, {})
        assert str(err.value) == "n must be positive, got 0"

    def test_entries_exposed_by_mask(self):
        assert PAIR2.event(0b01).values == (0.6, 0.2)
        assert PAIR2.event(0b11).values == (0.4, 0.1)

    def test_missing_entry_lookup_raises(self):
        sparse = table(SP1, 3, {1: (0.5,), 2: (0.5,), 4: (0.5,)})
        with pytest.raises(MissingCorrelationError):
            sparse.event(0b011)

    def test_missing_masks_listed_in_order(self):
        sparse = table(SP1, 3, {1: (0.5,), 2: (0.5,), 4: (0.5,)})
        assert sparse.missing_masks() == (3, 5, 6, 7)
        assert CHSH.missing_masks() == ()

    def test_base_events_are_mandatory(self):
        with pytest.raises(MissingCorrelationError) as err:
            table(SP1, 2, {1: (0.5,), 3: (0.2,)})
        assert "{2}" in str(err.value)

    def test_joint_may_not_exceed_a_marginal(self):
        with pytest.raises(MonotonicityError) as err:
            table(SP2, 2, {1: (0.6, 0.2), 2: (0.5, 0.3), 3: (0.4, 0.25)})
        assert "p_12 exceeds p_1" in str(err.value)

    def test_monotonicity_checked_between_joints_too(self):
        mapping = {
            1: (0.9,), 2: (0.9,), 4: (0.9,),
            3: (0.5,), 5: (0.5,), 6: (0.5,),
            7: (0.6,),
        }
        with pytest.raises(MonotonicityError):
            table(SP1, 3, mapping)

    def test_mask_range_checked(self):
        with pytest.raises(ValueError):
            table(SP1, 2, {1: (0.5,), 2: (0.5,), 4: (0.5,)})

    def test_space_mismatch_rejected(self):
        entries = {
            1: Event((0.5,), SP1),
            2: Event((0.5, 0.5), SP2),
        }
        with pytest.raises(SpaceMismatchError):
            CorrelationTable.build(SP1, 2, entries)

    def test_base_family_in_index_order(self):
        fam = PAIR2.base_family()
        assert [e.values for e in fam] == [(0.6, 0.2), (0.5, 0.3)]


class TestEvaluate:
    def test_pair_row_on_the_worked_fixture(self):
        result = evaluate_inequality(pair_inequality(1, 2, 2), PAIR2)
        assert result.per_state == pytest.approx((0.7, 0.4), abs=1e-12)
        assert not result.violated
        assert result.violating_state is None

    def test_full_alternating_sum_breaks_the_chsh_fixture(self):
        result = evaluate_inequality(sum_all_elementary(3), CHSH)
        assert result.per_state == pytest.approx((1.5,), abs=1e-12)
        assert result.violated
        assert result.violating_state == "s1"
        assert result.max_value == pytest.approx(1.5, abs=1e-12)

    def test_zero_valuation_never_violates(self):
        result = evaluate_inequality(SetFunction.zero(3), CHSH)
        assert result.per_state == (0.0,)
        assert not result.violated

    def test_support_must_be_present(self):
        sparse = table(SP1, 2, {1: (0.5,), 2: (0.5,)})
        with pytest.raises(MissingCorrelationError) as err:
            evaluate_inequality(pair_inequality(1, 2, 2), sparse)
        assert "{1,2}" in str(err.value)

    def test_the_lowest_missing_correlation_is_named(self):
        sparse = table(SP1, 3, {1: (0.5,), 2: (0.5,), 4: (0.5,)})
        # p_12 + p_13 - p_123 references {1,2}, {1,3} and {1,2,3}, none held
        with pytest.raises(MissingCorrelationError) as err:
            evaluate_inequality(pair_inequality(0b011, 0b101, 3), sparse)
        assert str(err.value) == "missing correlation {1,2}"

    def test_n_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate_inequality(sum_all_elementary(3), PAIR2)

    def test_below_zero_counts_as_violation(self):
        # -p_1 has coefficient sums outside [0,1]; still evaluable
        f = SetFunction.from_map(2, {1: -1.0})
        result = evaluate_inequality(f, PAIR2)
        assert result.violated
        assert result.min_value == pytest.approx(-0.6, abs=1e-12)


class TestSchedule:
    def test_row_counts(self):
        assert len(pair_schedule(2)) == 1
        assert len(pair_schedule(3)) == 5
        assert len(pair_schedule(4)) == 23

    def test_unsupported_n(self):
        for bad in (1, 5):
            with pytest.raises(ValueError):
                pair_schedule(bad)

    def test_rows_are_unordered_pairs_without_nesting(self):
        for n in (2, 3, 4):
            seen = set()
            for i, j in pair_schedule(n):
                assert i & j != i and i & j != j
                key = frozenset((i, j))
                assert key not in seen
                seen.add(key)

    def test_n3_rows(self):
        assert pair_schedule(3) == (
            (1, 2), (1, 4), (2, 4), (3, 5), (3, 6),
        )

    def test_n4_first_and_last_rows(self):
        rows = pair_schedule(4)
        assert rows[0] == (1, 2)
        assert rows[-1] == (0b1101, 0b1110)


class TestCheckBellLike:
    def test_worked_pair_fixture_consistent(self):
        results = check_bell_like(PAIR2)
        assert len(results) == 1
        assert results[0].label == "p_1 + p_2 - p_12 <= 1"
        assert not results[0].violated

    def test_chsh_fixture_passes_every_pair_row(self):
        results = check_bell_like(CHSH)
        assert len(results) == 5
        for row in results[:3]:
            assert not row.violated
            assert row.max_value == pytest.approx(1.0, abs=1e-12)
        for row in results[3:]:
            # joint-against-joint rows evaluate to zero on this fixture
            assert not row.violated
            assert row.max_value == pytest.approx(0.0, abs=1e-12)

    def test_every_row_matches_its_pair_valuation(self):
        for n in (2, 3, 4):
            algebra = gen_boolean_algebra(k=4, num_states=3, seed=n)
            masks = [0b0011, 0b0110, 0b1100, 0b1001][:n]
            tab = algebra.correlation_table(masks)
            results = check_bell_like(tab)
            for row, (i, j) in zip(results, pair_schedule(n)):
                direct = evaluate_inequality(pair_inequality(i, j, n), tab)
                assert row.per_state == direct.per_state
                assert f"p_{subset_labels(i)}" in row.label

    def test_violation_detected_with_state(self):
        bad = table(SP1, 2, {1: (0.9,), 2: (0.9,), 3: (0.5,)})
        results = check_bell_like(bad)
        assert results[0].violated
        assert results[0].violating_state == "s1"
        assert results[0].max_value == pytest.approx(1.3, abs=1e-12)

    def test_every_scheduled_row_is_a_valid_valuation(self):
        for n in (2, 3, 4):
            for i, j in pair_schedule(n):
                assert is_bell_valuation(pair_inequality(i, j, n))


class TestWitnesses:
    def test_relation_counts_and_first_names(self):
        assert [name for name, _, _ in witness_relations(2)] == ["a_12"]
        # one relation per schedule row; rows sharing a difference share a name
        names3 = [name for name, _, _ in witness_relations(3)]
        assert names3 == ["a_12", "a_13", "a_23", "a_1213", "a_1213"]
        names4 = [name for name, _, _ in witness_relations(4)]
        assert len(names4) == 23
        assert len(set(names4)) == 16
        assert names4[:6] == ["a_12", "a_13", "a_14", "a_23", "a_24", "a_34"]
        assert names4[-1] == "a_134234"

    def test_worked_pair_fixture_witness(self):
        wit = witnesses_from_correlations(PAIR2)
        assert set(wit) == {"a_12"}
        assert wit["a_12"].values == pytest.approx((0.2, 0.1), abs=1e-12)

    def test_witnesses_satisfy_their_chains(self):
        for n in (2, 3, 4):
            algebra = gen_boolean_algebra(k=5, num_states=4, seed=20 + n)
            masks = [0b00011, 0b00110, 0b01100, 0b11000][:n]
            tab = algebra.correlation_table(masks)
            wit = witnesses_from_correlations(tab)
            assert len(wit) == {2: 1, 3: 4, 4: 16}[n]
            for name, i_mask, j_mask in witness_relations(n):
                a = wit[name]
                assert commutation_chain_holds(
                    a, tab.event(i_mask), tab.event(j_mask)
                )

    def test_violated_table_is_rejected(self):
        bad = table(SP1, 2, {1: (0.9,), 2: (0.9,), 3: (0.5,)})
        with pytest.raises(InequalityViolatedError):
            witnesses_from_correlations(bad)

    def test_chsh_fixture_still_yields_witnesses(self):
        # pairwise rows all pass, so witnesses exist despite the deeper violation
        wit = witnesses_from_correlations(CHSH)
        assert len(wit) == 4
        assert wit["a_12"].values == (0.5,)
