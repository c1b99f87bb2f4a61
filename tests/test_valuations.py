import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from numevents import (
    BudgetExceededError,
    SetFunction,
    complement_of_full,
    count_01_valuations,
    elementary_valuation,
    enumerate_01_valuations,
    f_transform,
    format_subset,
    g_transform,
    indices_from_mask,
    is_bell_valuation,
    mask_from_indices,
    pair_inequality,
    subset_labels,
    sum_all_elementary,
)
from numevents import valuations
from numevents.valuations import valuation_01
from helpers import direct_f, direct_g, valuation_rows_01


def popcount(mask):
    return bin(mask).count("1")


class TestMasks:
    def test_roundtrip(self):
        assert mask_from_indices((1, 3), 4) == 0b101
        assert indices_from_mask(0b101) == (1, 3)

    def test_format(self):
        assert format_subset(0b101) == "{1,3}"
        assert subset_labels(0b1011) == "124"

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            mask_from_indices((0,), 3)
        with pytest.raises(ValueError):
            mask_from_indices((4,), 3)
        with pytest.raises(ValueError):
            mask_from_indices((), 3)


class TestSetFunction:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            SetFunction(2, (1.0, 2.0))

    def test_value_by_mask(self):
        f = SetFunction(2, (10.0, 20.0, 30.0))
        assert f.value(0b01) == 10.0
        assert f.value(0b11) == 30.0
        with pytest.raises(ValueError):
            f.value(0)

    def test_from_map_and_support(self):
        f = SetFunction.from_map(3, {0b001: 1.0, 0b110: 1.0})
        assert f.support() == (0b001, 0b110)
        assert f.value(0b010) == 0.0

    def test_n_bounds(self):
        with pytest.raises(ValueError):
            SetFunction(0, ())

    @pytest.mark.parametrize("mask", [0, 8])
    def test_from_map_rejects_a_mask_out_of_range(self, mask):
        with pytest.raises(ValueError) as err:
            SetFunction.from_map(3, {mask: 1.0})
        assert str(err.value) == f"mask {mask} outside 1..7"


class TestTransforms:
    def test_point_mass_sums_over_supersets(self):
        f = SetFunction.from_map(3, {0b011: 1.0})
        g = g_transform(f)
        for mask, v in g.items():
            assert v == (1.0 if mask & 0b011 == 0b011 else 0.0)

    def test_inverse_of_point_mass_is_elementary(self):
        g = SetFunction.from_map(3, {0b011: 1.0})
        assert f_transform(g).values == elementary_valuation(0b011, 3).values

    def test_all_ones_inverts_to_alternating_signs(self):
        g = SetFunction(3, (1.0,) * 7)
        f = f_transform(g)
        assert f.values == sum_all_elementary(3).values

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_direct_double_loop(self, n):
        rng = random.Random(100 + n)
        for _ in range(25):
            vals = tuple(rng.uniform(-2, 2) for _ in range((1 << n) - 1))
            h = SetFunction(n, vals)
            assert g_transform(h).values == pytest.approx(
                direct_g(vals, n), abs=1e-12
            )
            assert f_transform(h).values == pytest.approx(
                direct_f(vals, n), abs=1e-12
            )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_transforms_are_mutually_inverse(self, n):
        rng = random.Random(200 + n)
        for _ in range(50):
            vals = tuple(rng.uniform(-3, 3) for _ in range((1 << n) - 1))
            h = SetFunction(n, vals)
            back = f_transform(g_transform(h)).values
            forth = g_transform(f_transform(h)).values
            assert back == pytest.approx(vals, abs=1e-9)
            assert forth == pytest.approx(vals, abs=1e-9)

    @given(
        st.integers(2, 3),
        st.lists(st.integers(-4, 4), min_size=7, max_size=7),
    )
    def test_integer_coefficients_stay_integer(self, n, raw):
        vals = tuple(float(v) for v in raw[: (1 << n) - 1])
        h = SetFunction(n, vals)
        for out in (g_transform(h), f_transform(h)):
            assert all(v == int(v) for v in out.values)

    def test_non_integer_input_can_stay_non_integer(self):
        h = SetFunction.from_map(2, {0b01: 0.5})
        assert any(v != int(v) for v in g_transform(h).values)


class TestElementary:
    def test_singleton_example(self):
        f = elementary_valuation(0b01, 2)
        assert f.values == (1.0, 0.0, -1.0)

    def test_full_set_is_a_point_mass(self):
        f = elementary_valuation(0b111, 3)
        assert f.values == (0.0,) * 6 + (1.0,)

    def test_signs_follow_superset_gap_parity(self):
        f = elementary_valuation(0b0101, 4)
        for mask, v in f.items():
            if mask & 0b0101 != 0b0101:
                assert v == 0.0
            else:
                assert v == (-1.0) ** popcount(mask ^ 0b0101)

    @pytest.mark.parametrize("mask", [0, 4])
    def test_mask_out_of_range_rejected(self, mask):
        with pytest.raises(ValueError) as err:
            elementary_valuation(mask, 2)
        assert str(err.value) == f"mask {mask} outside 1..3"

    def test_every_elementary_is_valid(self):
        for n in (2, 3, 4):
            for mask in range(1, 1 << n):
                assert is_bell_valuation(elementary_valuation(mask, n))


class TestValidity:
    def test_partial_sums_must_stay_in_unit_interval(self):
        assert is_bell_valuation(SetFunction.from_map(2, {0b01: 1.0}))
        assert not is_bell_valuation(SetFunction.from_map(2, {0b01: 2.0}))
        assert not is_bell_valuation(SetFunction.from_map(2, {0b11: -1.0}))

    @given(st.lists(st.integers(-2, 2), min_size=7, max_size=7))
    def test_agrees_with_direct_subset_sums(self, raw):
        vals = tuple(float(v) for v in raw)
        f = SetFunction(3, vals)
        direct = all(0.0 <= s <= 1.0 for s in direct_g(vals, 3))
        assert is_bell_valuation(f) == direct


class TestEnumeration:
    def test_counts_formula(self):
        assert count_01_valuations(2) == 7
        assert count_01_valuations(3) == 127
        assert count_01_valuations(4) == 32767

    def test_n2_listing(self):
        out = [f.values for f in enumerate_01_valuations(2)]
        assert len(out) == 7
        assert len(set(out)) == 7
        assert out[0] == (1.0, 0.0, -1.0)
        assert out[-1] == (1.0, 1.0, -1.0)

    def test_all_outputs_integer_and_valid(self):
        for n in (2, 3):
            seen = set()
            for f in enumerate_01_valuations(n):
                assert all(v == int(v) for v in f.values)
                assert is_bell_valuation(f)
                seen.add(f.values)
            assert len(seen) == count_01_valuations(n)

    def test_subset_sums_are_exactly_zero_or_one(self):
        for f in enumerate_01_valuations(3):
            assert set(g_transform(f).values) <= {0.0, 1.0}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_decoder_matches_the_float_transform_on_every_pattern(self, n):
        entries = (1 << n) - 1
        for packed in range(1 << entries):
            g = SetFunction(n, tuple(float((packed >> t) & 1) for t in range(entries)))
            decoded = valuation_01(packed, n)
            assert repr(decoded) == repr(f_transform(g)), packed
            if n <= 3:
                assert list(decoded.values) == direct_f(g.values, n), packed

    def test_decoder_above_the_cap_builds_no_tables(self):
        before = valuations._half_tables.cache_info().currsize
        for n in (5, 17, 10**6):
            with pytest.raises(BudgetExceededError, match=f"^n must be at most 4, got {n}$"):
                valuation_01(1, n)
        assert valuations._half_tables.cache_info().currsize == before

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_listing_is_the_recurrence_oracles(self, n):
        listing = list(enumerate_01_valuations(n))
        expected = [repr(SetFunction(n, tuple(row))) for row in valuation_rows_01(n)]
        assert list(map(repr, listing)) == expected
        # one float object per value
        values = [v for f in listing for v in f.values]
        assert len(set(map(id, values))) == len(set(values))

    def test_decoder_rejects_patterns_outside_the_lattice(self):
        for packed in (-1, 1 << 7):
            with pytest.raises(ValueError, match="outside 0..127"):
                valuation_01(packed, 3)

    def test_n_must_be_positive(self):
        # a generator: the check runs at the first next()
        listing = enumerate_01_valuations(0)
        with pytest.raises(ValueError, match="^n must be positive, got 0$"):
            next(listing)

    def test_cap_blocks_large_n(self):
        with pytest.raises(BudgetExceededError, match="^n must be at most 4, got 5$"):
            next(enumerate_01_valuations(5))


class TestClosedForms:
    def test_alternating_sum_small_cases(self):
        assert sum_all_elementary(1).values == (1.0,)
        assert sum_all_elementary(2).values == (1.0, 1.0, -1.0)
        assert sum_all_elementary(3).values == (1.0, 1.0, -1.0, 1.0, -1.0, -1.0, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_alternating_sum_equals_elementary_total(self, n):
        total = [0.0] * ((1 << n) - 1)
        for mask in range(1, 1 << n):
            for m, v in elementary_valuation(mask, n).items():
                total[m - 1] += v
        assert sum_all_elementary(n).values == pytest.approx(total, abs=0.0)

    def test_complement_of_full_small_case(self):
        assert complement_of_full(2).values == (1.0, 1.0, -2.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_complement_of_full_matches_inversion(self, n):
        full = (1 << n) - 1
        g = SetFunction(n, tuple(0.0 if m == full else 1.0 for m in range(1, full + 1)))
        f = complement_of_full(n)
        assert f.values == f_transform(g).values
        assert f.value(full) == -1.0 - (-1.0) ** n
        assert is_bell_valuation(f)


class TestSubsetParityIdentities:
    @pytest.mark.parametrize("size", range(0, 11))
    def test_signed_subset_counts_cancel(self, size):
        total = sum(
            (-1) ** r * len(list(itertools.combinations(range(size), r)))
            for r in range(size + 1)
        )
        assert total == (1 if size == 0 else 0)

    @pytest.mark.parametrize("size", range(1, 11))
    def test_even_and_odd_subsets_split_evenly(self, size):
        even = sum(
            len(list(itertools.combinations(range(size), r)))
            for r in range(0, size + 1, 2)
        )
        assert even == 2 ** (size - 1)


class TestPairInequality:
    def test_coefficients(self):
        f = pair_inequality(0b001, 0b010, 3)
        assert f.value(0b001) == 1.0
        assert f.value(0b010) == 1.0
        assert f.value(0b011) == -1.0
        assert f.support() == (0b001, 0b010, 0b011)

    @pytest.mark.parametrize("i, j, bad", [(0, 0b010, 0), (0b001, 0b1000, 8)])
    def test_mask_out_of_range_rejected(self, i, j, bad):
        with pytest.raises(ValueError) as err:
            pair_inequality(i, j, 3)
        assert str(err.value) == f"mask {bad} outside 1..7"

    def test_nested_sets_rejected(self):
        with pytest.raises(ValueError):
            pair_inequality(0b001, 0b011, 3)
        with pytest.raises(ValueError):
            pair_inequality(0b011, 0b001, 3)

    def test_subset_sums_indicate_covering_sets(self):
        i, j = 0b0011, 0b0100
        g = g_transform(pair_inequality(i, j, 4))
        for mask, v in g.items():
            covers = (mask & i == i) or (mask & j == j)
            assert v == (1.0 if covers else 0.0)

    def test_two_singletons_match_alternating_sum(self):
        assert pair_inequality(0b01, 0b10, 2).values == sum_all_elementary(2).values
