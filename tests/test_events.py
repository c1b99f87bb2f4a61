import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from numevents import (
    DuplicateEventError,
    Event,
    EventFamily,
    NotComparableError,
    NotOrthogonalError,
    NumericalEventError,
    SpaceMismatchError,
    StateSpace,
    ValueRangeError,
    approx_equal,
    complement,
    difference,
    eps_scope,
    get_eps,
    is_proper,
    is_two_valued,
    leq,
    one_event,
    ortho_sum,
    orthogonal,
    pointwise_min,
    set_eps,
    zero_event,
)
from helpers import GRID, event_values_reference, space

SP2 = space(2)
SP3 = space(3)


def ev(*values):
    return Event(tuple(values), space(len(values)))


def grid_event(num_states):
    sp = space(num_states)
    return st.tuples(*([st.sampled_from(GRID)] * num_states)).map(
        lambda t: Event(t, sp)
    )


# Multiples of 1/64 are exact binary floats, so 1 - (1 - v) == v exactly.
DYADIC = tuple(i / 64 for i in range(65))


def dyadic_event(num_states):
    sp = space(num_states)
    return st.tuples(*([st.sampled_from(DYADIC)] * num_states)).map(
        lambda t: Event(t, sp)
    )


class TestStateSpace:
    def test_labels_kept_in_order(self):
        sp = StateSpace(("b", "a", "c"))
        assert sp.labels == ("b", "a", "c")
        assert sp.size == 3

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            StateSpace(("s1", "s1"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            StateSpace(())


class TestEventConstruction:
    def test_length_must_match_space(self):
        with pytest.raises(ValueError):
            Event((0.5,), SP2)

    def test_rounding_spill_is_clamped(self):
        p = Event((1.0 + 5e-10, -5e-10), SP2)
        assert p.values == (1.0, 0.0)

    @pytest.mark.parametrize("bad", [1.1, -0.01, 2.0, float("nan")])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueRangeError) as err:
            Event((bad, 0.5), SP2)
        assert "s1" in str(err.value)

    def test_zero_and_one(self):
        assert zero_event(SP3).values == (0.0, 0.0, 0.0)
        assert one_event(SP3).values == (1.0, 1.0, 1.0)


# values the clamping loop treats each in its own way: signed zeros, NaN,
# the infinities, ints, values within tolerance of 0 and 1, and strings
LOOP_VALUES = st.one_of(
    st.sampled_from(
        [-0.0, 0.0, 1.0, 5e-324, -5e-324, float("nan"), float("inf"), -float("inf")]
    ),
    st.integers(-2, 2),
    st.floats(-2e-9, 2e-9),
    st.floats(1.0 - 2e-9, 1.0 + 2e-9),
    st.floats(0.0, 1.0),
    st.sampled_from(["0.5", " 1 ", "-0.0", "1e-10", "nan", "-inf", "x", "", "0x1"]),
)


@st.composite
def loop_inputs(draw):
    num_states = draw(st.integers(1, 4))
    length = draw(st.one_of(st.just(num_states), st.integers(0, 5)))
    return num_states, draw(st.lists(LOOP_VALUES, min_size=length, max_size=length))


# set_eps rejects 0, so the smallest positive float stands in for it
@pytest.mark.parametrize("eps", [5e-324, 1e-9])
@given(case=loop_inputs())
def test_event_stores_what_the_clamping_loop_gives(eps, case):
    set_eps(eps)
    num_states, values = case
    sp = space(num_states)
    outcomes = []
    for build in (event_values_reference, lambda v, s: Event(v, s).values):
        try:
            outcomes.append(repr(build(tuple(values), sp)))
        except (NumericalEventError, ValueError, TypeError) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


class TestPointwiseOps:
    def test_complement_values(self):
        c = complement(ev(0.2, 0.7))
        assert c.values == pytest.approx((0.8, 0.3), abs=1e-12)

    def test_leq_examples(self):
        assert leq(ev(0.2, 0.6), ev(0.3, 0.8))
        assert not leq(ev(0.2, 0.9), ev(0.3, 0.8))

    def test_leq_requires_same_space(self):
        with pytest.raises(SpaceMismatchError):
            leq(ev(0.5), ev(0.5, 0.5))

    def test_approx_equal_false_across_spaces(self):
        assert not approx_equal(ev(0.5), ev(0.5, 0.5))

    def test_orthogonal_examples(self):
        assert orthogonal(ev(0.2, 0.6), ev(0.8, 0.4))
        assert not orthogonal(ev(0.2, 0.61), ev(0.8, 0.4))

    def test_ortho_sum_example(self):
        s = ortho_sum(ev(0.2, 0.6), ev(0.3, 0.4))
        assert s.values == pytest.approx((0.5, 1.0), abs=1e-12)

    def test_ortho_sum_rejects_overlap(self):
        with pytest.raises(NotOrthogonalError):
            ortho_sum(ev(0.6, 0.6), ev(0.6, 0.1))

    def test_difference_example(self):
        d = difference(ev(0.9, 0.5), ev(0.4, 0.5))
        assert d.values == pytest.approx((0.5, 0.0), abs=1e-12)

    def test_difference_rejects_incomparable(self):
        with pytest.raises(NotComparableError):
            difference(ev(0.9, 0.2), ev(0.4, 0.5))

    def test_pointwise_min(self):
        m = pointwise_min([ev(0.9, 0.2), ev(0.4, 0.5)])
        assert m.values == (0.4, 0.2)

    def test_pointwise_min_empty_rejected(self):
        with pytest.raises(ValueError):
            pointwise_min([])


class TestProperness:
    def test_strictly_mixed_event_is_proper(self):
        assert is_proper(ev(0.3, 0.6))

    def test_low_event_is_improper(self):
        assert not is_proper(ev(0.2, 0.4))
        assert not is_proper(ev(0.8, 0.6))

    def test_constant_half_is_improper(self):
        assert not is_proper(ev(0.5, 0.5))

    def test_two_valued_nonconstant_is_proper(self):
        assert is_proper(ev(1.0, 0.0))
        assert not is_proper(ev(0.0, 0.0))
        assert not is_proper(ev(1.0, 1.0))

    def test_is_two_valued(self):
        assert is_two_valued(ev(1.0, 0.0, 1.0))
        assert not is_two_valued(ev(1.0, 0.025, 1.0))


@given(p=dyadic_event(3))
def test_complement_is_an_exact_involution_on_dyadics(p):
    assert complement(complement(p)).values == p.values


@given(p=grid_event(3))
def test_complement_involution_within_tolerance(p):
    assert approx_equal(complement(complement(p)), p)


@given(p=grid_event(3))
def test_leq_reflexive(p):
    assert leq(p, p)


@given(p=grid_event(2), q=grid_event(2))
def test_leq_antisymmetric_on_grid(p, q):
    if leq(p, q) and leq(q, p):
        assert approx_equal(p, q)


@given(p=grid_event(2), q=grid_event(2), r=grid_event(2))
def test_leq_transitive_on_grid(p, q, r):
    if leq(p, q) and leq(q, r):
        assert leq(p, r)


@given(p=grid_event(3), q=grid_event(3))
def test_orthogonal_means_sums_at_most_one(p, q):
    direct = all(a + b <= 1.0 for a, b in zip(p.values, q.values))
    assert orthogonal(p, q) == direct


@given(p=grid_event(3), q=grid_event(3))
def test_ortho_sum_adds_and_never_exceeds_one(p, q):
    if not orthogonal(p, q):
        return
    s = ortho_sum(p, q)
    assert all(v <= 1.0 for v in s.values)
    expect = tuple(a + b for a, b in zip(p.values, q.values))
    assert s.values == pytest.approx(expect, abs=1e-12)
    # removing one summand recovers the other
    assert approx_equal(difference(s, p), q)


@given(a=grid_event(3), b=grid_event(3))
def test_difference_then_sum_recovers_the_larger(a, b):
    lo = pointwise_min([a, b])
    hi = Event(tuple(max(x, y) for x, y in zip(a.values, b.values)), a.space)
    gap = difference(hi, lo)
    assert orthogonal(lo, gap)
    assert approx_equal(ortho_sum(lo, gap), hi)


@given(p=grid_event(3))
def test_proper_means_values_straddle_one_half(p):
    above = any(v > 0.5 for v in p.values)
    below = any(v < 0.5 for v in p.values)
    assert is_proper(p) == (above and below)


@given(p=grid_event(3))
def test_complement_preserves_properness(p):
    assert is_proper(p) == is_proper(complement(p))


class TestEventFamily:
    def test_order_and_length(self):
        fam = EventFamily((ev(0.2, 0.6), ev(0.3, 0.8)))
        assert fam.n == 2
        assert len(fam) == 2
        assert [e.values for e in fam] == [(0.2, 0.6), (0.3, 0.8)]

    def test_with_complements_appends_in_order(self):
        fam = EventFamily((ev(0.2, 0.6), ev(0.3, 0.8)))
        doubled = fam.with_complements()
        assert len(doubled) == 4
        assert doubled[2].values == pytest.approx((0.8, 0.4), abs=1e-12)
        assert doubled[3].values == pytest.approx((0.7, 0.2), abs=1e-12)

    def test_duplicates_rejected_with_positions(self):
        with pytest.raises(DuplicateEventError) as err:
            EventFamily((ev(0.2, 0.6), ev(0.3, 0.8), ev(0.2, 0.6 + 1e-10)))
        assert "1 and 3" in str(err.value)

    def test_mixed_spaces_rejected(self):
        with pytest.raises(SpaceMismatchError):
            EventFamily((ev(0.2, 0.6), ev(0.2, 0.6, 0.1)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EventFamily(())


class TestTolerance:
    def test_each_thread_reads_only_its_own_scope(self):
        set_eps(1e-6)
        inside = threading.Barrier(2, timeout=10)
        seen = {}

        def worker(value):
            before = get_eps()
            with eps_scope(value):
                # both threads hold their scope while either reads
                inside.wait()
                seen[value] = get_eps()
                inside.wait()
            seen[value, "restored"] = get_eps() == before

        threads = [threading.Thread(target=worker, args=(v,)) for v in (0.01, 0.02)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert seen == {0.01: 0.01, 0.02: 0.02, (0.01, "restored"): True, (0.02, "restored"): True}
        assert get_eps() == 1e-6

    def test_scope_restores_after_an_error_and_rejects_bad_values(self):
        set_eps(1e-6)
        with pytest.raises(KeyError):
            with eps_scope(0.25):
                assert get_eps() == 0.25
                raise KeyError("inside")
        assert get_eps() == 1e-6
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 0.5\], got 0"):
            with eps_scope(0):
                pass
        assert get_eps() == 1e-6
