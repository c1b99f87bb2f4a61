import itertools

import pytest

from numevents import (
    EMBEDDABLE,
    NOT_EMBEDDABLE,
    UNDECIDED,
    Container,
    DuplicateEventError,
    Event,
    EventFamily,
    ImproperEventError,
    NotComparableError,
    approx_equal,
    boolean8_container,
    classify_embedding,
    complement,
    gfe_closure,
    is_antichain,
    is_proper,
    leq,
    mask_event,
)
from helpers import event_grid, space

SP2 = space(2)
SP3 = space(3)
SP4 = space(4)


def ev(*values):
    return Event(tuple(values), space(len(values)))


def fam(*events):
    return EventFamily(tuple(events))


class TestContainer:
    def test_rendering(self):
        assert str(Container("MO", 2)) == "MO_2"
        assert str(Container("BOOLEAN_8")) == "BOOLEAN_8"
        assert str(Container("GFE_CLOSURE", 6)) == "GFE_CLOSURE(6)"


class TestAntichain:
    def test_incomparable_pair(self):
        ok, offending = is_antichain(fam(ev(0.3, 0.7), ev(0.6, 0.4)))
        assert ok and offending is None

    def test_comparable_pair_reported_in_order(self):
        ok, offending = is_antichain(fam(ev(0.3, 0.8), ev(0.2, 0.6)))
        assert not ok
        (name_a, a), (name_b, b) = offending
        assert (name_a, name_b) == ("p_2", "p_1")
        assert leq(a, b)

    def test_complements_can_break_it(self):
        # p_2 <= 1 - p_1 even though the family alone is an antichain
        family = fam(ev(0.3, 0.6), ev(0.5, 0.2))
        assert is_antichain(family)[0]
        ok, offending = is_antichain(family, include_complements=True)
        assert not ok
        names = {name for name, _ in offending}
        assert names == {"p_1", "p_2'"}

    def test_coincident_complements_are_not_compared(self):
        family = fam(ev(0.3, 0.6), ev(0.7, 0.4))
        ok, _ = is_antichain(family, include_complements=True)
        assert ok


class TestBoolean8Container:
    P1 = ev(0.2, 0.7, 0.1)
    P2 = ev(0.9, 0.8, 0.3)

    def test_shape_and_membership(self):
        out = boolean8_container(self.P1, self.P2)
        assert len(out) == 8
        for a, b in itertools.combinations(out, 2):
            assert not approx_equal(a, b)
        values = [e.values for e in out]
        assert (0.0, 0.0, 0.0) in values
        assert (1.0, 1.0, 1.0) in values
        diff = next(e for e in out if approx_equal(e, ev(0.7, 0.1, 0.2)))
        assert any(approx_equal(e, complement(diff)) for e in out)

    def test_closed_under_complement(self):
        out = boolean8_container(self.P1, self.P2)
        for e in out:
            assert any(approx_equal(other, complement(e)) for other in out)

    def test_improper_input_rejected_by_name(self):
        with pytest.raises(ImproperEventError) as err:
            boolean8_container(ev(0.1, 0.2, 0.3), self.P2)
        assert "p_1" in str(err.value)
        with pytest.raises(ImproperEventError) as err:
            boolean8_container(self.P1, ev(0.9, 0.8, 0.6))
        assert "p_2" in str(err.value)

    def test_coincident_inputs_rejected(self):
        with pytest.raises(DuplicateEventError):
            boolean8_container(self.P1, self.P1)

    def test_incomparable_inputs_rejected(self):
        with pytest.raises(NotComparableError):
            boolean8_container(ev(0.2, 0.7, 0.1), ev(0.6, 0.4, 0.3))


class TestClassifyExamples:
    @pytest.mark.parametrize("delta", [0.1, 0.3, 0.7])
    def test_polarizer_pair_fits_in_mo2(self, delta):
        report = classify_embedding(fam(ev(delta, 1.0 - delta), ev(0.6, 0.4)))
        assert report.verdict == EMBEDDABLE
        assert str(report.container) == "MO_2"
        # over two states a Boolean algebra of S-probabilities has at most
        # four elements, so no reason names a Boolean container
        assert report.reasons == (
            "family and complements form an antichain of 4 pairwise "
            "incomparable events [rule antichain-mo]",
        )

    def test_comparable_two_state_pair_is_not_embeddable(self):
        report = classify_embedding(fam(ev(0.2, 0.6), ev(0.3, 0.8)))
        assert report.verdict == NOT_EMBEDDABLE
        assert report.container is None
        names = [name for name, _ in report.witnesses]
        assert names == ["p_1", "p_2"]
        assert any("[rule two-state-comparability]" in r for r in report.reasons)

    def test_two_valued_families_always_embed(self):
        family = fam(
            mask_event(0b0011, SP4), mask_event(0b0101, SP4), mask_event(0b0110, SP4)
        )
        report = classify_embedding(family)
        assert report.verdict == EMBEDDABLE
        assert report.container.kind == "GFE_CLOSURE"
        closure = gfe_closure(family.events, SP4)
        assert report.container.size == len(closure) == 8

    def test_comparable_two_valued_pair_still_embeds(self):
        family = fam(mask_event(0b0001, SP4), mask_event(0b0011, SP4))
        report = classify_embedding(family)
        assert report.verdict == EMBEDDABLE
        assert report.container.kind == "GFE_CLOSURE"

    def test_comparable_pair_with_proper_difference(self):
        report = classify_embedding(fam(ev(0.2, 0.7, 0.1), ev(0.9, 0.8, 0.3)))
        assert report.verdict == EMBEDDABLE
        assert str(report.container) == "BOOLEAN_8"
        assert any("[rule pair-difference]" in r for r in report.reasons)

    def test_comparable_pair_with_improper_difference(self):
        report = classify_embedding(fam(ev(0.2, 0.7, 0.1), ev(0.6, 0.9, 0.3)))
        assert report.verdict == NOT_EMBEDDABLE
        labels = [name for name, _ in report.witnesses]
        assert labels == ["p_1", "p_2", "p_2 - p_1"]
        diff = report.witnesses[-1][1]
        assert diff.values == pytest.approx((0.4, 0.2, 0.2), abs=1e-12)
        assert not is_proper(diff)

    def test_improper_member_rejected(self):
        with pytest.raises(ImproperEventError) as err:
            classify_embedding(fam(ev(0.3, 0.6), ev(0.2, 0.4)))
        assert "p_2" in str(err.value)

    def test_larger_comparable_family_is_undecided(self):
        family = fam(ev(0.2, 0.6, 0.3), ev(0.4, 0.8, 0.5), ev(0.7, 0.2, 0.6))
        report = classify_embedding(family)
        assert report.verdict == UNDECIDED
        assert report.container is None
        assert report.reasons[-1] == "embeddability undecided"
        assert sum("not applicable" in r for r in report.reasons) == 4

    def test_complement_coincidence_shrinks_the_antichain(self):
        report = classify_embedding(fam(ev(0.3, 0.6), ev(0.7, 0.4)))
        assert report.verdict == EMBEDDABLE
        assert str(report.container) == "MO_1"
        assert any("complement coincidences" in r for r in report.reasons)

    def test_single_member_family(self):
        report = classify_embedding(fam(ev(0.3, 0.6)))
        assert report.verdict == EMBEDDABLE
        assert str(report.container) == "MO_1"


def test_two_state_verdict_matches_the_antichain_test():
    """Over two states, embeddability reduces to the antichain condition."""
    proper = [p for p in event_grid(2, step=8) if is_proper(p)]
    checked = 0
    for p, q in itertools.permutations(proper, 2):
        family = fam(p, q)
        report = classify_embedding(family)
        anti, _ = is_antichain(family, include_complements=True)
        two_valued = all(v in (0.0, 1.0) for v in p.values + q.values)
        if anti or two_valued:
            assert report.verdict == EMBEDDABLE
        else:
            assert report.verdict == NOT_EMBEDDABLE
        checked += 1
    assert checked > 100


def test_mo_container_has_the_advertised_structure():
    """0, 1, and pairwise incomparable complement pairs."""
    family = fam(ev(0.1, 0.9), ev(0.3, 0.6), ev(0.45, 0.55))
    report = classify_embedding(family)
    assert report.verdict == EMBEDDABLE
    assert report.container.kind == "MO"
    m = report.container.size
    assert m == 3
    middle = list(family.with_complements())
    assert len(middle) == 2 * m
    for a, b in itertools.combinations(middle, 2):
        if approx_equal(a, b):
            continue
        assert not leq(a, b) and not leq(b, a)
    for e in middle:
        assert any(approx_equal(other, complement(e)) for other in middle)
