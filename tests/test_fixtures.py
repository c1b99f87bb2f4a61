import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from numevents import (
    BooleanMeasureAlgebra,
    HilbertFixture,
    StateSpace,
    check_bell_like,
    gen_boolean_algebra,
    gen_concrete_logic,
    gen_hilbert_fixture,
    gfe_closure,
    hilbert_events,
    mask_event,
)
import numevents
from helpers import space

TWO_STATE = BooleanMeasureAlgebra(
    atoms=("a1", "a2", "a3", "a4"),
    space=space(2),
    measures=((0.1, 0.2, 0.3, 0.4), (0.4, 0.3, 0.2, 0.1)),
)


class TestMeasureAlgebra:
    def test_row_must_sum_to_one(self):
        with pytest.raises(ValueError):
            BooleanMeasureAlgebra(("a1", "a2"), space(1), ((0.6, 0.6),))

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            BooleanMeasureAlgebra(("a1", "a2"), space(1), ((1.2, -0.2),))

    def test_row_length_must_match_atoms(self):
        with pytest.raises(ValueError):
            BooleanMeasureAlgebra(("a1", "a2"), space(1), ((1.0,),))

    def test_needs_an_atom(self):
        with pytest.raises(ValueError, match="^need at least one atom$"):
            BooleanMeasureAlgebra((), space(1), ((),))

    def test_needs_one_measure_row_per_state(self):
        with pytest.raises(ValueError, match="^one measure row per state required$"):
            BooleanMeasureAlgebra(("a1",), space(2), ((1.0,),))

    @pytest.mark.parametrize("mask", [-1, 16])
    def test_event_for_rejects_an_atom_mask_out_of_range(self, mask):
        with pytest.raises(ValueError, match=f"^atom mask {mask} outside 0..15$"):
            TWO_STATE.event_for(mask)

    def test_correlation_table_needs_a_generator(self):
        with pytest.raises(ValueError, match="^need at least one generator$"):
            TWO_STATE.correlation_table([])

    def test_bounds_and_a_union(self):
        assert TWO_STATE.event_for(0).values == (0.0, 0.0)
        # float addition order keeps the top within rounding of 1, not at it
        assert TWO_STATE.event_for(0b1111).values == pytest.approx(
            (1.0, 1.0), abs=1e-12
        )
        assert TWO_STATE.event_for(0b0011).values == pytest.approx(
            (0.3, 0.7), abs=1e-12
        )

    def test_complementary_masks_sum_to_one(self):
        for mask in range(16):
            p = TWO_STATE.event_for(mask)
            q = TWO_STATE.event_for(0b1111 ^ mask)
            for a, b in zip(p.values, q.values):
                assert a + b == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_masks_add(self):
        p = TWO_STATE.event_for(0b0011)
        q = TWO_STATE.event_for(0b0100)
        s = TWO_STATE.event_for(0b0111)
        for a, b, c in zip(p.values, q.values, s.values):
            assert a + b == pytest.approx(c, abs=1e-12)

    def test_inclusion_exclusion(self):
        rng_masks = [(0b0011, 0b0101), (0b0110, 0b1100), (0b1001, 0b0111)]
        for m1, m2 in rng_masks:
            pa = TWO_STATE.event_for(m1).values
            pb = TWO_STATE.event_for(m2).values
            pboth = TWO_STATE.event_for(m1 & m2).values
            punion = TWO_STATE.event_for(m1 | m2).values
            for a, b, ab, u in zip(pa, pb, pboth, punion):
                assert a + b - ab == pytest.approx(u, abs=1e-9)

    def test_all_events_cover_the_power_set(self):
        assert len(TWO_STATE.all_events()) == 16

    def test_correlation_table_uses_generator_intersections(self):
        tab = TWO_STATE.correlation_table((0b0011, 0b0101))
        assert tab.event(0b01).values == pytest.approx((0.3, 0.7), abs=1e-12)
        assert tab.event(0b10).values == pytest.approx((0.4, 0.6), abs=1e-12)
        # {a1,a2} & {a1,a3} = {a1}
        assert tab.event(0b11).values == pytest.approx((0.1, 0.4), abs=1e-12)

    def test_generated_tables_are_always_consistent(self):
        for seed in range(40):
            algebra = gen_boolean_algebra(k=5, num_states=3, seed=seed)
            tab = algebra.correlation_table((0b00011, 0b00110, 0b01100))
            assert all(not r.violated for r in check_bell_like(tab))

    def test_generation_is_seed_deterministic(self):
        one = gen_boolean_algebra(k=4, num_states=3, seed=5)
        two = gen_boolean_algebra(k=4, num_states=3, seed=5)
        other = gen_boolean_algebra(k=4, num_states=3, seed=6)
        assert one.measures == two.measures
        assert one.measures != other.measures

    def test_atom_count_bounds(self):
        with pytest.raises(ValueError):
            gen_boolean_algebra(k=0, num_states=2, seed=1)
        with pytest.raises(ValueError):
            gen_boolean_algebra(k=11, num_states=2, seed=1)

    def test_state_count_bound(self):
        with pytest.raises(ValueError, match="^need at least one state$"):
            gen_boolean_algebra(k=2, num_states=0, seed=1)


class TestHilbert:
    def test_identity_and_zero_projectors(self):
        e1 = np.array([1.0, 0.0])
        fixture = HilbertFixture(
            dim=2,
            projectors=(np.eye(2), np.zeros((2, 2))),
            state_vectors=(e1,),
        )
        family = hilbert_events(fixture)
        assert family.events[0].values == (1.0,)
        assert family.events[1].values == (0.0,)

    def test_squared_cosine_law(self):
        theta = math.pi / 6
        v = np.array([math.cos(theta), math.sin(theta)])
        fixture = HilbertFixture(
            dim=2,
            projectors=(np.diag([1.0, 0.0]),),
            state_vectors=(v,),
        )
        family = hilbert_events(fixture)
        assert family.events[0].values[0] == pytest.approx(0.75, abs=1e-12)

    def test_generated_values_stay_in_the_unit_interval(self):
        total = 0
        for seed in range(25):
            for dim in (2, 3, 4):
                fixture = gen_hilbert_fixture(
                    dim=dim, num_projectors=dim, num_states=5, seed=seed
                )
                family = hilbert_events(fixture)
                for e in family:
                    for v in e.values:
                        assert 0.0 <= v <= 1.0
                        total += 1
        assert total >= 1000

    def test_projector_count_can_reach_the_proper_subset_limit(self):
        for seed in range(5):
            fixture = gen_hilbert_fixture(
                dim=3, num_projectors=6, num_states=3, seed=seed
            )
            family = hilbert_events(fixture)
            assert family.n == 6

    def test_projector_count_bounds(self):
        with pytest.raises(ValueError):
            gen_hilbert_fixture(dim=2, num_projectors=3, num_states=2, seed=0)
        with pytest.raises(ValueError):
            gen_hilbert_fixture(dim=1, num_projectors=1, num_states=2, seed=0)

    def test_non_symmetric_projector_rejected(self):
        bad = np.array([[1.0, 0.5], [0.0, 0.0]])
        fixture = HilbertFixture(
            dim=2, projectors=(bad,), state_vectors=(np.array([1.0, 0.0]),)
        )
        with pytest.raises(ValueError):
            hilbert_events(fixture)

    def test_non_idempotent_projector_rejected(self):
        fixture = HilbertFixture(
            dim=2,
            projectors=(0.5 * np.eye(2),),
            state_vectors=(np.array([1.0, 0.0]),),
        )
        with pytest.raises(ValueError):
            hilbert_events(fixture)

    def test_non_unit_state_vector_rejected(self):
        fixture = HilbertFixture(
            dim=2, projectors=(np.eye(2),), state_vectors=(np.array([1.0, 1.0]),)
        )
        with pytest.raises(ValueError):
            hilbert_events(fixture)

    def test_custom_space_must_fit(self):
        fixture = gen_hilbert_fixture(dim=2, num_projectors=2, num_states=2, seed=1)
        with pytest.raises(ValueError):
            hilbert_events(fixture, StateSpace(("only",)))


class TestConcreteLogicGeneration:
    def test_singleton_seeds_span_the_power_set(self):
        sp = space(3)
        from numevents import EventFamily

        seeds = EventFamily((mask_event(0b001, sp), mask_event(0b010, sp)))
        logic = gen_concrete_logic(seeds)
        assert len(logic) == 8

    def test_matches_direct_closure(self):
        sp = space(4)
        from numevents import EventFamily

        seeds = EventFamily((mask_event(0b0011, sp), mask_event(0b0101, sp)))
        assert gen_concrete_logic(seeds).masks == gfe_closure(
            seeds.events, sp
        ).masks


class TestLazyImport:
    def test_fixtures_load_on_first_use(self):
        src = os.path.dirname(os.path.dirname(numevents.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        code = (
            "import sys, numevents; before = 'numevents.fixtures' in sys.modules; "
            "from numevents import gen_boolean_algebra; "
            "print(before, gen_boolean_algebra.__module__, 'hilbert_events' in dir(numevents))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert (done.returncode, done.stdout) == (0, "False numevents.fixtures True\n")

    def test_names_are_the_modules_own(self):
        import numevents.fixtures as fixtures

        assert numevents.HilbertFixture is fixtures.HilbertFixture
        assert numevents.hilbert_events is fixtures.hilbert_events
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            numevents.no_such_name
