"""Seed-deterministic fixture factories with known classical status.

Boolean measure algebras give correlation data that is classical by
construction. Projector fixtures on a finite-dimensional real Hilbert
space take every projector from one orthonormal basis, so the projectors
commute and each state is a probability measure on that basis: their
event families are classical by construction too, not of quantum type.
Closure generation turns arbitrary two-valued seeds into concrete logics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .correlations import CorrelationTable
from .events import Event, EventFamily, StateSpace, _Record
from .logic import ConcreteLogic, gfe_closure

# numpy is imported inside the functions that use it, so importing the
# package (and every CLI call) does not load it
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BooleanMeasureAlgebra",
    "gen_boolean_algebra",
    "HilbertFixture",
    "gen_hilbert_fixture",
    "hilbert_events",
    "gen_concrete_logic",
]


class BooleanMeasureAlgebra(_Record):
    """A probability measure per state on the field over k atoms.

    measures[s][a] is the weight of atom a in state s; each row sums
    to 1. Events are atom-subset sums, so every correlation table drawn
    from the algebra is classical.
    """

    __slots__ = ("atoms", "space", "measures")
    atoms: tuple[str, ...]
    space: StateSpace
    measures: tuple[tuple[float, ...], ...]

    def __init__(
        self,
        atoms: tuple[str, ...],
        space: StateSpace,
        measures: tuple[tuple[float, ...], ...],
    ) -> None:
        k = len(atoms)
        if k < 1:
            raise ValueError("need at least one atom")
        if len(measures) != space.size:
            raise ValueError("one measure row per state required")
        for row in measures:
            if len(row) != k:
                raise ValueError("measure row length must match atom count")
            if any(v < 0.0 for v in row):
                raise ValueError("atom weights must be non-negative")
            if abs(sum(row) - 1.0) > 1e-6:
                raise ValueError("measure rows must sum to 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "measures", measures)

    @property
    def k(self) -> int:
        return len(self.atoms)

    def event_for(self, atom_mask: int) -> Event:
        """Event of the union of the selected atoms."""
        if not 0 <= atom_mask < (1 << self.k):
            raise ValueError(f"atom mask {atom_mask} outside 0..{(1 << self.k) - 1}")
        values = []
        for row in self.measures:
            total = 0.0
            for a in range(self.k):
                if atom_mask & (1 << a):
                    total += row[a]
            values.append(min(1.0, total))
        return Event(tuple(values), self.space)

    def all_events(self) -> tuple[Event, ...]:
        return tuple(self.event_for(m) for m in range(1 << self.k))

    def family(self, atom_masks: Sequence[int]) -> EventFamily:
        return EventFamily(tuple(self.event_for(m) for m in atom_masks))

    def correlation_table(self, generator_masks: Sequence[int]) -> CorrelationTable:
        """Table with p_I = measure of the intersection of the generators in I."""
        n = len(generator_masks)
        if n < 1:
            raise ValueError("need at least one generator")
        entries = {}
        for subset in range(1, 1 << n):
            atom_mask = (1 << self.k) - 1
            for i in range(n):
                if subset & (1 << i):
                    atom_mask &= generator_masks[i]
            entries[subset] = self.event_for(atom_mask)
        return CorrelationTable.build(self.space, n, entries)


def gen_boolean_algebra(k: int, num_states: int, seed: int) -> BooleanMeasureAlgebra:
    """Random Boolean measure algebra with k atoms; deterministic per seed."""
    if not 1 <= k <= 10:
        raise ValueError(f"atom count {k} outside 1..10")
    if num_states < 1:
        raise ValueError("need at least one state")
    import numpy as np

    rng = np.random.default_rng(seed)
    raw = rng.random((num_states, k)) + 1e-3
    rows = raw / raw.sum(axis=1, keepdims=True)
    return BooleanMeasureAlgebra(
        atoms=tuple(f"a{i + 1}" for i in range(k)),
        space=StateSpace(tuple(f"s{i + 1}" for i in range(num_states))),
        measures=tuple(tuple(float(v) for v in row) for row in rows),
    )


class HilbertFixture(_Record):
    """Orthogonal projectors and unit state vectors in dimension dim."""

    __slots__ = ("dim", "projectors", "state_vectors")
    dim: int
    projectors: tuple[np.ndarray, ...]
    state_vectors: tuple[np.ndarray, ...]

    # arrays have no single truth value, so a fixture is equal only to itself
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        dim: int,
        projectors: tuple[np.ndarray, ...],
        state_vectors: tuple[np.ndarray, ...],
    ) -> None:
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "projectors", projectors)
        object.__setattr__(self, "state_vectors", state_vectors)


def gen_hilbert_fixture(
    dim: int, num_projectors: int, num_states: int, seed: int
) -> HilbertFixture:
    """Random projectors (proper subspaces of a common random basis) and
    random unit state vectors; deterministic per seed.

    All projectors come from one basis, so they commute, and the event
    families they give are classical by construction.
    """
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    max_proper = (1 << dim) - 2
    if not 1 <= num_projectors <= max_proper:
        raise ValueError(
            f"num_projectors must lie in 1..{max_proper} for dim={dim}"
        )
    import numpy as np

    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    # distinct proper column subsets of one orthogonal basis give
    # distinct projectors
    subset_masks = rng.permutation(np.arange(1, (1 << dim) - 1))[:num_projectors]
    projectors = []
    for mask in subset_masks:
        cols = [c for c in range(dim) if int(mask) & (1 << c)]
        v = q[:, cols]
        projectors.append(v @ v.T)
    vectors = []
    for _ in range(num_states):
        x = rng.normal(size=dim)
        vectors.append(x / np.linalg.norm(x))
    return HilbertFixture(
        dim=dim, projectors=tuple(projectors), state_vectors=tuple(vectors)
    )


def hilbert_events(
    fixture: HilbertFixture, space: StateSpace | None = None
) -> EventFamily:
    """Events p_A(s) = <A v_s, v_s> for each projector A.

    Projectors must be symmetric and idempotent and state vectors unit
    length, all within 1e-9; the resulting values land in [0, 1].
    """
    import numpy as np

    for a in fixture.projectors:
        if not np.allclose(a, a.T, atol=1e-9):
            raise ValueError("projector is not symmetric")
        if not np.allclose(a @ a, a, atol=1e-9):
            raise ValueError("projector is not idempotent")
    for v in fixture.state_vectors:
        if abs(float(np.linalg.norm(v)) - 1.0) > 1e-9:
            raise ValueError("state vector is not unit length")
    if space is None:
        space = StateSpace(tuple(f"s{i + 1}" for i in range(len(fixture.state_vectors))))
    if space.size != len(fixture.state_vectors):
        raise ValueError("state space size must match the number of vectors")
    events = []
    for a in fixture.projectors:
        values = tuple(float(v @ a @ v) for v in fixture.state_vectors)
        events.append(Event(values, space))
    return EventFamily(tuple(events))


def gen_concrete_logic(seed_events: EventFamily) -> ConcreteLogic:
    """Smallest concrete logic containing the given two-valued seeds."""
    return gfe_closure(seed_events.events, seed_events.space)
