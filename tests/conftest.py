import os
import sys

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def _restore_tolerance():
    """CLI runs may move the global eps; keep tests independent."""
    from numevents import get_eps, set_eps

    before = get_eps()
    yield
    set_eps(before)


@pytest.fixture
def set_passes(monkeypatch):
    """Atom count of every pass of the concrete-logic axioms above 16
    states: one per decision, and one per closure round."""
    import numevents.logic as logic_module

    counts = []
    real = logic_module._atoms

    def counting(members):
        atoms = real(members)
        counts.append(len(atoms))
        return atoms

    monkeypatch.setattr(logic_module, "_atoms", counting)
    return counts


@pytest.fixture
def named_gaps(monkeypatch):
    """The pair named by every call of the loop that names a failing
    set's first missing union."""
    import numevents.logic as logic_module

    pairs = []
    real = logic_module._first_gap

    def recording(masks):
        pair = real(masks)
        pairs.append(pair)
        return pair

    monkeypatch.setattr(logic_module, "_first_gap", recording)
    return pairs


@pytest.fixture
def bitset_passes(monkeypatch):
    """Atom count of every whole-bitset pass of the concrete-logic axioms:
    one per decision up to 16 states, and one per closure step."""
    import numevents.logic as logic_module

    counts = []
    real = logic_module._bitset_atoms

    def counting(bits, lacking):
        atoms = real(bits, lacking)
        counts.append(len(atoms))
        return atoms

    monkeypatch.setattr(logic_module, "_bitset_atoms", counting)
    return counts

settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
