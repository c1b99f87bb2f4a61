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
def kernel_frontiers(monkeypatch):
    """Frontier size of every call of the concrete-logic closure kernel."""
    import numevents.logic as logic_module

    frontiers = []
    real = logic_module._gaps

    def counting(masks, full, frontier):
        frontiers.append(len(frontier))
        return real(masks, full, frontier)

    monkeypatch.setattr(logic_module, "_gaps", counting)
    return frontiers


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
