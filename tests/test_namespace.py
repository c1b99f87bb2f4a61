"""The package namespace is each module's ``__all__``, and nothing else."""

import types

import pytest

import numevents
from numevents import (
    correlations,
    dataio,
    embedding,
    events,
    fixtures,
    logic,
    tolerance,
    valuations,
)

MODULES = (tolerance, events, logic, embedding, valuations, correlations, dataio)


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_each_listed_name_is_the_packages_own(module):
    for name in module.__all__:
        assert getattr(numevents, name) is getattr(module, name), name


def test_the_public_names_are_the_listed_ones():
    names = {name for name in dir(numevents) if not name.startswith("_")}
    submodules = {
        name
        # the fixtures load on first use, so vars() does not hold them
        for name in names - set(fixtures.__all__)
        if isinstance(vars(numevents)[name], types.ModuleType)
    }
    listed = {name for module in MODULES for name in module.__all__}
    assert "__version__" in dir(numevents)
    assert names - submodules == listed | set(fixtures.__all__)
