"""Classicality checks for finite families of numerical events.

The package decides, for probability data measured on a finite set of
system states, whether the data could have come from a classical
(Boolean) description: embeddability of event families into event
algebras, Boolean minima criteria inside concrete logics, and generated
Bell-type consistency inequalities on correlation tables.

The public names are those in each module's ``__all__``, re-exported
here, plus the fixtures, which load on first use.
"""

from .tolerance import *
from .events import *
from .logic import *
from .embedding import *
from .valuations import *
from .correlations import *
from .dataio import *

__version__ = "0.1.0"

# The fixtures load on first use, so no CLI call compiles them (PEP 562)
_FIXTURES = (
    "BooleanMeasureAlgebra",
    "HilbertFixture",
    "gen_boolean_algebra",
    "gen_concrete_logic",
    "gen_hilbert_fixture",
    "hilbert_events",
)


def __getattr__(name: str):
    if name in _FIXTURES:
        from . import fixtures

        return getattr(fixtures, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *_FIXTURES])
