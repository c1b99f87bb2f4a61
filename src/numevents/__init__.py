"""Classicality checks for finite families of numerical events.

The package decides, for probability data measured on a finite set of
system states, whether the data could have come from a classical
(Boolean) description: embeddability of event families into event
algebras, Boolean minima criteria inside concrete logics, and generated
Bell-type consistency inequalities on correlation tables.
"""

from .tolerance import DEFAULT_EPS, eps_scope, get_eps, set_eps
from .events import (
    BudgetExceededError,
    DuplicateEventError,
    Event,
    EventFamily,
    ImproperEventError,
    NotComparableError,
    NotOrthogonalError,
    NotTwoValuedError,
    NumericalEventError,
    SpaceMismatchError,
    StateSpace,
    ValueRangeError,
    approx_equal,
    complement,
    difference,
    is_proper,
    is_two_valued,
    leq,
    one_event,
    ortho_sum,
    orthogonal,
    pointwise_min,
    zero_event,
)
from .logic import (
    BooleanVerdict,
    CommuteWitness,
    ConcreteLogic,
    LogicDefect,
    NotInLogicError,
    boolean_by_minima,
    boolean_oracle,
    check_concrete_logic,
    commutation_chain_holds,
    commute_witness,
    event_mask,
    gfe_closure,
    is_concrete_logic,
    mask_event,
)
from .embedding import (
    EMBEDDABLE,
    NOT_EMBEDDABLE,
    UNDECIDED,
    Container,
    EmbeddingReport,
    boolean8_container,
    classify_embedding,
    is_antichain,
)
from .valuations import (
    SetFunction,
    complement_of_full,
    count_01_valuations,
    elementary_valuation,
    enumerate_01_valuations,
    f_transform,
    format_subset,
    g_transform,
    is_bell_valuation,
    mask_from_indices,
    indices_from_mask,
    pair_inequality,
    subset_labels,
    sum_all_elementary,
)
from .correlations import (
    CorrelationTable,
    InequalityResult,
    InequalityViolatedError,
    MissingCorrelationError,
    MonotonicityError,
    check_bell_like,
    evaluate_inequality,
    pair_schedule,
    violated_01_valuations,
    witness_relations,
    witnesses_from_correlations,
)
from .dataio import (
    DataFormatError,
    correlations_csv_text,
    events_csv_text,
    read_correlations_csv,
    read_events_csv,
    read_logic_json,
    write_correlations_csv,
    write_events_csv,
    write_logic_json,
)

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
