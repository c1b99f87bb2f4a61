"""The record classes: constructors, equality, hashing, repr, immutability,
copy and pickle, each as the earlier dataclass versions gave them."""

import ast
import copy
import pickle
from pathlib import Path

import pytest

import numevents
from numevents import (
    BooleanMeasureAlgebra,
    BooleanVerdict,
    CommuteWitness,
    ConcreteLogic,
    Container,
    CorrelationTable,
    EmbeddingReport,
    Event,
    EventFamily,
    HilbertFixture,
    InequalityResult,
    LogicDefect,
    SetFunction,
    StateSpace,
)

AB = "StateSpace(labels=('a', 'b'))"
E01 = f"Event(values=(0.0, 1.0), space={AB})"
E10 = f"Event(values=(1.0, 0.0), space={AB})"


def ab():
    return StateSpace(("a", "b"))


def event(*values):
    return Event(values, ab())


# a factory for each value record, with the repr of what it builds
VALUES = [
    (ab, AB),
    (lambda: event(0.0, 1.0), E01),
    (
        lambda: EventFamily((event(0.0, 1.0), event(1.0, 0.0))),
        f"EventFamily(events=({E01}, {E10}))",
    ),
    (lambda: SetFunction(1, (1,)), "SetFunction(n=1, values=(1.0,))"),
    (
        lambda: InequalityResult(
            "r", SetFunction(1, (1.0,)), (0.0, 1.0), 0.0, 1.0, False, None
        ),
        "InequalityResult(label='r', coefficients=SetFunction(n=1, values=(1.0,)), "
        "per_state=(0.0, 1.0), min_value=0.0, max_value=1.0, violated=False, "
        "violating_state=None)",
    ),
    (
        lambda: LogicDefect("A1", "zero event missing", ()),
        "LogicDefect(axiom='A1', detail='zero event missing', offenders=())",
    ),
    (
        lambda: ConcreteLogic(ab(), frozenset({0, 1, 2, 3})),
        f"ConcreteLogic(space={AB}, masks=frozenset({{0, 1, 2, 3}}))",
    ),
    (
        lambda: CommuteWitness(event(0.0, 1.0), event(0.0, 1.0), event(1.0, 0.0)),
        f"CommuteWitness(a={E01}, f={E01}, g={E10})",
    ),
    (lambda: Container("MO", 4), "Container(kind='MO', size=4)"),
    (lambda: Container("BOOLEAN_8"), "Container(kind='BOOLEAN_8', size=None)"),
    (
        lambda: BooleanMeasureAlgebra(("a1",), StateSpace(("s1",)), ((1.0,),)),
        "BooleanMeasureAlgebra(atoms=('a1',), space=StateSpace(labels=('s1',)), "
        "measures=((1.0,),))",
    ),
]

MUTABLE = [
    (
        lambda: BooleanVerdict(False, (1, 2), None),
        "BooleanVerdict(boolean=False, missing_minimum=(1, 2), witnesses=None)",
    ),
    (
        lambda: EmbeddingReport(
            "EMBEDDABLE", Container("MO", 4), ("r",), (("p_1", event(0.0, 1.0)),)
        ),
        "EmbeddingReport(verdict='EMBEDDABLE', container=Container(kind='MO', size=4), "
        f"reasons=('r',), witnesses=(('p_1', {E01}),))",
    ),
]

# equal only to themselves
IDENTITY = [
    (
        lambda: CorrelationTable.build(ab(), 1, {1: event(0.0, 1.0)}),
        f"CorrelationTable(space={AB}, n=1, entries=mappingproxy({{1: {E01}}}))",
    ),
    (
        lambda: HilbertFixture(2, (), ()),
        "HilbertFixture(dim=2, projectors=(), state_vectors=())",
    ),
]

EVERY = VALUES + MUTABLE + IDENTITY


def fields(record):
    return {name: getattr(record, name) for name in record.__slots__}


def test_all_fourteen_record_classes_are_covered():
    assert len({type(make()) for make, _text in EVERY}) == 14


@pytest.mark.parametrize("make, text", EVERY)
def test_repr_is_name_and_fields(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make, text", EVERY)
def test_construction_by_keyword(make, text):
    record = make()
    assert repr(type(record)(**fields(record))) == text


@pytest.mark.parametrize("make, _text", VALUES + MUTABLE)
def test_equal_fields_compare_equal(make, _text):
    a, b = make(), make()
    assert a is not b and a == b and not a != b


@pytest.mark.parametrize("make, _text", VALUES)
def test_equal_values_hash_equal(make, _text):
    assert hash(make()) == hash(make())


@pytest.mark.parametrize("make, _text", EVERY)
def test_another_class_never_compares_equal(make, _text):
    record = make()
    others = [other() for other, _ in EVERY if type(other()) is not type(record)]
    assert all(record != other and not record == other for other in others)
    assert record != fields(record) and record != tuple(fields(record).values())


@pytest.mark.parametrize("make, _text", IDENTITY)
def test_identity_records_equal_only_themselves(make, _text):
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a)


@pytest.mark.parametrize("make, _text", VALUES + IDENTITY)
def test_fields_cannot_be_assigned_or_deleted(make, _text):
    record = make()
    name = record.__slots__[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = None
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    assert repr(record) == repr(make())


@pytest.mark.parametrize("make, _text", MUTABLE)
def test_mutable_records_take_assignment_and_are_unhashable(make, _text):
    record = make()
    name = record.__slots__[0]
    setattr(record, name, "changed")
    assert getattr(record, name) == "changed" and record != make()
    with pytest.raises(AttributeError):
        record.extra = None
    with pytest.raises(TypeError):
        hash(record)


@pytest.mark.parametrize("make, text", VALUES + MUTABLE)
def test_copies_and_pickles_are_equal(make, text):
    record = make()
    for twin in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(twin) is type(record) and twin == record and repr(twin) == text


def test_identity_records_copy_by_fields():
    table = IDENTITY[0][0]()
    twin = copy.copy(table)
    assert twin is not table and twin != table and twin.entries is table.entries
    fixture = HilbertFixture(2, (), ())
    for twin in (copy.deepcopy(fixture), pickle.loads(pickle.dumps(fixture))):
        assert twin != fixture and fields(twin) == fields(fixture)


def test_constructors_still_check_their_fields():
    with pytest.raises(ValueError, match="at least one state"):
        StateSpace(())
    with pytest.raises(ValueError, match="expected 2 values, got 1"):
        Event((0.5,), ab())
    with pytest.raises(ValueError, match="n must lie in 1..16, got 0"):
        SetFunction(0, ())
    with pytest.raises(ValueError, match="closure axiom A2 violated"):
        ConcreteLogic(ab(), frozenset({0, 1}))
    # a copy rebuilds through the constructor, so it clamps as that does
    assert copy.copy(Event((-0.0, 1.0), ab())).values == (0.0, 1.0)


# the records that only store their fields and take them from _Record
FIELD_ONLY = [
    lambda: InequalityResult("r", None, None, 0.0, 1.0, False, None),
    lambda: LogicDefect("A1", "zero event missing", ()),
    lambda: CommuteWitness(None, None, None),
    lambda: BooleanVerdict(False, (1, 2), None),
    lambda: EmbeddingReport("EMBEDDABLE", None, (), ()),
    lambda: CorrelationTable(ab(), 1, {}),
    lambda: HilbertFixture(2, (), ()),
]


def test_the_field_only_records_share_one_constructor():
    for make in FIELD_ONLY:
        assert "__init__" not in vars(type(make()))


@pytest.mark.parametrize("make", FIELD_ONLY)
def test_wrong_constructor_calls_name_the_class(make):
    record = make()
    cls, name, values = type(record), type(record).__qualname__, record._values()
    first, last, count = record.__slots__[0], record.__slots__[-1], len(values)
    calls = [
        (values[:-1], {}, f"{name}() missing field {last!r}"),
        (values + (None,), {}, f"{name}() takes {count} fields, got {count + 1}"),
        (values, {"extra": None}, f"{name}() got an unexpected field 'extra'"),
        (values, {first: None}, f"{name}() got field {first!r} twice"),
        ((), {last: None}, f"{name}() missing field {first!r}"),
    ]
    for args, named, message in calls:
        with pytest.raises(TypeError) as err:
            cls(*args, **named)
        assert str(err.value) == message


@pytest.mark.parametrize("make", FIELD_ONLY)
def test_position_and_name_bind_alike(make):
    record = make()
    values = record._values()
    twin = type(record)(values[0], **dict(zip(record.__slots__[1:], values[1:])))
    assert fields(twin) == fields(record)


def test_container_supplies_only_the_default_size():
    assert Container("BOOLEAN_8") == Container("BOOLEAN_8", None)
    assert Container(kind="MO", size=4) == Container("MO", 4)
    with pytest.raises(TypeError):
        Container()


@pytest.mark.parametrize(
    "make",
    [
        lambda: BooleanVerdict(boolean=True, missing_minimum=None, witnesses={}),
        lambda: EmbeddingReport(
            verdict="UNDECIDED", container=None, reasons=("r",), witnesses=()
        ),
    ],
)
def test_mutable_records_built_by_keyword_stay_mutable(make):
    record = make()
    for name in record.__slots__:
        setattr(record, name, "changed")
        assert getattr(record, name) == "changed"
    with pytest.raises(TypeError):
        hash(record)


def _store_only_records(tree):
    """Names of the classes in tree whose __init__ only stores values:
    after any docstring, nothing but object.__setattr__(self, ...) calls
    and self.<name> = ... assignments."""

    def stores(statement):
        if isinstance(statement, ast.Assign):
            return all(
                isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
                for t in statement.targets
            )
        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Call):
            call = statement.value
            return (
                ast.unparse(call.func) == "object.__setattr__"
                and bool(call.args)
                and ast.unparse(call.args[0]) == "self"
            )
        return False

    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if "_Record" not in {ast.unparse(base) for base in node.bases}:
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                body = item.body
                if ast.get_docstring(item) is not None:
                    body = body[1:]
                if body and all(map(stores, body)):
                    found.append(node.name)
    return found


def test_no_record_writes_a_constructor_that_only_stores_its_fields():
    package = Path(numevents.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{name}" for name in _store_only_records(tree)]
    assert found == []


def test_the_store_guard_finds_a_store_only_constructor():
    source = '''
class Stored(_Record):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        """Docstring."""
        object.__setattr__(self, "a", a)
        self.b = b


class Checked(_Record):
    __slots__ = ("a",)

    def __init__(self, a):
        if a is None:
            raise ValueError("a")
        object.__setattr__(self, "a", a)
'''
    assert _store_only_records(ast.parse(source)) == ["Stored"]
