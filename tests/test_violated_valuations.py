"""The atom-mass decision of the 0/1-valuation list against full enumeration,
and the batch evaluator against one-row-at-a-time evaluation."""

import functools
import itertools
import json
import random
import tracemalloc

import pytest

import numevents.cli as cli_module
import numevents.correlations as correlations_module
import numevents.valuations as valuations_module
from numevents import (
    BooleanMeasureAlgebra,
    BudgetExceededError,
    CorrelationTable,
    Event,
    MissingCorrelationError,
    SetFunction,
    count_01_valuations,
    enumerate_01_valuations,
    eps_scope,
    evaluate_inequality,
    f_transform,
    gen_boolean_algebra,
    pair_inequality,
    violated_01_valuations,
    write_correlations_csv,
)
from numevents.cli import main
from helpers import evaluate_reference, space

EPS_VALUES = (1e-12, 1e-9, 1e-3, 0.05)


@functools.lru_cache(maxsize=None)
def all_valuations(n):
    return tuple(enumerate_01_valuations(n))


def fingerprint(rows):
    """The columns of lister rows; they carry no per_state (it is None)."""
    assert all(r.per_state is None for r in rows)
    return [
        (
            r.label,
            r.coefficients.values,
            repr(r.min_value),
            repr(r.max_value),
            r.violated,
            r.violating_state,
        )
        for r in rows
    ]


def oracle(table):
    """Every valuation evaluated in turn; returns the violated rows per eps.

    The per-state values do not depend on eps, so the list is evaluated
    once and each eps applies the [-eps, 1 + eps] band to it.
    """
    evaluated = [
        evaluate_inequality(f, table, label=f"g#{packed}")
        for packed, f in enumerate(all_valuations(table.n), start=1)
    ]
    labels = table.space.labels

    def rows(eps):
        out = []
        for r in evaluated:
            outside = [
                s for s, v in zip(labels, r.per_state) if v < -eps or v > 1.0 + eps
            ]
            if outside:
                out.append((
                    r.label,
                    r.coefficients.values,
                    repr(r.min_value),
                    repr(r.max_value),
                    True,
                    outside[0],
                ))
        return out

    return rows


def build(sp, n, columns):
    entries = {m: Event(tuple(vals), sp) for m, vals in columns.items()}
    return CorrelationTable.build(sp, n, entries)


def classical_table(n, num_states, seed):
    rng = random.Random(seed)
    k = rng.randint(n, 6)
    algebra = gen_boolean_algebra(k, num_states, seed)
    masks = [rng.randrange(1, 1 << k) for _ in range(n)]
    return algebra.correlation_table(masks)


def flat_table(n, num_states, seed):
    """Some states replaced by singletons 0.5 and joints 0."""
    base = classical_table(n, num_states, seed)
    rng = random.Random(seed + 1)
    flat = set(rng.sample(range(num_states), max(1, num_states // 2)))
    columns = {}
    for mask, event in base.entries.items():
        level = 0.5 if mask.bit_count() == 1 else 0.0
        columns[mask] = [
            level if k in flat else v for k, v in enumerate(event.values)
        ]
    return build(base.space, n, columns)


def lowered_joint_table(n, num_states, seed):
    """Every joint p_I scaled by lam**(|I| - 1), which keeps p monotone."""
    base = classical_table(n, num_states, seed)
    rng = random.Random(seed + 2)
    lams = [rng.uniform(0.2, 1.0) for _ in range(num_states)]
    columns = {
        mask: [v * lams[k] ** (mask.bit_count() - 1) for k, v in enumerate(event.values)]
        for mask, event in base.entries.items()
    }
    return build(base.space, n, columns)


def random_monotone_table(n, num_states, seed):
    """p_I drawn below the smallest p of its maximal proper subsets."""
    rng = random.Random(seed + 3)
    columns = {}
    for mask in sorted(range(1, 1 << n), key=int.bit_count):
        parents = [mask ^ (1 << b) for b in range(n) if mask >> b & 1]
        ceilings = [
            min([columns[p][k] for p in parents if p] or [1.0])
            for k in range(num_states)
        ]
        columns[mask] = [rng.uniform(0.0, c) for c in ceilings]
    return build(space(num_states), n, columns)


def quantized_table(n, num_states, seed):
    """Atom weights and a joint offset on a 1/8 grid: sums hit 1.0 exactly."""
    rng = random.Random(seed + 4)
    k = rng.randint(n, 5)
    measures = []
    for _ in range(num_states):
        cuts = sorted(rng.randint(0, 8) for _ in range(k - 1))
        edges = [0] + cuts + [8]
        measures.append(tuple((b - a) / 8 for a, b in zip(edges, edges[1:])))
    sp = space(num_states)
    algebra = BooleanMeasureAlgebra(
        atoms=tuple(f"a{i + 1}" for i in range(k)), space=sp, measures=tuple(measures)
    )
    base = algebra.correlation_table([rng.randrange(1, 1 << k) for _ in range(n)])
    # p_I lowered by (|I| - 1)/8, floored at 0, stays monotone and on the grid
    columns = {
        m: [max(0.0, v - (m.bit_count() - 1) / 8) for v in e.values]
        for m, e in base.entries.items()
    }
    return build(sp, n, columns)


KINDS = {
    "classical": classical_table,
    "flat": flat_table,
    "lowered": lowered_joint_table,
    "monotone": random_monotone_table,
    "quantized": quantized_table,
}

# an n=4 oracle evaluates all 32767 valuations, and a violated table sends
# thousands of them through evaluate_inequality per eps: one table per kind
# and the two extreme eps values there
CASES = [
    (kind, n, seed, states)
    for kind in KINDS
    for n, seeds, states in ((2, range(6), 4), (3, range(4), 3), (4, range(1), 2))
    for seed in seeds
]


@pytest.mark.parametrize("kind,n,seed,states", CASES)
def test_rows_equal_full_enumeration(kind, n, seed, states):
    table = KINDS[kind](n, states, 100 * n + seed)
    expected = oracle(table)
    for eps in EPS_VALUES if n < 4 else EPS_VALUES[::3]:
        with eps_scope(eps):
            assert fingerprint(violated_01_valuations(table)) == expected(eps), eps


def test_quantized_tables_reach_the_band_edge():
    # the quantized cases are meant to put valuation sums exactly on 1.0
    hits = 0
    for seed in range(6):
        table = quantized_table(3, 3, 300 + seed)
        for f in all_valuations(3):
            hits += 1.0 in evaluate_inequality(f, table).per_state
    assert hits > 0


def test_flat_state_rows():
    table = flat_table(3, 2, 7)
    rows = violated_01_valuations(table)
    singles = 0b1011
    # at a flat state a valuation sums to 0.5 per singleton it selects
    expected = [
        f"g#{p}" for p in range(1, count_01_valuations(3) + 1)
        if (p & singles).bit_count() > 2
    ]
    assert [r.label for r in rows] == expected


def test_lister_rows_hold_no_per_state_sums():
    # 37 classical states and 3 flat ones, like bell_all's flat n=4 table
    base = classical_table(4, 40, 17)
    flat = {3, 19, 30}
    columns = {
        mask: [
            (0.5 if mask.bit_count() == 1 else 0.0) if k in flat else v
            for k, v in enumerate(event.values)
        ]
        for mask, event in base.entries.items()
    }
    table = build(base.space, 4, columns)
    tracemalloc.start()
    try:
        rows = violated_01_valuations(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 10240
    # 10 240 per-state tuples of 40 floats alone would take 12.9 MiB
    assert peak < 8 << 20
    assert all(r.per_state is None for r in rows)
    for r in rows:
        full = evaluate_inequality(r.coefficients, table)
        assert repr((full.min_value, full.max_value, full.violating_state)) == repr(
            (r.min_value, r.max_value, r.violating_state)
        )


def test_single_event_never_violates():
    table = build(space(2), 1, {1: [0.3, 1.0]})
    assert violated_01_valuations(table) == ()


def test_missing_correlation_rejected():
    sp = space(1)
    table = build(sp, 2, {1: [0.5], 2: [0.5]})
    with pytest.raises(MissingCorrelationError) as err:
        violated_01_valuations(table)
    assert "{1,2}" in str(err.value)


def test_n_above_the_enumeration_cap_rejected():
    table = build(space(1), 5, {1 << i: [0.5] for i in range(5)})
    with pytest.raises(BudgetExceededError) as err:
        violated_01_valuations(table)
    assert str(err.value) == "n must be at most 4, got 5"


def old_evaluation(f, table):
    """per_state, min and max as evaluate_inequality computed them before."""
    support = f.support()
    per_state = tuple(
        sum(f.value(m) * table.entries[m].values[k] for m in support)
        for k in range(table.space.size)
    )
    return per_state, min(per_state), max(per_state)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_evaluation_is_bit_identical_to_the_old_expression(kind):
    rng = random.Random(kind)
    for n in (2, 3, 4):
        table = KINDS[kind](n, 5, rng.randrange(1000))
        size = (1 << n) - 1
        functions = [SetFunction.zero(n), pair_inequality(1, 2, n)]
        functions += [
            f_transform(SetFunction(n, [float(rng.random() < 0.5) for _ in range(size)]))
            for _ in range(40)
        ]
        functions += [
            SetFunction(n, [rng.uniform(-3, 3) * (rng.random() < 0.7) for _ in range(size)])
            for _ in range(40)
        ]
        for f in functions:
            new = evaluate_inequality(f, table)
            assert repr((new.per_state, new.min_value, new.max_value)) == repr(
                old_evaluation(f, table)
            )


def batch(n, rng, valuations):
    """Rows that share prefixes, repeat, vanish or carry random reals, shuffled."""
    size = (1 << n) - 1

    def reals(count):
        return [rng.uniform(-3, 3) * (rng.random() < 0.7) for _ in range(count)]

    base = reals(size)
    rows = [SetFunction.zero(n), SetFunction.zero(n), pair_inequality(1, 2, n)]
    rows += rng.sample(all_valuations(n), min(valuations, count_01_valuations(n)))
    rows += [
        SetFunction(n, base[:k] + reals(size - k)) for k in range(size + 1) for _ in range(2)
    ]
    rows += [SetFunction(n, reals(size)) for _ in range(20)]
    rows += rng.sample(rows, 10)
    rng.shuffle(rows)
    return rows


class TestBatchEvaluator:
    """_evaluate_rows against evaluating each row on its own, in input order."""

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_rows_equal_the_reference(self, kind, n):
        rng = random.Random(f"{kind}{n}")
        table = KINDS[kind](n, 5, rng.randrange(1000))
        rows = batch(n, rng, 300)
        labels = [f"row{i}" for i in range(len(rows))]
        for eps in (1e-12, 1e-9, 0.05):
            with eps_scope(eps):
                expected = [
                    repr(evaluate_reference(f, table, label))
                    for f, label in zip(rows, labels)
                ]
                got = correlations_module._results(rows, table, labels)
                assert [repr(r) for r in got] == expected, eps

    def test_single_rows_match_evaluate_inequality(self):
        table = flat_table(3, 4, 5)
        for f in batch(3, random.Random(5), 20):
            assert repr(evaluate_inequality(f, table)) == repr(
                evaluate_reference(f, table)
            )

    def test_errors_are_raised_in_input_order(self):
        sp = space(2)
        sparse = build(sp, 3, {1: [0.5, 0.2], 2: [0.5, 0.4], 4: [0.3, 0.3], 5: [0.1, 0.2]})
        rows = [
            pair_inequality(1, 4, 3),
            pair_inequality(1, 2, 3),
            pair_inequality(2, 4, 3),
            pair_inequality(1, 2, 2),
            SetFunction.zero(3),
        ]
        messages = set()
        for order in itertools.permutations(rows):
            expected = None
            for f in order:
                try:
                    evaluate_reference(f, sparse)
                except (MissingCorrelationError, ValueError) as exc:
                    expected = (type(exc), str(exc))
                    break
            with pytest.raises((MissingCorrelationError, ValueError)) as err:
                list(correlations_module._evaluate_rows(order, sparse))
            assert (type(err.value), str(err.value)) == expected
            messages.add(expected)
        assert messages == {
            (MissingCorrelationError, "missing correlation {1,2}"),
            (MissingCorrelationError, "missing correlation {2,3}"),
            (ValueError, "coefficients use n=2, table uses n=3"),
        }


class TestCallCounts:
    """bell --all-valuations must not fall back to evaluating every valuation."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        real = correlations_module._evaluate_rows

        def counting(fs, table):
            counted.append(len(fs))
            return real(fs, table)

        def forbidden(*args, **kwargs):
            raise AssertionError("enumerate_01_valuations was called")

        monkeypatch.setattr(correlations_module, "_evaluate_rows", counting)
        for module in (valuations_module, cli_module):
            monkeypatch.setattr(module, "enumerate_01_valuations", forbidden)
        return counted

    def test_classical_table_evaluates_nothing(self, calls, tmp_path, capsys):
        path = str(tmp_path / "classical.csv")
        write_correlations_csv(classical_table(4, 20, 11), path)
        assert main(["bell", path, "--all-valuations"]) == 0
        out = capsys.readouterr().out
        assert f"checked: {count_01_valuations(4)}" in out
        assert "violations: 0" in out
        assert sum(calls) == 0

    def test_flat_table_evaluates_each_violated_row_once(self, calls, tmp_path, capsys):
        path = str(tmp_path / "flat.csv")
        write_correlations_csv(flat_table(4, 6, 12), path)
        assert main(["--format", "json", "bell", path, "--all-valuations"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["checked"] == count_01_valuations(4)
        assert payload["violations"] == 10240
        assert calls == [payload["violations"]]
