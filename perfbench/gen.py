"""Deterministic input generator for the numevents benchmark.

    PYTHONPATH=src python3 perfbench/gen.py --workload bell_all --seed 7 --out DIR

Writes the workload's input files into DIR together with ``manifest.json``:
the CLI calls of one pass, what each call must print (derived from how the
inputs were built, never from the code under test) and, per input file, its
state count, n, member count, size and SHA-256. The same seed gives
byte-identical files. Only public constructors and writers of ``numevents``
are used; ``cli_mix`` reads the checked-in ``tests/data`` and ``tests/golden``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import sys

import numpy

from numevents import (
    CorrelationTable,
    Event,
    StateSpace,
    gen_boolean_algebra,
    mask_event,
    write_correlations_csv,
    write_events_csv,
    write_logic_json,
)

BELL_STATES = 40
BELL_ATOMS = 6
BELL_N = 4
FLAT_STATES = 3
CHAIN_STATES = 14
# A cli_mix pass makes every golden call this often and `enumerate 4` once,
# so a run holds a few `enumerate 4` calls and the pooled tail (10 calls
# beyond it) stays among the short calls whatever the host's speed.
GOLDEN_REPEATS = 2

# argv and exit code of every golden CLI case over tests/data
GOLDEN_CASES = [
    ("classify_polarizer.txt", ["classify", "polarizer.csv"], 0),
    ("classify_polarizer.json", ["--format", "json", "classify", "polarizer.csv"], 0),
    ("classify_comparable.txt", ["classify", "comparable_pair.csv"], 2),
    ("classify_two_valued.txt", ["classify", "two_valued.csv"], 0),
    ("classify_undecided.txt", ["classify", "undecided.csv"], 3),
    ("boolean_even.txt", ["boolean", "even_logic.json"], 2),
    ("boolean_even.json", ["--format", "json", "boolean", "even_logic.json"], 2),
    ("boolean_power.txt", ["boolean", "power_logic.json"], 0),
    ("bell_chsh_pairs.txt", ["bell", "chsh3.csv"], 0),
    ("bell_chsh_all.txt", ["bell", "chsh3.csv", "--all-valuations"], 2),
    ("bell_chsh_all.json", ["--format", "json", "bell", "chsh3.csv", "--all-valuations"], 2),
    ("bell_boolean_n4.txt", ["bell", "boolean_n4.csv"], 0),
    ("bell_pairs_n2.txt", ["bell", "pairs_n2.csv"], 0),
    ("enumerate_2.txt", ["enumerate", "2"], 0),
    ("enumerate_2.json", ["--format", "json", "enumerate", "2"], 0),
]


def _labels(count: int) -> tuple[str, ...]:
    return tuple(f"s{i + 1}" for i in range(count))


def _describe(path: str, states: int | None, n: int | None, members: int | None) -> dict:
    with open(path, "rb") as fh:
        blob = fh.read()
    return {
        "path": path,
        "states": states,
        "n": n,
        "members": members,
        "bytes": len(blob),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }


def _generator_masks(rng: random.Random) -> list[int]:
    return rng.sample(range(1, (1 << BELL_ATOMS) - 1), BELL_N)


def _flat_profile(table: CorrelationTable, flat: set[int]) -> CorrelationTable:
    """Replace the given states by singletons 0.5 and joints 0."""
    entries = {}
    for mask, event in table.entries.items():
        level = 0.5 if mask.bit_count() == 1 else 0.0
        values = tuple(
            level if k in flat else v for k, v in enumerate(event.values)
        )
        entries[mask] = Event(values, table.space)
    return CorrelationTable.build(table.space, table.n, entries)


def bell_all(seed: int, out: str) -> tuple[list, list]:
    rng = random.Random(seed)
    algebra = gen_boolean_algebra(BELL_ATOMS, BELL_STATES, seed)
    classical = algebra.correlation_table(_generator_masks(rng))
    classical_path = os.path.join(out, "classical.csv")
    write_correlations_csv(classical, classical_path)

    other = gen_boolean_algebra(BELL_ATOMS, BELL_STATES, seed + 1)
    flat = sorted(rng.sample(range(BELL_STATES), FLAT_STATES))
    perturbed = _flat_profile(other.correlation_table(_generator_masks(rng)), set(flat))
    flat_path = os.path.join(out, "flat.csv")
    write_correlations_csv(perturbed, flat_path)

    members = (1 << BELL_N) - 1
    inputs = [
        _describe(classical_path, BELL_STATES, BELL_N, members),
        _describe(flat_path, BELL_STATES, BELL_N, members),
    ]
    calls = [
        {
            "argv": ["bell", classical_path, "--all-valuations"],
            "expect": {"kind": "bell_classical", "n": BELL_N},
        },
        {
            "argv": ["--format", "json", "bell", flat_path, "--all-valuations"],
            "expect": {
                "kind": "bell_flat",
                "n": BELL_N,
                "first_flat_state": f"s{flat[0] + 1}",
            },
        },
    ]
    return inputs, calls


def balanced_masks(chain: list[int]) -> list[int]:
    """Subsets with as many even as odd chain positions, ascending.

    A chain of overlapping adjacent pairs generates exactly these: each
    pair is balanced, complements and disjoint unions of balanced sets are
    balanced, and there are C(14, 7) = 3432 of them over 14 states.
    """
    even = sum(1 << s for s in chain[0::2])
    odd = sum(1 << s for s in chain[1::2])
    return [
        m
        for m in range(1 << len(chain))
        if (m & even).bit_count() == (m & odd).bit_count()
    ]


def minima_verdict(family_masks: list[int], logic: set[int], size: int) -> list[int] | None:
    """First subfamily (1-based, lexicographic) whose meet is not in the logic."""
    subsets = sorted(
        c
        for r in range(1, len(family_masks) + 1)
        for c in itertools.combinations(range(1, len(family_masks) + 1), r)
    )
    for subset in subsets:
        meet = (1 << size) - 1
        for i in subset:
            meet &= family_masks[i - 1]
        if meet not in logic:
            return list(subset)
    return None


def logic_closure(seed: int, out: str) -> tuple[list, list]:
    rng = random.Random(seed)
    chain = list(range(CHAIN_STATES))
    rng.shuffle(chain)
    space = StateSpace(_labels(CHAIN_STATES))
    pairs = [(1 << a) | (1 << b) for a, b in zip(chain, chain[1:])]
    events_path = os.path.join(out, "chain.csv")
    write_events_csv(
        [mask_event(m, space) for m in pairs],
        [f"e{i + 1}" for i in range(len(pairs))],
        events_path,
    )

    closure = balanced_masks(chain)
    members = [mask_event(m, space) for m in closure]
    index = {m: i for i, m in enumerate(closure)}

    # two overlapping chain pairs meet in one state, which no member is
    start = rng.randrange(len(pairs) - 1)
    extra = rng.choice([m for m in closure if m not in (0, pairs[start], pairs[start + 1])])
    not_boolean = [pairs[start], pairs[start + 1], extra]
    rng.shuffle(not_boolean)
    # unions of disjoint chain pairs meet in unions of chain pairs
    blocks = [(1 << a) | (1 << b) for a, b in zip(chain[0::2], chain[1::2])]
    picks = rng.sample(range(1, (1 << len(blocks)) - 1), 4)
    boolean = [
        sum(b for j, b in enumerate(blocks) if pick & (1 << j)) for pick in picks
    ]

    inputs = [_describe(events_path, CHAIN_STATES, len(pairs), len(pairs))]
    calls = [
        {
            "argv": ["classify", events_path],
            "expect": {"kind": "classify", "container": f"GFE_CLOSURE({len(closure)})"},
        }
    ]
    logic = set(closure)
    for name, family in (("not_boolean", not_boolean), ("boolean", boolean)):
        path = os.path.join(out, f"{name}.json")
        write_logic_json(space, members, [index[m] for m in family], path)
        inputs.append(_describe(path, CHAIN_STATES, len(family), len(closure)))
        missing = minima_verdict(family, logic, CHAIN_STATES)
        for fmt in ("text", "json"):
            calls.append(
                {
                    "argv": ["--format", fmt, "boolean", path],
                    "expect": {
                        "kind": "boolean",
                        "format": fmt,
                        "logic_size": len(closure),
                        "states": CHAIN_STATES,
                        "n": len(family),
                        "missing": missing,
                    },
                }
            )
    return inputs, calls


def cli_mix(seed: int, out: str) -> tuple[list, list]:
    data = os.path.join("tests", "data")
    golden = os.path.join("tests", "golden")
    calls = []
    for name, argv, code in GOLDEN_CASES:
        argv = [os.path.join(data, a) if a.endswith((".csv", ".json")) else a for a in argv]
        calls.append(
            {
                "argv": argv,
                "expect": {"kind": "golden", "path": os.path.join(golden, name), "code": code},
            }
        )
    enumerate_4 = {"argv": ["enumerate", "4"], "expect": {"kind": "enumerate", "n": 4}}
    calls = calls * GOLDEN_REPEATS + [enumerate_4]
    random.Random(seed).shuffle(calls)
    inputs = []
    for path in sorted({a for c in calls for a in c["argv"] if a.startswith(data)}):
        inputs.append(_describe(path, None, None, None))
    return inputs, calls


GENERATORS = {"bell_all": bell_all, "logic_closure": logic_closure, "cli_mix": cli_mix}


def generate(workload: str, seed: int, out: str) -> dict:
    os.makedirs(out, exist_ok=True)
    inputs, calls = GENERATORS[workload](seed, out)
    manifest = {
        "workload": workload,
        "seed": seed,
        "numpy": numpy.__version__,
        "inputs": inputs,
        "calls": calls,
    }
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=GENERATORS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
