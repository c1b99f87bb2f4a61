"""Output checks for the benchmark's CLI calls.

Each check compares one call's exit code and stdout with what the input's
construction implies (see ``gen.py``), or with a checked-in golden file,
and returns None when they agree or a one-line reason when they do not.
None of the expectations is computed by the code under test.
"""

from __future__ import annotations

import functools
import json


def _count(n: int) -> int:
    return (1 << ((1 << n) - 1)) - 1


@functools.cache
def enumerate_text(n: int) -> bytes:
    """`enumerate n` text output by Moebius inversion of each 0/1 vector g.

    f(I) = sum over non-empty J inside I of (-1)**(|I| - |J|) * g(J), for
    packed g = 1 .. 2**(2**n - 1) - 1, with bit t of g the subset mask t+1.
    """
    masks = range(1, 1 << n)
    columns = [
        [(-1) ** (i.bit_count() - j.bit_count()) if i & j == j else 0 for i in masks]
        for j in masks
    ]
    vectors = [[0] * len(columns)]
    lines = [str(_count(n))]
    for packed in range(1, _count(n) + 1):
        low = packed & -packed
        column = columns[low.bit_length() - 1]
        vector = [a + b for a, b in zip(vectors[packed ^ low], column)]
        vectors.append(vector)
        lines.append(" ".join(map(str, vector)))
    return ("\n".join(lines) + "\n").encode()


def _golden(expect: dict, code: int, out: bytes) -> str | None:
    if code != expect["code"]:
        return f"exit {code}, expected {expect['code']}"
    with open(expect["path"], "rb") as fh:
        if out != fh.read():
            return f"stdout differs from {expect['path']}"
    return None


def _enumerate(expect: dict, code: int, out: bytes) -> str | None:
    if code != 0:
        return f"exit {code}, expected 0"
    if out != enumerate_text(expect["n"]):
        return "stdout differs from the Moebius inversion of every 0/1 vector"
    return None


def _bell_classical(expect: dict, code: int, out: bytes) -> str | None:
    n = expect["n"]
    want = (
        f"n: {n}\nmode: all-valuations\nchecked: {_count(n)}\n"
        "violations: 0\nverdict: no obstruction found\n"
    ).encode()
    if code != 0:
        return f"exit {code}, expected 0"
    if out != want:
        return "a classical table must pass every inequality"
    return None


def _bell_flat(expect: dict, code: int, out: bytes) -> str | None:
    # At a flat state the inequality of g reads 0.5 * (number of singletons
    # with g = 1), which exceeds 1 iff three or more are set; classical
    # states satisfy every inequality, so the first flat state is the first
    # violating state of every violated row.
    n = expect["n"]
    singles = sum(1 << ((1 << i) - 1) for i in range(n))
    want = [
        f"g#{p}" for p in range(1, _count(n) + 1) if (p & singles).bit_count() > 2
    ]
    if code != 2:
        return f"exit {code}, expected 2"
    try:
        payload = json.loads(out)
        rows = payload["rows"]
        labels = [r["label"] for r in rows]
        states = {(r["violated"], r["violating_state"]) for r in rows}
        head = (payload["n"], payload["mode"], payload["checked"], payload["violations"])
        verdict = payload["verdict"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable JSON report: {exc!r}"
    if head != (n, "all-valuations", _count(n), len(want)) or verdict != "violated":
        return f"report header {head} {verdict!r}"
    if labels != want:
        return f"{len(labels)} violated rows, expected {len(want)} (g#{_count(n)} among them)"
    if states != {(True, expect["first_flat_state"])}:
        return f"violating states {sorted(map(str, states))[:3]}, expected {expect['first_flat_state']}"
    return None


def _classify(expect: dict, code: int, out: bytes) -> str | None:
    lines = out.decode(errors="replace").splitlines()
    if code != 0:
        return f"exit {code}, expected 0"
    for line in ("verdict: EMBEDDABLE", f"container: {expect['container']}"):
        if line not in lines:
            return f"missing line {line!r}"
    return None


def _boolean(expect: dict, code: int, out: bytes) -> str | None:
    missing = expect["missing"]
    want_code = 0 if missing is None else 2
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    if expect["format"] == "json":
        try:
            payload = json.loads(out)
            got = (
                payload["logic_size"],
                len(payload["states"]),
                payload["n"],
                payload["boolean"],
                payload["missing_minimum"],
            )
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable JSON report: {exc!r}"
        want = (expect["logic_size"], expect["states"], expect["n"], missing is None, missing)
        return None if got == want else f"report {got}, expected {want}"
    want_lines = [
        f"logic: {expect['logic_size']} events over {expect['states']} states",
        f"family: n={expect['n']}",
        "verdict: Boolean" if missing is None else "verdict: not Boolean",
    ]
    if missing is not None:
        want_lines.append("missing minimum: {" + ",".join(map(str, missing)) + "}")
    got_lines = out.decode(errors="replace").splitlines()[: len(want_lines)]
    return None if got_lines == want_lines else f"report {got_lines}, expected {want_lines}"


CHECKS = {
    "golden": _golden,
    "enumerate": _enumerate,
    "bell_classical": _bell_classical,
    "bell_flat": _bell_flat,
    "classify": _classify,
    "boolean": _boolean,
}


def check(expect: dict, code: int, out: bytes) -> str | None:
    """None when the call's exit code and stdout are right, else why not."""
    return CHECKS[expect["kind"]](expect, code, out)
