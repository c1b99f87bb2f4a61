"""Batch command-line front-end with deterministic reports.

Exit codes: 0 for a positive verdict (embeddable, Boolean, no violated
inequality), 2 for the corresponding negative verdict, 3 for an
undecided classification and 1 for any input or configuration error.
argparse also exits 2 on a command line it cannot parse. A reader that
closes stdout early gets 141 (128 + SIGPIPE, as a shell has it), quietly.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from itertools import chain, islice
from typing import Collection, Iterable, Sequence

from .correlations import check_bell_like, violated_01_valuations
from .dataio import (
    DataFormatError,
    _json_chunks,
    _read_logic_masks,
    read_correlations_csv,
    read_events_csv,
)
from .embedding import EMBEDDABLE, NOT_EMBEDDABLE, UNDECIDED, classify_embedding
from .events import Event, EventFamily, NotTwoValuedError, NumericalEventError
from .logic import (
    DEFAULT_CLOSURE_CAP,
    ConcreteLogic,
    boolean_by_minima,
    check_concrete_logic,
    mask_event,
)
from .tolerance import DEFAULT_EPS, _checked, eps_scope, get_eps
from .valuations import (
    _FLOAT_OF,
    ENUMERATION_CAP,
    _check_enumerable,
    count_01_valuations,
    enumerate_01_valuations,
    format_subset,
    mask_from_indices,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2
EXIT_UNDECIDED = 3
EXIT_CLOSED_PIPE = 141

ENV_EPS = "NUMEVENT_EPS"

# characters per write of a JSON report on stdout
_WRITE_SIZE = 1 << 16
# lines per write of a text report: about 70 KB of `enumerate 4` rows
_WRITE_LINES = 1 << 11
# int() of each coefficient a listed valuation holds, as text; -0.0 reads "0"
_COEFFICIENT_TEXT = {v: str(k) for k, v in _FLOAT_OF.items()}


def _fmt_number(v: float) -> str:
    if v == int(v):
        return str(int(v))
    return repr(v)


def _fmt_values(event: Event) -> str:
    return "[" + ", ".join(repr(v) for v in event.values) + "]"


def _add_witnesses(
    report: dict, lines: list[str], witnesses: Collection[tuple[str, Event]]
) -> None:
    """Fill the JSON ``witnesses`` list and the ``witnesses:`` text block."""
    report["witnesses"] = [
        {"name": name, "values": list(event.values)} for name, event in witnesses
    ]
    if witnesses:
        lines.append("witnesses:")
        lines += [f"- {name} = {_fmt_values(event)}" for name, event in witnesses]


def _emit(output: dict | Iterable[str]) -> None:
    """Print a JSON report (a dict) or text lines (an iterable of str).

    Unbuffered (``python -u``), every write on stdout is a system call;
    joined whole, a long report is held once more as one string. So text
    goes out _WRITE_LINES lines a write, JSON about _WRITE_SIZE characters.
    """
    if not isinstance(output, dict):
        lines = iter(output)
        while group := list(islice(lines, _WRITE_LINES)):
            sys.stdout.write("\n".join(group) + "\n")
        return
    group: list[str] = []
    size = 0
    for piece in chain(_json_chunks(output), ["\n"]):
        group.append(piece)
        size += len(piece)
        if size >= _WRITE_SIZE:
            sys.stdout.write("".join(group))
            group, size = [], 0
    if group:
        sys.stdout.write("".join(group))


# what a command hands main: its exit code, JSON report and text lines
_Output = tuple[int, dict, Iterable[str]]

_CLASSIFY_EXIT = {
    EMBEDDABLE: EXIT_OK,
    NOT_EMBEDDABLE: EXIT_NEGATIVE,
    UNDECIDED: EXIT_UNDECIDED,
}


def _cmd_classify(args: argparse.Namespace) -> _Output:
    family, names = read_events_csv(args.input)
    result = classify_embedding(family, closure_cap=args.budget or DEFAULT_CLOSURE_CAP)
    report = {
        "command": "classify",
        "events": list(names),
        "states": list(family.space.labels),
        "verdict": result.verdict,
        "container": str(result.container) if result.container else None,
        "reasons": list(result.reasons),
    }
    lines = [
        "events: " + ", ".join(names),
        "states: " + ", ".join(family.space.labels),
        f"verdict: {result.verdict}",
        f"container: {result.container if result.container else '-'}",
        "reasons:",
    ]
    lines += [f"- {r}" for r in result.reasons]
    _add_witnesses(report, lines, result.witnesses)
    return _CLASSIFY_EXIT[result.verdict], report, lines


def _cmd_boolean(args: argparse.Namespace) -> _Output:
    space, masks, events, family_events = _read_logic_masks(args.input)
    try:
        if events is None:
            logic = ConcreteLogic(space, frozenset(masks))
        else:
            logic = ConcreteLogic.from_events(events)
    except (NotTwoValuedError, ValueError):
        # only a broken logic gets here: name its first defect and offenders
        if events is None:
            events = [mask_event(m, space) for m in masks]
        defect = check_concrete_logic(events)
        offenders = "; ".join(_fmt_values(e) for e in defect.offenders)
        detail = f"axiom {defect.axiom} violated: {defect.detail}"
        if offenders:
            detail += f" ({offenders})"
        raise NumericalEventError(detail) from None
    if not family_events:
        raise DataFormatError("'family' must select at least one logic member")
    family = EventFamily(family_events)
    verdict = boolean_by_minima(logic, family)
    report = {
        "command": "boolean",
        "logic_size": len(logic),
        "states": list(space.labels),
        "n": family.n,
        "boolean": verdict.boolean,
        "missing_minimum": list(verdict.missing_minimum)
        if verdict.missing_minimum
        else None,
    }
    lines = [
        f"logic: {len(logic)} events over {space.size} states",
        f"family: n={family.n}",
        f"verdict: {'Boolean' if verdict.boolean else 'not Boolean'}",
    ]
    if verdict.missing_minimum:
        subset = mask_from_indices(verdict.missing_minimum, family.n)
        lines.append(f"missing minimum: {format_subset(subset)}")
    _add_witnesses(report, lines, (verdict.witnesses or {}).items())
    return EXIT_OK if verdict.boolean else EXIT_NEGATIVE, report, lines


def _cmd_bell(args: argparse.Namespace) -> _Output:
    table = read_correlations_csv(args.input)
    if table.n not in (2, 3, 4):
        raise NumericalEventError(f"n outside {{2,3,4}}: {table.n}")
    missing = table.missing_masks()
    if missing:
        raise NumericalEventError(
            "missing correlations: "
            + ", ".join(format_subset(m) for m in missing)
        )
    mode = "all-valuations" if args.all_valuations else "pairs"
    if args.all_valuations:
        rows = violated_01_valuations(table)
        checked = count_01_valuations(table.n)
    else:
        rows = check_bell_like(table)
        checked = len(rows)
    violated = sum(r.violated for r in rows)
    verdict = "violated" if violated else "no obstruction found"
    report = {
        "command": "bell",
        "n": table.n,
        "states": list(table.space.labels),
        "mode": mode,
        "checked": checked,
        "violations": violated,
        # one row dict at a time, as the writer asks for it
        "rows": (
            {
                "label": r.label,
                "coefficients": list(r.coefficients.values),
                "min": r.min_value,
                "max": r.max_value,
                "violated": r.violated,
                "violating_state": r.violating_state,
            }
            for r in rows
        ),
        "verdict": verdict,
    }
    lines = chain(
        [f"n: {table.n}", f"mode: {mode}", f"checked: {checked}"],
        (
            f"- {r.label}  min={_fmt_number(r.min_value)} "
            f"max={_fmt_number(r.max_value)}  "
            + (f"VIOLATED at {r.violating_state}" if r.violated else "ok")
            for r in rows
        ),
        [f"violations: {violated}", f"verdict: {verdict}"],
    )
    return EXIT_NEGATIVE if violated else EXIT_OK, report, lines


def _cmd_enumerate(args: argparse.Namespace) -> _Output:
    n = args.n
    _check_enumerable(n)
    count = count_01_valuations(n)
    valuations = enumerate_01_valuations(n)
    report = {
        "command": "enumerate",
        "n": n,
        "count": count,
        "valuations": (list(map(int, f.values)) for f in valuations),
    }
    text = _COEFFICIENT_TEXT.__getitem__
    lines = chain([str(count)], (" ".join(map(text, f.values)) for f in valuations))
    return EXIT_OK, report, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="numevents",
        description=(
            "Classicality checks for measured event data: embeddability "
            "classification, Boolean minima criteria on concrete logics, "
            "and generated consistency inequalities."
        ),
    )
    parser.add_argument(
        "--eps",
        type=float,
        default=None,
        help=f"comparison tolerance (default {DEFAULT_EPS}, env {ENV_EPS})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="closure size cap for classify, at least 1 (library default when omitted)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="classify embeddability of an events CSV"
    )
    p_classify.add_argument("input", help="events CSV (state,event,value)")
    p_classify.set_defaults(handler=_cmd_classify)

    p_boolean = sub.add_parser(
        "boolean", help="run the Boolean minima criterion on a logic JSON"
    )
    p_boolean.add_argument("input", help="concrete-logic JSON")
    p_boolean.set_defaults(handler=_cmd_boolean)

    p_bell = sub.add_parser(
        "bell", help="evaluate consistency inequalities on a correlation CSV"
    )
    p_bell.add_argument("input", help="correlation CSV (state,subset,value)")
    p_bell.add_argument(
        "--all-valuations",
        action="store_true",
        help="every 0/1 valuation instead of the pair inequalities",
    )
    p_bell.set_defaults(handler=_cmd_bell)

    p_enum = sub.add_parser(
        "enumerate", help="list all non-zero 0/1-partial-sum valuations"
    )
    p_enum.add_argument(
        "n", type=int, help=f"number of base measurements, 1 <= n <= {ENUMERATION_CAP}"
    )
    p_enum.set_defaults(handler=_cmd_enumerate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.budget is not None:
            if args.command != "classify":
                raise ValueError("--budget applies only to classify")
            if args.budget < 1:
                raise ValueError(f"--budget must be at least 1, got {args.budget}")
        eps = args.eps
        if eps is None and os.environ.get(ENV_EPS):
            try:
                eps = _checked(float(os.environ[ENV_EPS]))
            except ValueError as exc:
                raise ValueError(f"{ENV_EPS}: {exc}") from None
        with eps_scope(get_eps() if eps is None else eps):
            code, report, lines = args.handler(args)
            _emit(report if args.format == "json" else lines)
            sys.stdout.flush()  # a closed pipe shows here, not at exit
            return code
    except BrokenPipeError:
        # no input error: the exit flush goes to the null device (signal docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE
    except (NumericalEventError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _run() -> int:
    """The program entry: ``main()`` on the process's arguments.

    Once the report is written, everything still alive moves to the
    collector's permanent generation, so the interpreter's collections at
    exit do not walk memory the OS frees anyway. Finalization still runs
    atexit handlers and flushes the std streams. ``main()`` called from
    Python leaves the collector as it found it.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(_run())
