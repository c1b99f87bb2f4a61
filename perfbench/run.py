"""numevents benchmark: whole CLI calls in a closed loop, checked and timed.

    python3 perfbench/run.py --workload bell_all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. One client runs every call of a
workload as ``python -m numevents.cli ...`` with ``src`` on PYTHONPATH; the
next call starts only after the previous one has exited. A pass runs the
workload's calls once; passes repeat until the next one would end after
``--seconds``. Set-up (input generation by ``gen.py`` plus one warm-up call)
runs SETUP_REPEATS times and must produce identical inputs each time.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each call
untraced and then again under ``trace_cli.py`` and reports the per-layer
metrics, summed over the calls of a pass, plus the tracing overhead. Every
call's exit code and stdout are checked. The output is a readable report,
a ``record:`` line with the run record, and as its last line one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time

import checks
import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5
CALL_TIMEOUT_S = 60
WARM_UP = ["enumerate", "1"]


def load_spec() -> dict:
    """BENCHMARK.json: the workloads and every metric's name and unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NUMEVENT_EPS"}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], env: dict, out: str, err: str) -> dict:
    """Run one child to completion; wall, CPU and max RSS from wait4."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
    ]
    start = time.monotonic_ns()
    # the traced child reports its start relative to this clock reading
    argv = [a.replace("{spawn_ns}", str(start)) for a in argv]
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, CALL_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    end = time.monotonic_ns()
    return {
        "wall_s": (end - start) / 1e9,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "code": os.waitstatus_to_exitcode(status),
        "out": out,
        "err": err,
    }


def setup(workload: str, seed: int, work: str, env: dict) -> tuple[list[float], dict]:
    """Generate the inputs and warm up, SETUP_REPEATS times; inputs must not vary."""
    times, manifests = [], []
    inputs = os.path.join(work, "inputs")
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        gen = [sys.executable, os.path.join(HERE, "gen.py"),
               "--workload", workload, "--seed", str(seed), "--out", inputs]
        warm = [sys.executable, "-m", "numevents.cli", *WARM_UP]
        for argv in (gen, warm):
            result = spawn(argv, env, os.path.join(work, "setup.out"), os.path.join(work, "setup.err"))
            if result["code"] != 0:
                with open(result["err"], encoding="utf-8", errors="replace") as fh:
                    raise SystemExit(f"set-up step {argv[1:3]} failed:\n{fh.read()}")
        times.append(time.monotonic() - start)
        with open(os.path.join(inputs, "manifest.json"), "rb") as fh:
            manifests.append(fh.read())
    if len(set(manifests)) != 1:
        raise SystemExit("the generator wrote different inputs for the same seed")
    return times, json.loads(manifests[0])


def calibrate() -> float:
    """Fixed pure-Python loop; a host-speed diagnostic, never used to scale."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    return time.perf_counter() - start


def run_call(call: dict, stem: str, call_id: int | None, env: dict) -> dict:
    """One CLI call; under the tracer when call_id is given."""
    if call_id is None:
        argv = [sys.executable, "-m", "numevents.cli", *call["argv"]]
    else:
        argv = [sys.executable, os.path.join(HERE, "trace_cli.py"),
                stem + ".spans", "{spawn_ns}", str(call_id), *call["argv"]]
    result = spawn(argv, env, stem + ".out", stem + ".err")
    result["spans"] = None if call_id is None else stem + ".spans"
    return result


def examine(call: dict, result: dict) -> None:
    """Check a finished call's output and read its spans, after the timing."""
    with open(result["out"], "rb") as fh:
        out = fh.read()
    result["stdout_bytes"] = len(out)
    result["failure"] = checks.check(call["expect"], result["code"], out)
    if result["spans"] is not None:
        with open(result["spans"], encoding="utf-8") as fh:
            result["layers"] = call_layers(json.load(fh))


def run_pass(calls: list[dict], traced: bool, work: str, env: dict, first_id: int) -> dict:
    """Run every call once; when traced, each call again under the tracer
    right after it, so the two runs of a call see the same host speed."""
    plain, paired = [], []
    start = time.monotonic_ns()
    for k, call in enumerate(calls):
        stem = os.path.join(work, f"call{k}")
        plain.append(run_call(call, stem, None, env))
        if traced:
            paired.append(run_call(call, stem + "t", first_id + k, env))
    elapsed = (time.monotonic_ns() - start) / 1e9
    failures = []
    for results in (plain, paired):
        for call, result in zip(calls, results):
            examine(call, result)
            if result["failure"] is not None:
                failures.append(f"{' '.join(call['argv'])}: {result['failure']}")
    return {
        "elapsed_s": elapsed,
        "wall_s": elapsed if not traced else sum(r["wall_s"] for r in plain),
        "traced_wall_s": sum(r["wall_s"] for r in paired),
        "cpu_s": sum(r["cpu_s"] for r in plain),
        "calls": plain,
        "traced_calls": paired,
        "failures": failures,
    }


def call_layers(trace: dict) -> dict:
    """Per-layer figures of one traced call."""
    spans = trace["spans"]
    selfs = stats.self_times([(s[1], s[2], s[3]) for s in spans])
    figures = {
        "interp.start_s": (trace["enter_ns"] - trace["spawn_ns"]) / 1e9,
        "import.cli_s": (trace["import_end_ns"] - trace["import_start_ns"]) / 1e9,
        "import.numpy_loaded": int(trace["numpy_loaded"]),
        "import.modules": trace["modules"],
        **trace["counts"],
    }
    for i, (name_id, start, end, _) in enumerate(spans):
        name = trace["names"][name_id]
        figures[f"{name}.s"] = figures.get(f"{name}.s", 0.0) + (end - start) / 1e9
        figures[f"{name}.self_s"] = figures.get(f"{name}.self_s", 0.0) + selfs[i] / 1e9
        figures[f"{name}.calls"] = figures.get(f"{name}.calls", 0) + 1
    return figures


def end_to_end(passes: list[dict], setup_times: list[float]) -> tuple[dict, dict]:
    calls = [c for p in passes for c in p["calls"]]
    walls = [c["wall_s"] for c in calls]
    tail, percentile, beyond = stats.tail(walls)
    attempted = len(calls)
    failed = sum(c["failure"] is not None for c in calls)
    values = {
        "setup_s": statistics.median(setup_times),
        # means, not medians: a run holds 3 to 6 passes, and their mean
        # follows the host's speed over the whole run more steadily
        "wall_s": statistics.fmean(p["wall_s"] for p in passes),
        "cpu_s": statistics.fmean(p["cpu_s"] for p in passes),
        "call_p50_s": statistics.median(walls),
        "call_tail_s": tail,
        "peak_rss_mb": max(c["maxrss_kb"] for c in calls) / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }
    record = {
        "call_tail": {"percentile": percentile, "samples_beyond": beyond, "samples": len(walls)},
        "samples": {
            "setup_s": len(setup_times),
            "wall_s": len(passes),
            "cpu_s": len(passes),
            "call_p50_s": len(walls),
            "call_tail_s": len(walls),
            "peak_rss_mb": len(calls),
            "ok_ratio": attempted,
        },
    }
    return values, record


def per_layer(passes: list[dict], names: list[str]) -> tuple[dict, dict]:
    per_pass = []
    for p in passes:
        totals = {"cli.stdout_bytes": sum(r["stdout_bytes"] for r in p["traced_calls"])}
        for r in p["traced_calls"]:
            for name, value in r["layers"].items():
                totals[name] = totals.get(name, 0) + value
        totals["import.modules"] = statistics.median(
            r["layers"]["import.modules"] for r in p["traced_calls"]
        )
        totals["trace.overhead_s"] = p["traced_wall_s"] - p["wall_s"]
        per_pass.append(totals)
    values = {name: statistics.median(t.get(name, 0) for t in per_pass) for name in names}
    return values, {"samples": {"traced_passes": len(passes)}}


def git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "numevents", "cli.py")):
        print(f"error: no numevents sources under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work = os.path.join(".perfbench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        return measure(args, spec, work)
    finally:
        shutil.rmtree(work)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


def measure(args: argparse.Namespace, spec: dict, work: str) -> int:
    env = child_env()
    setup_times, manifest = setup(args.workload, args.seed, work, env)
    calls = manifest["calls"]
    passes, calibration = [], []
    start = time.monotonic()
    while True:
        calibration.append(calibrate())
        passes.append(run_pass(calls, bool(args.trace), work, env, len(passes) * len(calls)))
        if time.monotonic() - start + passes[-1]["elapsed_s"] > args.seconds:
            break

    e2e, e2e_record = end_to_end(passes, setup_times)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        metrics, layer_record = per_layer(passes, list(units))
    else:
        metrics, layer_record = {name: e2e[name] for name in units}, None
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["calls"]) + len(p["traced_calls"]) for p in passes)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": manifest["numpy"],
        "commit": git_commit(),
        "load": "closed loop, 1 client",
        "passes": len(passes),
        "calls_per_pass": len(calls),
        "pass_wall_s": [round(p["wall_s"], 6) for p in passes],
        **({"pass_traced_wall_s": [round(p["traced_wall_s"], 6) for p in passes]} if args.trace else {}),
        "calibration_s": [round(c, 6) for c in calibration],
        "setup_s": [round(t, 6) for t in setup_times],
        "inputs": manifest["inputs"],
        "fail_ratio": len(failures) / attempted,
        **e2e_record,
        **({"layers": layer_record} if layer_record else {}),
    }
    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6f} {units[name]}")
    print(f"{'fail_ratio':44s} {record['fail_ratio']:14.6f} ratio")
    print("record: " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
