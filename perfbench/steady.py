"""Steadiness check: run the benchmark on two sets of seeds and compare them.

    python3 perfbench/steady.py [--seeds 10] [--first-seed 1] [--out FILE]

For each of two sets it runs ``run.py --trace 0`` once per seed and per
workload in BENCHMARK.json, for its run_seconds, with the workloads
interleaved, so a host that changes speed during the check touches every
workload alike. For every workload and end-to-end metric it prints the
median of each set and the spread (third minus first quartile, as a share
of the median); beside each run it prints the median of the run's
calibration loop, a host-speed diagnostic. It fails when a spread exceeds
the metric's bound in BENCHMARK.json, except that of setup_s, whose bound
limits only how far its median may move, or when the two set medians
differ by more than the bound in either direction. ``--out`` writes the
runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import stats
from run import ROOT, load_spec

SETS = 2


def run_once(spec: dict, workload: str, seed: int) -> dict:
    argv = [sys.executable, *spec["command"][1:], "--workload", workload,
            "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong output\n{proc.stderr}")
    record = json.loads(next(x for x in lines if x.startswith("record: "))[len("record: "):])
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "calibration_s": statistics.median(record["calibration_s"]),
    }


def disagreement(medians: list[float]) -> float:
    """How far apart the set medians are, as a share of the smaller one."""
    return max(medians) / min(medians) - 1 if min(medians) > 0 else float("inf")


def summarise(spec: dict, runs: list[dict]) -> tuple[list[dict], bool]:
    rows, ok = [], True
    for workload in dict.fromkeys(r["workload"] for r in runs):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            per_set = [
                [r["metrics"][name] for r in runs if r["workload"] == workload and r["set"] == s]
                for s in range(SETS)
            ]
            medians = [statistics.median(v) for v in per_set]
            spreads = [stats.spread(v) if len(v) > 1 else 0.0 for v in per_set]
            apart = disagreement(medians)
            steady = name == "setup_s" or max(spreads) <= metric["bound"]
            agree = apart <= metric["bound"]
            ok = ok and steady and agree
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "bound": metric["bound"],
                "medians": medians,
                "quartiles": [statistics.quantiles(v, n=4) if len(v) > 1 else v * 3 for v in per_set],
                "spreads": spreads,
                "apart": apart,
                "steady": steady,
                "agree": agree,
            })
    return rows, ok


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]

    runs = []
    for s in range(SETS):
        for k in range(args.seeds):
            seed = args.first_seed + s * args.seeds + k
            for workload in workloads:
                run = run_once(spec, workload, seed)
                runs.append({"set": s, "seed": seed, "workload": workload, **run})
                print(f"set {s} seed {seed} {workload}: "
                      + " ".join(f"{n}={v:.4g}" for n, v in run["metrics"].items())
                      + f" (calibration {run['calibration_s']:.4f} s)", flush=True)

    rows, ok = summarise(spec, runs)
    print(f"{'workload':14s} {'metric':12s} {'bound':>6s} {'spreads':>16s} {'apart':>9s}  medians")
    for row in rows:
        print(f"{row['workload']:14s} {row['metric']:12s} {row['bound']:6.3f} "
              f"{' '.join(f'{s:.4f}' for s in row['spreads']):>16s} {row['apart']:9.4f}  "
              f"{' '.join(f'{m:.6g}' for m in row['medians'])} {row['unit']}"
              f"{'' if row['steady'] and row['agree'] else '  <-- FAIL'}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"runs": runs, "summary": rows, "steady": ok}, fh, indent=1)
            fh.write("\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
