"""Steadiness check: run the same code as two interleaved sets and compare.

    python3 perfbench/steady.py --runs 10 [--workloads corpus-1k,resume-long] [--seed 1]

For each workload, pair i runs ``run.py`` twice with seed ``--seed + i``,
once for set A and once for set B, alternating which set goes first. Runs
are sequential, so at most one benchmark process is busy at a time. For every
end-to-end metric x workload it prints each set's median and quartiles, the
spread (quartile distance over median) and the difference of the two
medians, and flags:

- ``MEDIAN``: the two medians differ by more than the metric's bound;
- ``SPREAD``: a set's spread exceeds the bound.

Exits 1 if anything is flagged. Every run's result and machine stamp is
saved to ``.perfbench_out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    stamp = next((json.loads(line[len("# stamp "):]) for line in lines if line.startswith("# stamp ")), None)
    return {"seed": seed, "stamp": stamp, "result": json.loads(lines[-1])}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="two-set steadiness check")
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    workloads = args.workloads.split(",")

    runs: dict[str, dict[str, list]] = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        for workload in workloads:
            for side in ("AB" if i % 2 == 0 else "BA"):
                runs[workload][side].append(run_once(workload, args.seed + i, args.seconds))
                print(f"pair {i + 1}/{args.runs} {workload} {side} done", file=sys.stderr, flush=True)

    flagged = 0
    report = []
    print(f"{'workload':13} {'metric':12} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34}"
          f" {'spreadA':>8} {'spreadB':>8} {'B/A-1':>7} {'bound':>6}")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = {"workload": workload, "metric": name, "bound": bound}
            for side in ("A", "B"):
                q1, med, q3 = quartiles([r["result"]["metrics"][name]["value"] for r in runs[workload][side]])
                row[side] = {"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med}
            row["diff"] = row["B"]["median"] / row["A"]["median"] - 1
            flags = []
            if abs(row["diff"]) > bound:
                flags.append("MEDIAN")
            if max(row["A"]["spread"], row["B"]["spread"]) > bound:
                flags.append("SPREAD")
            row["flags"] = flags
            flagged += bool(flags)
            report.append(row)
            a, b = row["A"], row["B"]
            print(f"{workload:13} {name:12} {a['median']:>12.5g} [{a['q1']:.5g}, {a['q3']:.5g}]"
                  f"{b['median']:>12.5g} [{b['q1']:.5g}, {b['q3']:.5g}]"
                  f" {a['spread']:>8.1%} {b['spread']:>8.1%} {row['diff']:>+7.1%} {bound:>6.0%} {' '.join(flags)}")

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%dT%H%M%S', time.gmtime())}.json"
    path.write_text(json.dumps({"args": vars(args), "summary": report, "runs": runs}, indent=1), encoding="utf-8")
    print(f"{flagged} flagged; runs saved to {path.relative_to(ROOT)}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
