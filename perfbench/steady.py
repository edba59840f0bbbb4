"""Steadiness check: two sets of runs of the same code, medians and quartiles.

Usage, from the repository root::

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seconds S]

Each of the two sets runs every workload ``--runs`` times, each run with its
own seed (set ``s`` uses seeds ``s*1000 + 1 ...``); successive runs alternate the
workload order, forwards then backwards, so drift of the machine spreads
over all workloads alike. For every end-to-end metric it prints each set's
median, quartiles and spread (quartile distance over the median), the
shift of the second median against the first, and the metric's bound from
``BENCHMARK.json``; ``!`` marks a spread over the bound or a shift worse
than the bound. It also compares the share of
failed operations between sets. Raw results go to ``.bench_out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    results: dict = {w: [[], []] for w in workloads}
    for s in range(2):
        for i in range(args.runs):
            order = workloads if (s * args.runs + i) % 2 == 0 else workloads[::-1]
            for workload in order:
                seed = s * 1000 + i + 1
                result = run_once(workload, seed, args.seconds)
                results[workload][s].append(result)
                print(f"set {s} run {i} {workload} seed {seed}: "
                      f"attempted {result['attempted']} failed {result['failed']}",
                      file=sys.stderr, flush=True)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "steady.json").write_text(json.dumps(results))

    ok = True
    for workload in workloads:
        sets = results[workload]
        print(f"\n{workload}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        print(f"  failed share per set: {', '.join(f'{x:.6f}' for x in shares)}")
        per_run_shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if len(per_run_shares) > 1:
            ok = False
            print("  ! failed share differs between runs")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            cells = []
            medians = []
            for runs in sets:
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
                spread = (q3 - q1) / med if med else float("inf")
                flag = "!" if spread > bound else " "
                ok &= flag == " "
                cells.append(f"{med:10.4g} [{q1:.4g}, {q3:.4g}] {spread:6.1%}{flag}")
                medians.append(med)
            shift = (medians[1] - medians[0]) / medians[0] if medians[0] else 0.0
            worse = shift if lower else -shift
            flag = "!" if worse > bound else " "
            ok &= flag == " "
            print(f"  {name:20s} " + " | ".join(cells)
                  + f" | shift {shift:+6.1%}{flag} bound {bound:.0%}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
