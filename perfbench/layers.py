"""Per-layer self time of a traced run, and the tracing overhead.

Usage, from the repository root::

    python3 perfbench/layers.py --workload fabric-trace-480 [--seed 1] [--seconds S]

Runs the workload untraced and then traced with the same seed, prints each
span name's call count, total time and self time (duration minus the time
its child spans cover) per process, the per-layer metrics of the traced run,
and the overhead of the traced run over the untraced one on every
end-to-end metric. ``--seconds`` defaults to ``run_seconds`` of
``BENCHMARK.json``. Span files stay in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import run  # noqa: E402
from perfbench.trace import read_spans, self_times  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, default=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    plain = run.measure(args.workload, args.seed, args.seconds, 0)
    traced = run.measure(args.workload, args.seed, args.seconds, 1)
    for raw in (plain, traced):
        if not raw["correct"]:
            print(f"check failed: {raw['error']}", file=sys.stderr)
            return 1

    for path in traced.get("trace_files", []):
        spans = read_spans(ROOT / path)
        table = sorted(self_times(spans).items(), key=lambda kv: -kv[1]["self_s"])
        print(f"\n{path}: {len(spans)} spans")
        print(f"  {'span':24s} {'calls':>8s} {'total s':>10s} {'self s':>10s} {'self ms/call':>13s}")
        for name, entry in table:
            print(f"  {name:24s} {entry['count']:8d} {entry['total_s']:10.3f} "
                  f"{entry['self_s']:10.3f} {entry['self_s'] / entry['count'] * 1e3:13.4f}")

    print("\nper-layer figures (traced run; * marks those outside BENCHMARK.json)")
    units = dict(run.PER_LAYER)
    figures = run.per_layer(traced)
    figures.update(run.all_layers(traced))
    for name, value in figures.items():
        mark = " " if name in units else "*"
        print(f" {mark}{name:36s} {float(value):14.4f} {units.get(name, '')}")

    print("\ntracing overhead (traced over untraced, same seed)")
    base = run.end_to_end(args.workload, plain)
    with_trace = run.end_to_end(args.workload, traced)
    for name, unit in run.END_TO_END:
        before, after = base[name], with_trace[name]
        change = (after - before) / before if before else 0.0
        print(f"  {name:22s} {before:12.4f} -> {after:12.4f} {unit:9s} {change:+7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
