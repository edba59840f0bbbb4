"""One workload process: set up, signal readiness, measure, report.

Started by ``perfbench/run.py``; not meant to be run by hand. Protocol on
standard output, one line each:

* ``READY`` once the first request may be sent (the parent times set-up
  from the process start up to this line);
* then, for a measured run, ``RESULT <json>``; for a set-up-only run
  (``--setup-only``), the workload tears down and prints ``DONE <json>``.

Any failed check raises :class:`perfbench.checker.CheckFailure`, which is
reported as ``RESULT`` with ``correct: false``, the message, and the
operations attempted and failed up to the check. Every workload reports its
own ``peak_rss_mb``: the in-process ones read it before their closing
checks, the wire ones from the server child.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

WORKLOADS = ("gsd-960", "fabric-trace-480", "wire-aio-240", "wire-proc-240")


def _make(name: str, seed: int, tracer):
    if name == "gsd-960":
        from perfbench.gsd import GsdWorkload

        return GsdWorkload(seed, tracer)
    if name == "fabric-trace-480":
        from perfbench.fabric import FabricWorkload

        return FabricWorkload(seed, tracer)
    from perfbench.wire import WireWorkload

    return WireWorkload(seed, tracer, workers=name.split("-")[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from perfbench import checker

    tracer = None
    if args.trace:
        from perfbench.trace import Tracer

        tracer = Tracer()
    workload = _make(args.workload, args.seed, tracer)
    try:
        print("READY", flush=True)
        if args.setup_only:
            print("DONE " + json.dumps(workload.close()), flush=True)
            return 0
        end = time.perf_counter() + args.seconds

        def deadline() -> bool:
            return time.perf_counter() >= end

        try:
            result = workload.run(deadline)
            result["correct"] = True
        except checker.CheckFailure as exc:
            result = {
                "correct": False,
                "error": str(exc),
                "attempted": workload.attempted,
                "failed": workload.failed,
            }
        result.update(workload.close())
        if tracer is not None:
            tracer.close()
            trace_path = Path(".bench_out") / f"{args.workload}-{args.seed}-bench.jsonl"
            tracer.write(trace_path)
            result["trace_files"] = [str(trace_path)] + result.get("trace_files", [])
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
