"""Server child of the wire workloads: a 2-shard fabric behind the asyncio endpoint.

Started by :mod:`perfbench.wire`; not meant to be run by hand. It builds the
fabric with ``build_fabric(pool, 2, workers=...)``, serves it over TCP with
the asyncio transport, and prints ``PORT <port> <json>`` (the JSON lists the
proc worker pids). It serves until a line ``stop`` or end of file arrives on
standard input (so it also stops when its parent dies), then shuts the
fabric down, reaping every worker, and prints ``EXIT <json>`` with the
workers' exit codes, peak memory, and, in a traced run, its per-layer
figures. Its exit code is nonzero when any worker exited nonzero.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

#: The scheduler's batching window: short, so the program's own work, not
#: the window's sleep, sets the decision latency.
BATCH_WINDOW_S = 0.001


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workers", choices=("aio", "proc"), required=True)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)

    from perfbench.common import build_pool
    from perfbench.wire import SHAPE, SHARDS
    from repro.obs import MetricsRegistry
    from repro.service import ServiceConfig, build_fabric

    tracer = None
    if args.trace_out:
        from perfbench.trace import Tracer

        tracer = Tracer()
        _instrument(tracer)
    built = build_fabric(
        build_pool(SHAPE),
        SHARDS,
        workers=args.workers,
        config=ServiceConfig(batch_window=BATCH_WINDOW_S),
        obs=MetricsRegistry(),
    )
    endpoint = None
    try:
        built.start()
        endpoint = built.serve(transport="aio").start()
        pids = [h.pid for h in getattr(built.service, "handles", ())]
        print(f"PORT {endpoint.address[1]} {json.dumps(pids)}", flush=True)
        for line in sys.stdin:
            if line.strip() == "stop":
                break
    finally:
        if endpoint is not None:
            endpoint.stop()
        code = built.shutdown()
    report = {
        "worker_exit_codes": built.worker_exit_codes or {},
        "workers": len(built.worker_exit_codes or {}),
        "maxrss_self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "maxrss_worker_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.close()
        tracer.write(args.trace_out)
        report["layers"] = _layers(tracer)
    print("EXIT " + json.dumps(report), flush=True)
    return code


def _instrument(tracer) -> None:
    from repro.core.placement import OnlineHeuristic, kernels
    from repro.service.proc import ProcFabric
    from repro.service.server import PlacementService
    from repro.service.shard import ShardedPlacementFabric
    from repro.service.state import ClusterState

    for cls in (ShardedPlacementFabric, ProcFabric):
        tracer.wrap(cls, "submit", "router.submit", lambda a, k: a[1].request_id)
        tracer.wrap(cls, "release", "fabric.release", lambda a, k: a[1].request_id)
    tracer.wrap(ShardedPlacementFabric, "submit_batch", "router.submit")
    tracer.wrap(PlacementService, "step", "server.step")
    tracer.wrap(OnlineHeuristic, "place", "alg1.place", lambda a, k: a[2].request_id)
    tracer.wrap(kernels, "sweep_best", "kernel.sweep")
    tracer.wrap(ClusterState, "release_lease", "state.release", lambda a, k: a[1])


def _layers(tracer) -> dict:
    from perfbench.common import median

    place = tracer.durations("alg1.place")
    return {
        "alg1.place_ms_p50": median(place) * 1e3,
        "alg1.busy_s": sum(place),
        "router.submit_ms_p50": median(tracer.durations("router.submit")) * 1e3,
        "server.step_ms_p50": median(tracer.durations("server.step", "alg1.place")) * 1e3,
        "state.release_ms_p50": median(tracer.durations("state.release")) * 1e3,
    }


if __name__ == "__main__":
    sys.exit(main())
