"""Workload ``gsd-960``: Algorithm 1 request by request, then Algorithm 2.

Each batch takes ``BATCH`` Fig. 5-shaped requests, in an order drawn from
``(seed, batch)``, and places them one by one on a fresh copy of a
960-node, two-cloud pool with
``OnlineHeuristic(stop="best")``, then runs the Theorem-2 transfer phase
``GlobalSubOptimizer.optimize_transfers`` over the batch. No service or wire
code runs, so the center sweep and the transfer search do nearly all the work.

Batch ``b`` draws its demands from the fixed multiset ``b % STRATA``
(generated from constant seeds), so every run places the same mix of
cluster shapes and runs differ in request order: with about a hundred
placements in a run, freely drawn mixes alone moved the mean DC by 15%
between seeds. A run ends after a whole number of passes over the strata.

A request's decision latency is its Algorithm 1 call plus the commit of its
allocation; the transfer phase counts in throughput and CPU per decision.
"""

from __future__ import annotations

import numpy as np

from perfbench import checker
from perfbench.common import (
    PoolShape,
    ProgramClock,
    build_pool,
    fig5_demand,
    peak_rss_mb,
    placement_layers,
)

SHAPE = PoolShape(clouds=2, racks_per_cloud=16, nodes_per_rack=30, seed=960)
BATCH = 30
STRATA = 2


class GsdWorkload:
    def __init__(self, seed: int, tracer=None) -> None:
        from repro.core.placement import GlobalSubOptimizer, OnlineHeuristic
        from repro.core.problem import VirtualClusterRequest
        from repro.obs import MetricsRegistry

        self.seed = seed
        self.tracer = tracer
        self.Request = VirtualClusterRequest
        self.pool = build_pool(SHAPE)
        self.registry = MetricsRegistry()
        self.alg1 = OnlineHeuristic(stop="best")
        self.alg2 = GlobalSubOptimizer(self.alg1)
        self.capacity, racks, clouds = SHAPE.layout()
        self.hierarchy = checker.Hierarchy(racks, clouds)
        self.oracle = checker.SdOracle(self.hierarchy)
        self.attempted = self.failed = 0
        self.strata = []
        for k in range(STRATA):
            rng = np.random.default_rng([SHAPE.seed, k])
            self.strata.append([fig5_demand(rng) for _ in range(BATCH)])
        # Warm the pool's distance matrix and topology cache with one
        # placement on a throwaway copy, as a long-lived placer would be.
        warm = self.pool.copy()
        self.alg1.place(warm, VirtualClusterRequest(demand=[6, 6, 6], request_id=0))
        if tracer is not None:
            _instrument(tracer)

    def run(self, deadline) -> dict:
        clock = ProgramClock()
        latencies: list = []
        final_dc: list = []
        alg2_gain = 0.0
        batch = 0
        while batch == 0 or batch % STRATA or not deadline():
            stratum = self.strata[batch % STRATA]
            order = np.random.default_rng([self.seed, batch]).permutation(BATCH)
            demands = [stratum[i] for i in order]
            requests = [
                self.Request(demand=d, request_id=batch * BATCH + i + 1)
                for i, d in enumerate(demands)
            ]
            ledger = checker.Ledger(self.capacity)
            with clock:
                work = self.pool.copy()
            allocs = []
            for i, request in enumerate(requests):
                self.attempted += 1
                available = ledger.available
                started = clock.now()
                with clock:
                    alloc = self.alg1.place(work, request, obs=self.registry).allocation
                    if alloc is not None:
                        work.allocate(alloc.matrix)
                latencies.append(clock.now() - started)
                allocs.append(alloc)
                if alloc is None:
                    self.failed += 1
                    continue
                checker.check_allocation(
                    alloc.matrix, demands[i], alloc.distance, self.hierarchy, self.capacity
                )
                self.oracle.check(demands[i], available, alloc.distance)
                ledger.place(request.request_id, alloc.matrix)
            with clock:
                final = self.alg2.optimize_transfers(
                    allocs, work.distance_matrix, obs=self.registry
                )
            before = sum(a.distance for a in allocs if a is not None)
            after_ledger = checker.Ledger(self.capacity)
            after = 0.0
            for i, (old, new) in enumerate(zip(allocs, final)):
                if (old is None) != (new is None):
                    raise checker.CheckFailure("transfer phase dropped or invented a placement")
                if new is None:
                    continue
                after += checker.check_allocation(
                    new.matrix, demands[i], new.distance, self.hierarchy, self.capacity
                )
                after_ledger.place(i, new.matrix)
                final_dc.append(new.distance)
            if after > before + checker.TOL:
                raise checker.CheckFailure(
                    f"Algorithm 2 total DC {after} exceeds Algorithm 1 total {before}"
                )
            alg2_gain += before - after
            batch += 1
        decisions = self.attempted - self.failed
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "latencies": latencies,
            "mean_dc": float(np.mean(final_dc)) if final_dc else 0.0,
            "peak_rss_mb": peak_rss_mb(),
            "program_cpu_s": clock.cpu,
            "decisions": decisions,
            "decisions_per_s": decisions / clock.wall,
            "layers": self._layers(alg2_gain),
        }

    def close(self) -> dict:
        return {}

    def _layers(self, alg2_gain: float) -> dict:
        if self.tracer is None:
            return {}
        layers = placement_layers(self.tracer, self.registry)
        layers["alg2.busy_s"] = sum(self.tracer.durations("alg2.transfers"))
        layers["alg2.gain"] = alg2_gain
        return layers


def _instrument(tracer) -> None:
    from repro.core.placement import GlobalSubOptimizer, OnlineHeuristic, global_opt, kernels

    tracer.wrap(OnlineHeuristic, "place", "alg1.place", lambda a, k: a[2].request_id)
    tracer.wrap(kernels, "sweep_best", "kernel.sweep")
    tracer.wrap(GlobalSubOptimizer, "optimize_transfers", "alg2.transfers")
    tracer.wrap(global_opt, "transfer_pair", "alg2.pair")

