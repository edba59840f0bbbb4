"""Workload ``fabric-trace-480``: a hand-stepped 8-shard fabric on a simulated clock.

``TENANTS`` closed-loop tenants share a 480-node, two-cloud pool cut into 8
rack-aligned shards of 60 nodes. A tenant thinks for an exponential number
of ticks, asks for a cluster, holds it for an exponential number of ticks
once placed, releases it, and thinks again, so arrivals per tick are bursty
and batches form. Demands are Fig. 5-shaped, a ``HEAVY_SHARE`` of them
scaled up (heavy tail); a ``TARGETED_SHARE`` of requests instead carry a
rack ``k=1`` survivability target and take the next demand of the fixed
deck ``TARGETED_DECK``. Every tick releases what is due, submits the tick's
arrivals as one batch, and steps every shard; every ``REBALANCE_EVERY``
ticks the fabric rebalances and every ``CHECKPOINT_EVERY`` ticks it
serializes a checkpoint. No background thread runs, so decisions depend on
the seed alone.

Some rack-capped placements report a distance larger than their DC
(Definition 1), mostly the deck's larger clusters. Such an overstated
distance on a targeted placement is counted in ``reliability.dc_misreports``
rather than failing the check, and ``mean_dc`` uses the recomputed DC. It
is not counted as a failed operation because whether it happens depends on
the availability the request meets, and so on the seed. Any other distance
mismatch fails the run.

Latencies are read on the program clock: the time spent inside calls into
the fabric between a request's submission and its decision.
"""

from __future__ import annotations

import heapq
import json

import numpy as np

from perfbench import checker
from perfbench.common import (
    NUM_TYPES,
    PoolShape,
    ProgramClock,
    build_pool,
    counter,
    fig5_demand,
    median,
    peak_rss_mb,
    placement_layers,
)

SHAPE = PoolShape(clouds=2, racks_per_cloud=8, nodes_per_rack=30, seed=480)
SHARDS = 8
TENANTS = 160
MEAN_THINK_TICKS = 4.0
MEAN_HOLD_TICKS = 20.0
HEAVY_SHARE = 0.10
HEAVY_FACTORS = (2, 3, 4)
TARGETED_SHARE = 0.10
#: Demands of targeted requests, taken in turn: Fig. 5 sizes and three heavy
#: clusters. Totals are even: a 2-rack shard refuses an odd total under the
#: rack cap. The heavy clusters meet the overstated-distance fault most often.
TARGETED_DECK = (
    (2, 2, 0), (0, 6, 6), (6, 5, 5), (4, 4, 6),
    (1, 6, 5), (8, 10, 12), (12, 10, 6), (6, 12, 12),
)
REBALANCE_EVERY = 20
CHECKPOINT_EVERY = 50
#: The run stops at a multiple of this many ticks.
ROUND_TICKS = 50
#: The first round fills the pool; its requests are checked but left out of
#: the metrics (they once put the whole tail in the burst of first arrivals).
WARMUP_TICKS = ROUND_TICKS


class FabricWorkload:
    def __init__(self, seed: int, tracer=None) -> None:
        from repro.core.reliability import SurvivabilityTarget
        from repro.obs import MetricsRegistry
        from repro.service import PlaceRequest, ReleaseRequest, ServiceConfig
        from repro.service.shard import FabricConfig, RackGroupPlan, ShardedPlacementFabric

        self.seed = seed
        self.tracer = tracer
        self.PlaceRequest = PlaceRequest
        self.ReleaseRequest = ReleaseRequest
        self.target = SurvivabilityTarget(kind="rack", k=1)
        self.registry = MetricsRegistry()
        self.config = FabricConfig(
            rebalance_interval=None,
            service=ServiceConfig(queue_capacity=TENANTS + 16, max_batch=32),
        )
        self.fabric = ShardedPlacementFabric(
            build_pool(SHAPE),
            plan=RackGroupPlan(SHARDS),
            config=self.config,
            obs=self.registry,
        )
        self.capacity, self.racks, clouds = SHAPE.layout()
        self.hierarchy = checker.Hierarchy(self.racks, clouds)
        self.attempted = self.failed = 0
        self.misreports = 0
        self.targeted_sent = 0
        if tracer is not None:
            _instrument(tracer)

    # ------------------------------------------------------------ inputs

    def _demand(self, rng) -> "tuple[np.ndarray, bool]":
        """The next request's demand, and whether it carries the target."""
        if rng.random() < TARGETED_SHARE:
            demand = TARGETED_DECK[self.targeted_sent % len(TARGETED_DECK)]
            self.targeted_sent += 1
            return np.array(demand, dtype=np.int64), True
        demand = fig5_demand(rng)
        if rng.random() < HEAVY_SHARE:
            demand = demand * int(rng.choice(HEAVY_FACTORS))
        return demand, False

    # --------------------------------------------------------------- run

    def run(self, deadline) -> dict:
        rng = np.random.default_rng([self.seed, 480])
        fabric = self.fabric
        clock = ProgramClock()
        # (tick, tenant) arrivals and (tick, request id, tenant) releases;
        # first arrivals spread over one think-and-hold cycle.
        cycle = int(MEAN_THINK_TICKS + MEAN_HOLD_TICKS)
        arrivals = [(1 + int(rng.integers(cycle)), t) for t in range(TENANTS)]
        heapq.heapify(arrivals)
        releases: list = []
        pending: dict = {}  # request id -> (tenant, demand, targeted, submitted_at)
        held: dict = {}  # request id -> (demand, targeted)
        resolved: list = []
        ledger = checker.Ledger(self.capacity)
        latencies = {False: [], True: []}  # by targeted
        placed_dc: list = []
        rebalance = {"moves": 0, "gain": 0.0}
        checkpoint_sizes: list = []
        next_rid = 1
        first_measured = None
        warm = (0.0, 0.0)
        tick = 0
        while tick <= WARMUP_TICKS or tick % ROUND_TICKS or not deadline():
            tick += 1
            if tick == WARMUP_TICKS + 1:
                first_measured, warm = next_rid, (clock.wall, clock.cpu)
            while releases and releases[0][0] <= tick:
                _due, rid, tenant = heapq.heappop(releases)
                with clock:
                    response = fabric.release(self.ReleaseRequest(request_id=rid))
                if not response.released:
                    raise checker.CheckFailure(f"release of {rid} answered {response.status}")
                ledger.release(rid)
                del held[rid]
                heapq.heappush(arrivals, (tick + 1 + int(rng.exponential(MEAN_THINK_TICKS)), tenant))
            batch = []
            while arrivals and arrivals[0][0] <= tick:
                _due, tenant = heapq.heappop(arrivals)
                demand, targeted = self._demand(rng)
                batch.append(
                    self.PlaceRequest(
                        demand=tuple(int(d) for d in demand),
                        request_id=next_rid,
                        survivability=self.target if targeted else None,
                    )
                )
                pending[next_rid] = (tenant, demand, targeted)
                next_rid += 1
            if batch:
                submitted_at = clock.now()
                for request in batch:
                    pending[request.request_id] += (submitted_at,)
                with clock:
                    tickets = fabric.submit_batch(batch)
                for ticket in tickets:
                    ticket.add_done_callback(
                        lambda decision: resolved.append((decision, clock.now()))
                    )
            with clock:
                fabric.step_all()
            for decision, decided_at in resolved:
                tenant, demand, targeted, submitted_at = pending.pop(decision.request_id)
                measured = first_measured is not None and decision.request_id >= first_measured
                self.attempted += 1
                if measured:
                    latencies[targeted].append(decided_at - submitted_at)
                if not decision.placed:
                    self.failed += 1
                    heapq.heappush(arrivals, (tick + 1, tenant))
                    continue
                if targeted and decision.survivability is None:
                    raise checker.CheckFailure(
                        f"targeted request {decision.request_id} placed without a survivability report"
                    )
                matrix = checker.dense(decision.placements, SHAPE.num_nodes, NUM_TYPES)
                dc = self._check(matrix, demand, decision.distance, targeted)
                if targeted and abs(dc - decision.distance) > checker.TOL:
                    self.misreports += 1
                ledger.place(decision.request_id, matrix)
                held[decision.request_id] = (demand, targeted)
                if measured:
                    placed_dc.append(dc)
                hold = 1 + int(rng.exponential(MEAN_HOLD_TICKS))
                heapq.heappush(releases, (tick + hold, decision.request_id, tenant))
            resolved.clear()
            if tick % REBALANCE_EVERY == 0:
                with clock:
                    report = fabric.rebalance()
                rebalance["moves"] += report.moves
                rebalance["gain"] += report.gain
                if report.moves:
                    ledger = self._audit(held)
            if tick % CHECKPOINT_EVERY == 0:
                with clock:
                    blob = fabric.checkpoint_bytes()
                checkpoint_sizes.append(len(blob))
        peak = peak_rss_mb()  # before the closing checks build a second fabric
        self._audit(held)
        self._check_restore()
        decided = latencies[False] + latencies[True]
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "latencies": decided,
            "mean_dc": float(np.mean(placed_dc)) if placed_dc else 0.0,
            "peak_rss_mb": peak,
            "program_cpu_s": clock.cpu - warm[1],
            "decisions": len(decided),
            "decisions_per_s": len(decided) / (clock.wall - warm[0]),
            "layers": self._layers(latencies, rebalance, checkpoint_sizes),
        }

    # ------------------------------------------------------------ checks

    def _check(self, matrix, demand, reported_dc: float, targeted: bool) -> float:
        """Check one placement; returns its recomputed DC.

        A targeted placement must keep every rack within the cap and may
        overstate its DC (the known fault), never understate it.
        """
        if not targeted:
            return checker.check_allocation(
                matrix, demand, reported_dc, self.hierarchy, self.capacity
            )
        checker.check_fit(matrix, demand, self.capacity)
        checker.check_spread(matrix, self.racks)
        dc = checker.cluster_distance(matrix, self.hierarchy)
        if reported_dc < dc - checker.TOL:
            raise checker.CheckFailure(f"reported DC {reported_dc} below recomputed DC {dc}")
        return dc

    def _audit(self, held: dict) -> checker.Ledger:
        """Re-derive the ledger from every shard's leases after a rebalance
        moved some of them, checking each lease again."""
        ledger = checker.Ledger(self.capacity)
        for shard in self.fabric.shards:
            for rid, alloc in shard.state.leases.items():
                if rid not in held:
                    raise checker.CheckFailure(f"shard {shard.shard_id} holds unknown lease {rid}")
                moved = shard.global_allocation(alloc, NUM_TYPES)
                demand, targeted = held[rid]
                self._check(moved.matrix, demand, moved.distance, targeted)
                ledger.place(rid, moved.matrix)
        if set(ledger.leases) != set(held):
            raise checker.CheckFailure("fabric leases differ from the leases clients hold")
        return ledger

    def _check_restore(self) -> None:
        from repro.service.shard import fabric_from_checkpoint
        from repro.util.errors import ValidationError

        try:
            self.fabric.verify_consistency()
        except ValidationError as exc:
            raise checker.CheckFailure(f"verify_consistency: {exc}") from exc
        blob = self.fabric.checkpoint_bytes()
        restored = fabric_from_checkpoint(json.loads(blob), config=self.config)
        if restored.checkpoint_bytes() != blob:
            raise checker.CheckFailure("restored checkpoint re-serializes differently")

    def close(self) -> dict:
        return {}

    # ------------------------------------------------------------ layers

    def _layers(self, latencies, rebalance, checkpoint_sizes) -> dict:
        tracer = self.tracer
        if tracer is None:
            return {}
        layers = placement_layers(tracer, self.registry)
        batch = self.registry.get("repro_service_batch_requests")
        batches = sum(inst.count for _v, inst in batch.samples()) if batch else 0
        layers.update({
            "alg2.busy_s": sum(tracer.durations("alg2.pair")),
            "router.submit_ms_p50": median(tracer.durations("router.submit")) * 1e3,
            "shard.spillovers": counter(self.registry, "repro_shard_spillovers_total"),
            "server.step_ms_p50": median(tracer.durations("server.step", "alg1.place")) * 1e3,
            "server.batch_size_mean": (
                sum(inst.sum for _v, inst in batch.samples()) / batches if batches else 0.0
            ),
            "server.transfer_gain": self.fabric.stats.batch_transfer_gain,
            "state.release_ms_p50": median(tracer.durations("state.release")) * 1e3,
            "fabric.rebalance_ms_p50": median(tracer.durations("fabric.rebalance")) * 1e3,
            "fabric.rebalance_moves": float(rebalance["moves"]),
            "fabric.rebalance_gain": rebalance["gain"],
            "checkpoint.ms": median(tracer.durations("checkpoint")) * 1e3,
            "checkpoint.bytes": median(checkpoint_sizes),
            "reliability.targeted_decide_ms_p50": median(latencies[True]) * 1e3,
            "reliability.plain_decide_ms_p50": median(latencies[False]) * 1e3,
            "reliability.dc_misreports": float(self.misreports),
        })
        return layers


def _instrument(tracer) -> None:
    from repro.core.placement import OnlineHeuristic, kernels
    from repro.service import server
    from repro.service.server import PlacementService
    from repro.service.shard import ShardedPlacementFabric
    from repro.service.state import ClusterState

    tracer.wrap(ShardedPlacementFabric, "submit_batch", "router.submit")
    tracer.wrap(ShardedPlacementFabric, "step_all", "fabric.step_all")
    tracer.wrap(ShardedPlacementFabric, "release", "fabric.release", lambda a, k: a[1].request_id)
    tracer.wrap(ShardedPlacementFabric, "rebalance", "fabric.rebalance")
    tracer.wrap(ShardedPlacementFabric, "checkpoint_bytes", "checkpoint")
    tracer.wrap(PlacementService, "step", "server.step")
    tracer.wrap(OnlineHeuristic, "place", "alg1.place", lambda a, k: a[2].request_id)
    tracer.wrap(kernels, "sweep_best", "kernel.sweep")
    tracer.wrap(server, "transfer_pair", "alg2.pair")
    tracer.wrap(ClusterState, "release_lease", "state.release", lambda a, k: a[1])
