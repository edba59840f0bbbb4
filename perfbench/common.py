"""Inputs, clocks and statistics shared by the benchmark's workloads.

Inputs are generated here with NumPy from fixed pool seeds and the run's
``--seed``; the program only ever receives the generated capacities and
demands. Nothing in this module imports ``repro`` at import time, so the
checker and ``run.py`` stay independent of the program.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

NUM_TYPES = 3  # the EC2 catalog of the paper's evaluation

#: Fig. 5 request shape: 0-6 VMs per type, at least 4 VMs in total.
FIG5_HIGH, FIG5_MIN_TOTAL = 6, 4

#: Node capacities are uniform in 0..CAPACITY_HIGH per VM type.
CAPACITY_HIGH = 4


@dataclass(frozen=True)
class PoolShape:
    """A two-level (cloud, rack) pool with uniform random capacities."""

    clouds: int
    racks_per_cloud: int
    nodes_per_rack: int
    seed: int

    @property
    def num_nodes(self) -> int:
        return self.clouds * self.racks_per_cloud * self.nodes_per_rack

    def layout(self):
        """``(capacity, rack_ids, cloud_ids)`` as NumPy arrays."""
        rng = np.random.default_rng(self.seed)
        capacity = rng.integers(
            0, CAPACITY_HIGH + 1, size=(self.num_nodes, NUM_TYPES)
        ).astype(np.int64)
        per_cloud = self.racks_per_cloud * self.nodes_per_rack
        node = np.arange(self.num_nodes)
        rack_ids = node // self.nodes_per_rack
        cloud_ids = node // per_cloud
        return capacity, rack_ids, cloud_ids


def build_pool(shape: PoolShape):
    """The program's ``ResourcePool`` for *shape* (imports ``repro``)."""
    from repro.cluster import PhysicalNode, ResourcePool, Topology, VMTypeCatalog

    capacity, rack_ids, cloud_ids = shape.layout()
    nodes = [
        PhysicalNode(
            node_id=i,
            rack_id=int(rack_ids[i]),
            cloud_id=int(cloud_ids[i]),
            capacity=capacity[i],
        )
        for i in range(shape.num_nodes)
    ]
    return ResourcePool(Topology(nodes), VMTypeCatalog.ec2_default())


def fig5_demand(rng: np.random.Generator) -> np.ndarray:
    """One Fig. 5-shaped demand vector."""
    while True:
        demand = rng.integers(0, FIG5_HIGH + 1, size=NUM_TYPES)
        if int(demand.sum()) >= FIG5_MIN_TOTAL:
            return demand.astype(np.int64)


class ProgramClock:
    """Wall and CPU time spent inside calls into the program.

    The workloads time every call into ``repro`` with ``with clock:``, so
    latencies and throughput exclude the benchmark's own bookkeeping and
    checks. :meth:`now` reads the program clock, also from inside a call
    (for decisions resolved while a call is still running).
    """

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self._entered: "tuple[float, float] | None" = None

    def __enter__(self):
        self._entered = (time.perf_counter(), time.process_time())
        return self

    def __exit__(self, *exc) -> None:
        wall0, cpu0 = self._entered
        self.wall += time.perf_counter() - wall0
        self.cpu += time.process_time() - cpu0
        self._entered = None

    def now(self) -> float:
        if self._entered is None:
            return self.wall
        return self.wall + (time.perf_counter() - self._entered[0])


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0-100) by linear interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def counter(registry, name: str) -> float:
    """Value of counter *name* in the program's registry, summed over labels."""
    family = registry.get(name)
    if family is None:
        return 0.0
    return float(sum(inst.value for _values, inst in family.samples()))


def placement_layers(tracer, registry) -> dict:
    """Algorithm 1, kernel and transfer-pair figures of an in-process run."""
    place = tracer.durations("alg1.place")
    per = max(len(place), 1)
    layers = {
        "alg1.place_ms_p50": median(place) * 1e3,
        "alg1.busy_s": sum(place),
        "alg2.pairs_tried": counter(registry, "repro_transfer_attempts_total"),
        "alg2.pairs_applied": counter(registry, "repro_transfer_applied_total"),
    }
    for kind in ("screened", "pruned", "filled"):
        layers[f"kernel.centers_{kind}"] = (
            counter(registry, f"repro_placement_centers_{kind}_total") / per
        )
    return layers


def histogram_quantile(buckets, q: float) -> float:
    """Quantile *q* (0-1) of a cumulative ``[(upper_bound, count), ...]``
    histogram, interpolating linearly inside the bucket that holds it."""
    if not buckets or buckets[-1][1] <= 0:
        return 0.0
    target = q * buckets[-1][1]
    lower_bound, lower_count = 0.0, 0.0
    for bound, count in buckets:
        if count >= target:
            if math.isinf(bound):
                return lower_bound
            span = count - lower_count
            frac = 0.0 if span <= 0 else (target - lower_count) / span
            return lower_bound + (bound - lower_bound) * frac
        lower_bound, lower_count = bound, count
    return lower_bound
