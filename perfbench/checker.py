"""Independent output checker for the placement benchmark.

Written against NumPy alone, without importing ``repro``: every quantity the
benchmark verifies is recomputed here from the inputs the benchmark itself
generated (node capacities, rack and cloud ids, request demands), so a fault
in the program cannot hide behind a shared helper.

* :class:`Hierarchy` — the hierarchical node distance ``D`` (0 on the same
  node, then same rack, same cloud, across clouds), row by row;
* :func:`cluster_distance` — ``DC = min_k sum_i (sum_j C_ij) * D_ik``;
* :class:`SdOracle` — the exact single-request SD optimum: the minimum over
  every center of the nearest-first fill on the availability the request saw;
* :class:`Ledger` — per-node capacity accounting over places and releases;
* :func:`rack_cap` / :func:`check_spread` — the rack spread cap
  ``floor(total / 2)`` of a rack ``k=1`` survivability target.

Nothing here builds an ``n x n`` array: the checks run inside the workload
process, whose peak memory is reported as the program's.

Every check raises :class:`CheckFailure` with a message naming what broke.
"""

from __future__ import annotations

import numpy as np

#: Distance weights of the paper's evaluation: same rack, same cloud, other cloud.
SAME_RACK, SAME_CLOUD, OTHER_CLOUD = 1.0, 2.0, 4.0

#: Absolute tolerance when comparing distances (sums of small integers times
#: the weights above, so exact in float64 up to summation order).
TOL = 1e-6


class CheckFailure(Exception):
    """An output of the program contradicts an independent computation."""


class Hierarchy:
    """Rack and cloud id of every node, and the distances they imply."""

    def __init__(self, rack_ids, cloud_ids) -> None:
        self.racks = np.asarray(rack_ids, dtype=np.int64)
        self.clouds = np.asarray(cloud_ids, dtype=np.int64)

    def rows(self, nodes) -> np.ndarray:
        """Distances from each of *nodes* (one row each) to every node."""
        nodes = np.asarray(nodes, dtype=np.int64)
        same_rack = self.racks[nodes, None] == self.racks[None, :]
        same_cloud = self.clouds[nodes, None] == self.clouds[None, :]
        d = np.where(same_rack, SAME_RACK, np.where(same_cloud, SAME_CLOUD, OTHER_CLOUD))
        d[np.arange(nodes.size), nodes] = 0.0
        return d


def dense(placements, num_nodes: int, num_types: int) -> np.ndarray:
    """An ``n x m`` count matrix from sparse ``(node, type, count)`` triples."""
    matrix = np.zeros((num_nodes, num_types), dtype=np.int64)
    for node, vm_type, count in placements:
        if not (0 <= node < num_nodes and 0 <= vm_type < num_types) or count <= 0:
            raise CheckFailure(f"malformed placement triple {(node, vm_type, count)}")
        matrix[node, vm_type] += count
    return matrix


def cluster_distance(matrix: np.ndarray, hierarchy: Hierarchy) -> float:
    """``DC(C) = min_k sum_i (sum_j C_ij) * D_ik`` (Definition 1)."""
    per_node = np.asarray(matrix).sum(axis=1).astype(np.float64)
    used = np.flatnonzero(per_node)
    if used.size == 0:
        return 0.0
    return float((per_node[used] @ hierarchy.rows(used)).min())


def rack_cap(total: int) -> int:
    """Most VMs one rack may hold so any one rack failure leaves a majority."""
    return total // 2


def check_fit(matrix: np.ndarray, demand, capacity: np.ndarray) -> None:
    """Demand met exactly, within node capacity."""
    matrix = np.asarray(matrix)
    demand = np.asarray(demand, dtype=np.int64)
    if (matrix < 0).any():
        raise CheckFailure("allocation has a negative count")
    got = matrix.sum(axis=0)
    if not np.array_equal(got, demand):
        raise CheckFailure(f"allocation sums to {got.tolist()}, demand {demand.tolist()}")
    over = np.argwhere(matrix > capacity)
    if over.size:
        node, vm_type = (int(v) for v in over[0])
        raise CheckFailure(
            f"node {node} type {vm_type}: {int(matrix[node, vm_type])} VMs over "
            f"capacity {int(capacity[node, vm_type])}"
        )


def check_allocation(
    matrix: np.ndarray,
    demand,
    reported_dc: float,
    hierarchy: Hierarchy,
    capacity: np.ndarray,
) -> float:
    """:func:`check_fit`, and the DC as reported. Returns the recomputed DC."""
    check_fit(matrix, demand, capacity)
    dc = cluster_distance(matrix, hierarchy)
    if abs(dc - float(reported_dc)) > TOL:
        raise CheckFailure(f"reported DC {reported_dc} but recomputed DC is {dc}")
    return dc


def check_spread(matrix: np.ndarray, rack_ids) -> None:
    """No rack holds more than :func:`rack_cap` of the cluster's VMs."""
    matrix = np.asarray(matrix)
    total = int(matrix.sum())
    per_rack = np.bincount(np.asarray(rack_ids), weights=matrix.sum(axis=1))
    cap = rack_cap(total)
    worst = int(per_rack.max()) if per_rack.size else 0
    if worst > cap:
        raise CheckFailure(
            f"rack {int(per_rack.argmax())} holds {worst} of {total} VMs; "
            f"a rack k=1 target caps it at {cap}"
        )


class SdOracle:
    """Exact optimum of the single-request SD problem on a hierarchy.

    For a fixed center the cheapest cluster takes, per VM type, the nearest
    available instances first. Nodes at equal distance cost the same, so the
    fill only needs the supply within each distance tier of the center (its
    own node, its rack, its cloud, everything): per type it takes
    ``min(supply within the tier, demand)`` cumulatively. The optimum is the
    minimum of that cost over all centers, computed for all of them at once.
    """

    TIERS = (0.0, SAME_RACK, SAME_CLOUD, OTHER_CLOUD)

    def __init__(self, hierarchy: Hierarchy) -> None:
        self.hierarchy = hierarchy

    def optimum(self, demand, available: np.ndarray) -> float:
        """Least DC over all allocations of *demand* within *available*."""
        demand = np.asarray(demand, dtype=np.int64)
        available = np.asarray(available, dtype=np.int64)
        if (available.sum(axis=0) < demand).any():
            return float("inf")
        racks, clouds = self.hierarchy.racks, self.hierarchy.clouds
        per_rack = np.zeros((int(racks.max()) + 1, available.shape[1]), dtype=np.int64)
        np.add.at(per_rack, racks, available)
        per_cloud = np.zeros((int(clouds.max()) + 1, available.shape[1]), dtype=np.int64)
        np.add.at(per_cloud, clouds, available)
        # Supply within each tier of every center, cumulative: n x m each.
        within = (available, per_rack[racks], per_cloud[clouds], available.sum(axis=0))
        cost = np.zeros(available.shape[0], dtype=np.float64)
        taken_before = np.zeros_like(available)
        for distance, supply in zip(self.TIERS, within):
            taken = np.minimum(supply, demand)
            cost += distance * (taken - taken_before).sum(axis=1)
            taken_before = taken
        return float(cost.min())

    def check(self, demand, available: np.ndarray, reported_dc: float) -> float:
        """Raise unless *reported_dc* equals the exact optimum."""
        best = self.optimum(demand, available)
        if abs(best - float(reported_dc)) > TOL:
            raise CheckFailure(
                f"placement DC {reported_dc} but the exact SD optimum is {best}"
            )
        return best


class Ledger:
    """Per-node, per-type occupancy over places and releases."""

    def __init__(self, capacity: np.ndarray) -> None:
        self.capacity = np.asarray(capacity, dtype=np.int64)
        self.used = np.zeros_like(self.capacity)
        self.leases: dict = {}

    def place(self, key, matrix: np.ndarray) -> None:
        if key in self.leases:
            raise CheckFailure(f"lease {key!r} placed twice")
        matrix = np.asarray(matrix, dtype=np.int64)
        used = self.used + matrix
        over = np.argwhere(used > self.capacity)
        if over.size:
            node, vm_type = (int(v) for v in over[0])
            raise CheckFailure(
                f"placing {key!r} puts node {node} type {vm_type} at "
                f"{int(used[node, vm_type])} of capacity {int(self.capacity[node, vm_type])}"
            )
        self.used = used
        self.leases[key] = matrix

    def release(self, key) -> np.ndarray:
        matrix = self.leases.pop(key, None)
        if matrix is None:
            raise CheckFailure(f"release of unknown lease {key!r}")
        self.used = self.used - matrix
        return matrix

    @property
    def available(self) -> np.ndarray:
        return self.capacity - self.used
