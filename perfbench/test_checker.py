"""Tests of the independent checker: broken outputs must be caught.

Run with ``python3 -m pytest perfbench/test_checker.py`` (or ``python3 -m
unittest perfbench.test_checker``) from the repository root.
"""

import itertools
import unittest

import numpy as np

from perfbench import checker

# Two clouds x two racks x three nodes: rack ids 0..3, cloud ids 0,0,1,1.
RACKS = np.repeat(np.arange(4), 3)
CLOUDS = RACKS // 2
HIER = checker.Hierarchy(RACKS, CLOUDS)
CAPACITY = np.array(
    [[2, 1], [1, 1], [0, 2], [3, 0], [1, 1], [2, 2],
     [1, 0], [0, 1], [2, 2], [1, 1], [1, 0], [0, 3]],
    dtype=np.int64,
)


def _brute_force_optimum(demand, available):
    """Least DC by enumerating every allocation (tiny instances only)."""
    per_type = []
    for vm_type, want in enumerate(demand):
        options = []
        for counts in itertools.product(
            *(range(int(c) + 1) for c in available[:, vm_type])
        ):
            if sum(counts) == want:
                options.append(counts)
        per_type.append(options)
    best = float("inf")
    for combo in itertools.product(*per_type):
        matrix = np.array(combo, dtype=np.int64).T
        best = min(best, checker.cluster_distance(matrix, HIER))
    return best


class DistanceTests(unittest.TestCase):
    def test_matrix_levels(self):
        dist = HIER.rows(np.arange(len(RACKS)))
        self.assertEqual(dist[0, 0], 0.0)
        self.assertEqual(dist[0, 1], checker.SAME_RACK)
        self.assertEqual(dist[0, 3], checker.SAME_CLOUD)
        self.assertEqual(dist[0, 6], checker.OTHER_CLOUD)
        self.assertTrue(np.array_equal(dist, dist.T))
        self.assertTrue(np.array_equal(HIER.rows([6, 2]), dist[[6, 2]]))

    def test_cluster_distance_takes_the_best_center(self):
        matrix = np.zeros_like(CAPACITY)
        matrix[0] = [2, 1]  # 3 VMs on node 0
        matrix[3] = [1, 0]  # 1 VM in the other rack of cloud 0
        # Center 0: 1 * 2 = 2; center 3: 3 * 2 = 6; anything else is worse.
        self.assertEqual(checker.cluster_distance(matrix, HIER), 2.0)


class AllocationTests(unittest.TestCase):
    def setUp(self):
        self.matrix = np.zeros_like(CAPACITY)
        self.matrix[0] = [2, 1]
        self.matrix[1] = [0, 1]
        self.demand = [2, 2]
        self.dc = checker.cluster_distance(self.matrix, HIER)

    def test_valid_allocation_passes(self):
        got = checker.check_allocation(
            self.matrix, self.demand, self.dc, HIER, CAPACITY
        )
        self.assertEqual(got, 1.0)

    def test_wrong_demand_is_caught(self):
        with self.assertRaisesRegex(checker.CheckFailure, "demand"):
            checker.check_allocation(self.matrix, [2, 3], self.dc, HIER, CAPACITY)

    def test_over_capacity_is_caught(self):
        matrix = self.matrix.copy()
        matrix[1] = [0, 0]
        matrix[0] = [2, 2]  # node 0 holds only one type-1 VM
        with self.assertRaisesRegex(checker.CheckFailure, "capacity"):
            checker.check_allocation(
                matrix, self.demand, checker.cluster_distance(matrix, HIER),
                HIER, CAPACITY,
            )

    def test_misreported_distance_is_caught(self):
        with self.assertRaisesRegex(checker.CheckFailure, "recomputed"):
            checker.check_allocation(
                self.matrix, self.demand, self.dc - 1.0, HIER, CAPACITY
            )

    def test_malformed_triple_is_caught(self):
        with self.assertRaises(checker.CheckFailure):
            checker.dense([(99, 0, 1)], len(CAPACITY), 2)


class SpreadTests(unittest.TestCase):
    def test_cap_is_half_rounded_down(self):
        self.assertEqual(checker.rack_cap(4), 2)
        self.assertEqual(checker.rack_cap(5), 2)

    def test_spread_within_cap_passes(self):
        matrix = np.zeros_like(CAPACITY)
        matrix[0] = [1, 1]  # rack 0
        matrix[3] = [1, 0]  # rack 1
        matrix[4] = [0, 1]  # rack 1
        checker.check_spread(matrix, RACKS)

    def test_violated_cap_is_caught(self):
        matrix = np.zeros_like(CAPACITY)
        matrix[0] = [2, 1]  # three of four VMs in rack 0
        matrix[3] = [1, 0]
        with self.assertRaisesRegex(checker.CheckFailure, "caps it at 2"):
            checker.check_spread(matrix, RACKS)


class OracleTests(unittest.TestCase):
    def test_matches_brute_force(self):
        oracle = checker.SdOracle(HIER)
        rng = np.random.default_rng(3)
        for _ in range(20):
            available = rng.integers(0, 2, size=CAPACITY.shape)
            demand = rng.integers(0, 3, size=2)
            if demand.sum() == 0 or (available.sum(axis=0) < demand).any():
                continue
            self.assertAlmostEqual(
                oracle.optimum(demand, available),
                _brute_force_optimum(demand, available),
            )

    def test_suboptimal_placement_is_caught(self):
        oracle = checker.SdOracle(HIER)
        # Two type-0 VMs fit on node 0 alone (DC 0); reporting the DC of a
        # cross-rack split must fail.
        with self.assertRaisesRegex(checker.CheckFailure, "optimum"):
            oracle.check([2, 0], CAPACITY, 2.0)
        self.assertEqual(oracle.check([2, 0], CAPACITY, 0.0), 0.0)

    def test_infeasible_demand(self):
        oracle = checker.SdOracle(HIER)
        self.assertEqual(oracle.optimum([100, 0], CAPACITY), float("inf"))


class LedgerTests(unittest.TestCase):
    def test_places_and_releases_balance(self):
        ledger = checker.Ledger(CAPACITY)
        first = np.zeros_like(CAPACITY)
        first[0] = [2, 1]
        ledger.place("a", first)
        ledger.release("a")
        ledger.place("b", first)
        self.assertTrue(np.array_equal(ledger.used, first))

    def test_double_booking_is_caught(self):
        ledger = checker.Ledger(CAPACITY)
        first = np.zeros_like(CAPACITY)
        first[0] = [2, 0]
        ledger.place("a", first)
        second = np.zeros_like(CAPACITY)
        second[0] = [1, 0]
        with self.assertRaisesRegex(checker.CheckFailure, "capacity"):
            ledger.place("b", second)

    def test_duplicate_and_unknown_leases_are_caught(self):
        ledger = checker.Ledger(CAPACITY)
        one = np.zeros_like(CAPACITY)
        one[0] = [1, 0]
        ledger.place("a", one)
        with self.assertRaises(checker.CheckFailure):
            ledger.place("a", one)
        with self.assertRaises(checker.CheckFailure):
            ledger.release("zz")


if __name__ == "__main__":
    unittest.main()
