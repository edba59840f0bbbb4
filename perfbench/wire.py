"""Workloads ``wire-aio-240`` and ``wire-proc-240``: served traffic over TCP.

A server child (:mod:`perfbench.serve`) runs a 2-shard fabric over a
240-node, two-cloud pool behind the asyncio endpoint; ``aio`` keeps the
shards in the server process, ``proc`` runs each in its own worker process.
This process drives it over ``CONNECTIONS`` binary-codec connections, one
thread each, closed loop: every connection places a cluster, checks it,
releases it, and places the next. A round is ``ROUND`` such placements, of
which the ones at ``TARGETED_AT`` carry a rack ``k=1`` survivability target
with the fixed demand ``TARGETED_DEMAND``; the others take the Fig. 5-shaped
demands of deck ``round % DECKS`` (fixed multisets, generated from constant
seeds) in an order drawn from ``(seed, connection, round)``, so every run
sends the same mix of cluster shapes: the slowest one percent of
placements are the largest clusters, and freely drawn mixes moved that
tail with the seed. Each round ends with a
``metrics`` scrape. Connections stop at a round boundary, so the targeted
share of the operations is the same in every run. The first
``WARMUP_ROUNDS`` rounds of a connection are checked and counted but left
out of the latency and throughput figures: proc workers answered their
first two seconds of requests about twice as slowly while their caches
filled.

A placement fails (counted, not a check failure) when it is not placed, or
when a targeted placement lacks its survivability report or breaks the rack
cap. Every other contradiction is a check failure.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from perfbench import checker
from perfbench.common import NUM_TYPES, PoolShape, fig5_demand, histogram_quantile, median

SHAPE = PoolShape(clouds=2, racks_per_cloud=8, nodes_per_rack=15, seed=240)
SHARDS = 2
CONNECTIONS = 2
ROUND = 20
TARGETED_AT = (4, 14)
TARGETED_DEMAND = (2, 2, 0)
WARMUP_ROUNDS = 5
DECKS = 4
#: Seconds allowed for the server child to come up, and to shut down.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

HERE = Path(__file__).resolve().parent


class WireWorkload:
    def __init__(self, seed: int, tracer=None, *, workers: str) -> None:
        from repro.core.reliability import SurvivabilityTarget
        from repro.service import PlaceRequest, resolve_transport

        self.seed = seed
        self.tracer = tracer
        self.workers = workers
        self.PlaceRequest = PlaceRequest
        self.target = SurvivabilityTarget(kind="rack", k=1)
        self.capacity, self.racks, clouds = SHAPE.layout()
        self.hierarchy = checker.Hierarchy(self.racks, clouds)
        self.attempted = self.failed = 0
        plain = ROUND - len(TARGETED_AT)
        self.decks = []
        for k in range(DECKS):
            rng = np.random.default_rng([SHAPE.seed, k])
            self.decks.append([fig5_demand(rng) for _ in range(plain)])
        self.clients: list = []
        self._closed: "dict | None" = None
        self._cpu_before = _children_cpu()
        self.trace_out = ""
        cmd = [sys.executable, str(HERE / "serve.py"), "--workers", workers]
        if tracer is not None:
            self.trace_out = f".bench_out/wire-{workers}-{seed}-server.jsonl"
            cmd += ["--trace-out", self.trace_out]
        self.server = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            line = _read_line(self.server, START_TIMEOUT_S)
            if not line.startswith("PORT "):
                raise RuntimeError(f"server child did not start: {line!r}")
            _tag, port, pids = line.split(" ", 2)
            self.worker_pids = json.loads(pids)
            transport = resolve_transport("aio")
            for _ in range(CONNECTIONS):
                client = transport.connect("127.0.0.1", int(port), codec="binary")
                self.clients.append(client)
                client.ping()
        except BaseException:
            self.close()
            raise
        if tracer is not None:
            from repro.service.transport import ServiceClient

            tracer.wrap(ServiceClient, "place", "wire.place", lambda a, k: a[1].request_id)
            tracer.wrap(ServiceClient, "release", "wire.release", lambda a, k: a[1])
            tracer.wrap(ServiceClient, "metrics", "wire.scrape")

    # --------------------------------------------------------------- run

    def run(self, deadline) -> dict:
        ledger = checker.Ledger(self.capacity)
        lock = threading.Lock()
        outcomes = [dict() for _ in self.clients]
        threads = [
            threading.Thread(
                target=self._connection,
                args=(i, client, ledger, lock, deadline, outcomes[i]),
                name=f"wire-conn-{i}",
            )
            for i, client in enumerate(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.attempted = sum(o["attempted"] for o in outcomes)
        self.failed = sum(o["failed"] for o in outcomes)
        for outcome in outcomes:
            if "error" in outcome:
                raise checker.CheckFailure(outcome["error"])
        merged = {
            key: sum((o[key] for o in outcomes), [])
            for key in ("plain", "targeted", "dc", "release", "scrape")
        }
        decisions = len(merged["plain"]) + len(merged["targeted"])
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "latencies": merged["plain"] + merged["targeted"],
            "mean_dc": float(np.mean(merged["dc"])) if merged["dc"] else 0.0,
            "decisions": decisions,
            "decisions_per_s": sum(
                (len(o["plain"]) + len(o["targeted"])) / o["measured_s"] for o in outcomes
            ),
            "layers": self._layers(merged, outcomes[0], decisions) if self.tracer else {},
        }

    def _connection(self, index, client, ledger, lock, deadline, out) -> None:
        out.update(plain=[], targeted=[], dc=[], release=[], scrape=[])
        attempted = failed = 0
        measured_from = None
        try:
            round_no = 0
            while round_no <= WARMUP_ROUNDS or not deadline():
                measured = round_no >= WARMUP_ROUNDS
                if round_no == WARMUP_ROUNDS:
                    measured_from = time.perf_counter()
                deck = self.decks[round_no % DECKS]
                order = iter(np.random.default_rng([self.seed, index, round_no]).permutation(len(deck)))
                for slot in range(ROUND):
                    targeted = slot in TARGETED_AT
                    demand = np.array(TARGETED_DEMAND) if targeted else deck[next(order)]
                    rid = (index + 1) * 10_000_000 + round_no * ROUND + slot
                    request = self.PlaceRequest(
                        demand=tuple(int(d) for d in demand),
                        request_id=rid,
                        survivability=self.target if targeted else None,
                    )
                    t0 = time.perf_counter()
                    decision = client.place(request)
                    attempted += 1
                    if measured:
                        out["targeted" if targeted else "plain"].append(time.perf_counter() - t0)
                    if not decision.placed:
                        failed += 1
                        continue
                    matrix = checker.dense(decision.placements, SHAPE.num_nodes, NUM_TYPES)
                    checker.check_allocation(
                        matrix, demand, decision.distance, self.hierarchy, self.capacity
                    )
                    with lock:
                        ledger.place(rid, matrix)
                    if targeted and not _spread_ok(decision, matrix, self.racks):
                        failed += 1
                    if measured:
                        out["dc"].append(decision.distance)
                    # Out of the ledger before the release is sent: from then
                    # on the server may hand the capacity to the other
                    # connection.
                    with lock:
                        ledger.release(rid)
                    t0 = time.perf_counter()
                    response = client.release(rid)
                    if measured:
                        out["release"].append(time.perf_counter() - t0)
                    if not response.released:
                        raise checker.CheckFailure(f"release of {rid} answered {response.status}")
                t0 = time.perf_counter()
                body = client.metrics("json")
                if self.tracer is not None and round_no == WARMUP_ROUNDS - 1:
                    out["warm_scrape"] = _parse(body)
                if measured:
                    out["scrape"].append(time.perf_counter() - t0)
                round_no += 1
            out["measured_s"] = time.perf_counter() - measured_from
        except checker.CheckFailure as exc:
            out["error"] = str(exc)
        except Exception as exc:  # a dead connection fails the run, with its cause
            out["error"] = f"connection {index}: {type(exc).__name__}: {exc}"
        out["attempted"] = attempted
        out["failed"] = failed

    # ------------------------------------------------------------ layers

    def _layers(self, merged, first_connection, decisions) -> dict:
        first = first_connection["warm_scrape"]
        last = _parse(self.clients[0].metrics("json"))

        def delta(name):
            return _sum(last, name) - _sum(first, name)

        wait_ms = histogram_quantile(_delta_buckets(first, last, "repro_service_wait_seconds"), 0.5) * 1e3
        rtt_ms = median(merged["plain"] + merged["targeted"]) * 1e3
        batches = delta("repro_service_batch_requests_count")
        placed = max(decisions, 1)
        layers = {
            "kernel.centers_screened": delta("repro_placement_centers_screened_total") / placed,
            "kernel.centers_pruned": delta("repro_placement_centers_pruned_total") / placed,
            "kernel.centers_filled": delta("repro_placement_centers_filled_total") / placed,
            "alg2.pairs_tried": delta("repro_transfer_attempts_total"),
            "alg2.pairs_applied": delta("repro_transfer_applied_total"),
            "shard.spillovers": delta("repro_shard_spillovers_total"),
            "server.batch_size_mean": (
                delta("repro_service_batch_requests_sum") / batches if batches else 0.0
            ),
            "server.transfer_gain": delta("repro_service_batch_gain_distance_sum"),
            "reliability.targeted_decide_ms_p50": median(merged["targeted"]) * 1e3,
            "reliability.plain_decide_ms_p50": median(merged["plain"]) * 1e3,
            "wire.server_wait_ms_p50": wait_ms,
            "wire.overhead_ms_p50": rtt_ms - wait_ms,
            "wire.release_rtt_ms_p50": median(merged["release"]) * 1e3,
            "wire.scrape_ms_p50": median(merged["scrape"]) * 1e3,
            "proc.rpc_total": delta("repro_proc_rpc_total"),
            "proc.rpc_ms_p50": histogram_quantile(
                _delta_buckets(first, last, "repro_proc_rpc_seconds"), 0.5
            ) * 1e3,
        }
        return layers

    # ------------------------------------------------------------ teardown

    def close(self) -> dict:
        """Stop the server child and reap it and its workers (idempotent).

        Raises when the server or a worker exited nonzero or a worker
        outlived the server.
        """
        if self._closed is not None:
            return self._closed
        self._closed = {}
        for client in self.clients:
            client.close()
        server = self.server
        try:
            server.stdin.write("stop\n")
            server.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        try:
            line = _read_line(server, STOP_TIMEOUT_S)
            server.wait(timeout=STOP_TIMEOUT_S)
        except BaseException:
            server.kill()
            server.wait()
            self._kill_workers()
            raise
        survivors = self._kill_workers()
        if survivors:
            raise RuntimeError(f"worker processes {survivors} outlived the server")
        if server.returncode != 0 or not line.startswith("EXIT "):
            raise RuntimeError(
                f"server child exited {server.returncode} ({line.strip()!r})"
            )
        report = json.loads(line[len("EXIT "):])
        self._closed = {
            "serve_cpu_s": _children_cpu() - self._cpu_before,
            "peak_rss_mb": report["maxrss_self_mb"]
            + report["workers"] * report["maxrss_worker_mb"],
            "server_layers": report.get("layers", {}),
            "trace_files": [self.trace_out] if self.trace_out else [],
        }
        return self._closed

    def _kill_workers(self) -> list:
        survivors = []
        for pid in getattr(self, "worker_pids", []) or []:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            survivors.append(pid)
            os.kill(pid, 9)
        return survivors


def _spread_ok(decision, matrix, racks) -> bool:
    if decision.survivability is None:
        return False
    try:
        checker.check_spread(matrix, racks)
    except checker.CheckFailure:
        return False
    return True


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _read_line(proc, timeout: float) -> str:
    """One line of *proc*'s standard output, or raise after *timeout*."""
    box: list = []
    reader = threading.Thread(target=lambda: box.append(proc.stdout.readline()), daemon=True)
    reader.start()
    reader.join(timeout)
    if not box:
        raise TimeoutError(f"no output from pid {proc.pid} within {timeout} s")
    return box[0]


def _parse(body: str) -> dict:
    """``name -> list of samples`` from a line-JSON metrics scrape."""
    out: dict = {}
    for line in body.splitlines():
        if line.strip():
            doc = json.loads(line)
            out[doc["name"]] = doc
    return out


def _sum(scrape: dict, name: str) -> float:
    for suffix, field in (("_count", "count"), ("_sum", "sum")):
        if name.endswith(suffix) and name[: -len(suffix)] in scrape:
            return float(sum(s[field] for s in scrape[name[: -len(suffix)]]["samples"]))
    doc = scrape.get(name)
    if doc is None:
        return 0.0
    return float(sum(s.get("value", 0.0) for s in doc["samples"]))


def _delta_buckets(first: dict, last: dict, name: str) -> list:
    """Cumulative buckets of histogram *name* between two scrapes."""
    def buckets(scrape):
        totals: dict = {}
        for sample in scrape.get(name, {}).get("samples", []):
            for bound, count in sample["buckets"]:
                totals[bound] = totals.get(bound, 0.0) + count
        return totals

    before, after = buckets(first), buckets(last)
    return sorted(
        ((float(bound), after[bound] - before.get(bound, 0.0)) for bound in after),
        key=lambda item: item[0],
    )
