"""The placement benchmark: one command per workload run, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload gsd-960 --seed 1 --seconds 10 --trace 0

It sets up the workload ``SETUP_REPS`` times in fresh processes (the last
one is the measured run) and reports the median set-up time; it measures
the workload for ``--seconds``; every output is checked inside the
workload against :mod:`perfbench.checker`. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. See ``perfbench/README.md``.

The program runs with ``PYTHONPATH=src`` and its BLAS and OpenMP pools
pinned to one thread. The exit code is nonzero, and no result is printed,
when the program cannot be found or a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.common import percentile  # noqa: E402

#: Percentile behind ``decide_tail_ms``: the highest with at least ten
#: samples beyond it in one run (see the README's counts). ``wire-proc-240``
#: runs by hand only; ``BENCHMARK.json`` leaves it out (see the README).
TAIL_PERCENTILE = {
    "gsd-960": 90,
    "fabric-trace-480": 99,
    "wire-aio-240": 99,
    "wire-proc-240": 99,
}
IN_PROCESS = ("gsd-960", "fabric-trace-480")
SETUP_REPS = 5
#: A run must end within this many seconds, set-up repetitions included.
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("decide_p50_ms", "ms"),
    ("decide_tail_ms", "ms"),
    ("decisions_per_s", "1/s"),
    ("cpu_ms_per_decision", "ms"),
    ("mean_dc", "distance"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
PER_LAYER = (
    ("alg1.place_ms_p50", "ms"),
    ("alg1.busy_s", "s"),
    ("kernel.centers_screened", "count"),
    ("kernel.centers_pruned", "count"),
    ("kernel.centers_filled", "count"),
    ("alg2.busy_s", "s"),
    ("alg2.pairs_tried", "count"),
    ("alg2.pairs_applied", "count"),
    ("alg2.gain", "distance"),
    ("router.submit_ms_p50", "ms"),
    ("shard.spillovers", "count"),
    ("server.step_ms_p50", "ms"),
    ("server.batch_size_mean", "count"),
    ("server.transfer_gain", "distance"),
    ("state.release_ms_p50", "ms"),
    ("fabric.rebalance_ms_p50", "ms"),
    ("fabric.rebalance_moves", "count"),
    ("fabric.rebalance_gain", "distance"),
    ("checkpoint.ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("reliability.targeted_decide_ms_p50", "ms"),
    ("reliability.plain_decide_ms_p50", "ms"),
    ("reliability.dc_misreports", "count"),
    ("wire.server_wait_ms_p50", "ms"),
    ("wire.overhead_ms_p50", "ms"),
    ("wire.release_rtt_ms_p50", "ms"),
    ("wire.scrape_ms_p50", "ms"),
)


class WorkloadProcess:
    """One ``perfbench/workload.py`` child in its own process group."""

    def __init__(self, args: list, env: dict) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "workload.py"), *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def expect(self, tag: str, deadline: float) -> str:
        """The payload of the next line starting with *tag*."""
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError(f"no {tag} line before the run's time budget ran out")
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError(f"workload exited with code {self.proc.wait()} before {tag}")
            if line == tag or line.startswith(tag + " "):
                return line[len(tag) + 1:]

    def finish(self, deadline: float) -> None:
        try:
            code = self.proc.wait(timeout=max(deadline - time.perf_counter(), 0.1))
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        self.reader.join(timeout=5)
        if code != 0:
            raise RuntimeError(f"workload exited with code {code}")

    def kill(self) -> None:
        """Kill the whole process group (server child and workers too)."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()


def program_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run the set-up repetitions and the measured run; returns raw figures."""
    env = program_env()
    deadline = time.perf_counter() + RUN_BUDGET_S
    common = [workload, "--seed", str(seed)]
    setups: list = []
    setup_cpu: list = []
    for _ in range(SETUP_REPS - 1):
        child = WorkloadProcess(common + ["--setup-only"], env)
        try:
            child.expect("READY", deadline)
            setups.append(time.perf_counter() - child.started)
            done = json.loads(child.expect("DONE", deadline))
            child.finish(deadline)
        finally:
            child.kill()
        setup_cpu.append(done.get("serve_cpu_s", 0.0))
    child = WorkloadProcess(
        common + ["--seconds", str(seconds), "--trace", str(trace)], env
    )
    try:
        child.expect("READY", deadline)
        setups.append(time.perf_counter() - child.started)
        result = json.loads(child.expect("RESULT", deadline))
        child.finish(deadline)
    finally:
        child.kill()
    result["setup_s"] = statistics.median(setups)
    result["setup_serve_cpu_s"] = statistics.median(setup_cpu) if setup_cpu else 0.0
    return result


def end_to_end(workload: str, raw: dict) -> dict:
    latencies = raw["latencies"]
    if workload in IN_PROCESS:
        cpu_s, decisions = raw["program_cpu_s"], raw["decisions"]
    else:
        # The server tree's CPU covers the whole run, warm-up rounds too.
        cpu_s = raw["serve_cpu_s"] - raw["setup_serve_cpu_s"]
        decisions = raw["attempted"]
    return {
        "decide_p50_ms": statistics.median(latencies) * 1e3,
        "decide_tail_ms": percentile(latencies, TAIL_PERCENTILE[workload]) * 1e3,
        "decisions_per_s": raw["decisions_per_s"],
        "cpu_ms_per_decision": cpu_s / max(decisions, 1) * 1e3,
        "mean_dc": raw["mean_dc"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": raw["setup_s"],
    }


def all_layers(raw: dict) -> dict:
    """Every per-layer figure a traced run reported, client and server."""
    layers = dict(raw.get("layers", {}))
    layers.update(raw.get("server_layers", {}))
    return layers


def per_layer(raw: dict) -> dict:
    layers = all_layers(raw)
    return {name: float(layers.get(name, 0.0)) for name, _unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        raw = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    if not raw["correct"]:
        print(f"error: {args.workload}: check failed: {raw['error']}", file=sys.stderr)
        print(json.dumps({
            "correct": False,
            "attempted": raw["attempted"],
            "failed": raw["failed"],
            "metrics": {},
        }))
        return 1
    if args.trace:
        values, units = per_layer(raw), dict(PER_LAYER)
    else:
        values, units = end_to_end(args.workload, raw), dict(END_TO_END)
    print(json.dumps({
        "correct": True,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
