"""End-to-end tuning benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``pareto-cold``       serial Pareto-pruned tune of all four apps;
* ``exhaustive-cold``   serial full exploration of matmul, cp, mri-fhd;
* ``service-warm``      a restarted daemon under two closed-loop clients.

Every run checks its outputs against pinned values (``golden.py``) and
the daemon's payloads against the one-shot ``run_sweep`` payload.  With
``--trace 0`` the run prints every end-to-end metric; with
``--trace 1`` it prints every per-layer metric and writes a
Chrome-trace file under ``.perfbench/traces/``.  Each metric goes on a
``name value unit`` line, provenance on a ``provenance`` line, and the
last line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is non-zero when any output check
fails.

All timings are host wall-clock time of this Python implementation.
The simulated kernel times the checks compare are a model that has not
been validated against real GeForce 8800 hardware: the benchmark pins
their bit-identity, not their accuracy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Tuple

import numpy

from batch import run_batch
from measure import layer_totals, nearest_rank, percentile_with_tail
from serving import run_service
from spans import (
    LAYER_BINDINGS,
    REPLAY_LAYERS,
    STATIC_LAYERS,
    measure_rows,
    write_chrome_trace,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTPUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("pareto-cold", "exhaustive-cold", "service-warm")

TIMING_NOTE = ("timings are host wall-clock time; simulated kernel times are "
               "an unvalidated model of the GeForce 8800 and are checked for "
               "bit-identity, not accuracy")


def _program_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts: the
    checkout's sources on the path, and no ``REPRO_*`` setting from the
    caller (workers, store, faults) leaking into the measurement."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    return env


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    commit = None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False)
        if completed.returncode == 0:
            commit = completed.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for directory, _dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit, "source_sha256": digest.hexdigest(),
        "machine": platform.machine(), "note": TIMING_NOTE,
    }


# ----------------------------------------------------------------------
# Metric assembly.


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(rows: List[list], window=None) -> Dict[str, float]:
    """``<layer>.self_ms`` and ``<layer>.calls`` for every program
    layer, plus the static/replay self-time totals."""

    totals = layer_totals(measure_rows(rows, window))
    metrics: Dict[str, float] = {}
    for layer in LAYER_BINDINGS:
        row = totals.get(layer, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}.self_ms"] = row["self_s"] * 1e3
        metrics[f"{layer}.calls"] = row["calls"]
    for stage in ("tuning.evaluate_all", "tuning.time_entries"):
        metrics[f"{stage}.total_ms"] = totals.get(stage, {"total_s": 0.0})["total_s"] * 1e3
    metrics["layers.static_self_ms"] = sum(
        metrics[f"{layer}.self_ms"] for layer in STATIC_LAYERS)
    metrics["layers.replay_self_ms"] = sum(
        metrics[f"{layer}.self_ms"] for layer in REPLAY_LAYERS)
    return metrics


def _restart_metrics(rows: List[list], window=None) -> Dict[str, float]:
    layers = _layer_metrics(rows, window)
    return {
        "restart.static_self_ms": layers["layers.static_self_ms"],
        "restart.replay_self_ms": layers["layers.replay_self_ms"],
        "restart.store_read_ms": layers["store.read.self_ms"],
    }


def _counter_metrics(counters: Dict[str, float], valid: int, timed: int) -> Dict[str, float]:
    """Sim, tuning and store counters from summed EngineStats fields
    (which mirror ``SimulationCache.counters()``)."""
    blocks = counters.get("blocks_replayed", 0) + counters.get("blocks_extrapolated", 0)
    compiles = counters.get("compile_hits", 0) + counters.get("compile_evaluations", 0)
    return {
        "sim.events_replayed": counters.get("events_replayed", 0),
        "sim.blocks_extrapolated_ratio": _ratio(
            counters.get("blocks_extrapolated", 0), blocks),
        "sim.compile_hit_ratio": _ratio(counters.get("compile_hits", 0), compiles),
        "sim.sm_hit_ratio": _ratio(
            counters.get("fingerprint_sm_hits", 0), counters.get("simulations", 0)),
        "tuning.timed_fraction": _ratio(timed, valid),
        "tuning.compile_evaluations": counters.get("compile_evaluations", 0),
        "tuning.simulations": counters.get("simulations", 0),
        "tuning.task_retries": counters.get("task_retries", 0),
        "tuning.worker_crashes": counters.get("worker_crashes", 0),
        "tuning.serial_fallback_tasks": counters.get("serial_fallback_tasks", 0),
        "store.hits": counters.get("store_hits", 0),
        "store.misses": counters.get("store_misses", 0),
        "store.corrupt": counters.get("store_corrupt", 0),
    }


#: client-side service metrics; zero on the batch workloads
SERVICE_LAYER = (
    "service.latency_p50_ms", "service.submit_ms",
    "service.status_polls_per_sweep", "service.results_ms",
    "service.result_bytes", "service.server_sweep_ms",
    "service.queue_wait_ms", "service.fastlane_share",
    "service.executor_dispatches", "service.decoded_cache_hit_ratio",
)


def batch_metrics(raw: Dict[str, Any], trace: bool
                  ) -> Tuple[Dict[str, float], List[str], int, int]:
    """(metrics, problems, attempted, failed) for a batch workload."""

    cold, restarts = raw["cold"], raw["restarts"]
    children = cold + restarts + ([raw["traced_cold"]] if trace else [])
    problems = [problem for child in children for problem in child["problems"]]
    attempted = sum(len(child["completed"]) + child["failed"] for child in children)
    failed = sum(child["failed"] for child in children)
    if not trace:
        tunes = [seconds for child in cold for seconds in child["completed"].values()]
        metrics = {
            "setup_s": statistics.median(child["setup_s"] for child in cold + restarts),
            "wall_s": statistics.median(child["wall_s"] for child in cold),
            "peak_rss_mb": statistics.median(child["peak_rss_mb"] for child in cold),
            "latency_p99_ms": nearest_rank(tunes, 0.99) * 1e3,
            "requests_per_s": len(tunes) / sum(child["wall_s"] for child in cold),
            "restart_ready_s": statistics.median(child["ready_s"] for child in restarts),
        }
        return metrics, problems, attempted, failed
    traced = raw["traced_cold"]
    metrics = _layer_metrics(traced["spans"])
    metrics.update(_restart_metrics(restarts[0]["spans"]))
    metrics.update(_counter_metrics(traced["counters"], traced["valid"], traced["timed"]))
    metrics["store.bytes_written"] = traced["store_bytes"]
    metrics.update(dict.fromkeys(SERVICE_LAYER, 0))
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - cold[0]["wall_s"]
    metrics["trace.spans"] = len(traced["spans"])
    return metrics, problems, attempted, failed


def service_metrics(raw: Dict[str, Any], trace: bool
                    ) -> Tuple[Dict[str, float], List[str], int, int]:
    """(metrics, problems, attempted, failed) for ``service-warm``."""

    timed, setup = raw["timed"], raw["setup_outcomes"]
    problems = setup.problems + timed.problems
    attempted = setup.ledger.attempted + timed.ledger.attempted
    failed = setup.ledger.failed + timed.ledger.failed
    latencies = timed.latencies
    if not trace:
        metrics = {
            "setup_s": statistics.median(raw["setup_samples"]),
            "wall_s": raw["first_requests_s"],
            "peak_rss_mb": raw["daemon"]["peak_rss_mb"],
            "latency_p99_ms": percentile_with_tail(latencies, 0.99) * 1e3,
            "requests_per_s": len(latencies) / raw["phase_s"],
            "restart_ready_s": statistics.median(raw["restart_ready"]),
        }
        return metrics, problems, attempted, failed
    rows = raw["daemon"]["spans"]
    metrics = _layer_metrics(rows, raw["window"])
    metrics.update(_restart_metrics(rows, raw["restart_window"]))
    after = raw["metrics_after"]
    metrics.update(_counter_metrics(
        _sum_stats(after), timed.valid, timed.timed))
    metrics["store.bytes_written"] = raw["store_bytes_written"]

    probe = raw["probe"]
    client = _mean_call_ms(raw["client_spans"])
    statuses = list(probe.statuses.values())
    lanes = [status.get("lane") or "" for status in statuses]
    before = raw["metrics_before"]
    decoded = {name: after["decoded_cache"][name] - before["decoded_cache"][name]
               for name in ("decoded_cache_hits", "decoded_cache_misses")}
    metrics.update({
        "service.latency_p50_ms": nearest_rank(latencies, 0.5) * 1e3,
        "service.submit_ms": client.get("service.submit", 0.0),
        "service.status_polls_per_sweep": _ratio(
            sum(probe.polls.values()), len(probe.polls)),
        "service.results_ms": client.get("service.results", 0.0),
        "service.result_bytes": _ratio(sum(probe.result_bytes), len(probe.result_bytes)),
        "service.server_sweep_ms": statistics.median(
            (status["finished"] - status["started"]) * 1e3 for status in statuses),
        "service.queue_wait_ms": statistics.median(
            (status["started"] - status["created"]) * 1e3 for status in statuses),
        "service.fastlane_share": _ratio(
            sum(lane.startswith("fastlane") for lane in lanes), len(lanes)),
        "service.executor_dispatches": (
            after["service"].get("executor_dispatches", 0)
            - before["service"].get("executor_dispatches", 0)),
        "service.decoded_cache_hit_ratio": _ratio(
            decoded["decoded_cache_hits"], sum(decoded.values())),
    })
    ready = raw["restart_ready"]
    metrics["trace.wall_s"] = ready[-1]
    metrics["trace.overhead_s"] = ready[-1] - ready[0]
    metrics["trace.spans"] = len(rows) + len(raw["client_spans"])
    return metrics, problems, attempted, failed


def _sum_stats(metrics_payload: Dict[str, Any]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for stats in metrics_payload.get("runtimes", {}).values():
        for name, value in stats.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                totals[name] = totals.get(name, 0) + value
    return totals


def _mean_call_ms(rows: List[list]) -> Dict[str, float]:
    """Mean duration in ms per span name (client-side calls)."""
    return {name: row["total_s"] * 1e3 / row["calls"]
            for name, row in layer_totals(measure_rows(rows)).items()}


# ----------------------------------------------------------------------
# Entry point.


def declared_units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, in declaration order, from ``BENCHMARK.json``
    (per-layer metrics for a traced run, end-to-end ones otherwise)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    section = declared["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="drives service-warm's timed-phase request order "
                             "and anneal seeds; batch workloads do not depend "
                             "on it")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time per run (batch: cold tunes "
                             "until this much tune time is measured; service: "
                             "the timed phase, extended to 1000 requests)")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    options = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    trace = bool(options.trace)
    os.makedirs(OUTPUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=OUTPUT)
    env = _program_env()
    try:
        if options.workload == "service-warm":
            raw = run_service(options.seed, options.seconds, trace, work, env)
            metrics, problems, attempted, failed = service_metrics(raw, trace)
            rows = (raw["daemon"].get("spans", []) + raw.get("client_spans", [])
                    if trace else [])
        else:
            raw = run_batch(options.workload, options.seconds, trace, work, env)
            metrics, problems, attempted, failed = batch_metrics(raw, trace)
            rows = ([row for child in [raw["traced_cold"], *raw["restarts"]]
                     for row in child["spans"]] if trace else [])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = provenance(options.workload, options.seed, options.seconds, trace)
    tag = f"{options.workload}-seed{options.seed}-trace{options.trace}"
    if trace:
        write_chrome_trace(rows, os.path.join(OUTPUT, "traces", f"{tag}.json"), info)
    print("provenance " + json.dumps(info, sort_keys=True))
    error_rate = failed / attempted if attempted else 0.0
    print(f"operations attempted={attempted} failed={failed} "
          f"error_rate={error_rate:.6f}")
    if options.workload == "service-warm" and not trace:
        latencies = raw["timed"].latencies
        print(f"latency samples={len(latencies)} "
              f"p50_ms={nearest_rank(latencies, 0.5) * 1e3:.4f}")
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    units = declared_units(trace)
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not "
              f"match BENCHMARK.json", file=sys.stderr)
        return 2
    result_metrics = {}
    for name, unit in units.items():
        result_metrics[name] = {"value": metrics[name], "unit": unit}
        print(f"{name} {metrics[name]:.6g} {unit}")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": result_metrics}
    os.makedirs(os.path.join(OUTPUT, "results"), exist_ok=True)
    with open(os.path.join(OUTPUT, "results", f"{tag}.json"), "w") as handle:
        json.dump({"provenance": info, **result}, handle, indent=1)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
