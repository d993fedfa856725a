"""Batch workloads: cold tunes in a fresh process over an empty store.

The parent side (:func:`run_batch`) spawns one child process per cold
tune, so every tune pays interpreter start, imports and app set-up the
way a user's tuning script does, and its peak memory is its own.  After
the first cold tune, a few *restart* children open the store that tune
left and answer one query per application (its best configuration),
which is what a restarted tuning script pays before it can answer.
Every tune is serial (one engine worker).

Child usage (the parent builds this command line)::

    python3 perfbench/batch.py --mode cold|restart --workload NAME \
        --store DIR --out FILE --spawned T [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))

#: workload -> (search, applications).  Batch results do not depend on
#: the workload seed: spaces and searches are fixed.
BATCH_WORKLOADS: Dict[str, tuple] = {
    "pareto-cold": ("pareto", ("matmul", "cp", "sad", "mri-fhd")),
    "exhaustive-cold": ("exhaustive", ("matmul", "cp", "mri-fhd")),
}

#: restart children per run: at least MIN_RESTARTS, and more until
#: their spawn-to-answer times add up to RESTART_SECONDS; their median
#: is ``restart_ready_s``.  One restart takes 0.5-1.2 s, most of it
#: interpreter start and imports, so a single sample moves with the
#: host by 10-20% on a 2-vCPU VM; five seconds of samples (about 5 on
#: pareto-cold, 9 on exhaustive-cold) kept the median within 9%.
MIN_RESTARTS = 3
RESTART_SECONDS = 5.0
#: a child that runs longer than this has hung (the slowest, the cold
#: Pareto tune, takes about 30 s on a 2-core x86 container)
CHILD_TIMEOUT_S = 150.0

#: EngineStats counters summed over a workload's apps
ENGINE_COUNTERS = (
    "static_evaluations", "simulations", "compile_hits",
    "compile_evaluations", "fingerprint_sm_hits", "events_replayed",
    "blocks_replayed", "blocks_extrapolated", "task_retries",
    "worker_crashes", "serial_fallback_tasks", "store_hits",
    "store_misses", "store_corrupt",
)


def child_command(mode: str, workload: str, store: str, out: str,
                  trace: bool) -> List[str]:
    command = [sys.executable, os.path.join(HERE, "batch.py"),
               "--mode", mode, "--workload", workload, "--store", store,
               "--out", out]
    return command + (["--trace"] if trace else [])


def spawn_child(command: List[str], env: Dict[str, str]) -> Dict[str, Any]:
    """Run one child to completion; its JSON report, or raise."""
    out = command[command.index("--out") + 1]
    spawned = time.perf_counter()
    completed = subprocess.run(
        command + ["--spawned", repr(spawned)], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{command[3]} child exited {completed.returncode}: "
            f"{completed.stderr.decode(errors='replace')[-2000:]}"
        )
    with open(out) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Child side.


def _peak_rss_mb() -> float:
    """This process's peak RSS in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _child(options: argparse.Namespace) -> int:
    tracer = None
    if options.trace:
        from spans import LAYER_BINDINGS, Tracer

        tracer = Tracer()
        tracer.install(LAYER_BINDINGS)
    from golden import GOLDEN, check_search
    from repro.apps import all_applications
    from repro.tuning import ExecutionEngine, full_exploration, pareto_search
    from repro.tuning.space import Configuration

    search_name, names = BATCH_WORKLOADS[options.workload]
    apps = [app for app in all_applications() if app.name in names]
    # Cold and restart children do the same set-up, so their set-up
    # times are samples of one quantity.
    queries = {app.name: app.space().configurations() for app in apps}
    if options.mode == "cold":
        search = pareto_search if search_name == "pareto" else full_exploration
    else:
        search = full_exploration
        for app in apps:
            best = Configuration(GOLDEN[app.name]["best"])
            queries[app.name] = [c for c in queries[app.name] if c == best]
    engines = {app.name: ExecutionEngine.for_app(
        app, workers=1, store=options.store) for app in apps}
    ready = time.perf_counter()
    # ``completed``: seconds from the start of the tune until each app's
    # result, as a script that asked for every app at once waits for it.
    report: Dict[str, Any] = {
        "setup_s": ready - options.spawned, "completed": {}, "problems": [],
        "failed": 0,
    }
    counters = dict.fromkeys(ENGINE_COUNTERS, 0)
    valid = timed = 0
    for app in apps:
        request = f"{options.mode}:{app.name}"
        try:
            if tracer is not None:
                with tracer.span(f"bench.{options.mode}_tune", request):
                    result = search(queries[app.name], engine=engines[app.name])
            else:
                result = search(queries[app.name], engine=engines[app.name])
        except Exception as error:  # noqa: BLE001 - counted, reported
            report["failed"] += 1
            report["problems"].append(f"{app.name}: {type(error).__name__}: {error}")
            continue
        finally:
            engines[app.name].close()
        report["completed"][app.name] = time.perf_counter() - ready
        if options.mode == "cold":
            report["problems"] += check_search(app.name, result)
        else:
            golden_ms = GOLDEN[app.name]["best_ms"]
            got_ms = result.best.seconds * 1e3
            if abs(got_ms - golden_ms) > 1e-4 * golden_ms:
                report["problems"].append(
                    f"{app.name} restart: best_ms {got_ms} != {golden_ms}")
        stats = engines[app.name].stats
        for name in ENGINE_COUNTERS:
            counters[name] += getattr(stats, name)
        valid += result.valid_count
        timed += result.timed_count
    finished = time.perf_counter()
    report.update(
        wall_s=finished - ready,
        ready_s=finished - options.spawned,
        peak_rss_mb=_peak_rss_mb(),
        counters=counters,
        valid=valid,
        timed=timed,
    )
    if tracer is not None:
        tracer.restore()
        report["spans"] = tracer.export()
    if options.mode == "cold":
        from repro.store import ResultStore

        report["store_bytes"] = ResultStore(options.store).size_bytes()
    with open(options.out, "w") as handle:
        json.dump(report, handle)
    return 0


# ----------------------------------------------------------------------
# Parent side.


def run_batch(workload: str, seconds: float, trace: bool, work: str,
              env: Dict[str, str]) -> Dict[str, Any]:
    """Run one batch workload; raw per-child reports for :mod:`run`.

    Untraced: cold tunes until they add up to ``seconds`` of tune time
    (at least one), then restart children over the first tune's store
    (see :data:`MIN_RESTARTS`).  Traced: one untraced cold tune (the
    overhead reference), one traced cold tune and one traced restart.
    """
    cold: List[Dict[str, Any]] = []
    restarts: List[Dict[str, Any]] = []
    traced_cold: Optional[Dict[str, Any]] = None
    first_store = None
    while True:
        index = len(cold)
        store = os.path.join(work, f"store-{index}")
        out = os.path.join(work, f"cold-{index}.json")
        cold.append(spawn_child(
            child_command("cold", workload, store, out, False), env))
        first_store = first_store or store
        if trace or sum(child["wall_s"] for child in cold) >= seconds:
            break
    if trace:
        store = os.path.join(work, "store-traced")
        out = os.path.join(work, "cold-traced.json")
        traced_cold = spawn_child(
            child_command("cold", workload, store, out, True), env)
        first_store = store
    while not restarts or (not trace and (
            len(restarts) < MIN_RESTARTS
            or sum(child["ready_s"] for child in restarts) < RESTART_SECONDS)):
        out = os.path.join(work, f"restart-{len(restarts)}.json")
        restarts.append(spawn_child(
            child_command("restart", workload, first_store, out, trace), env))
    return {"cold": cold, "restarts": restarts, "traced_cold": traced_cold}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("cold", "restart"), required=True)
    parser.add_argument("--workload", choices=sorted(BATCH_WORKLOADS),
                        required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    return _child(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
