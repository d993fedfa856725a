"""Pinned outputs every benchmark run is checked against.

``GOLDEN`` mirrors the values ``tests/integration/test_golden_results.py``
pins for the headline experiment (valid count, Pareto count, best
configuration, best time).  ``DIGESTS`` are SHA-256 digests of every
configuration's ``(config_key, seconds, efficiency, utilization)``
from a serial run, recorded at the commit that introduced the
benchmark.
Re-record them with ``python3 perfbench/golden.py`` (from the repo
root) only when a change is meant to move simulated results.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Sequence

GOLDEN: Dict[str, dict] = {
    "matmul": dict(
        valid=94, pareto=8, best_ms=16.164124,
        best={"prefetch": False, "rect": 4, "spill": False,
              "tile": 16, "unroll": "complete"},
    ),
    "cp": dict(
        valid=38, pareto=10, best_ms=0.923556,
        best={"block": 64, "coalesce_output": True, "tiling": 8},
    ),
    "sad": dict(
        valid=808, pareto=27, best_ms=1.140438,
        best={"positions_per_block": 512, "tiling": 8, "unroll_cols": 4,
              "unroll_rows": 4, "unroll_search": 8},
    ),
    "mri-fhd": dict(
        valid=175, pareto=35, best_ms=140.464933,
        best={"block": 64, "invocations": 1, "unroll": 16},
    ),
}

#: (app, strategy) -> digest of the serial run's evaluated entries
DIGESTS: Dict[str, str] = {
    "matmul/exhaustive": "49810ed298db0230843e5963932af777362fc01767d7d0a1926ff65fa60524a1",
    "matmul/pareto": "4c558ab7db0b2d8da312d211db4e0574be9487607a588d279c207a97a4f7bece",
    "cp/exhaustive": "875b9ae8167c17a5561229239485c53055a812406518e87e8aacd2fb622bf932",
    "cp/pareto": "c398a043ee388cf954a6bdf2da1f8206d39eee532c7d7b0c8e0b1b2ae0e61669",
    "sad/exhaustive": "d6511dd9b5e3dec23d46432f0e30c19bb67b0b546d84a659e4f840223d8dc956",
    "sad/pareto": "c4f98b887e4f9c4fe3111886da483cc778b6312fde7525f411550ba0bac7f054",
    "mri-fhd/exhaustive": "858f925abce0f8ee6aaa0bccbd3815f392725126bfc62a138c0634eaeea3708c",
    "mri-fhd/pareto": "4b469adaccd07d96037511f99b8c4d96eb0fe0f9afd223fa0e6e56c2ffa5a69e",
}


def result_digest(evaluated: Sequence) -> str:
    """Digest of ``(config_key, seconds, efficiency, utilization)`` over
    every evaluated configuration, in config-key order.  Floats are
    hashed through ``repr`` (via JSON), so the digest is bit-exact."""
    from repro.tuning.engine import config_key

    rows = []
    for entry in evaluated:
        metrics = entry.metrics
        rows.append([
            config_key(entry.config),
            entry.seconds,
            None if metrics is None else metrics.efficiency,
            None if metrics is None else metrics.utilization,
        ])
    rows.sort(key=lambda row: row[0])
    digest = hashlib.sha256()
    for row in rows:
        digest.update(json.dumps(row).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def check_search(app: str, result) -> List[str]:
    """Every mismatch between one search result and the pinned values
    (empty when the result is correct)."""
    golden = GOLDEN[app]
    problems = []

    def expect(what: str, got, want) -> None:
        if got != want:
            problems.append(f"{app} {result.strategy}: {what} {got!r} != {want!r}")

    expect("valid count", result.valid_count, golden["valid"])
    if result.strategy == "pareto":
        expect("pareto count", result.timed_count, golden["pareto"])
    expect("best configuration", dict(result.best.config), golden["best"])
    best_ms = result.best.seconds * 1e3
    if abs(best_ms - golden["best_ms"]) > 1e-4 * golden["best_ms"]:
        problems.append(f"{app} {result.strategy}: best_ms {best_ms} != "
                        f"{golden['best_ms']}")
    key = f"{app}/{result.strategy}"
    expect("digest", result_digest(result.evaluated), DIGESTS.get(key))
    return problems


def _record() -> None:
    import sys

    sys.path.insert(0, "src")
    from repro.apps import all_applications
    from repro.tuning import ExecutionEngine, full_exploration, pareto_search

    for app in all_applications():
        configs = app.space().configurations()
        for search in (full_exploration, pareto_search):
            fresh = type(app)()
            with ExecutionEngine.for_app(fresh, workers=1) as engine:
                result = search(configs, engine=engine)
            print(f'    "{app.name}/{result.strategy}": '
                  f'"{result_digest(result.evaluated)}",', flush=True)


if __name__ == "__main__":
    _record()
