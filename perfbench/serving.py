"""The ``service-warm`` workload: warm daemon traffic from two clients.

Set-up: a daemon over an empty store answers every mix entry once (the
cold fill) while the one-shot ``run_sweep`` path computes the reference
payload of every entry.  Then the daemon is restarted over that store
:data:`RESTARTS` times, each restart timed from spawn until every mix
entry has been answered once (their median is ``restart_ready_s``).
The last restarted daemon then serves the timed phase: a closed
loop of two client threads, each calling ``ServiceClient.sweep`` with
default settings (a fresh connection per call, 200 ms status polls)
and sending its next request only after the previous one returned.

The seed drives the timed phase's request order and the anneal seeds;
the fill and the restart answer the mix in one fixed order, so the
restart's critical path does not depend on the seed.  Every reply is
compared with its reference payload.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

from measure import FailureLedger, samples_needed

HERE = os.path.dirname(os.path.abspath(__file__))

APPS = ("cp", "matmul", "mri-fhd")
SELECTION_STRATEGIES = ("exhaustive", "pareto")
#: copies of each entry in the timed phase's request deck: with three
#: apps and eight anneal seeds each, 80% selection sweeps (the fast
#: lane; Pareto-pruned tunes, the paper's workflow, three times as
#: common as exhaustive ones) and 20% anneal sweeps (the executor
#: path).  Each client deals seeded shuffles of the deck, so every run
#: carries the same proportions.  Whether an anneal sweep is answered
#: before the client's first status poll depends on its seed; eight
#: seeds per app keep the share that waits a 200 ms poll, and with it
#: throughput, from moving with the workload seed.
DECK_COPIES = {"pareto": 24, "exhaustive": 8, "anneal": 1}
ANNEAL_SEEDS_PER_APP = 8
CLIENTS = 2
#: restarts per untraced run.  A restart rebuilds static results for
#: every configuration, 6-10 s of one core; one sample moved by up to
#: 20% between back-to-back restarts on a 2-vCPU VM, and a single
#: restart per run spread by 26% over ten runs.  Every daemon start
#: (the cold one and each restart) is also a ``setup_s`` sample.
RESTARTS = 3
#: p99 needs ten samples beyond it
MIN_SAMPLES = samples_needed(0.99)
#: the timed phase stops here even short of MIN_SAMPLES
PHASE_DEADLINE_S = 100.0
#: ``ServiceClient.sweep``'s default timeout: a failed request counts
#: as this late, so it misses any latency limit a user would set
FAILED_LATENCY_S = 600.0
READY_TIMEOUT_S = 60.0


def canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True)


def build_mix(seed: int) -> List[dict]:
    """Every mix entry for one workload seed: the selection sweeps,
    then the seeded anneal sweeps."""
    rng = random.Random(seed)
    selection = [{"app": app, "strategy": strategy}
                 for app in APPS for strategy in SELECTION_STRATEGIES]
    adaptive = [{"app": app, "strategy": "anneal",
                 "seed": rng.randrange(1 << 16)}
                for app in APPS for _ in range(ANNEAL_SEEDS_PER_APP)]
    return selection + adaptive


def classify(error: BaseException) -> str:
    """Failure kind for the ledger."""
    from repro.service.client import ServiceError

    if isinstance(error, ServiceError):
        if error.status == 409 and error.message.startswith("sweep "):
            return "sweep_not_done"
        return f"http_{error.status}"
    if isinstance(error, TimeoutError):
        return "timeout"
    if isinstance(error, OSError):
        return "connection"
    return f"raised_{type(error).__name__}"


class Daemon:
    """One ``perfbench/daemon.py`` subprocess over a store."""

    def __init__(self, work: str, tag: str, store: str,
                 env: Dict[str, str], trace: bool) -> None:
        self.ready_file = os.path.join(work, f"{tag}.ready")
        self.report_file = os.path.join(work, f"{tag}.report.json")
        self.log = open(os.path.join(work, f"{tag}.log"), "wb")
        command = [
            sys.executable, os.path.join(HERE, "daemon.py"),
            "--report", self.report_file, *(["--trace"] if trace else []),
            "--", "--host", "127.0.0.1", "--port", "0",
            "--apps", ",".join(APPS), "--workers", "1", "--store", store,
            "--ready-file", self.ready_file,
        ]
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=env, stdout=self.log, stderr=subprocess.STDOUT)
        self.url = ""

    def wait_ready(self) -> float:
        """Seconds from spawn until the daemon answered ``/healthz``."""
        from repro.service.client import ServiceClient

        deadline = self.spawned + READY_TIMEOUT_S
        while not os.path.exists(self.ready_file):
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited {self.process.returncode} before ready")
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon did not become ready")
            time.sleep(0.005)
        with open(self.ready_file) as handle:
            self.url = json.load(handle)["url"]
        ServiceClient(self.url).healthz()
        return time.perf_counter() - self.spawned

    def stop(self) -> Dict[str, Any]:
        """SIGTERM, wait, and return the launcher's exit report."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(timeout=30)
        finally:
            self.log.close()
        try:
            with open(self.report_file) as handle:
                return json.load(handle)
        except FileNotFoundError:
            raise RuntimeError(
                f"daemon exited {self.process.returncode} without a report")


class Outcomes:
    """Thread-safe record of answered requests.

    Payloads are only kept while the load runs and are checked by
    :meth:`verify` afterwards, so the checks never compete with the
    client threads for the interpreter lock.
    """

    def __init__(self) -> None:
        self.ledger = FailureLedger()
        self.latencies: List[float] = []
        #: perf_counter at which each answer (or failure) arrived
        self.finished: List[float] = []
        self.answers: List[Tuple[dict, dict]] = []
        self.problems: List[str] = []
        self.valid = 0
        self.timed = 0
        self._lock = threading.Lock()

    def run(self, client, entry: dict) -> None:
        started = time.perf_counter()
        try:
            payload = client.sweep(entry)
        except Exception as error:  # noqa: BLE001 - every failure is counted
            with self._lock:
                self.ledger.attempt()
                self.ledger.fail(classify(error))
                self.latencies.append(FAILED_LATENCY_S)
                self.finished.append(time.perf_counter())
            return
        latency = time.perf_counter() - started
        with self._lock:
            self.ledger.attempt()
            self.latencies.append(latency)
            self.finished.append(started + latency)
            self.answers.append((entry, payload["result"]))

    def verify(self, oracle: Dict[str, str]) -> None:
        """Compare every answer kept so far with its reference payload."""
        for entry, result in self.answers:
            self.valid += result["valid_count"]
            self.timed += result["timed_count"]
            if canonical(result) != oracle[canonical(entry)]:
                self.ledger.fail("mismatch")
                self.problems.append(f"payload differs from run_sweep for {entry}")
        self.answers = []


def answer_all(url: str, entries: List[dict], outcomes: Outcomes) -> None:
    """Every entry answered once, by ``CLIENTS`` threads sharing the list."""
    from repro.service.client import ServiceClient

    pending = list(entries)
    lock = threading.Lock()

    def worker() -> None:
        client = ServiceClient(url)
        while True:
            with lock:
                if not pending:
                    return
                entry = pending.pop(0)
            outcomes.run(client, entry)

    _run_threads([worker] * CLIENTS)


def _run_threads(targets: List[Callable[[], None]]) -> None:
    threads = [threading.Thread(target=target, daemon=True) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def closed_loop(url: str, seed: int, seconds: float, entries: List[dict],
                outcomes: Outcomes) -> float:
    """The timed phase; returns its duration in seconds."""
    from repro.service.client import ServiceClient

    deck = [entry for entry in entries
            for _ in range(DECK_COPIES[entry["strategy"]])]
    started = time.perf_counter()

    def done() -> bool:
        elapsed = time.perf_counter() - started
        if elapsed >= PHASE_DEADLINE_S:
            return True
        return elapsed >= seconds and len(outcomes.latencies) >= MIN_SAMPLES

    def client_loop(index: int) -> Callable[[], None]:
        def loop() -> None:
            rng = random.Random(seed * 1000 + index)
            client = ServiceClient(url)
            hand: List[dict] = []
            while not done():
                if not hand:
                    hand = list(deck)
                    rng.shuffle(hand)
                outcomes.run(client, hand.pop())
        return loop

    _run_threads([client_loop(index) for index in range(CLIENTS)])
    return time.perf_counter() - started


def reference_payloads(entries: List[dict], store: str) -> Dict[str, str]:
    """Canonical ``run_sweep`` payload per entry: the one-shot path
    (what ``python -m repro.service run-local`` prints), one fresh
    engine per app over its own empty store."""
    from repro.apps import all_applications
    from repro.service.daemon import parse_sweep_request, run_sweep
    from repro.tuning import ExecutionEngine

    apps_by_name = {app.name: app for app in all_applications()
                    if app.name in APPS}
    engines: Dict[str, Any] = {}
    oracle = {}
    try:
        for entry in entries:
            request = parse_sweep_request(dict(entry), apps_by_name)
            engine = engines.get(request.app_name)
            if engine is None:
                app = type(apps_by_name[request.app_name])()
                engine = engines[request.app_name] = ExecutionEngine.for_app(
                    app, workers=1, store=store)
            oracle[canonical(entry)] = canonical(run_sweep(engine, request))
    finally:
        for engine in engines.values():
            engine.close()
    return oracle


class ClientProbe:
    """Traced timed phase: client-side spans plus the status and
    results payloads the client saw, captured by replacing
    ``ServiceClient`` methods (put back by :meth:`close`)."""

    METHODS = ("submit", "status", "results", "sweep")

    def __init__(self, tracer) -> None:
        from repro.service.client import ServiceClient

        self.statuses: Dict[str, dict] = {}
        self.polls: Dict[str, int] = {}
        self.result_bytes: List[int] = []
        lock = threading.Lock()
        self._originals = {name: ServiceClient.__dict__[name]
                           for name in self.METHODS}
        status = tracer.wrap("service.status", self._originals["status"])
        results = tracer.wrap("service.results", self._originals["results"])
        sweep = self._originals["sweep"]
        requests = itertools.count()

        def captured_status(client, job_id):
            payload = status(client, job_id)
            with lock:
                self.statuses[job_id] = payload
                self.polls[job_id] = self.polls.get(job_id, 0) + 1
            return payload

        def captured_results(client, job_id):
            payload = results(client, job_id)
            size = len(json.dumps(payload).encode("utf-8"))
            with lock:
                self.result_bytes.append(size)
            return payload

        def sweep_root(client, request, timeout=600.0):
            with tracer.span("client.sweep", f"client-{next(requests)}"):
                return sweep(client, request, timeout)

        ServiceClient.submit = tracer.wrap("service.submit",
                                           self._originals["submit"])
        ServiceClient.status = captured_status
        ServiceClient.results = captured_results
        ServiceClient.sweep = sweep_root

    def close(self) -> None:
        from repro.service.client import ServiceClient

        for name, original in self._originals.items():
            setattr(ServiceClient, name, original)


def run_service(seed: int, seconds: float, trace: bool, work: str,
                env: Dict[str, str]) -> Dict[str, Any]:
    """Run the workload; raw measurements for :mod:`run`.

    Untraced runs restart :data:`RESTARTS` times; traced runs restart
    twice, untraced first (the overhead reference), then traced.  The
    last daemon serves the timed phase.
    """
    from repro.service.client import ServiceClient
    from repro.store import ResultStore

    entries = build_mix(seed)
    store = os.path.join(work, "store")
    out: Dict[str, Any] = {"setup_samples": [], "restart_ready": []}
    setup = out["setup_outcomes"] = Outcomes()

    # The reference payloads are computed on the second core while the
    # daemon fills its store; neither is measured.  The oracle starts
    # once the daemon is up, so the daemon's start-up is a clean
    # ``setup_s`` sample.
    oracle: Dict[str, Any] = {}

    def compute_oracle() -> None:
        try:
            oracle["payloads"] = reference_payloads(
                entries, os.path.join(work, "oracle-store"))
        except Exception as error:  # noqa: BLE001 - re-raised below
            oracle["error"] = error

    oracle_thread = threading.Thread(target=compute_oracle, daemon=True)
    cold = Daemon(work, "cold", store, env, trace=False)
    try:
        out["setup_samples"].append(cold.wait_ready())
        oracle_thread.start()
        answer_all(cold.url, entries, setup)
    finally:
        cold.stop()
        if oracle_thread.is_alive():
            oracle_thread.join()
    if "error" in oracle:
        raise oracle["error"]
    bytes_before = ResultStore(store).size_bytes()

    plan = [False, True] if trace else [False] * RESTARTS
    for index, traced in enumerate(plan):
        daemon = Daemon(work, f"restart-{index}", store, env, trace=traced)
        try:
            out["setup_samples"].append(daemon.wait_ready())
            answer_all(daemon.url, entries, setup)
            out["restart_ready"].append(time.perf_counter() - daemon.spawned)
        except BaseException:
            daemon.stop()
            raise
        if index < len(plan) - 1:
            daemon.stop()

    setup.verify(oracle["payloads"])
    timed = out["timed"] = Outcomes()
    try:
        if trace:
            from spans import Tracer

            tracer = Tracer()
            out["probe"] = ClientProbe(tracer)
            out["metrics_before"] = ServiceClient(daemon.url).metrics()
        out["restart_window"] = (daemon.spawned, time.perf_counter())
        try:
            out["phase_s"] = closed_loop(daemon.url, seed, seconds, entries, timed)
        finally:
            if trace:
                out["probe"].close()
        start = out["restart_window"][1]
        out["window"] = (start, time.perf_counter())
        if len(timed.finished) < MIN_SAMPLES:
            raise RuntimeError(f"timed phase ended after {len(timed.finished)} "
                               f"requests; p99 needs {MIN_SAMPLES}")
        out["first_requests_s"] = sorted(timed.finished)[MIN_SAMPLES - 1] - start
        timed.verify(oracle["payloads"])
        if trace:
            out["metrics_after"] = ServiceClient(daemon.url).metrics()
            out["client_spans"] = tracer.export()
    finally:
        out["daemon"] = daemon.stop()
    out["store_bytes_written"] = ResultStore(store).size_bytes() - bytes_before
    return out
