"""In-memory span recording around each layer's public entry points.

The benchmark measures the program from the outside: nothing under
``src/`` knows it is traced.  ``Tracer.install(LAYER_BINDINGS)`` replaces each
layer entry point *where its callers bind it* (``repro.apps.sad``
calls its own module-level ``standard_cleanup``, so that is the name
replaced) with a wrapper that records a span, and :meth:`Tracer.restore`
puts the originals back.  Worker processes of a pooled sweep start from
a fresh import and are not wrapped; their work shows up only through
the counter deltas the engine already merges.

Spans stay in memory until the run ends and are then written out as
Chrome-trace JSON.  Clocks are ``time.perf_counter``, which on Linux
reads ``CLOCK_MONOTONIC`` and is therefore comparable across the
benchmark's own processes (the daemon's spans are matched against the
client's phase windows that way).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: layer name -> (module, attribute path) pairs where callers bind it
LAYER_BINDINGS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "apps.build_kernel": (
        ("repro.apps.matmul", "MatMul.build_kernel"),
        ("repro.apps.cp", "CoulombicPotential.build_kernel"),
        ("repro.apps.sad", "SumOfAbsoluteDifferences.build_kernel"),
        ("repro.apps.mri_fhd", "MriFhd.build_kernel"),
    ),
    "transforms.standard_cleanup": (
        ("repro.apps.matmul", "standard_cleanup"),
        ("repro.apps.cp", "standard_cleanup"),
        ("repro.apps.sad", "standard_cleanup"),
        ("repro.apps.mri_fhd", "standard_cleanup"),
    ),
    "ptx.profile_kernel": (("repro.metrics.model", "profile_kernel"),),
    "cubin.cubin_info": (
        ("repro.metrics.model", "cubin_info"),
        ("repro.sim.gpu", "cubin_info"),
    ),
    "metrics.evaluate_kernel": (("repro.apps.base", "evaluate_kernel"),),
    "sim.kernel_fingerprint": (
        ("repro.apps.base", "kernel_fingerprint"),
        ("repro.sim.gpu", "kernel_fingerprint"),
    ),
    "sim.build_trace": (("repro.sim.gpu", "build_trace"),),
    "sim.simulate_sm": (("repro.sim.gpu", "simulate_sm"),),
    "tuning.evaluate_all": (
        ("repro.tuning.engine", "ExecutionEngine.evaluate_all"),
    ),
    "tuning.time_entries": (
        ("repro.tuning.engine", "ExecutionEngine.time_entries"),
    ),
    "tuning.select_timed": (
        ("repro.tuning.search", "select_timed"),
        ("repro.tuning.strategies.base", "select_timed"),
        ("repro.service.daemon", "select_timed"),
    ),
    "store.write": (("repro.store.disk", "ResultStore.store"),),
    "store.read": (
        ("repro.store.disk", "ResultStore.load"),
        ("repro.store.disk", "ResultStore.load_many"),
    ),
}

#: layers whose self time is static (compile-side) work
STATIC_LAYERS = (
    "apps.build_kernel",
    "transforms.standard_cleanup",
    "ptx.profile_kernel",
    "cubin.cubin_info",
    "metrics.evaluate_kernel",
    "sim.kernel_fingerprint",
)
#: layers whose self time is SM replay work
REPLAY_LAYERS = ("sim.build_trace", "sim.simulate_sm")

#: the daemon's engine-path entry point, a root span per served sweep
DAEMON_BINDINGS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "service.run_sweep": (("repro.service.daemon", "run_sweep"),),
}


class Tracer:
    """Collects spans from every thread of one process.

    Each span records its name, start, end, parent span (the innermost
    open span on the same thread) and a request id, inherited from the
    parent unless the span opens a new request.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, Optional[int], str, int]] = []
        self.pid = os.getpid()
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, request: Optional[str] = None) -> "_OpenSpan":
        """Context manager for a span the benchmark opens itself."""
        return _OpenSpan(self, name, request)

    def _open(self, request: Optional[str]) -> Tuple[int, Optional[int], str]:
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (None, "-")
        sid = next(self._ids)
        stack.append((sid, request or inherited))
        return sid, parent, request or inherited

    def _close(self, sid: int, name: str, started: float,
               parent: Optional[int], request: str) -> None:
        ended = time.perf_counter()
        self._stack().pop()
        self.spans.append((sid, name, started, ended, parent, request,
                           threading.get_ident()))

    def wrap(self, name: str, function: Callable,
             request_of: Optional[Callable[..., str]] = None) -> Callable:
        """``function`` recording one ``name`` span per call."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            request = request_of(*args, **kwargs) if request_of else None
            sid, parent, request = tracer._open(request)
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                tracer._close(sid, name, started, parent, request)

        return traced

    def patch(self, module_name: str, path: str, name: str,
              request_of: Optional[Callable[..., str]] = None) -> None:
        """Replace ``module_name``'s ``path`` (``attr`` or
        ``Class.method``) with a wrapped version, remembering the
        original for :meth:`restore`."""
        owner: Any = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, request_of))

    def install(self, bindings: Dict[str, Iterable[Tuple[str, str]]],
                request_of: Optional[Dict[str, Callable[..., str]]] = None
                ) -> None:
        for name, sites in bindings.items():
            for module_name, path in sites:
                self.patch(module_name, path, name,
                           (request_of or {}).get(name))

    def restore(self) -> None:
        """Put every replaced entry point back (last patched first)."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def export(self) -> List[list]:
        """Spans as JSON-ready rows: ``[id, name, start, end, parent,
        request, thread, pid]``."""
        return [[sid, name, start, end, parent, request, tid, self.pid]
                for sid, name, start, end, parent, request, tid in self.spans]


class _OpenSpan:
    def __init__(self, tracer: Tracer, name: str, request: Optional[str]) -> None:
        self._tracer = tracer
        self._name = name
        self._request = request

    def __enter__(self) -> "_OpenSpan":
        self._sid, self._parent, self._request = self._tracer._open(self._request)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer._close(self._sid, self._name, self._started,
                            self._parent, self._request)


def measure_rows(rows: Iterable[list], window: Optional[Tuple[float, float]] = None):
    """``(id, name, start, end, parent)`` tuples for :mod:`measure`,
    keyed across processes and optionally limited to spans that start
    inside ``window``; parents outside the selection become roots."""
    chosen = [row for row in rows
              if window is None or window[0] <= row[2] < window[1]]
    # span ids are unique per process, so rows are keyed by (pid, id)
    index = {(row[7], row[0]): position for position, row in enumerate(chosen)}
    tuples = []
    for position, row in enumerate(chosen):
        parent = row[4]
        parent_position = None if parent is None else index.get((row[7], parent))
        tuples.append((position, row[1], row[2], row[3], parent_position))
    return tuples


def write_chrome_trace(rows: Iterable[list], path: str,
                       metadata: Optional[Dict[str, Any]] = None) -> None:
    """Write spans as Chrome trace-event JSON (``X`` events, one lane
    per process and thread; ids, parents and request ids in ``args``)."""
    rows = list(rows)
    epoch = min((row[2] for row in rows), default=0.0)
    events = [{
        "name": name,
        "cat": name.split(".", 1)[0],
        "ph": "X",
        "ts": (start - epoch) * 1e6,
        "dur": (end - start) * 1e6,
        "pid": pid,
        "tid": tid,
        "args": {"id": sid, "parent": parent, "request": request},
    } for sid, name, start, end, parent, request, tid, pid in rows]
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "otherData": metadata or {}}, handle)
