"""Launch ``repro.service serve`` for the benchmark, optionally traced.

Usage::

    python3 perfbench/daemon.py --report FILE [--trace] -- SERVE-ARGS...

Runs the daemon's own entry point in this process.  With ``--trace``
the layer entry points (and the daemon's engine-path ``run_sweep``)
are wrapped first.  When the daemon exits (SIGTERM), the launcher
writes its peak RSS and, if traced, every recorded span to ``FILE``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys


def _sweep_request_id(engine, request, **_kwargs) -> str:
    del engine
    return f"{request.app_name}/{request.strategy}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    options = parser.parse_args(argv)
    serve_args = [arg for arg in options.serve_args if arg != "--"]

    tracer = None
    if options.trace:
        from spans import DAEMON_BINDINGS, LAYER_BINDINGS, Tracer

        tracer = Tracer()
        tracer.install(LAYER_BINDINGS)
        tracer.install(DAEMON_BINDINGS,
                       {"service.run_sweep": _sweep_request_id})
    from repro.service.__main__ import main as service_main

    code = service_main(["repro.service", "serve", *serve_args])
    report = {
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.restore()
        report["spans"] = tracer.export()
    with open(options.report, "w") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
