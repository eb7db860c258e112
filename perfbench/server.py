#!/usr/bin/env python3
"""The served program for the serve workloads, in its own process.

``serve.py`` starts one of these per set-up, so the program's front door,
dispatcher and worker share the interpreter lock with nothing of the
benchmark's, and ``peak_rss_mb`` is this process's own.  It builds the
weighted PK stand-in, a ``ClusterService`` with one inline worker on the
vector backend and a ``ClusterHTTPServer`` on an ephemeral loopback port,
then prints one JSON line::

    {"port": 40123, "build_s": 0.02, "start_s": 0.05}

``start_s`` is the construction time after imports.  Commands arrive on
standard input, one per line, sent only while no request is in flight:

* ``calib``: time one calibration sample here; answers ``{"ms": ...}``;
* ``reset``: (traced run) zero the layer totals; answers ``{"ack": "reset"}``;
* ``report``: (traced run) answers the layer report so far;
* ``stop`` or end of input: stop serving, print one JSON line with
  ``peak_rss_mb``, and exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: the served graph, the weighted PK stand-in at scale 0.5 (900 vertices,
#: ~9k edges), and the simulated cores per query
GRAPH_DATASET = ("PK", 0.5)
CORES = 8


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tempfile.tempdir = args.workdir

    from calib import sample_ms
    from repro.graph import datasets
    from repro.serve import ClusterHTTPServer, ClusterService, ServeConfig

    hooks = None
    if args.trace:
        from serve_trace import ServiceHooks

        hooks = ServiceHooks()
        hooks.install()

    start = time.perf_counter()
    graph = datasets.load(*GRAPH_DATASET)
    built = time.perf_counter()
    service = ClusterService(
        graph,
        ServeConfig(backend="vector", cores=CORES),
        workers=1,
        transport="inline",
        spool_dir=os.path.join(args.workdir, "cluster"),
    )
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    server = ClusterHTTPServer(service, port=0)
    _, port = loop.run_until_complete(server.start())
    _emit(
        {
            "port": port,
            "build_s": built - start,
            "start_s": time.perf_counter() - start,
        }
    )

    def commands() -> None:
        for line in sys.stdin:
            command = line.strip()
            if command == "stop":
                break
            if command == "calib":
                _emit({"ms": sample_ms()})
            elif command == "reset" and hooks is not None:
                hooks.reset()
                _emit({"ack": "reset"})
            elif command == "report" and hooks is not None:
                _emit(hooks.report())
        loop.call_soon_threadsafe(loop.stop)

    threading.Thread(target=commands, daemon=True).start()
    try:
        loop.run_forever()
        loop.run_until_complete(server.stop())
    finally:
        service.close()
        loop.close()
    if hooks is not None:
        hooks.uninstall()
    _emit({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
    return 0


if __name__ == "__main__":
    sys.exit(main())
