#!/usr/bin/env python
"""Regenerate the serving-tier digest golden (``serve_digests.json``).

Each entry pins one deterministic serving run end to end: the full
``obs.*`` snapshot of the service, and every terminal response in the
order the service returned it (request id, status, ``cache_hit``,
``warm``, ``latency_cycles``, ``completed_cycles``).  The runs cover
every entry point of the serving tier:

* a small ``serve-bench`` replay (single service, queue floods, tight
  deadlines, edge removals);
* one closed-loop traffic level on the single service (``workers=0``)
  and one on a two-worker inline cluster (``workers=2``);
* one streaming-ingest run on the single service and one on a
  one-worker cluster (publication, standing refreshes, compaction).

Responses are recorded by wrapping ``submit`` and ``dispatch_next`` on
the two service classes, which every caller (``drain`` included) goes
through.  The golden was captured before the single service and the
cluster were put on one dispatcher core, so ``tests/test_serve_digests.py``
asserting against it checks that core against the two copies it
replaced.  Rerun only when the serving model intentionally changes::

    PYTHONPATH=src python tests/goldens/generate_serve_digests.py
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.serve.bench import BenchConfig, run_bench
from repro.serve.cluster.dispatch import ClusterService
from repro.serve.service import GraphService, ServeResponse
from repro.serve.stream import StreamConfig, run_stream
from repro.serve.traffic import QuerySpec, TrafficConfig, run_level

HERE = Path(__file__).resolve().parent
GOLDEN_JSON = HERE / "serve_digests.json"


def _number(value) -> str:
    if isinstance(value, bool):
        return repr(value)
    if isinstance(value, int):
        return repr(value)
    return repr(float(value))


def _response_text(response: ServeResponse) -> str:
    return " ".join(
        (
            str(response.request_id),
            response.status,
            "hit" if response.cache_hit else "miss",
            "warm" if response.warm else "cold",
            _number(response.latency_cycles),
            _number(response.completed_cycles),
        )
    )


@contextlib.contextmanager
def recording(log: List[str]):
    """Record every terminal response ``submit``/``dispatch_next`` hand
    back, on both service classes, for the duration of the block."""
    patched: List[Tuple[type, str, object, bool]] = []

    def wrap(owner: type, name: str, record: Callable) -> None:
        original = getattr(owner, name)
        patched.append((owner, name, original, name in vars(owner)))

        def wrapper(self, *args, **kwargs):
            out = original(self, *args, **kwargs)
            record(out)
            return out

        setattr(owner, name, wrapper)

    def record_submit(out) -> None:
        if isinstance(out, ServeResponse):
            log.append(_response_text(out))

    def record_batch(out) -> None:
        for response in out or ():
            log.append(_response_text(response))

    for owner in (GraphService, ClusterService):
        wrap(owner, "submit", record_submit)
        wrap(owner, "dispatch_next", record_batch)
    try:
        yield log
    finally:
        for owner, name, original, own in reversed(patched):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


def _bench() -> Dict[str, float]:
    config = BenchConfig(
        dataset="AZ", scale=0.1, seed=3, slots=8, cores=4, verify_cold=False
    )
    _, service, _ = run_bench(config)
    return service.metrics_snapshot()


def _traffic(workers: int) -> Callable[[], Dict[str, float]]:
    def run() -> Dict[str, float]:
        config = TrafficConfig(
            scale=0.05,
            algorithms=("sssp", "bfs", "pagerank"),
            requests_per_level=16,
            think_cycles=30_000.0,
            mutation_every_cycles=150_000.0,
            queue_limit=3,
            deadline_cycles=250_000.0,
            levels=(5.0,),
            workers=workers,
            cold_control=False,
        )
        return run_level(config, 5.0).counters

    return run


def _stream(workers: int) -> Callable[[], Dict[str, float]]:
    def run() -> Dict[str, float]:
        config = StreamConfig(
            scale=0.05,
            events=12,
            window=4.0,
            queries=(
                QuerySpec("sssp", (("source", 0),)),
                QuerySpec("pagerank", (("damping", 0.85),)),
                QuerySpec("wcc"),
            ),
            compact_every=2,
            keep_last=1,
            workers=workers,
        )
        return run_stream(config).counters

    return run


#: (key, run) — each run returns the service's final ``obs.*`` snapshot
RUNS: Tuple[Tuple[str, Callable[[], Dict[str, float]]], ...] = (
    ("serve-bench", _bench),
    ("traffic-closed-w0", _traffic(0)),
    ("traffic-closed-w2", _traffic(2)),
    ("stream-w0", _stream(0)),
    ("stream-w1", _stream(1)),
)


def run_digest(run: Callable[[], Dict[str, float]]) -> Dict[str, object]:
    """The pinned fingerprint of one serving run."""
    with recording([]) as log:
        snapshot = run()
    obs = {
        key: _number(value)
        for key, value in sorted(snapshot.items())
        if key.startswith("obs.")
    }
    return {"obs": obs, "responses": log}


def main() -> None:
    runs = {}
    for key, run in RUNS:
        runs[key] = run_digest(run)
        print(f"{key:<20} {len(runs[key]['obs'])} obs keys, "
              f"{len(runs[key]['responses'])} responses")
    GOLDEN_JSON.write_text(
        json.dumps({"runs": runs}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_JSON} ({len(runs)} runs)")


if __name__ == "__main__":
    main()
