#!/usr/bin/env python
"""CI smoke for the multi-worker serving cluster's HTTP front door.

Starts ``python -m repro serve --port 0`` (ephemeral port, >= 2 spawned
OS workers), replays a short query/update/re-query sequence over plain
HTTP, and asserts the cluster behaved like a serving tier:

* repeated identical queries come back as **cache hits**;
* re-queries after a published mutation run **warm** (seeded from the
  previous version's converged states), not cold;
* ``/healthz`` and ``/readyz`` report every worker alive;
* ``/metrics`` is clean: the aggregated ``obs.cluster.*`` counters are
  present, zero-seeded names included, and the dispatched count covers
  every query the replay sent.

Run from the repository root::

    python benchmarks/cluster_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

HOST = "127.0.0.1"
WORKERS = 2
STARTUP_TIMEOUT = 120.0
#: seconds teardown waits for the server after SIGINT, and again after
#: killing its process group
STOP_TIMEOUT = 20.0
LISTEN_RE = re.compile(r"listening on http://([\d.]+):(\d+)")

QUERIES = (
    {"algorithm": "sssp", "params": {"source": 0}},
    {"algorithm": "wcc", "params": {}},
    {"algorithm": "pagerank", "params": {"damping": 0.85}},
)


def request(base: str, method: str, path: str, body: dict | None = None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        base + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as err:  # 4xx/5xx still carry JSON
        return err.code, json.loads(err.read().decode())


def stop(proc: subprocess.Popen) -> str:
    """Stop the server and return its remaining output, never hanging.

    The server runs in its own session: SIGINT asks it to shut down;
    if it has not exited in time, SIGKILL goes to the whole process
    group, so spawned workers orphaned by the server's death release
    the stdout pipe too.  Every wait is bounded.
    """
    out = ""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    try:
        out, _ = proc.communicate(timeout=STOP_TIMEOUT)
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            out, _ = proc.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            print("WARN: server output pipe still open after killing its group")
    return out or ""


def fail(proc: subprocess.Popen, message: str) -> int:
    print(f"FAIL: {message}")
    sys.stdout.write(stop(proc))
    return 1


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--workers",
            str(WORKERS),
            "--transport",
            "process",
            "--scale",
            "0.05",
            "--cores",
            "2",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )

    # wait for the ephemeral port announcement
    base = None
    deadline = time.monotonic() + STARTUP_TIMEOUT
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            if proc.poll() is not None:
                return fail(proc, "server exited before listening")
            continue
        match = LISTEN_RE.search(line)
        if match:
            base = f"http://{match.group(1)}:{match.group(2)}"
            break
    if base is None:
        return fail(proc, "server never announced its port")
    print(f"server up at {base}")

    try:
        status, health = request(base, "GET", "/healthz")
        if status != 200 or health.get("workers") != WORKERS:
            return fail(proc, f"/healthz {status}: {health}")
        status, ready = request(base, "GET", "/readyz")
        if status != 200 or not ready.get("ready"):
            return fail(proc, f"/readyz {status}: {ready}")

        # cold pass, then an identical pass that must hit the cache
        sent = 0
        for body in QUERIES:
            status, reply = request(base, "POST", "/query", body)
            sent += 1
            if status != 200 or reply.get("status") != "ok":
                return fail(proc, f"cold query {body} -> {status}: {reply}")
        hits = 0
        for body in QUERIES:
            status, reply = request(base, "POST", "/query", body)
            sent += 1
            if status != 200 or reply.get("status") != "ok":
                return fail(proc, f"repeat query {body} -> {status}: {reply}")
            hits += bool(reply.get("cache_hit"))
        if hits != len(QUERIES):
            return fail(proc, f"expected {len(QUERIES)} cache hits, got {hits}")

        # publish a mutation, then re-query: must run warm, not cold
        status, update = request(
            base, "POST", "/update", {"add_edges": [[0, 1], [1, 2]]}
        )
        if status != 200 or "version" not in update:
            return fail(proc, f"/update -> {status}: {update}")
        warm = 0
        for body in QUERIES:
            status, reply = request(base, "POST", "/query", body)
            sent += 1
            if status != 200 or reply.get("status") != "ok":
                return fail(proc, f"post-update {body} -> {status}: {reply}")
            warm += bool(reply.get("warm")) and not reply.get("cache_hit")
        if warm != len(QUERIES):
            return fail(proc, f"expected {len(QUERIES)} warm runs, got {warm}")

        # metrics must aggregate cleanly across the worker pool
        status, metrics = request(base, "GET", "/metrics")
        snapshot = metrics.get("metrics", {})
        if status != 200 or not snapshot:
            return fail(proc, f"/metrics -> {status}")
        for name in (
            "obs.cluster.dispatched",
            "obs.cluster.routed",
            "obs.cluster.requeued",
            "obs.cluster.worker_restarts",
            "obs.serve.cache_hits",
            "obs.serve.warm_runs",
        ):
            if name not in snapshot:
                return fail(proc, f"/metrics missing {name}")
        if snapshot["obs.cluster.dispatched"] < sent - hits:
            return fail(
                proc,
                f"dispatched {snapshot['obs.cluster.dispatched']:.0f} < "
                f"{sent - hits} non-cached queries",
            )
        if snapshot["obs.serve.cache_hits"] < hits:
            return fail(proc, "aggregated cache_hits below observed hits")
        if snapshot["obs.serve.warm_runs"] < warm:
            return fail(proc, "aggregated warm_runs below observed warm runs")
    finally:
        stop(proc)

    print(
        f"cluster smoke OK: {sent} queries over HTTP, {hits} cache hits, "
        f"{warm} warm re-runs across {WORKERS} workers"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
