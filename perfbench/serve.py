"""The serving workloads: ``serve-read`` and ``serve-write``.

Both drive the ``ClusterHTTPServer`` front door over loopback HTTP.  It
fronts a ``ClusterService`` with one inline worker on the vector
backend, in a server process of its own (``server.py``), so the
benchmark's client threads never contend for the program's interpreter
lock.

* ``serve-read``: epochs of 60 queries over ``traffic.default_catalog``,
  pinned to the epoch's graph version and sent on two keep-alive
  closed-loop connections (even picks on one, odd on the other), so
  concurrent identical queries coalesce.  An epoch sends each of the 8
  catalog entries once, in rank order, then 52 seeded Zipf choices.  Between
  epochs, with nothing in flight, one small update publishes the next
  version, so exactly the first 8 queries of an epoch (13%) miss the
  cache and the rest hit: hits rarely queue behind a miss, and the miss
  set does not depend on the Zipf draws.  The updates come from one
  fixed stream (``READ_UPDATE_SEED``), not from the seed: a warm
  PageRank after an update that touches a high-rank vertex costs 5-10x
  the usual, so seeded updates made ``sim_cycles`` depend on whether the
  prefix drew such an update.  With fixed updates the seed picks only
  the Zipf draws, and ``sim_cycles``, like sim-scalar's, is the same for
  every seed.  ``/compact`` runs every 4 epochs, between epochs.
* ``serve-write``: one connection.  Each op is ``POST /update`` (a few
  seeded adds, removes and reweights) then ``POST /query`` for the
  ``pagerank(damping=0.85)`` lineage on the new version: never a cache
  hit, and a warm-start engine run except for the cold re-anchor every
  7th run.  (A min/max lineage would run cold after every removal.)
  ``/compact`` runs every 16 ops, between ops.

Every response's ``summary`` is checked against ``summarize_states`` of
a reference solve of the same version, on a mirror graph this module
maintains from the deltas it sends.
"""

from __future__ import annotations

import copy
import http.client
import json
import os
import random
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph import datasets
from repro.graph.csr import CSRGraph
from repro.serve.traffic import ZipfChooser, default_catalog

import checks
from calib import Calibration
from server import GRAPH_DATASET
from stats import HARD_STOP_SLACK_S, SEGMENTS, MetricCheckError, Op, RunRecord

HERE = os.path.dirname(os.path.abspath(__file__))

READ_EPOCH = 60
READ_ZIPF_S = 1.0
READ_CLIENTS = 2
#: the sim_cycles and digest prefix: epochs every run completes
READ_PREFIX_EPOCHS = 4
READ_COMPACT_EVERY = 4
#: seeds serve-read's update stream, whatever the run's seed
READ_UPDATE_SEED = 0

WRITE_LINEAGE = ("pagerank", {"damping": 0.85})
WRITE_COMPACT_EVERY = 16
WRITE_PREFIX_OPS = 40
WRITE_WARMUP_OPS = 8
#: versions ``/compact`` keeps
KEEP_LAST = 2

#: per update: edges added, removed and reweighted
DELTA_SHAPE = (3, 2, 2)


class ServeError(RuntimeError):
    pass


class _Server:
    """One ``server.py`` process and its command pipe."""

    def __init__(self, workdir: str, trace: bool) -> None:
        os.makedirs(workdir, exist_ok=True)
        self.proc = subprocess.Popen(
            [
                sys.executable,
                os.path.join(HERE, "server.py"),
                "--workdir", workdir,
                "--trace", str(int(trace)),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.ready = self._read()
        self.port = self.ready["port"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(30)
            raise ServeError(f"server process exited with {self.proc.returncode}")
        return json.loads(line)

    def command(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        """Stop the server and wait for its process; returns its report."""
        try:
            report = self.command("stop")
            self.proc.wait(60)
            return report
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(30)
            self.proc.stdin.close()
            self.proc.stdout.close()


class _Client:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def call(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        data = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type": "application/json"}
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        payload = response.read()
        if response.status != 200:
            raise ServeError(f"{method} {path}: {response.status} {payload[:200]!r}")
        return json.loads(payload)

    def close(self) -> None:
        self.conn.close()


class _Mirror:
    """The benchmark's own copy of the served graph, for reference solves."""

    def __init__(self, graph: CSRGraph) -> None:
        self.n = graph.num_vertices
        src = np.repeat(np.arange(self.n), np.diff(np.asarray(graph.offsets)))
        self.edges: Dict[Tuple[int, int], float] = {
            (int(s), int(t)): float(w)
            for s, t, w in zip(src, graph.targets, graph.weights)
        }
        if len(self.edges) != graph.num_edges:
            raise MetricCheckError("served graph has parallel edges")
        self.version = 0
        self._graphs: Dict[int, CSRGraph] = {}

    def delta(self, rng: random.Random) -> dict:
        """A seeded update; applied to the mirror as the next version."""
        adds, removes, reweights = DELTA_SHAPE
        existing = sorted(self.edges)
        picked = rng.sample(existing, removes + reweights)
        removed, reweighted = picked[:removes], picked[removes:]
        added: List[Tuple[int, int]] = []
        while len(added) < adds:
            edge = (rng.randrange(self.n), rng.randrange(self.n))
            if edge[0] != edge[1] and edge not in self.edges and edge not in added:
                added.append(edge)
        add_weights = [round(rng.uniform(0.1, 10.0), 3) for _ in added]
        new_weights = [round(rng.uniform(0.1, 10.0), 3) for _ in reweighted]
        for edge, weight in zip(added, add_weights):
            self.edges[edge] = weight
        for edge in removed:
            del self.edges[edge]
        for edge, weight in zip(reweighted, new_weights):
            self.edges[edge] = weight
        self.version += 1
        return {
            "add_edges": [list(e) for e in added],
            "add_weights": add_weights,
            "remove_edges": [list(e) for e in removed],
            "reweight": [[s, t, w] for (s, t), w in zip(reweighted, new_weights)],
        }

    def graph(self) -> CSRGraph:
        graph = self._graphs.get(self.version)
        if graph is None:
            pairs = list(self.edges)
            graph = CSRGraph.from_arrays(
                self.n,
                np.asarray([p[0] for p in pairs], dtype=np.int64),
                np.asarray([p[1] for p in pairs], dtype=np.int64),
                np.asarray([self.edges[p] for p in pairs], dtype=np.float64),
            )
            self._graphs = {self.version: graph}
        return graph


class _Session:
    """One set-up of the served system, ready for timed ops."""

    def __init__(self, seed: int, workdir: str, rep: int, workload: str,
                 mirror: "_Mirror", trace: bool) -> None:
        self.rng = random.Random(seed)
        self.update_rng = (
            random.Random(READ_UPDATE_SEED) if workload == "serve-read" else self.rng
        )
        self.mirror = mirror
        self.server = _Server(os.path.join(workdir, f"server-{rep}"), trace)
        clients = READ_CLIENTS if workload == "serve-read" else 1
        self.clients = [_Client(self.server.port) for _ in range(clients)]

    def close(self) -> dict:
        """Close the connections, stop the server; returns its report."""
        for client in self.clients:
            client.close()
        return self.server.stop()

    def metrics(self) -> Dict[str, float]:
        return self.clients[0].call("GET", "/metrics")["metrics"]

    def side_call(self, record: RunRecord, call, *args):
        """``call(*args)`` between ops; its raw time counts towards the
        traced window that the per-layer accounting divides by."""
        start = time.perf_counter()
        out = call(*args)
        record.counters["trace.side_ms"] = record.counters.get(
            "trace.side_ms", 0.0
        ) + (time.perf_counter() - start) * 1e3
        return out

    def compact(self) -> None:
        self.clients[0].call("POST", "/compact", {"keep_last": KEEP_LAST})

    def update(self, delta: Optional[dict] = None) -> int:
        """Publish ``delta`` (default: the mirror's next delta from ``update_rng``)."""
        if delta is None:
            delta = self.mirror.delta(self.update_rng)
        version = self.clients[0].call("POST", "/update", delta)
        if version["version"] != self.mirror.version:
            raise ServeError(f"server at v{version['version']}, mirror at v{self.mirror.version}")
        return self.mirror.version


def _run_cycles(session: _Session, record: RunRecord) -> float:
    return session.side_call(record, session.metrics).get(
        "obs.serve.run_cycles.sum", 0.0
    )


def _query(name: str, params: dict, version: int) -> dict:
    return {"algorithm": name, "params": params, "version": version}


# ----------------------------------------------------------------------
# serve-read
# ----------------------------------------------------------------------
def _read_warmup(session: _Session) -> None:
    for spec in default_catalog():
        session.clients[0].call("POST", "/query", _query(spec.algorithm, dict(spec.params), 0))


def _send_list(client: _Client, bodies, out: list) -> None:
    for body in bodies:
        start = time.perf_counter()
        try:
            payload = client.call("POST", "/query", body)
        except (ServeError, OSError, ValueError) as exc:
            payload = {"error": str(exc)}
        out.append((start, time.perf_counter() - start, body, payload))


def _run_read(session, seconds, calib, record, refs, corrupt):
    catalog = [(spec.algorithm, dict(spec.params)) for spec in default_catalog()]
    chooser = ZipfChooser(len(catalog), READ_ZIPF_S)
    record.busy = []
    deadline = time.perf_counter() + seconds
    hard_stop = time.perf_counter() + seconds + HARD_STOP_SLACK_S
    epoch = 0
    prefix_cycles = None
    prefix = []
    while (
        time.perf_counter() < deadline or epoch < READ_PREFIX_EPOCHS
    ) and time.perf_counter() < hard_stop:
        if epoch == 0:
            start_cycles = _run_cycles(session, record)
        elif epoch % READ_COMPACT_EVERY == 0:
            session.side_call(record, session.compact)
        version = session.side_call(record, session.update)
        calib.maybe_take()
        # the catalog first, in rank order, so hits rarely queue behind a
        # miss and the misses pair up across connections the same way
        # whatever the seed
        picks = list(catalog)
        picks += [
            catalog[chooser.pick(session.rng)]
            for _ in range(READ_EPOCH - len(catalog))
        ]
        bodies = [_query(name, params, version) for name, params in picks]
        results: List[list] = [[] for _ in session.clients]
        threads = [
            threading.Thread(
                target=_send_list,
                args=(client, bodies[i::len(session.clients)], results[i]),
            )
            for i, client in enumerate(session.clients)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        record.busy.append((start, time.perf_counter() - start))
        for per_client in results:
            for op_start, raw, body, payload in per_client:
                ok = _answer_ok(session, refs, body, payload, corrupt)
                record.ops.append(Op(op_start, raw, ok, 1.0))
                if epoch < READ_PREFIX_EPOCHS:
                    prefix.append((body["algorithm"], repr(body["params"]),
                                   version, repr(payload.get("summary"))))
        epoch += 1
        if epoch == READ_PREFIX_EPOCHS:
            prefix_cycles = _run_cycles(session, record) - start_cycles
    record.sim_cycles = prefix_cycles or 0.0
    record.digest = checks.digest(*sorted(prefix))


# ----------------------------------------------------------------------
# serve-write
# ----------------------------------------------------------------------
def _write_op(session: _Session, delta: dict) -> Tuple[dict, dict]:
    body = _query(*WRITE_LINEAGE, session.update(delta))
    return body, session.clients[0].call("POST", "/query", body)


def _run_write(session, seconds, calib, record, refs, corrupt):
    deadline = time.perf_counter() + seconds
    hard_stop = time.perf_counter() + seconds + HARD_STOP_SLACK_S
    start_cycles = _run_cycles(session, record)
    prefix = []
    i = 0
    while (
        time.perf_counter() < deadline or i < WRITE_PREFIX_OPS
    ) and time.perf_counter() < hard_stop:
        calib.maybe_take()
        delta = session.mirror.delta(session.rng)
        start = time.perf_counter()
        try:
            body, payload = _write_op(session, delta)
        except (ServeError, OSError, ValueError):
            record.failed += 1
            i += 1
            continue
        raw = time.perf_counter() - start
        ok = _answer_ok(session, refs, body, payload, corrupt)
        record.ops.append(Op(start, raw, ok, 1.0))
        i += 1
        if i <= WRITE_PREFIX_OPS:
            prefix.append(repr(payload.get("summary")))
        if i == WRITE_PREFIX_OPS:
            record.sim_cycles = _run_cycles(session, record) - start_cycles
        if i % WRITE_COMPACT_EVERY == 0:
            session.side_call(record, session.compact)
    record.digest = checks.digest(*prefix)


# ----------------------------------------------------------------------
def _answer_ok(session, refs, body, payload, corrupt) -> bool:
    if payload.get("status") != "ok" or not payload.get("ok"):
        return False
    summary = dict(payload.get("summary") or {})
    if corrupt and summary:
        summary["max"] = summary.get("max", 0.0) + 1.0
    name, params = body["algorithm"], body["params"]
    if body["version"] != session.mirror.version:
        raise MetricCheckError("answer checked against the wrong version")
    want = refs.get(session.mirror.graph, name, params, body["version"])
    return checks.summary_ok(name, summary, want)


def _segment(workload, seed, seconds, workdir, index, base_mirror, trace,
             corrupt) -> RunRecord:
    """One segment: a fresh server process, set up, then timed ops."""
    session = _Session(
        seed, workdir, index, workload, copy.deepcopy(base_mirror), trace
    )
    calib = Calibration(lambda: session.server.command("calib")["ms"])
    record = RunRecord(calib)
    try:
        calib.take(2)
        # set-up = the server's construction after its imports, plus
        # connecting and the warm-up ops measured here
        start = time.perf_counter()
        if workload == "serve-read":
            _read_warmup(session)
        else:
            for _ in range(WRITE_WARMUP_OPS):
                _write_op(session, session.mirror.delta(session.rng))
        record.setup_s = (
            time.perf_counter() - start + session.server.ready["start_s"]
        )
        calib.take(2)
        if trace:
            before = session.metrics()
            session.server.command("reset")
        body = _run_read if workload == "serve-read" else _run_write
        body(session, seconds, calib, record, checks.ReferenceCache(), corrupt)
        calib.take()
        if trace:
            report = session.server.command("report")
            after = session.metrics()
    finally:
        record.peak_rss_mb = session.close()["peak_rss_mb"]
    record.counters["graph.build_ms"] = session.server.ready["build_s"] * 1e3
    if trace:
        import serve_trace

        serve_trace.client_counters(record, report, before, after)
        record.layers = {"totals": report["totals"], "memory": report["memory"]}
    return record


def run(workload: str, seed: int, seconds: float, workdir: str,
        trace: bool = False, corrupt: bool = False) -> List[RunRecord]:
    """``SEGMENTS`` segments, each against its own server process."""
    base_mirror = _Mirror(datasets.load(*GRAPH_DATASET))
    return [
        _segment(workload, seed, seconds / SEGMENTS, workdir, index,
                 base_mirror, trace, corrupt)
        for index in range(SEGMENTS)
    ]
