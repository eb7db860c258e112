"""Tests for the multi-worker serving cluster (repro.serve.cluster).

Covers rendezvous routing (determinism, minimal disruption, restart
stability), the dispatcher's discrete-event clocks and deterministic
``obs.cluster.*`` counters (same seed -> bit-identical), worker-death
fault handling (restart + requeue, no silent drops, warm inheritance
through the shared baseline spool), inline/process transport
equivalence, the HTTP/JSON front door, cross-engine baseline
inheritance, version-chain compaction, and the shared serve-config
builder.
"""

import asyncio
import gc
import json
import socket
import threading
import urllib.error
import urllib.request
import weakref
from pathlib import Path

import pytest

from repro.graph import datasets
from repro.graph.csr import CSRGraph
from repro.hardware import HardwareConfig
from repro.serve import (
    GraphDelta,
    GraphService,
    GraphStore,
    QueryEngine,
    ServeConfig,
    build_serve_config,
)
from repro.serve.cluster import (
    CLUSTER_COUNTER_FAMILY,
    ClusterHTTPServer,
    ClusterService,
    RoutingTable,
)
from repro.serve.cluster.http_api import _MAX_BODY
from repro.serve.cluster.routing import score
from repro.serve.traffic import TrafficConfig
from repro.serve.warmstart import FALLBACK_COMPACTED


def small_graph():
    edges = [(0, 1), (0, 2), (1, 2), (2, 0), (2, 3), (3, 1)]
    return CSRGraph.from_edges(4, edges, weights=[1.0] * len(edges))


def make_cluster(tmp_path, workers=2, transport="inline", **config_kw):
    config_kw.setdefault("cores", 4)
    return ClusterService(
        small_graph(),
        ServeConfig(**config_kw),
        workers=workers,
        transport=transport,
        spool_dir=str(tmp_path / "spool"),
    )


def make_kind(kind, tmp_path, **config_kw):
    """The single service, or a one-worker inline cluster, over one graph
    and config: both must behave the same wherever they share a path."""
    if kind == "cluster":
        return make_cluster(tmp_path, workers=1, **config_kw)
    config_kw.setdefault("cores", 4)
    return GraphService(small_graph(), ServeConfig(**config_kw))


SERVICE_KINDS = ("service", "cluster")


WORKLOAD = (
    ("sssp", {"source": 0}),
    ("wcc", {}),
    ("sssp", {"source": 0}),  # coalesces/caches with the first
    ("pagerank", {"damping": 0.85}),
    ("bfs", {"source": 1}),
)


def run_workload(service, mutate=True):
    """Submit the canned workload, mutate mid-stream, drain everything."""
    for algorithm, params in WORKLOAD[:3]:
        service.submit(algorithm, params)
    service.drain()
    if mutate:
        service.apply_update(GraphDelta(add_edges=[(3, 0)]))
    for algorithm, params in WORKLOAD:
        service.submit(algorithm, params)
    service.drain()
    return service.metrics_snapshot()


class TestRouting:
    def test_deterministic_and_total(self):
        table = RoutingTable(["w0", "w1", "w2"])
        keys = [f"lineage-{i}" for i in range(40)]
        first = [table.route(k) for k in keys]
        assert first == [table.route(k) for k in keys]
        assert set(first) <= {"w0", "w1", "w2"}
        # rendezvous hashing spreads 40 keys over 3 workers; none empty
        assert len(set(first)) == 3

    def test_minimal_disruption_on_add(self):
        table = RoutingTable(["w0", "w1", "w2"])
        keys = [f"lineage-{i}" for i in range(60)]
        before = {k: table.route(k) for k in keys}
        table.add_worker("w3")
        moved = [k for k in keys if table.route(k) != before[k]]
        # only keys whose top scorer is the new worker may move
        assert all(table.route(k) == "w3" for k in moved)
        assert 0 < len(moved) < len(keys) / 2

    def test_remove_reassigns_only_the_lost_worker(self):
        table = RoutingTable(["w0", "w1", "w2"])
        keys = [f"lineage-{i}" for i in range(60)]
        before = {k: table.route(k) for k in keys}
        table.remove_worker("w1")
        for key in keys:
            if before[key] != "w1":
                assert table.route(key) == before[key]
            else:
                assert table.route(key) in ("w0", "w2")

    def test_restart_under_same_name_is_stable(self):
        # a restarted slot keeps its name, so its assignments are stable
        table = RoutingTable(["w0", "w1"])
        assignment = {f"k{i}": table.route(f"k{i}") for i in range(20)}
        rebuilt = RoutingTable(["w1", "w0"])  # order must not matter
        assert assignment == {k: rebuilt.route(k) for k in assignment}

    def test_last_worker_cannot_be_removed(self):
        table = RoutingTable(["w0"])
        with pytest.raises(ValueError):
            table.remove_worker("w0")

    def test_score_is_pure(self):
        assert score("w0", "k") == score("w0", "k")
        assert score("w0", "k") != score("w1", "k")


class TestClusterDeterminism:
    def test_same_seed_replay_bit_identical(self, tmp_path):
        with make_cluster(tmp_path / "a") as a, make_cluster(tmp_path / "b") as b:
            first = run_workload(a)
            second = run_workload(b)
        keys = [
            k
            for k in first
            if k.startswith("obs.cluster.") or k.startswith("obs.serve.")
        ]
        assert keys
        for key in keys:
            assert first[key] == second[key], key

    def test_zero_seeded_counter_family(self, tmp_path):
        with make_cluster(tmp_path) as service:
            snapshot = service.metrics_snapshot()
        for name in CLUSTER_COUNTER_FAMILY:
            assert f"obs.{name}" in snapshot, name
            assert snapshot[f"obs.{name}"] == 0.0

    def test_process_transport_matches_inline(self, tmp_path):
        inline = run_workload(make_cluster(tmp_path / "i", transport="inline"))
        with make_cluster(tmp_path / "p", transport="process") as cluster:
            process = run_workload(cluster)
        for key, value in inline.items():
            if key.startswith("obs.cluster.") or key.startswith("obs.serve."):
                assert process[key] == value, key

    def test_multi_worker_overlaps_batches(self, tmp_path):
        # needs engine runs that outlast the per-batch dispatch charge,
        # so a backlog actually forms behind a single worker
        graph = datasets.load("AZ", scale=0.05)
        queries = [
            ("sssp", {"source": 0}),
            ("sssp", {"source": 1}),
            ("sssp", {"source": 2}),
            ("wcc", {}),
            ("bfs", {"source": 0}),
            ("pagerank", {"damping": 0.85}),
        ]
        spans = {}
        for workers in (1, 4):
            with ClusterService(
                graph,
                ServeConfig(cores=4),
                workers=workers,
                spool_dir=str(tmp_path / f"w{workers}"),
            ) as service:
                for algorithm, params in queries:
                    service.submit(algorithm, params)
                assert all(r.ok for r in service.drain())
                spans[workers] = service.makespan_cycles
        # the pool overlaps engine runs: strictly shorter makespan
        assert spans[4] < spans[1]


class TestAdmission:
    @pytest.mark.parametrize("kind", SERVICE_KINDS)
    @pytest.mark.parametrize(
        "algorithm,params", [("nope", {}), ("sssp", {"nope": 1})]
    )
    def test_bad_query_bounces_before_queueing(
        self, tmp_path, kind, algorithm, params
    ):
        with make_kind(kind, tmp_path) as service:
            with pytest.raises(ValueError):
                service.submit(algorithm, params)
            assert len(service.batcher) == 0
            assert service.drain() == []
            # the next good query is unaffected
            service.submit("sssp", {"source": 0})
            assert [r.ok for r in service.drain()] == [True]


@pytest.mark.parametrize("kind", SERVICE_KINDS)
class TestResponseLifetime:
    def test_dispatcher_keeps_no_response(self, tmp_path, kind):
        # a long-running server must not grow with every answered query:
        # once the caller drops a response, nothing else holds it
        with make_kind(kind, tmp_path) as service:
            service.submit("sssp", {"source": 0})
            responses = service.drain()
            assert [r.ok for r in responses] == [True]
            ref = weakref.ref(responses[0])
            del responses
            gc.collect()
            assert ref() is None
            # the exact latency quantiles survive without the responses
            assert service.latency_quantile(0.5) > 0.0

    def test_shed_response_not_kept(self, tmp_path, kind):
        with make_kind(kind, tmp_path, queue_limit=1) as service:
            service.submit("sssp", {"source": 0})
            shed = service.submit("wcc", {})
            assert not isinstance(shed, int) and not shed.ok
            ref = weakref.ref(shed)
            del shed
            gc.collect()
            assert ref() is None
            assert [r.ok for r in service.drain()] == [True]


class TestFaultHandling:
    def test_worker_death_restarts_requeues_and_answers(self, tmp_path):
        with make_cluster(tmp_path) as service:
            # warm every lineage once so the spool holds their baselines
            for algorithm, params in WORKLOAD[:2]:
                service.submit(algorithm, params)
            responses = service.drain()
            assert all(r.ok for r in responses)
            victim = responses[0].worker

            service.apply_update(GraphDelta(add_edges=[(3, 0)]))
            service.kill_worker(victim)
            ids = [
                service.submit(algorithm, params)
                for algorithm, params in WORKLOAD[:2]
            ]
            replies = service.drain()
            snapshot = service.metrics_snapshot()
            alive_after = service.workers_alive()[victim]

        # no silent drops: every admitted request reached a terminal reply
        assert sorted(r.request_id for r in replies) == sorted(ids)
        assert all(r.ok for r in replies)
        assert snapshot["obs.cluster.worker_restarts"] == 1.0
        assert snapshot["obs.cluster.requeued"] >= 1.0
        # the replacement answered from the shared spool: warm, inherited
        revived = [r for r in replies if r.worker == victim]
        assert revived
        assert all(r.warm for r in revived)
        assert all(r.inherited for r in revived)
        assert snapshot["obs.serve.baseline_inherited"] >= 1.0
        assert alive_after

    def test_process_workers_map_one_saved_store_per_version(self, tmp_path):
        def saved():
            return sorted(
                (path.name, (path / "manifest.json").stat().st_mtime_ns)
                for path in spool.glob("store-*")
            )

        with make_cluster(tmp_path, transport="process") as service:
            spool = Path(service.spool_dir)
            assert spool.parent == tmp_path / "spool"
            first = saved()
            assert [name for name, _ in first] == ["store-v0-0"]
            # a restart at the same version maps the same directory
            service.kill_worker("w0")
            service.worker_metrics()
            assert service.workers_alive() == {"w0": True, "w1": True}
            assert saved() == first
            # a restart after an update saves the new version once
            service.apply_update(GraphDelta(add_edges=[(3, 0)]))
            service.kill_worker("w1")
            service.kill_worker("w0")
            service.worker_metrics()
            after = saved()
            assert after[0] == first[0]
            assert [name for name, _ in after] == ["store-v0-0", "store-v0-1"]
            snapshot = service.metrics_snapshot()
        assert snapshot["obs.cluster.worker_restarts"] == 3.0
        # close removes the service's own spool
        assert not spool.exists()
        assert list((tmp_path / "spool").iterdir()) == []

    def test_shared_spool_serves_each_cluster_its_own_graph(self, tmp_path):
        # saved stores are named by version, not by graph: two live
        # clusters on one spool, over different graphs and deltas, must
        # each answer from their own store, as inline clusters do
        other = CSRGraph.from_edges(
            5, [(0, 4), (4, 3), (3, 2), (2, 1)], weights=[2.0] * 4
        )
        cases = ((small_graph(), (3, 0)), (other, (1, 0)))

        def answer(service, delta):
            service.apply_update(GraphDelta(add_edges=[delta]))
            service.kill_worker("w0")  # the restart maps a saved v1 store
            for algorithm, params in WORKLOAD:
                service.submit(algorithm, params)
            return [(r.status, r.summary) for r in service.drain()]

        def cluster(graph, transport):
            return ClusterService(
                graph,
                ServeConfig(cores=4),
                workers=1,
                transport=transport,
                spool_dir=str(tmp_path / "spool"),
            )

        expected = []
        for graph, delta in cases:
            with cluster(graph, "inline") as service:
                expected.append(answer(service, delta))
        assert expected[0] != expected[1]
        with cluster(cases[0][0], "process") as first:
            with cluster(cases[1][0], "process") as second:
                got = [
                    answer(service, delta)
                    for service, (_, delta) in zip((first, second), cases)
                ]
        assert got == expected

    def test_routing_pin_survives_restart(self, tmp_path):
        with make_cluster(tmp_path) as service:
            service.submit("wcc", {})
            (first,) = service.drain()
            service.kill_worker(first.worker)
            service.apply_update(GraphDelta(add_edges=[(3, 0)]))
            service.submit("wcc", {})
            (second,) = service.drain()
            snapshot = service.metrics_snapshot()
        assert second.worker == first.worker
        # the lineage was routed once; the restart did not re-route it
        assert snapshot["obs.cluster.routed"] == 1.0


class TestBaselineInheritance:
    def test_forked_engine_answers_warm_from_spool(self, tmp_path):
        spool = str(tmp_path / "baselines")
        store = GraphStore(small_graph())
        hardware = HardwareConfig.scaled(num_cores=4)
        parent = QueryEngine(store, hardware=hardware, baseline_dir=spool)
        cold = parent.execute("sssp", {"source": 0})
        assert not cold.warm and not cold.inherited

        store.apply(GraphDelta(add_edges=[(3, 0)]))
        fork = QueryEngine(store, hardware=hardware, baseline_dir=spool)
        run = fork.execute("sssp", {"source": 0})
        assert run.warm
        assert run.inherited
        # once the fork converges its own baseline, inheritance clears
        store.apply(GraphDelta(add_edges=[(1, 3)]))
        assert not fork.execute("sssp", {"source": 0}).inherited

    def test_inherit_from_transfers_every_lineage(self):
        store = GraphStore(small_graph())
        hardware = HardwareConfig.scaled(num_cores=4)
        parent = QueryEngine(store, hardware=hardware)
        parent.execute("sssp", {"source": 0})
        parent.execute("wcc", None)
        child = QueryEngine(store, hardware=hardware)
        assert child.inherit_from(parent) == 2
        store.apply(GraphDelta(add_edges=[(3, 0)]))
        assert child.execute("sssp", {"source": 0}).inherited


class TestCompaction:
    def _mutated_store(self, versions=6):
        store = GraphStore(small_graph())
        for i in range(versions):
            store.apply(GraphDelta(reweight=[(0, 1, 2.0 + i)]))
        return store

    def test_retained_versions_resolve_identically(self):
        store = self._mutated_store()
        latest = store.latest_version
        keep = {
            v: store.get(v).graph.num_edges
            for v in range(latest - 2, latest + 1)
        }
        pruned = store.compact(keep_last=2)
        assert pruned > 0
        assert store.first_version == latest - 2
        for version, num_edges in keep.items():
            assert store.get(version).graph.num_edges == num_edges
        with pytest.raises(KeyError):
            store.get(latest - 3)

    def test_compacted_baseline_falls_back_cold(self):
        store = self._mutated_store()
        engine = QueryEngine(store, hardware=HardwareConfig.scaled(num_cores=4))
        engine.execute("sssp", {"source": 0})  # baseline at latest
        store.apply(GraphDelta(reweight=[(0, 1, 9.0)]))
        store.compact(keep_last=0)  # drops the baseline's delta chain
        run = engine.execute("sssp", {"source": 0})
        assert not run.warm
        assert run.fallback_reason == FALLBACK_COMPACTED

    def test_cluster_compact_broadcasts(self, tmp_path):
        with make_cluster(
            tmp_path, transport="process", workers=2
        ) as service:
            for i in range(4):
                service.apply_update(GraphDelta(reweight=[(0, 1, 2.0 + i)]))
            pruned = service.compact(keep_last=1)
            assert pruned > 0
            # replicas answered the broadcast and agree on the chain head
            service.submit("wcc", {})
            assert all(r.ok for r in service.drain())
            snapshot = service.metrics_snapshot()
        assert snapshot["obs.cluster.compactions"] == 1.0


class TestServeConfigBuilder:
    def test_traffic_and_bench_share_the_builder(self):
        config = TrafficConfig(cores=2, queue_limit=7, deadline_cycles=123.0)
        warm = build_serve_config(config, warm=True)
        assert warm.cores == 2
        assert warm.queue_limit == 7
        assert warm.default_deadline_cycles == 123.0
        assert warm.warm

    def test_cold_variant_disables_cache(self):
        cold = build_serve_config(TrafficConfig(), warm=False)
        assert not cold.warm
        assert cold.cache_capacity == 0


class _ServerThread:
    """Run the front door's asyncio loop in a thread for HTTP tests."""

    def __init__(self, service):
        self.service = service
        self.loop = asyncio.new_event_loop()
        self.server = None
        self.base = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.server = ClusterHTTPServer(self.service, port=0)
        host, port = self.loop.run_until_complete(self.server.start())
        self.base = f"http://{host}:{port}"
        self._ready.set()
        self.loop.run_forever()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=30), "server failed to start"
        return self

    def __exit__(self, *exc_info):
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        ).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=30)
        self.loop.close()

    def request(self, method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(
            self.base + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(req, timeout=60) as resp:
                return resp.status, json.loads(resp.read().decode())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read().decode())

    def raw(self):
        """A keep-alive socket to the server and a reader over it."""
        host, port = self.base[len("http://"):].rsplit(":", 1)
        sock = socket.create_connection((host, int(port)), timeout=30)
        return sock, sock.makefile("rb")


def _read_response(stream):
    """(status, headers, JSON body) of one response on a raw socket."""
    status = int(stream.readline().split()[1])
    headers = {}
    while True:
        line = stream.readline().decode("latin-1").strip()
        if not line:
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return status, headers, json.loads(body.decode())


_HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"


def _post(path, body, length=None):
    length = len(body) if length is None else length
    return (
        f"POST {path} HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode() + body


class TestHTTPFrontDoor:
    @pytest.fixture()
    def served(self, tmp_path):
        with make_cluster(tmp_path) as service:
            with _ServerThread(service) as server:
                yield server

    def test_health_ready_and_metrics(self, served):
        status, health = served.request("GET", "/healthz")
        assert status == 200 and health["workers"] == 2
        status, ready = served.request("GET", "/readyz")
        assert status == 200 and ready["ready"]
        assert set(ready["workers"]) == {"w0", "w1"}
        status, payload = served.request("GET", "/metrics")
        assert status == 200
        assert payload["metrics"]["obs.cluster.dispatched"] == 0.0

    def test_query_update_requery_cycle(self, served):
        status, first = served.request(
            "POST", "/query", {"algorithm": "sssp", "params": {"source": 0}}
        )
        assert status == 200 and first["status"] == "ok"
        assert not first["cache_hit"]

        status, repeat = served.request(
            "POST", "/query", {"algorithm": "sssp", "params": {"source": 0}}
        )
        assert status == 200 and repeat["cache_hit"]

        status, update = served.request(
            "POST", "/update", {"add_edges": [[3, 0]]}
        )
        assert status == 200 and update["version"] == 1

        status, warm = served.request(
            "POST", "/query", {"algorithm": "sssp", "params": {"source": 0}}
        )
        assert status == 200 and warm["warm"] and not warm["cache_hit"]

        status, metrics = served.request("GET", "/metrics")
        assert metrics["metrics"]["obs.serve.cache_hits"] == 1.0
        assert metrics["metrics"]["obs.serve.warm_runs"] == 1.0

    def test_error_paths(self, served):
        status, payload = served.request("POST", "/query", {"params": {}})
        assert status == 400 and "algorithm" in payload["error"]
        status, payload = served.request(
            "POST", "/query", {"algorithm": "nope"}
        )
        assert status == 400
        status, _ = served.request("GET", "/nope")
        assert status == 404

    def test_oversized_body_gets_413_and_closes_unread(self, served):
        # the unread body holds a request line; parsing it as the next
        # request would answer a request the client never framed
        sock, stream = served.raw()
        with sock, stream:
            sock.sendall(_post("/query", _HEALTHZ, length=_MAX_BODY + 1))
            status, headers, payload = _read_response(stream)
            assert status == 413 and "exceeds" in payload["error"]
            assert headers["connection"] == "close"
            assert stream.read() == b""

    def test_oversized_upload_still_reads_the_413(self, served):
        # the server lingers over the unread body instead of resetting
        # the connection, so a client that sends it all sees the answer
        sock, stream = served.raw()
        with sock, stream:
            sock.sendall(_post("/query", b"x" * (_MAX_BODY + 1)))
            sock.shutdown(socket.SHUT_WR)
            status, headers, _ = _read_response(stream)
            assert status == 413 and headers["connection"] == "close"
            assert stream.read() == b""

    @pytest.mark.parametrize("length", ["-5", "12abc", "", "1_0"])
    def test_bad_content_length_gets_400_and_closes(self, served, length):
        sock, stream = served.raw()
        with sock, stream:
            sock.sendall(_post("/query", b"{}", length=length) + _HEALTHZ)
            status, headers, payload = _read_response(stream)
            assert status == 400 and "Content-Length" in payload["error"]
            assert headers["connection"] == "close"
            assert stream.read() == b""

    @pytest.mark.parametrize(
        "body, error",
        [
            (b'{"algorithm": "sssp"', "malformed JSON"),
            (b"\xff\xfe", "malformed JSON"),
            (b'["sssp"]', "must be an object"),
            (b"7", "must be an object"),
        ],
    )
    def test_bad_json_body_gets_400_and_keeps_alive(self, served, body, error):
        sock, stream = served.raw()
        with sock, stream:
            sock.sendall(_post("/query", body) + _HEALTHZ)
            status, headers, payload = _read_response(stream)
            assert status == 400 and error in payload["error"]
            assert headers["connection"] == "keep-alive"
            status, _, health = _read_response(stream)
            assert status == 200 and health["status"] == "ok"

    def test_keep_alive_carries_consecutive_requests(self, served):
        sock, stream = served.raw()
        with sock, stream:
            query = json.dumps({"algorithm": "wcc"}).encode()
            sock.sendall(_post("/query", query) + _HEALTHZ)
            status, _, answer = _read_response(stream)
            assert status == 200 and answer["status"] == "ok"
            status, _, health = _read_response(stream)
            assert status == 200 and health["status"] == "ok"

    def test_concurrent_identical_queries_coalesce(self, served):
        results = []

        def fire():
            results.append(
                served.request(
                    "POST", "/query", {"algorithm": "wcc", "params": {}}
                )
            )

        threads = [threading.Thread(target=fire) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert len(results) == 4
        assert all(status == 200 and r["status"] == "ok" for status, r in results)
        status, metrics = served.request("GET", "/metrics")
        runs = metrics["metrics"]["obs.serve.engine_runs"]
        hits = metrics["metrics"]["obs.serve.cache_hits"]
        # one engine run; the rest coalesced into the batch or hit cache
        assert runs == 1.0
        assert runs + hits <= 4.0
