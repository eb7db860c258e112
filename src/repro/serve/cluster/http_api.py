"""The HTTP/JSON front door for the serving cluster.

``python -m repro serve --port N`` binds this server in front of a
:class:`ClusterService`.  It is stdlib-only by design (the container
bakes no web framework): an :mod:`asyncio` streams server with a small
hand-rolled HTTP/1.1 parser, JSON bodies in and out.

Endpoints::

    POST /query    {"algorithm": "sssp", "params": {"source": 0},
                    "version": null, "deadline_cycles": null}
                -> terminal response: status, worker, warm/cache flags,
                   latency in simulated cycles, state digest
    POST /update   a GraphDelta dict (add_edges/add_weights/
                   remove_edges/reweight/add_vertices)
                -> {"version": <new latest>}
    POST /compact  {"keep_last": 8}   -> {"pruned": <versions dropped>}
    GET  /healthz  liveness (the process answers)
    GET  /readyz   readiness (every worker slot alive; 503 otherwise)
    GET  /metrics  the aggregated obs.* snapshot across all workers

Concurrency model — **one thread**: the event loop owns the service
and calls it directly.  A query handler *admits* its request (a
``submit`` call, which applies the bounded-queue shed-newest policy),
parks a waiter, and yields one loop turn, so requests the loop has
already read are admitted into the same batch and identical concurrent
queries coalesce in the service's batcher exactly as they do offline.
The first handler to resume with its waiter still pending drains the
batcher inline with ``dispatch_next`` and resolves the waiters of every
request the batches answered.  The service is not re-entrant and every
call runs on the loop, so it is never entered concurrently and no
request crosses a thread.  The trade-off: the loop is busy while a
batch runs, so ``/healthz`` and request parsing wait for that batch.
No query concurrency is lost by it, since batches run one at a time
either way.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Set, Tuple

from ..service import ServeResponse
from ..store import GraphDelta
from .dispatch import ClusterService

_MAX_BODY = 8 * 1024 * 1024

#: how long a connection closed over a refused request keeps reading
#: (and discarding) what the client still sends
_LINGER_SECONDS = 2.0


class _BadRequest(Exception):
    """A request the front door refuses before routing it.

    ``close`` is set when the request's framing is lost (an unread or
    unsized body), so the connection cannot carry another request.
    """

    def __init__(self, status: str, message: str, close: bool) -> None:
        super().__init__(message)
        self.status = status
        self.close = close


def response_payload(response: ServeResponse) -> dict:
    """The JSON form of one terminal :class:`ServeResponse`."""
    return {
        "request_id": response.request_id,
        "status": response.status,
        "ok": response.ok,
        "query": response.key.label() if response.key else None,
        "worker": response.worker,
        "cache_hit": response.cache_hit,
        "warm": response.warm,
        "inherited": response.inherited,
        "fallback_reason": response.fallback_reason,
        "latency_cycles": response.latency_cycles,
        "completed_cycles": response.completed_cycles,
        "summary": response.summary,
    }


class ClusterHTTPServer:
    """Asyncio front door over one :class:`ClusterService`."""

    def __init__(
        self,
        service: ClusterService,
        host: str = "127.0.0.1",
        port: int = 8080,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        #: admitted request id -> the future its handler awaits
        self._waiters: Dict[int, asyncio.Future] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        #: open connection handlers, cancelled by stop()
        self._connections: Set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port) —
        meaningful with ``port=0`` (ephemeral port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.port = sockname[1]
        return sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._connections:
            task.cancel()
        await asyncio.gather(*self._connections, return_exceptions=True)

    # ------------------------------------------------------------------
    # Admission and inline dispatch.
    # ------------------------------------------------------------------
    async def _serve_query(self, body: dict) -> dict:
        outcome = self.service.submit(
            body.get("algorithm", ""),
            body.get("params") or {},
            body.get("version"),
            body.get("deadline_cycles"),
        )
        if isinstance(outcome, ServeResponse):
            return response_payload(outcome)  # shed at admission
        waiter = asyncio.get_running_loop().create_future()
        self._waiters[outcome] = waiter
        # one loop turn: requests already read join this batch
        await asyncio.sleep(0)
        if not waiter.done():
            self._drain()
        return response_payload(await waiter)

    def _drain(self) -> None:
        """Dispatch every pending batch and resolve the waiters the
        responses answer."""
        waiters = self._waiters
        try:
            while (responses := self.service.dispatch_next()) is not None:
                for response in responses:
                    waiter = waiters.pop(response.request_id, None)
                    if waiter is not None and not waiter.done():
                        waiter.set_result(response)
        except Exception as exc:  # noqa: BLE001 - surface, don't hang
            # a batch the service could not serve (e.g. repeated worker
            # deaths): fail the pending waiters instead of letting their
            # requests hang; the next drain takes what is still queued
            for waiter in waiters.values():
                if not waiter.done():
                    waiter.set_exception(RuntimeError(str(exc)))
            waiters.clear()

    # ------------------------------------------------------------------
    # HTTP plumbing.
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            close = False
            while not close:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as err:
                    status, payload, close = err.status, {"error": str(err)}, err.close
                else:
                    if request is None:
                        break
                    status, payload = await self._route(*request)
                data = (json.dumps(payload, sort_keys=True) + "\n").encode()
                writer.write(
                    (
                        f"HTTP/1.1 {status}\r\n"
                        "Content-Type: application/json\r\n"
                        f"Content-Length: {len(data)}\r\n"
                        f"Connection: {'close' if close else 'keep-alive'}\r\n"
                        "\r\n"
                    ).encode()
                    + data
                )
                await writer.drain()
            if close:
                await self._linger(reader, writer)
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _linger(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Half-close, then discard input until the client closes or
        ``_LINGER_SECONDS`` pass.

        Closing a socket with unread input makes the kernel send a
        reset, and a client still uploading a refused body would lose
        the error response with it (the lingering close of RFC 9112
        section 9.6).
        """
        writer.write_eof()

        async def discard() -> None:
            while await reader.read(1 << 16):
                pass

        try:
            await asyncio.wait_for(discard(), _LINGER_SECONDS)
        except asyncio.TimeoutError:
            pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Optional[Tuple[str, str, dict]]:
        """Parse one request; ``None`` on a cleanly closed connection.

        Raises :class:`_BadRequest` for a body the front door will not
        take: 413 for one above ``_MAX_BODY`` (left unread, so the
        connection closes), 400 for a negative or non-integer
        ``Content-Length`` (closes too) and 400 for a body that is not a
        JSON object (read in full, so the connection stays open).
        """
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        length_header = "0"
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length_header = value.strip()
        if not (length_header.isascii() and length_header.isdigit()):
            raise _BadRequest(
                "400 Bad Request",
                f"invalid Content-Length {length_header!r}",
                close=True,
            )
        content_length = int(length_header)
        if content_length > _MAX_BODY:
            raise _BadRequest(
                "413 Payload Too Large",
                f"body of {content_length} bytes exceeds {_MAX_BODY}",
                close=True,
            )
        if not content_length:
            return method, path, {}
        raw = await reader.readexactly(content_length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            raise _BadRequest(
                "400 Bad Request", f"malformed JSON body: {exc}", close=False
            ) from None
        if not isinstance(body, dict):
            raise _BadRequest(
                "400 Bad Request", "JSON body must be an object", close=False
            )
        return method, path, body

    async def _route(
        self, method: str, path: str, body: dict
    ) -> Tuple[str, dict]:
        service = self.service
        try:
            if method == "GET" and path == "/healthz":
                return "200 OK", {
                    "status": "ok",
                    "workers": len(service.routing),
                    "transport": service.transport,
                }
            if method == "GET" and path == "/readyz":
                alive = service.workers_alive()
                ready = all(alive.values())
                return (
                    "200 OK" if ready else "503 Service Unavailable",
                    {"ready": ready, "workers": alive},
                )
            if method == "GET" and path == "/metrics":
                return "200 OK", {"metrics": service.metrics_snapshot()}
            if method == "POST" and path == "/query":
                if not body.get("algorithm"):
                    return "400 Bad Request", {
                        "error": "missing 'algorithm'"
                    }
                return "200 OK", await self._serve_query(body)
            if method == "POST" and path == "/update":
                delta = GraphDelta.from_dict(body)
                version = service.apply_update(delta)
                return "200 OK", {
                    "version": version.version,
                    "delta": delta.describe(),
                }
            if method == "POST" and path == "/compact":
                keep_last = int(body.get("keep_last", 8))
                pruned = service.compact(keep_last)
                return "200 OK", {
                    "pruned": pruned,
                    "first_version": service.store.first_version,
                }
            return "404 Not Found", {"error": f"no route {method} {path}"}
        except KeyError as exc:
            return "404 Not Found", {"error": str(exc)}
        except (ValueError, TypeError) as exc:
            return "400 Bad Request", {"error": str(exc)}
        except RuntimeError as exc:
            return "500 Internal Server Error", {"error": str(exc)}


async def run_server(
    service: ClusterService, host: str, port: int
) -> None:  # pragma: no cover - CLI glue, exercised by cluster-smoke
    """Start the front door and serve until cancelled (the CLI body)."""
    server = ClusterHTTPServer(service, host=host, port=port)
    bound_host, bound_port = await server.start()
    print(
        f"repro serve: listening on http://{bound_host}:{bound_port} "
        f"(workers={len(service.routing)}, transport={service.transport})",
        flush=True,
    )
    try:
        await server.serve_forever()
    finally:
        await server.stop()
        service.close()
