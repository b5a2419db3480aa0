"""The asyncio HTTP/JSON timing daemon.

Request lifecycle::

    POST /v1/query ── validate ── memo hit? ──► cached response
                                 │miss
                                 ▼
                  bounded per-circuit queue ──full──► 503 overloaded
                                 │
                    per-circuit drainer task
            (dedupes identical keys, coalesces what-ifs)
                                 │
              backend: in-process sessions (workers=0)
                    or ShardPool worker processes
                                 │
          future resolved ── per-request timeout ──► 504 timeout

Batching happens at the drainer: everything queued for a circuit while
the previous batch was computing is taken at once; requests with equal
idempotency keys collapse to one computation, and concurrent what-if
requests for the same delay model ride a single K-column ``try_edits``
kernel pass.  Because every query is a pure function of its normalized
params, successful responses are memoized by request key and replayed
verbatim (``"cached": true``) for later identical requests.

Endpoints: ``GET /healthz``, ``GET /metrics`` (Prometheus text via
:mod:`repro.obs.prom`), ``POST /v1/query``, ``POST /v1/batch``,
``POST /v1/shutdown``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import logging
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from ..characterize import CellLibrary
from ..circuit import Circuit
from ..obs import get_registry
from ..obs.prom import snapshot_to_prom
from ..sta.compile import resolve_cells
from .protocol import ServerError, Request, ok_body, validate_request
from .session import SessionRegistry
from .shards import ShardPool

logger = logging.getLogger(__name__)

SERVER_NAME = "repro-sta-serve"


@dataclasses.dataclass(frozen=True)
class ServerConfig:
    """Daemon knobs.

    Args:
        host/port: Bind address (port 0 = ephemeral, for tests).
        workers: Shard worker processes; 0 runs sessions in-process
            (single warm session set behind the event loop).
        queue_limit: Per-circuit pending-request bound; a full queue
            answers ``overloaded`` instead of buffering unboundedly.
        request_timeout: Server-side cap (seconds) on any request's
            wait; requests may ask for less via ``timeout_s``.
        max_batch: Cap on ``/v1/batch`` size and what-if edits per
            request.
        memo_entries: LRU bound of the idempotent-response memo.
    """

    host: str = "127.0.0.1"
    port: int = 8173
    workers: int = 0
    queue_limit: int = 64
    request_timeout: float = 30.0
    max_batch: int = 32
    memo_entries: int = 4096


@dataclasses.dataclass
class _Pending:
    """One enqueued query awaiting its drainer."""

    request: Request
    future: asyncio.Future

    @property
    def key(self) -> str:
        return self.request.key


# ----------------------------------------------------------------------
# Backends: where session work actually runs
# ----------------------------------------------------------------------
class LocalBackend:
    """workers=0: sessions live in-process, queries run on one thread.

    A single executor thread keeps the event loop responsive (healthz /
    metrics never block behind a long MC query) while still serializing
    session access, which the sessions require.
    """

    def __init__(self, sessions: SessionRegistry) -> None:
        self.sessions = sessions
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-local"
        )

    async def call(self, circuit: str, method: str, params: dict):
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                self._executor, self.sessions.dispatch, circuit, method,
                params,
            )
        except ServerError:
            raise
        except Exception as exc:  # noqa: BLE001 — no tracebacks on the wire
            logger.exception("local backend: %s/%s failed", circuit, method)
            raise ServerError(
                "internal", f"{type(exc).__name__} while serving {method}"
            ) from None

    async def whatif_many(
        self, circuit: str, model: str, requests: List[dict]
    ) -> List[tuple]:
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                self._executor, self.sessions.whatif_many, circuit, model,
                requests,
            )
        except ServerError:
            raise
        except Exception as exc:  # noqa: BLE001
            logger.exception("local backend: %s/whatif failed", circuit)
            raise ServerError(
                "internal", f"{type(exc).__name__} while serving whatif"
            ) from None

    def shutdown(self, timeout: float = 5.0) -> List[str]:
        self._executor.shutdown(wait=True)
        return []


class ShardBackend:
    """workers>0: queries travel to ShardPool processes.

    Futures are resolved by reply sequence number; the pump threads
    bridge into the loop with ``call_soon_threadsafe`` and fold each
    reply's worker metric payload into the parent registry, keeping
    ``/metrics`` whole-daemon.
    """

    def __init__(self, pool: ShardPool, loop: asyncio.AbstractEventLoop):
        self.pool = pool
        self._loop = loop
        self._seq = 0
        self._futures: Dict[int, asyncio.Future] = {}
        pool.start_pumps(self._deliver_threadsafe)

    def _deliver_threadsafe(self, message: tuple) -> None:
        self._loop.call_soon_threadsafe(self._deliver, message)

    def _deliver(self, message: tuple) -> None:
        seq, ok, payload, obs_payload = message
        self.pool.merge_obs_payload(obs_payload)
        future = self._futures.pop(seq, None)
        if future is None or future.done():
            return
        if ok:
            future.set_result(payload)
        else:
            code, detail = payload
            future.set_exception(ServerError(code, detail))

    def _submit(self, circuit: str, kind: str, *rest) -> asyncio.Future:
        self._seq += 1
        future = self._loop.create_future()
        self._futures[self._seq] = future
        self.pool.submit(circuit, (kind, self._seq, circuit, *rest))
        return future

    async def call(self, circuit: str, method: str, params: dict):
        return await self._submit(circuit, "call", method, params)

    async def whatif_many(
        self, circuit: str, model: str, requests: List[dict]
    ) -> List[tuple]:
        return await self._submit(circuit, "whatif_many", model, requests)

    def shutdown(self, timeout: float = 5.0) -> List[str]:
        leaked = self.pool.shutdown(timeout)
        for future in self._futures.values():
            if not future.done():
                future.set_exception(
                    ServerError("shutting_down", "server is shutting down")
                )
        self._futures.clear()
        return leaked


# ----------------------------------------------------------------------
# The application
# ----------------------------------------------------------------------
class ServerApp:
    """Protocol handling, queueing, batching, memoization."""

    def __init__(
        self,
        circuits: Dict[str, Circuit],
        config: Optional[ServerConfig] = None,
        library: Optional[CellLibrary] = None,
    ) -> None:
        self.config = config or ServerConfig()
        self.circuits = dict(circuits)
        self._library = library
        # Refuse, here and not at the first query, a circuit that names
        # a cell the library lacks (UnknownCellError).
        check = library if library is not None else CellLibrary.load_default()
        for circuit in self.circuits.values():
            resolve_cells(circuit, check)
        self._obs = get_registry()
        self._backend = None
        self._queues: Dict[str, asyncio.Queue] = {}
        self._drainers: Dict[str, asyncio.Task] = {}
        self._memo: "OrderedDict[str, object]" = OrderedDict()
        self._closing = False
        self._shutdown_event: Optional[asyncio.Event] = None
        self._started = time.monotonic()
        self.leaked_workers: List[str] = []

    # -- lifecycle ----------------------------------------------------
    async def startup(self) -> None:
        """Build the backend; must run inside the serving event loop."""
        self._shutdown_event = asyncio.Event()
        if self.config.workers > 0:
            pool = ShardPool(
                self.circuits, self.config.workers, library=self._library
            )
            self._backend = ShardBackend(pool, asyncio.get_running_loop())
        else:
            sessions = SessionRegistry(self._library)
            for circuit in self.circuits.values():
                sessions.register(circuit)
            self._backend = LocalBackend(sessions)

    def request_shutdown(self) -> None:
        """Begin graceful shutdown: reject new work, fail queued work."""
        if self._closing:
            return
        self._closing = True
        for q in self._queues.values():
            while True:
                try:
                    pending = q.get_nowait()
                except asyncio.QueueEmpty:
                    break
                self._fail(
                    pending,
                    ServerError("shutting_down", "server is shutting down"),
                )
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def wait_shutdown(self) -> None:
        await self._shutdown_event.wait()

    async def aclose(self, timeout: float = 5.0) -> List[str]:
        """Stop drainers and the backend; returns leaked worker names."""
        self.request_shutdown()
        for task in self._drainers.values():
            task.cancel()
        for task in self._drainers.values():
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._drainers.clear()
        if self._backend is not None:
            self.leaked_workers = self._backend.shutdown(timeout)
            self._backend = None
        return self.leaked_workers

    # -- memo ---------------------------------------------------------
    def _memo_get(self, key: str):
        result = self._memo.get(key)
        if result is not None:
            self._memo.move_to_end(key)
            self._obs.counter("server.memo.hits").inc()
        return result

    def _memo_put(self, key: str, result) -> None:
        self._memo[key] = result
        self._memo.move_to_end(key)
        while len(self._memo) > self.config.memo_entries:
            self._memo.popitem(last=False)

    # -- queueing -----------------------------------------------------
    def _queue_for(self, circuit: str) -> asyncio.Queue:
        q = self._queues.get(circuit)
        if q is None:
            q = asyncio.Queue(maxsize=self.config.queue_limit)
            self._queues[circuit] = q
            self._drainers[circuit] = asyncio.ensure_future(
                self._drain(circuit, q)
            )
        return q

    @staticmethod
    def _fail(pending: _Pending, error: ServerError) -> None:
        if not pending.future.done():
            pending.future.set_exception(error)

    @staticmethod
    def _resolve(pending: _Pending, result) -> None:
        if not pending.future.done():
            pending.future.set_result(result)

    async def _drain(self, circuit: str, q: asyncio.Queue) -> None:
        while True:
            batch = [await q.get()]
            while True:
                try:
                    batch.append(q.get_nowait())
                except asyncio.QueueEmpty:
                    break
            await self._execute_batch(circuit, batch)

    async def _execute_batch(
        self, circuit: str, batch: List[_Pending]
    ) -> None:
        if self._closing:
            for pending in batch:
                self._fail(pending, ServerError(
                    "shutting_down", "server is shutting down"
                ))
            return
        # Identical keys collapse to one computation.
        groups: "OrderedDict[str, List[_Pending]]" = OrderedDict()
        for pending in batch:
            groups.setdefault(pending.key, []).append(pending)
        deduped = len(batch) - len(groups)
        if deduped:
            self._obs.counter("server.batch.deduped").inc(deduped)
        self._obs.counter("server.batch.executed").inc()
        self._obs.histogram("server.batch.size").observe(len(batch))
        # Concurrent what-ifs for the same model ride one trial batch.
        whatif_by_model: Dict[str, List[str]] = {}
        other_keys: List[str] = []
        for key, members in groups.items():
            request = members[0].request
            if request.method == "whatif":
                whatif_by_model.setdefault(
                    request.params["model"], []
                ).append(key)
            else:
                other_keys.append(key)
        for model, keys in whatif_by_model.items():
            await self._run_whatif_group(circuit, model, keys, groups)
        for key in other_keys:
            await self._run_single(circuit, key, groups[key])

    async def _run_whatif_group(
        self,
        circuit: str,
        model: str,
        keys: List[str],
        groups: "OrderedDict[str, List[_Pending]]",
    ) -> None:
        requests = [groups[key][0].request.params for key in keys]
        if len(keys) > 1:
            self._obs.counter("server.whatif.coalesced_batches").inc()
        try:
            outcomes = await self._backend.whatif_many(
                circuit, model, requests
            )
        except ServerError as exc:
            for key in keys:
                for pending in groups[key]:
                    self._fail(pending, exc)
            return
        for key, outcome in zip(keys, outcomes):
            if outcome[0] == "ok":
                self._memo_put(key, outcome[1])
                for pending in groups[key]:
                    self._resolve(pending, outcome[1])
            else:
                _, code, detail = outcome
                for pending in groups[key]:
                    self._fail(pending, ServerError(code, detail))

    async def _run_single(
        self, circuit: str, key: str, members: List[_Pending]
    ) -> None:
        request = members[0].request
        try:
            result = await self._backend.call(
                circuit, request.method, request.params
            )
        except ServerError as exc:
            for pending in members:
                self._fail(pending, exc)
            return
        self._memo_put(key, result)
        for pending in members:
            self._resolve(pending, result)

    # -- query entry points -------------------------------------------
    async def handle_request_payload(
        self, payload
    ) -> Tuple[int, dict]:
        """Answer one already-parsed query payload.

        Returns:
            ``(http_status, response_body)``; errors are structured
            bodies, never exceptions.
        """
        t0 = time.perf_counter()
        endpoint = "invalid"
        try:
            try:
                request = validate_request(payload, self.config.max_batch)
                endpoint = request.method
                return await self._answer(request)
            except ServerError as exc:
                self._obs.counter(f"server.errors.{exc.code}").inc()
                return exc.status, exc.body()
        finally:
            self._obs.counter(f"server.requests.{endpoint}").inc()
            self._obs.histogram(f"server.{endpoint}.latency_s").observe(
                time.perf_counter() - t0
            )

    async def _answer(self, request: Request) -> Tuple[int, dict]:
        if request.circuit not in self.circuits:
            raise ServerError(
                "unknown_circuit",
                f"circuit {request.circuit!r} is not loaded; serving "
                f"{sorted(self.circuits)}",
            )
        cached = self._memo_get(request.key)
        if cached is not None:
            return 200, ok_body(request, cached, cached=True)
        if self._closing:
            raise ServerError("shutting_down", "server is shutting down")
        q = self._queue_for(request.circuit)
        future = asyncio.get_running_loop().create_future()
        try:
            q.put_nowait(_Pending(request, future))
        except asyncio.QueueFull:
            raise ServerError(
                "overloaded",
                f"{request.circuit} has {q.qsize()} pending requests "
                "(queue_limit reached); retry with backoff",
            ) from None
        timeout = self.config.request_timeout
        if request.timeout_s is not None:
            timeout = min(timeout, request.timeout_s)
        try:
            # shield(): on timeout the computation still completes and
            # lands in the memo; only this waiter gives up.
            result = await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            raise ServerError(
                "timeout", f"request exceeded {timeout:g}s"
            ) from None
        return 200, ok_body(request, result, cached=False)

    async def handle_batch_payload(self, payload) -> Tuple[int, dict]:
        """POST /v1/batch: a list of queries answered concurrently."""
        if not isinstance(payload, dict) or not isinstance(
            payload.get("requests"), list
        ):
            exc = ServerError(
                "bad_request", 'batch body must be {"requests": [...]}'
            )
            return exc.status, exc.body()
        requests = payload["requests"]
        if len(requests) > self.config.max_batch:
            exc = ServerError(
                "oversized_batch",
                f"{len(requests)} requests exceed the batch cap of "
                f"{self.config.max_batch}",
            )
            return exc.status, exc.body()
        answered = await asyncio.gather(
            *(self.handle_request_payload(item) for item in requests)
        )
        return 200, {
            "ok": all(body.get("ok") for _, body in answered),
            "responses": [body for _, body in answered],
        }

    # -- plain-HTTP endpoints -----------------------------------------
    def healthz_body(self) -> dict:
        return {
            "status": "closing" if self._closing else "ok",
            "server": SERVER_NAME,
            "circuits": sorted(self.circuits),
            "workers": self.config.workers,
            "uptime_s": time.monotonic() - self._started,
        }

    def metrics_text(self) -> str:
        return snapshot_to_prom(self._obs.snapshot())

    # -- HTTP plumbing ------------------------------------------------
    async def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, bytes, str]:
        if method == "GET" and target == "/healthz":
            return 200, _json_bytes(self.healthz_body()), "application/json"
        if method == "GET" and target == "/metrics":
            return (
                200, self.metrics_text().encode("utf-8"),
                "text/plain; version=0.0.4",
            )
        if method == "POST" and target in (
            "/v1/query", "/v1/batch", "/v1/shutdown",
        ):
            if target == "/v1/shutdown":
                asyncio.get_running_loop().call_soon(self.request_shutdown)
                return 200, _json_bytes(
                    {"ok": True, "status": "shutting down"}
                ), "application/json"
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                error = ServerError(
                    "bad_request", f"malformed JSON body: {exc}"
                )
                self._obs.counter("server.errors.bad_request").inc()
                return error.status, _json_bytes(error.body()), \
                    "application/json"
            if target == "/v1/query":
                status, out = await self.handle_request_payload(payload)
            else:
                status, out = await self.handle_batch_payload(payload)
            return status, _json_bytes(out), "application/json"
        error = ServerError(
            "unknown_method", f"no route for {method} {target}"
        )
        return error.status, _json_bytes(error.body()), "application/json"

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Minimal HTTP/1.1 keep-alive handler for the JSON API."""
        try:
            while True:
                request_line = await reader.readline()
                if not request_line or request_line in (b"\r\n", b"\n"):
                    break
                try:
                    method, target, _version = (
                        request_line.decode("latin-1").split()
                    )
                except ValueError:
                    await _write_response(
                        writer, 400,
                        _json_bytes(ServerError(
                            "bad_request", "malformed request line"
                        ).body()),
                        "application/json", close=True,
                    )
                    break
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                length = int(headers.get("content-length", "0") or "0")
                body = await reader.readexactly(length) if length else b""
                status, out, content_type = await self._route(
                    method, target, body
                )
                close = headers.get("connection", "").lower() == "close"
                await _write_response(
                    writer, status, out, content_type, close=close
                )
                if close:
                    break
        except (
            asyncio.IncompleteReadError, ConnectionResetError,
            BrokenPipeError, asyncio.TimeoutError,
        ):
            pass
        except asyncio.CancelledError:
            # Shutdown cancels connection handlers parked on readline;
            # that is a clean exit, not an error to propagate.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass


_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    413: "Payload Too Large", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


def _json_bytes(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


async def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    content_type: str,
    close: bool = False,
) -> None:
    reason = _STATUS_TEXT.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Server: {SERVER_NAME}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        "\r\n"
    ).encode("latin-1")
    writer.write(head + body)
    await writer.drain()


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
async def _serve(app: ServerApp, ready=None) -> List[str]:
    await app.startup()
    server = await asyncio.start_server(
        app.handle_connection, app.config.host, app.config.port
    )
    port = server.sockets[0].getsockname()[1]
    if ready is not None:
        ready(port)
    async with server:
        await app.wait_shutdown()
    return await app.aclose()


def run_server(
    circuits: Dict[str, Circuit],
    config: Optional[ServerConfig] = None,
    library: Optional[CellLibrary] = None,
) -> int:
    """Blocking daemon entry point (the ``repro-sta serve`` body).

    Returns 0 on a clean shutdown, 3 when worker processes leaked.
    """
    import signal as signal_mod

    app = ServerApp(circuits, config, library=library)

    async def _main() -> List[str]:
        loop = asyncio.get_running_loop()
        for sig in (signal_mod.SIGINT, signal_mod.SIGTERM):
            try:
                loop.add_signal_handler(sig, app.request_shutdown)
            except NotImplementedError:  # pragma: no cover — non-POSIX
                pass

        def _announce(port: int) -> None:
            print(
                f"{SERVER_NAME}: listening on "
                f"http://{app.config.host}:{port} "
                f"({len(app.circuits)} circuit(s), "
                f"workers={app.config.workers})",
                flush=True,
            )

        return await _serve(app, ready=_announce)

    leaked = asyncio.run(_main())
    if leaked:
        print(f"{SERVER_NAME}: leaked workers: {leaked}", flush=True)
        return 3
    return 0


class ServerThread:
    """A live daemon on a background thread (tests, benches, smoke).

    Usage::

        with ServerThread({"c17": circuit}) as handle:
            client = ServerClient("127.0.0.1", handle.port)
    """

    def __init__(
        self,
        circuits: Dict[str, Circuit],
        config: Optional[ServerConfig] = None,
        library: Optional[CellLibrary] = None,
    ) -> None:
        config = config or ServerConfig(port=0)
        self.app = ServerApp(circuits, config, library=library)
        self.port: Optional[int] = None
        self.leaked: List[str] = []
        self.error: Optional[BaseException] = None
        self._ready = None
        self._thread = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def start(self) -> "ServerThread":
        import threading

        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-thread", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("server thread did not become ready")
        if self.error is not None:
            raise RuntimeError(f"server failed to start: {self.error}")
        return self

    def _run(self) -> None:
        async def _main():
            self._loop = asyncio.get_running_loop()

            def _ready(port: int) -> None:
                self.port = port
                self._ready.set()

            self.leaked = await _serve(self.app, ready=_ready)

        try:
            asyncio.run(_main())
        except BaseException as exc:  # noqa: BLE001 — surfaced to starter
            self.error = exc
        finally:
            self._ready.set()

    def stop(self, timeout: float = 15.0) -> List[str]:
        if self._loop is not None and not self._loop.is_closed():
            try:
                self._loop.call_soon_threadsafe(self.app.request_shutdown)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise RuntimeError("server thread did not stop")
        return self.leaked

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


__all__ = [
    "ServerApp",
    "ServerConfig",
    "ServerThread",
    "run_server",
    "SERVER_NAME",
]
