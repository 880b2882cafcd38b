"""The asyncio HTTP front end: :class:`ServiceServer`.

One process, one event loop, no dependencies beyond the standard library.
The HTTP layer is deliberately minimal — request line, headers,
``Content-Length`` body, ``Connection: close`` on every response — because
the service speaks a small, known protocol to its own client and to CI,
not to arbitrary browsers.

Architecture::

    ServiceClient ──HTTP──▶ asyncio.start_server
                               │ parse + route
                               ▼
                            JobQueue (priority heap, N worker tasks)
                               │ checkout Session, run_in_executor
                               ▼
                    ThreadPoolExecutor (N threads, scoped tracer each)
                               │ Session.transform/check_obligations/simulate/…
                               ▼
                            ResultStore (content-addressed dedupe)

Concurrency model: the event loop owns all job/queue state; blocking
Session work happens on a thread pool sized to the worker count, each
thread checking a Session out of a pool (one per slot, so a Session is
never shared across concurrent jobs).  Each job runs under a
request-scoped tracer (:func:`repro.obs.scoped_tracer`), so its counters
are isolated from concurrent jobs and roll up into the job's status —
installed *inside* the worker thread, because context variables do not
follow ``run_in_executor`` across threads.

Endpoints (all JSON; ``{hash}``/``{id}`` are path segments):

===========================================  =====================================
``POST /v1/jobs``                            submit ``{kind, params, priority?,
                                             timeout?, dedup?}``; 200 when served
                                             from the store, else 202
``GET /v1/jobs/{id}``                        status; ``?watch=1`` streams NDJSON
                                             status lines until terminal
``GET /v1/jobs/{id}/result``                 the wire-format result (409 until
                                             terminal, 500 for failed jobs)
``DELETE /v1/jobs/{id}``                     cancel (also ``POST .../cancel``)
``GET /v1/certificates/{hash}``              recheck-validated certificate
                                             (JSON dump; ``Accept:
                                             application/x-repro-certificate``
                                             selects the binary container)
``GET /v1/metrics``                          queue/store/session accounting
``POST /v1/admin/shutdown``                  graceful shutdown
===========================================  =====================================
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

from .. import obs
from .._version import __version__ as TOOL_VERSION
from ..errors import GraphitiError, ServiceError
from ..results import SCHEMA_VERSION
from .jobs import Job, JobQueue
from .ops import canonical_params, run_op
from .store import ResultStore

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 500: "Internal Server Error",
    503: "Service Unavailable",
}
_MAX_BODY = 16 * 1024 * 1024  # a dot graph plus mark fits comfortably


class ServiceServer:
    """The verification-as-a-service HTTP server.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    workers:
        Concurrent job slots: worker tasks, worker threads and pooled
        Sessions all share this width.
    jobs:
        Process-pool width *inside each Session* (``Session(jobs=...)``);
        total parallelism is ``workers x jobs``.
    cache_dir, use_cache:
        Shared content-addressed store for results and certificates; the
        pooled Sessions point their executor caches at the same directory,
        which is what lets ``check_obligations`` populate the certificate
        endpoint.
    max_pending, default_timeout:
        Queue backpressure bound and per-job timeout default.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8750,
        *,
        workers: int = 2,
        jobs: int = 1,
        cache_dir=None,
        use_cache: bool = True,
        max_pending: int = 256,
        default_timeout: float | None = 600.0,
    ):
        from ..api import Session

        self.host = host
        self._port = int(port)
        self.workers = max(1, int(workers))
        self.store = ResultStore(cache_dir=cache_dir, use_cache=use_cache)
        cache_root = getattr(self.store.cache, "root", None)
        self._sessions: asyncio.Queue = asyncio.Queue()
        self._all_sessions = [
            Session(jobs=jobs, cache_dir=cache_root, use_cache=use_cache)
            for _ in range(self.workers)
        ]
        self.queue = JobQueue(
            self._execute,
            concurrency=self.workers,
            max_pending=max_pending,
            default_timeout=default_timeout,
        )
        self._threads = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-service"
        )
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._started = perf_counter()

    # -- lifecycle ----------------------------------------------------------

    @property
    def port(self) -> int:
        return self._port

    async def start(self) -> None:
        for session in self._all_sessions:
            self._sessions.put_nowait(session)
        self._server = await asyncio.start_server(self._handle, self.host, self._port)
        self._port = self._server.sockets[0].getsockname()[1]
        self.queue.start()

    async def serve_forever(self) -> None:
        """Serve until ``POST /v1/admin/shutdown`` (or :meth:`close`)."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self.close()

    async def close(self) -> None:
        """Graceful shutdown: stop accepting, drain workers and sessions."""
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.queue.close()
        self._threads.shutdown(wait=True)
        for session in self._all_sessions:
            session.close()

    def run(self) -> None:
        """Blocking entry point (the ``repro serve`` subcommand)."""
        async def main() -> None:
            await self.start()
            print(
                f"repro service v{TOOL_VERSION} listening on "
                f"http://{self.host}:{self.port} "
                f"({self.workers} workers, schema v{SCHEMA_VERSION})",
                flush=True,
            )
            await self.serve_forever()

        try:
            asyncio.run(main())
        except KeyboardInterrupt:
            pass

    # -- job execution ------------------------------------------------------

    async def _execute(self, job: Job):
        """JobQueue's execute hook: session checkout + thread-pool hop."""
        session = await self._sessions.get()
        loop = asyncio.get_running_loop()
        try:
            outcome = await loop.run_in_executor(
                self._threads, self._run_job, session, job
            )
        finally:
            self._sessions.put_nowait(session)
        job.metrics = outcome["metrics"]
        if job.key is not None:
            self.store.put(job.key, outcome["result"])
        return outcome["result"]

    def _run_job(self, session, job: Job) -> dict:
        """Runs in a worker thread: scoped tracer + the actual op."""
        with obs.scoped_tracer() as tracer:
            start = perf_counter()
            result = run_op(session, job.kind, job.params)
            seconds = perf_counter() - start
            return {
                "result": result,
                "metrics": {
                    "seconds": round(seconds, 6),
                    "counters": dict(tracer.counters),
                },
            }

    # -- HTTP plumbing ------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, query, body, headers = request
            await self._route(writer, method, path, query, body, headers)
        except ConnectionError:
            pass
        except Exception as exc:  # noqa: BLE001 - connection isolation boundary
            try:
                await self._respond(writer, 500, {"error": f"{type(exc).__name__}: {exc}"})
            except ConnectionError:
                pass
        finally:
            try:
                # Half-close first: a pool worker forked while this
                # connection was open holds a copy of its socket, so
                # close() alone would leave the client waiting for EOF.
                if writer.can_write_eof():
                    writer.write_eof()
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split(" ")
        if len(parts) != 3:
            return None
        method, target, _ = parts
        path, _, raw_query = target.partition("?")
        query = {}
        for pair in raw_query.split("&"):
            if pair:
                key, _, value = pair.partition("=")
                query[key] = value
        headers: dict[str, str] = {}
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        if length > _MAX_BODY:
            raise ServiceError(f"request body too large ({length} bytes)")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, query, body, headers

    async def _respond(
        self, writer: asyncio.StreamWriter, status: int, payload, *, headers=()
    ) -> None:
        body = (json.dumps(payload) + "\n").encode()
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
            *headers,
        ]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        await writer.drain()

    # -- routing ------------------------------------------------------------

    async def _route(
        self, writer, method: str, path: str, query: dict, body: bytes,
        headers: dict | None = None,
    ):
        segments = [segment for segment in path.split("/") if segment]
        if len(segments) < 2 or segments[0] != "v1":
            return await self._respond(writer, 404, {"error": f"no such path {path!r}"})
        head, rest = segments[1], segments[2:]

        if head == "jobs" and not rest:
            if method != "POST":
                return await self._respond(writer, 405, {"error": "use POST /v1/jobs"})
            return await self._submit(writer, body)
        if head == "jobs" and rest:
            return await self._job_route(writer, method, rest, query)
        if head == "certificates" and len(rest) == 1 and method == "GET":
            return await self._certificate(writer, rest[0], headers or {})
        if head == "metrics" and not rest and method == "GET":
            return await self._respond(writer, 200, self._metrics())
        if head == "admin" and rest == ["shutdown"] and method == "POST":
            await self._respond(writer, 200, {"ok": True, "state": "shutting-down"})
            self._shutdown.set()
            return None
        return await self._respond(
            writer, 404, {"error": f"no route for {method} {path}"}
        )

    async def _submit(self, writer, body: bytes):
        try:
            request = json.loads(body.decode() or "{}")
            if not isinstance(request, dict):
                raise ServiceError("job submission body must be a JSON object")
            kind = request.get("kind")
            params = canonical_params(kind, request.get("params"))
            priority = int(request.get("priority", 0))
            timeout = request.get("timeout")
            timeout = float(timeout) if timeout is not None else None
            dedup = bool(request.get("dedup", True))
        except (ValueError, TypeError) as exc:
            return await self._respond(writer, 400, {"error": f"bad job submission: {exc}"})
        except ServiceError as exc:
            return await self._respond(writer, 400, {"error": str(exc)})

        key = self.store.key_for(kind, params)
        if dedup:
            stored = self.store.get(key)
            if stored is not None:
                job = self.queue.new_job(kind, params, key=key, priority=priority)
                await self.queue.finish_from_store(job, stored)
                return await self._respond(writer, 200, job.status_dict())
            active = self.queue.find_active(key)
            if active is not None:
                active.coalesced += 1
                return await self._respond(writer, 202, active.status_dict())
        try:
            job = self.queue.new_job(
                kind, params, key=key if dedup else None,
                priority=priority, timeout=timeout,
            )
            self.queue.submit(job)
        except ServiceError as exc:
            return await self._respond(writer, 503, {"error": str(exc)})
        return await self._respond(writer, 202, job.status_dict())

    async def _job_route(self, writer, method: str, rest: list, query: dict):
        try:
            job = self.queue.get(rest[0])
        except ServiceError as exc:
            return await self._respond(writer, 404, {"error": str(exc)})
        tail = rest[1:]
        if not tail and method == "GET":
            if query.get("watch"):
                return await self._watch(writer, job)
            return await self._respond(writer, 200, job.status_dict())
        if (not tail and method == "DELETE") or (tail == ["cancel"] and method == "POST"):
            job = await self.queue.cancel(job.id)
            return await self._respond(writer, 200, job.status_dict())
        if tail == ["result"] and method == "GET":
            if job.state == "done":
                return await self._respond(writer, 200, job.result)
            if job.state == "failed":
                return await self._respond(writer, 500, job.status_dict())
            if job.state == "cancelled":
                return await self._respond(writer, 409, job.status_dict())
            return await self._respond(writer, 409, job.status_dict())
        return await self._respond(writer, 405, {"error": f"no job route {method} {tail}"})

    async def _watch(self, writer, job: Job):
        """Stream NDJSON status lines until the job is terminal."""
        head = [
            "HTTP/1.1 200 OK",
            "Content-Type: application/x-ndjson",
            "Connection: close",
        ]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode())
        while True:
            status = job.status_dict()
            writer.write((json.dumps(status) + "\n").encode())
            await writer.drain()
            if job.terminal:
                return
            await self.queue.wait_change(job, status["version"])

    async def _certificate(self, writer, content_hash: str, headers: dict):
        """Serve one certificate, negotiating the wire encoding.

        JSON is the default; a client accepting
        ``application/x-repro-certificate`` (or ``application/octet-stream``)
        gets the compact binary container instead.  Both encodings are
        transcoded from whatever is stored, after re-validation.
        """
        accept = headers.get("accept", "")
        if "application/x-repro-certificate" in accept or "application/octet-stream" in accept:
            blob = self.store.certificate_bytes(content_hash)
            if blob is None:
                return await self._respond(
                    writer, 404,
                    {"error": f"no valid certificate with hash {content_hash!r}"},
                )
            head = [
                "HTTP/1.1 200 OK",
                "Content-Type: application/x-repro-certificate",
                f"Content-Length: {len(blob)}",
                "Connection: close",
            ]
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + blob)
            await writer.drain()
            return None
        payload = self.store.certificate(content_hash)
        if payload is None:
            return await self._respond(
                writer, 404,
                {"error": f"no valid certificate with hash {content_hash!r}"},
            )
        return await self._respond(writer, 200, payload)

    def _metrics(self) -> dict:
        return {
            "kind": "ServiceMetrics",
            "schema_version": SCHEMA_VERSION,
            "tool_version": TOOL_VERSION,
            "uptime_seconds": round(perf_counter() - self._started, 3),
            "workers": self.workers,
            "jobs": self.queue.counts(),
            "store": self.store.stats(),
            "sessions_idle": self._sessions.qsize(),
        }


def serve(argv_namespace) -> int:
    """The ``repro serve`` CLI entry point (validated args in, exit code out)."""
    try:
        server = ServiceServer(
            host=argv_namespace.host,
            port=argv_namespace.port,
            workers=argv_namespace.workers,
            jobs=getattr(argv_namespace, "jobs", 1),
            cache_dir=getattr(argv_namespace, "cache_dir", None),
            use_cache=not getattr(argv_namespace, "no_cache", False),
            max_pending=argv_namespace.max_pending,
            default_timeout=argv_namespace.job_timeout,
        )
    except GraphitiError as exc:
        print(f"error: {exc}", flush=True)
        return 2
    server.run()
    return 0
