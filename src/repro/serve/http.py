"""The HTTP/JSON front door: stdlib asyncio, hand-rolled HTTP/1.1.

No aiohttp, no frameworks — ``asyncio.start_server`` plus a ~hundred lines
of request parsing is all a JSON API with one streaming endpoint needs,
and it keeps the zero-dependency rule intact.  Every connection serves one
request (``Connection: close``), which sidesteps keep-alive state entirely;
clients open cheap local sockets per call.

Routes (all responses JSON unless noted)::

    GET  /healthz                 liveness + job counts
    GET  /metrics                 Prometheus text (serve + folded campaigns)
    POST /v1/jobs                 submit {"campaign": name} or {"spec": {...}}
    GET  /v1/jobs                 all jobs, submission order
    GET  /v1/jobs/{id}            one job + per-shard progress (manifest-read)
    GET  /v1/jobs/{id}/records    JSONL records; ?follow=1 tail-follows
                                  (chunked transfer) until the job is terminal
    GET  /v1/jobs/{id}/summary    group-by aggregate (?by=protocol,n)
    POST /v1/jobs/{id}/cancel     cooperative cancel

Error mapping: :class:`~repro.errors.JobNotFound` → 404,
:class:`~repro.errors.QueueFull` → 429 with ``Retry-After``, any other
:class:`~repro.errors.ServeError` → 400 (or 409 for a cancel on a terminal
job), anything unexpected → 500 with the exception named.

The streaming endpoint emits records **shard-major** while a job runs
(shard 0's durable lines as they land, then shard 1's, ...) — each shard
stream is append-only, so the tail-follow is a cheap offset scan — and
switches to the canonical merged ``<name>.jsonl`` once the job is done,
so a post-completion read is byte-identical to the engine's own merge.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import signal
import threading
from typing import Any
from urllib.parse import parse_qs

from repro import __version__
from repro.errors import JobNotFound, QueueFull, ReproError, ServeError
from repro.engine.shard import ShardManifest, shard_done_path, shard_stream_path
from repro.obs.metrics import MetricsRegistry, render_prometheus
from repro.serve.queue import Scheduler
from repro.serve.jobs import TERMINAL_STATES, JobStore
from repro.serve.summary import SummaryCache

__all__ = ["ReproServer", "ServerThread", "DEFAULT_HOST", "DEFAULT_PORT"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7341

_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
}

_MAX_BODY = 8 * 1024 * 1024  # campaign specs are small; refuse anything huge

#: Keys of the job state dict that are daemon-internal, not API surface.
_PRIVATE_KEYS = ("_started_clock",)


class _BadRequest(Exception):
    """Unparseable request line/headers/body — always mapped to 400."""


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, list[str]], bytes] | None:
    """Parse one request; ``None`` when the peer closed without sending."""
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("latin-1").split()
    if len(parts) != 3:
        raise _BadRequest(f"malformed request line {line!r}")
    method, target = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        key, sep, value = raw.decode("latin-1").partition(":")
        if sep:
            headers[key.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise _BadRequest("bad Content-Length") from None
    if length > _MAX_BODY:
        raise _BadRequest(f"body exceeds {_MAX_BODY} bytes")
    body = await reader.readexactly(length) if length else b""
    path, _, query = target.partition("?")
    return method, path, parse_qs(query), body


def _head(status: int, content_type: str, extra: dict[str, str],
          *, length: int | None = None, chunked: bool = False) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
             f"Content-Type: {content_type}", "Connection: close"]
    if chunked:
        lines.append("Transfer-Encoding: chunked")
    elif length is not None:
        lines.append(f"Content-Length: {length}")
    lines += [f"{k}: {v}" for k, v in extra.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class ReproServer:
    """The campaign service: store + scheduler + asyncio HTTP front end.

    ``port=0`` binds an ephemeral port; the bound one is on ``self.port``
    after :meth:`start` (and in the ``listening on http://...`` line the
    CLI prints, which is what subprocess tests parse).
    """

    def __init__(
        self,
        root: str | pathlib.Path = "serve-data",
        *,
        host: str = DEFAULT_HOST,
        port: int = 0,
        workers: int = 2,
        queue_limit: int = 16,
        executor: str = "process",
        jobs: int | None = None,
        shard_timeout: float | None = None,
        retries: int = 2,
        backoff: float = 0.05,
    ) -> None:
        self.host = host
        self.port = port
        self.store = JobStore(root)
        self.metrics = MetricsRegistry()
        self.summaries = SummaryCache()
        self.scheduler = Scheduler(
            self.store, workers=workers, queue_limit=queue_limit,
            executor=executor, jobs=jobs, shard_timeout=shard_timeout,
            retries=retries, backoff=backoff, metrics=self.metrics,
        )
        self._server: asyncio.base_events.Server | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Recover the store, start the workers, bind the socket."""
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, drain the pool, requeue interrupted jobs."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.stop()

    async def run_until_interrupted(self, *, ready=None) -> None:
        """The daemon main: serve until SIGTERM/SIGINT, then clean up.

        ``ready`` (a callable) runs once the socket is bound — the CLI
        prints its ``listening on http://host:port`` line there, which is
        also the line subprocess tests parse for the ephemeral port.
        """
        await self.start()
        if ready is not None:
            ready()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        try:
            await stop.wait()
        finally:
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(sig)
            await self.stop()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await _read_request(reader)
                if request is None:
                    return
                method, path, query, body = request
            except (_BadRequest, asyncio.IncompleteReadError, ValueError) as exc:
                await self._send_json(writer, 400, {"error": str(exc)})
                return
            try:
                await self._route(writer, method, path, query, body)
            except JobNotFound as exc:
                await self._send_json(writer, 404, {"error": str(exc)})
            except QueueFull as exc:
                await self._send_json(
                    writer, 429, {"error": str(exc),
                                  "retry_after": exc.retry_after},
                    extra={"Retry-After": str(int(exc.retry_after + 0.5) or 1)},
                )
            except ServeError as exc:
                await self._send_json(writer, 400, {"error": str(exc)})
            except Exception as exc:  # noqa: BLE001 — the 500 safety net
                await self._send_json(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
        except (ConnectionResetError, BrokenPipeError):
            pass  # peer went away mid-response; nothing to salvage
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _route(
        self, writer: asyncio.StreamWriter, method: str, path: str,
        query: dict[str, list[str]], body: bytes,
    ) -> None:
        if path == "/healthz" and method == "GET":
            await self._send_json(writer, 200, {
                "status": "ok",
                "version": __version__,
                "jobs": self.store.counts(),
                "queue_depth": self.scheduler.queue_depth(),
            })
            return
        if path == "/metrics" and method == "GET":
            text = render_prometheus(self.scheduler.metrics_snapshot())
            data = text.encode()
            writer.write(_head(
                200, "text/plain; version=0.0.4; charset=utf-8", {},
                length=len(data),
            ))
            writer.write(data)
            await writer.drain()
            return
        if path == "/v1/jobs" and method == "POST":
            try:
                payload = json.loads(body.decode() or "null")
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ServeError(f"request body is not valid JSON: {exc}") from None
            job = self.scheduler.submit(payload)
            await self._send_json(writer, 201, self._job_view(job))
            return
        if path == "/v1/jobs" and method == "GET":
            await self._send_json(writer, 200, {
                "jobs": [self._job_view(j) for j in self.store.list()],
            })
            return
        parts = [p for p in path.split("/") if p]
        if len(parts) >= 3 and parts[0] == "v1" and parts[1] == "jobs":
            job_id = parts[2]
            tail = parts[3] if len(parts) == 4 else None
            if tail is None and method == "GET":
                job = self.store.get(job_id)
                view = self._job_view(job)
                view["progress"] = self._progress(job)
                await self._send_json(writer, 200, view)
                return
            if tail == "cancel" and method == "POST":
                job = self.store.get(job_id)  # 404 before 409
                if job["state"] in TERMINAL_STATES:
                    await self._send_json(writer, 409, {
                        "error": f"job {job_id} is already {job['state']}",
                        "state": job["state"],
                    })
                    return
                job = self.scheduler.cancel(job_id)
                await self._send_json(writer, 200, self._job_view(job))
                return
            if tail == "summary" and method == "GET":
                await self._summary(writer, job_id, query)
                return
            if tail == "records" and method == "GET":
                follow = query.get("follow", ["0"])[0] not in ("0", "", "false")
                poll = float(query.get("poll", ["0.1"])[0])
                await self._stream_records(writer, job_id, follow, poll)
                return
        await self._send_json(
            writer, 405 if path.startswith("/v1/jobs") else 404,
            {"error": f"no route for {method} {path}"},
        )

    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, payload: Any,
        *, extra: dict[str, str] | None = None,
    ) -> None:
        data = (json.dumps(payload, sort_keys=True) + "\n").encode()
        writer.write(_head(status, "application/json", extra or {},
                           length=len(data)))
        writer.write(data)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #

    def _job_view(self, job: dict[str, Any]) -> dict[str, Any]:
        view = {k: v for k, v in job.items() if k not in _PRIVATE_KEYS}
        view["results_dir"] = str(self.store.results_dir(job["id"]))
        return view

    def _progress(self, job: dict[str, Any]) -> dict[str, Any]:
        """Per-shard progress, read from the engine's own durable artifacts.

        The manifest fixes each shard's total; the shard stream's newline
        count is its durable record count (a torn tail has no newline, so
        it never counts); the done marker is completion.  A job whose
        first shard has not started yet simply has no manifest — that is
        the all-zeros progress, not an error.
        """
        results_dir = self.store.results_dir(job["id"])
        name, n_shards = job["name"], job["shards"]
        try:
            manifest = ShardManifest.load(results_dir, name)
        except (ReproError, OSError):
            return {"total": 0, "records": 0, "shards": []}
        shards = []
        for i in range(n_shards):
            stream = shard_stream_path(results_dir, name, i, n_shards)
            lines = 0
            if stream.exists():
                lines = stream.read_bytes().count(b"\n")
            shards.append({
                "index": i,
                "total": len(manifest.shard_hashes(i)),
                "records": lines,
                "done": shard_done_path(results_dir, name, i, n_shards).exists(),
            })
        return {
            "total": len(manifest.spec_hashes),
            "records": sum(s["records"] for s in shards),
            "shards": shards,
        }

    async def _summary(
        self, writer: asyncio.StreamWriter, job_id: str,
        query: dict[str, list[str]],
    ) -> None:
        from repro.results.aggregate import DEFAULT_AXES

        job = self.store.get(job_id)
        by = DEFAULT_AXES
        if "by" in query:
            by = tuple(a.strip() for a in query["by"][0].split(",") if a.strip())
        try:
            # Incremental: the cache feeds only bytes appended since the
            # last poll, so a tight polling client costs O(new records),
            # not O(all records) per request.
            count, groups = self.summaries.summary(
                self.store.results_dir(job_id), job, by
            )
        except ReproError as exc:
            raise ServeError(str(exc)) from exc
        self.metrics.inc("serve_summary_requests")
        await self._send_json(writer, 200, {
            "id": job_id, "state": job["state"], "records": count,
            "by": list(by), "groups": groups,
        })

    # ------------------------------------------------------------------ #
    # record streaming
    # ------------------------------------------------------------------ #

    async def _stream_records(
        self, writer: asyncio.StreamWriter, job_id: str,
        follow: bool, poll: float,
    ) -> None:
        job = self.store.get(job_id)  # 404 before any bytes hit the wire
        writer.write(_head(200, "application/x-ndjson", {}, chunked=True))
        await writer.drain()

        async def send(chunk: bytes) -> None:
            if not chunk:
                return
            writer.write(f"{len(chunk):x}\r\n".encode() + chunk + b"\r\n")
            await writer.drain()

        try:
            job = self.store.get(job_id)
            if job["state"] == "done" and job.get("jsonl"):
                # Finished: stream the canonical merged file in one pass.
                path = pathlib.Path(job["jsonl"])
                if path.exists():
                    await send(path.read_bytes())
            else:
                results_dir = self.store.results_dir(job["id"])
                for i in range(job["shards"]):
                    stream = shard_stream_path(
                        results_dir, job["name"], i, job["shards"]
                    )
                    done_marker = shard_done_path(
                        results_dir, job["name"], i, job["shards"]
                    )
                    offset = 0
                    while True:
                        if stream.exists():
                            with stream.open("rb") as fh:
                                fh.seek(offset)
                                data = fh.read()
                            complete = data[: data.rfind(b"\n") + 1]
                            if complete:
                                await send(complete)
                                offset += len(complete)
                        job = self.store.get(job_id)
                        if done_marker.exists() or job["state"] in TERMINAL_STATES:
                            break
                        if not follow:
                            break
                        await asyncio.sleep(poll)
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client hung up mid-stream; the poll loop just stops


class ServerThread:
    """A :class:`ReproServer` hosted on a background thread.

    The in-process form tests, benchmarks, and ``examples/`` use: the
    event loop runs on a daemon thread, ``__enter__``/:meth:`start`
    block until the socket is bound (so ``.url`` is immediately
    usable), and :meth:`stop` performs the same graceful teardown as a
    SIGTERM'd daemon.
    """

    def __init__(self, root: str | pathlib.Path = "serve-data", **kwargs: Any) -> None:
        self.server = ReproServer(root, **kwargs)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = threading.Event()
        self._stop_event: asyncio.Event | None = None
        self._startup_error: BaseException | None = None

    @property
    def url(self) -> str:
        return self.server.url

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-serve", daemon=True,
        )
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            raise ServeError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        if not self._started.is_set():
            raise ServeError("server failed to start within 30s")
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:  # surface bind errors to the caller
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        await self._stop_event.wait()
        await self.server.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
