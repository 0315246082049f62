"""The thin client: stdlib ``http.client`` against a running daemon.

:class:`ServeClient` is what the ``repro submit`` / ``repro jobs`` /
``repro job`` CLI verbs and :meth:`repro.api.Session.submit` speak through;
:class:`RemoteJob` is the handle a submission returns — poll it, stream its
records, fetch its aggregate, cancel it.

Error mapping mirrors the server's: 404 raises
:class:`~repro.errors.JobNotFound`, 429 raises
:class:`~repro.errors.QueueFull` (with the server's ``Retry-After`` as
``retry_after``), any other non-2xx raises
:class:`~repro.errors.ServeError` with the server's error text; a daemon
that is not listening at all raises :class:`~repro.errors.ServeError` too
— the CLI maps that to exit code 2 (a connection problem, not a domain
failure).
"""

from __future__ import annotations

import http.client
import json
import socket
import time
import urllib.parse
from collections.abc import Iterator
from typing import Any

from repro.errors import JobNotFound, QueueFull, ServeError
from repro.serve.jobs import TERMINAL_STATES

__all__ = ["ServeClient", "RemoteJob", "DEFAULT_URL"]

DEFAULT_URL = "http://127.0.0.1:7341"

#: Sentinel: "use the client's default timeout" (None means "no timeout").
_DEFAULT_TIMEOUT: Any = object()


class ServeClient:
    """One daemon endpoint; every call opens a fresh local connection."""

    def __init__(self, url: str = DEFAULT_URL, *, timeout: float = 30.0) -> None:
        parsed = urllib.parse.urlsplit(url if "//" in url else f"http://{url}")
        if parsed.scheme not in ("", "http"):
            raise ServeError(
                f"unsupported scheme {parsed.scheme!r} in {url!r} "
                "(the daemon speaks plain http)"
            )
        if not parsed.hostname:
            raise ServeError(f"no host in serve URL {url!r}")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #

    def _connect(self, timeout: float | None = _DEFAULT_TIMEOUT) -> http.client.HTTPConnection:
        # ``None`` means "no socket timeout" (a following stream may idle
        # indefinitely); the sentinel default means the client's timeout.
        return http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout if timeout is _DEFAULT_TIMEOUT else timeout,
        )

    def _request(
        self, method: str, path: str, payload: Any = None,
        *, timeout: float | None = _DEFAULT_TIMEOUT,
    ) -> Any:
        conn = self._connect(timeout)
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode()
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
        except (ConnectionError, socket.timeout, OSError) as exc:
            raise ServeError(
                f"cannot reach the repro daemon at {self.url}: {exc}"
            ) from exc
        finally:
            conn.close()
        return self._decode(resp, raw, path)

    def _decode(self, resp: http.client.HTTPResponse, raw: bytes, path: str) -> Any:
        try:
            payload = json.loads(raw.decode() or "null")
        except (json.JSONDecodeError, UnicodeDecodeError):
            payload = None
        if 200 <= resp.status < 300:
            return payload
        error = (payload or {}).get("error") if isinstance(payload, dict) \
            else None
        error = error or f"HTTP {resp.status} from {path}"
        if resp.status == 404:
            raise JobNotFound(error)
        if resp.status == 429:
            try:
                retry_after = float(resp.headers.get("Retry-After", "1"))
            except ValueError:
                retry_after = 1.0
            raise QueueFull(error, retry_after=retry_after)
        raise ServeError(error)

    # ------------------------------------------------------------------ #
    # API calls
    # ------------------------------------------------------------------ #

    def health(self) -> dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics_text(self) -> str:
        conn = self._connect()
        try:
            conn.request("GET", "/metrics")
            resp = conn.getresponse()
            raw = resp.read()
        except (ConnectionError, socket.timeout, OSError) as exc:
            raise ServeError(
                f"cannot reach the repro daemon at {self.url}: {exc}"
            ) from exc
        finally:
            conn.close()
        if resp.status != 200:
            raise ServeError(f"HTTP {resp.status} from /metrics")
        return raw.decode()

    def submit(
        self,
        campaign: str | None = None,
        *,
        spec: dict[str, Any] | None = None,
        shards: int = 1,
        priority: str = "normal",
        executor: str | None = None,
        jobs: int | None = None,
        use_cache: bool = True,
    ) -> "RemoteJob":
        """Submit a builtin campaign name or an inline spec; returns a handle."""
        if (campaign is None) == (spec is None):
            raise ServeError(
                "submit() needs exactly one of campaign= (a builtin name) "
                "or spec= (a campaign spec dict)"
            )
        payload: dict[str, Any] = {
            "shards": shards, "priority": priority, "use_cache": use_cache,
        }
        if campaign is not None:
            payload["campaign"] = campaign
        else:
            payload["spec"] = spec
        if executor is not None:
            payload["executor"] = executor
        if jobs is not None:
            payload["jobs"] = jobs
        view = self._request("POST", "/v1/jobs", payload)
        return RemoteJob(self, view)

    def jobs(self) -> list[dict[str, Any]]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def job(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    def summary(
        self, job_id: str, *, by: tuple[str, ...] | list[str] | None = None,
    ) -> dict[str, Any]:
        path = f"/v1/jobs/{job_id}/summary"
        if by:
            path += "?by=" + urllib.parse.quote(",".join(by))
        return self._request("GET", path)

    def records(
        self, job_id: str, *, follow: bool = False,
        timeout: float | None = None,
    ) -> Iterator[dict[str, Any]]:
        """Yield record dicts; with ``follow`` the stream tails the job live.

        A following read holds its socket open until the job reaches a
        terminal state, so ``timeout`` here is a per-read socket timeout
        (default: no limit while following, the client default otherwise).
        """
        if timeout is None:
            timeout = None if follow else self.timeout
        conn = self._connect(timeout)
        try:
            suffix = "?follow=1" if follow else ""
            conn.request("GET", f"/v1/jobs/{job_id}/records{suffix}")
            resp = conn.getresponse()
            if resp.status != 200:
                self._decode(resp, resp.read(), f"/v1/jobs/{job_id}/records")
            # http.client de-chunks transparently; readline() yields each
            # JSONL record as the server flushes it.
            for line in resp:
                line = line.strip()
                if line:
                    yield json.loads(line)
        except (ConnectionError, socket.timeout, OSError) as exc:
            raise ServeError(
                f"records stream from {self.url} broke: {exc}"
            ) from exc
        finally:
            conn.close()

    def wait(
        self, job_id: str, *, timeout: float | None = 120.0, poll: float = 0.1,
    ) -> dict[str, Any]:
        """Poll until the job is terminal; returns the final view."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            view = self.job(job_id)
            if view["state"] in TERMINAL_STATES:
                return view
            if deadline is not None and time.monotonic() > deadline:
                raise ServeError(
                    f"job {job_id} still {view['state']} after {timeout}s"
                )
            time.sleep(poll)


class RemoteJob:
    """A submitted job: the client-side handle ``submit()`` returns."""

    def __init__(self, client: ServeClient, view: dict[str, Any]) -> None:
        self.client = client
        self.id: str = view["id"]
        self.view = view

    @property
    def state(self) -> str:
        return self.view["state"]

    def refresh(self) -> dict[str, Any]:
        self.view = self.client.job(self.id)
        return self.view

    def wait(self, *, timeout: float | None = 120.0, poll: float = 0.1) -> dict[str, Any]:
        self.view = self.client.wait(self.id, timeout=timeout, poll=poll)
        return self.view

    def records(self, *, follow: bool = False) -> Iterator[dict[str, Any]]:
        return self.client.records(self.id, follow=follow)

    def summary(self, *, by: tuple[str, ...] | list[str] | None = None) -> dict[str, Any]:
        return self.client.summary(self.id, by=by)

    def cancel(self) -> dict[str, Any]:
        self.view = self.client.cancel(self.id)
        return self.view

    def __repr__(self) -> str:  # pragma: no cover
        return f"RemoteJob(id={self.id!r}, state={self.view.get('state')!r})"
