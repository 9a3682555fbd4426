"""Stdlib-only JSON/HTTP front end for :class:`StudyService`.

Built on ``http.server.ThreadingHTTPServer`` — no framework, no new
dependencies — because the API is small and the hard part (dedup,
concurrency, bit-identity) lives below it in :mod:`repro.serve`:

======  ======================  ==========================================
verb    path                    body / response
======  ======================  ==========================================
POST    /jobs                   :meth:`JobSpec.to_dict` JSON in; job
                                resource out (``202``; ``429`` with
                                ``Retry-After`` when the queue is full:
                                see :data:`~repro.serve.queue.
                                MAX_QUEUED_JOBS`)
GET     /jobs                   every job resource, submission order
GET     /jobs/<id>              one job resource (``404`` unknown,
                                ``410`` evicted: see
                                :data:`~repro.serve.queue.MAX_FINISHED_JOBS`)
GET     /jobs/<id>/result       the finished table as lossless
                                :meth:`ResultTable.to_json` (``409`` if
                                not finished; ``?timeout=S`` waits)
DELETE  /jobs/<id>              cancel (``409`` if already running)
GET     /healthz                liveness, queue depth, workers alive,
                                retry + exact queue counters
GET     /metrics                :mod:`repro.obs` snapshot JSON
======  ======================  ==========================================

Error responses are JSON ``{"error": ..., "type": ...}`` with the repro
exception class name, so clients can distinguish a bad spec (400) from
a closed service (503) from an execution failure (500) without parsing
prose.  A ``POST /jobs`` whose ``Content-Length`` is not a non-negative
integer is 400, and one above :data:`MAX_BODY_BYTES` is 413; neither
body is read.  The result endpoint streams the *exact* ``to_json`` bytes —
two clients fetching a deduped job get byte-equal payloads.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import (
    ConfigurationError,
    JobEvictedError,
    QueueFullError,
    ReproError,
    ServiceClosedError,
)
from repro.faults import inject as _inject
from repro.serve.queue import CANCELLED, DONE, FAILED, JobSpec
from repro.serve.service import StudyService

#: Cap on ?timeout= waits so a client cannot pin a server thread forever.
MAX_WAIT_S = 300.0

#: Largest ``POST /jobs`` body accepted (a JobSpec is a few hundred bytes);
#: a bigger declared ``Content-Length`` is answered 413 without reading.
MAX_BODY_BYTES = 64 * 1024

#: ``Retry-After`` seconds sent with a ``429`` (queue full) answer.
RETRY_AFTER_S = 1


class ServiceHTTPServer(ThreadingHTTPServer):
    """One HTTP listener bound to one :class:`StudyService`."""

    daemon_threads = True

    def __init__(self, service: StudyService, address: Tuple[str, int]):
        self.service = service
        super().__init__(address, _Handler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"


class _Handler(BaseHTTPRequestHandler):
    # Quiet by default; the CLI flips this for interactive serving.
    log_to_stderr = False
    protocol_version = "HTTP/1.1"
    # A response goes out as two writes (headers, then body).  With
    # Nagle's algorithm on, the body waits for the client's delayed ACK
    # of the headers: ~40 ms per request on a keep-alive connection.
    disable_nagle_algorithm = True

    def log_message(self, fmt: str, *args) -> None:  # pragma: no cover
        if self.log_to_stderr:
            super().log_message(fmt, *args)

    @property
    def service(self) -> StudyService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing -------------------------------------------------------------

    def _send_json(self, status: int, payload, headers=()) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send_bytes(status, body, headers=headers)

    def _send_bytes(self, status: int, body: bytes, headers=()) -> None:
        self.send_response(status)
        for name, value in headers:
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(
        self, status: int, exc: Exception, headers=()
    ) -> None:
        self._send_json(
            status, {"error": str(exc), "type": type(exc).__name__},
            headers,
        )

    def _job(self, job_id: str):
        """The job for ``job_id``, or None once a 404/410 is sent."""
        try:
            return self.service.job(job_id)
        except JobEvictedError as exc:
            self._send_error_json(410, exc)
        except ConfigurationError as exc:
            self._send_error_json(404, exc)
        return None

    def _body_length(self) -> Optional[int]:
        """The declared body size, or ``None`` after refusing the request.

        A malformed or negative ``Content-Length`` is 400 and one above
        :data:`MAX_BODY_BYTES` is 413.  The body is never read then, so
        the connection is closed rather than reused mid-body.
        """
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            status, reason = 400, (
                f"Content-Length must be a non-negative integer, "
                f"got {declared!r}")
        elif length > MAX_BODY_BYTES:
            status, reason = 413, (
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
        else:
            return length
        self.close_connection = True
        self._send_error_json(status, ConfigurationError(reason))
        return None

    def _read_body(self, length: int) -> dict:
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ConfigurationError("request body must be a JSON object")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise ConfigurationError(f"bad JSON body: {exc}")

    # -- routes ---------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = urlparse(self.path).path
        if path != "/jobs":
            self._send_json(404, {"error": f"no such route: POST {path}"})
            return
        length = self._body_length()
        if length is None:
            return
        try:
            spec = JobSpec.from_dict(self._read_body(length))
            job = self.service.submit(spec)
        except ServiceClosedError as exc:
            self._send_error_json(503, exc)
            return
        except QueueFullError as exc:
            self._send_error_json(
                429, exc, (("Retry-After", str(RETRY_AFTER_S)),)
            )
            return
        except ReproError as exc:
            self._send_error_json(400, exc)
            return
        self._send_json(202, job.to_dict())

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        if _inject.ENABLED:
            # The serve.http fault site: GET-only (idempotent), so the
            # client's bounded retry-with-backoff is always safe.
            try:
                _inject.fire("serve.http", path=None, route=parsed.path)
            except _inject.FaultInjected as exc:
                self._send_json(
                    503, {"error": str(exc), "type": "TransientError"}
                )
                return
        parts = [p for p in parsed.path.split("/") if p]
        if parsed.path == "/healthz":
            self._send_json(200, self.service.health())
        elif parsed.path == "/metrics":
            self._send_json(200, self.service.metrics())
        elif parsed.path == "/jobs":
            self._send_json(
                200, {"jobs": [j.to_dict() for j in self.service.jobs()]}
            )
        elif len(parts) == 2 and parts[0] == "jobs":
            job = self._job(parts[1])
            if job is not None:
                self._send_json(200, job.to_dict())
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            self._get_result(parts[1], parsed.query)
        else:
            self._send_json(
                404, {"error": f"no such route: GET {parsed.path}"}
            )

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        if len(parts) != 2 or parts[0] != "jobs":
            self._send_json(404, {"error": "no such route"})
            return
        job = self._job(parts[1])
        if job is None:
            return
        if self.service.cancel(job.id):
            self._send_json(200, job.to_dict())
        else:
            self._send_json(
                409,
                {"error": f"job {job.id} is {job.state}; too late to cancel",
                 "type": "ConfigurationError"},
            )

    def _get_result(self, job_id: str, query: str) -> None:
        job = self._job(job_id)
        if job is None:
            return
        wait_s: Optional[float] = None
        params = parse_qs(query)
        if "timeout" in params:
            try:
                wait_s = min(float(params["timeout"][0]), MAX_WAIT_S)
            except ValueError:
                self._send_json(400, {"error": "timeout must be a number"})
                return
        if wait_s is not None:
            job.wait(wait_s)
        if job.state == DONE:
            self._send_bytes(200, job.table.to_json().encode("utf-8"))
        elif job.state == FAILED:
            self._send_json(
                500,
                {"error": job.error, "type": "JobFailedError", "id": job.id},
            )
        elif job.state == CANCELLED:
            self._send_json(
                410,
                {"error": f"job {job.id} was cancelled",
                 "type": "JobFailedError", "id": job.id},
            )
        else:
            self._send_json(
                409,
                {"error": f"job {job.id} is {job.state}; result not ready",
                 "type": "ConfigurationError", "id": job.id,
                 "state": job.state},
            )


def serve_http(
    service: StudyService, host: str = "127.0.0.1", port: int = 0,
    *, log: bool = False,
) -> ServiceHTTPServer:
    """Bind a server (``port=0`` = ephemeral) and serve on a thread.

    Returns the running server; call ``.shutdown()`` then
    ``service.close()`` to stop.  The serving thread is a daemon, so an
    exiting process never hangs on it.
    """
    server = ServiceHTTPServer(service, (host, port))
    _Handler.log_to_stderr = log
    thread = threading.Thread(
        target=server.serve_forever, name="serve-http", daemon=True
    )
    thread.start()
    return server
