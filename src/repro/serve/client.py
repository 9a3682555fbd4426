"""urllib client for the serve HTTP API (the ``repro submit`` engine).

Mirrors the server's routes one method per route, translating the JSON
error envelope back into the repro exception hierarchy: a 400 becomes
:class:`~repro.errors.ConfigurationError`, a 503
:class:`~repro.errors.ServiceClosedError`, a failed job
:class:`~repro.errors.JobFailedError` — so driving a remote service
raises exactly what calling :class:`~repro.serve.service.StudyService`
in-process would.

Tables cross the wire as :meth:`ResultTable.to_json` and are decoded
with :meth:`ResultTable.from_json`, inheriting the lossless round-trip
contract: the table a client holds is bit-identical to the one the
service computed.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Optional

from repro.errors import (
    ConfigurationError,
    JobEvictedError,
    JobFailedError,
    ReproError,
    ServiceClosedError,
)
from repro.faults.retry import RetryPolicy
from repro.study.table import ResultTable

#: error "type" field -> exception class raised client-side.
_ERROR_TYPES = {
    "ConfigurationError": ConfigurationError,
    "JobEvictedError": JobEvictedError,
    "ServiceClosedError": ServiceClosedError,
    "JobFailedError": JobFailedError,
}

#: Transient server-side statuses worth retrying on idempotent requests.
_RETRYABLE_STATUS = (502, 503, 504)


def _refused(exc: urllib.error.URLError) -> bool:
    return isinstance(getattr(exc, "reason", None), ConnectionRefusedError)


class ServeClient:
    """A client bound to one service base URL (``http://host:port``).

    Two recovery behaviors, both bounded and deterministic:

    * **Startup race** — connection-refused is retried for up to
      ``connect_wait_s`` on *any* method (nothing reached the server,
      so resending is always safe).  ``repro submit`` racing a
      just-launched ``repro serve --port 0`` wins cleanly.
    * **Idempotent GETs** — 502/503/504 responses and connection drops
      retry under ``retry`` with backoff; non-idempotent requests never
      retry past the connect phase.  The final failure propagates
      exactly as it would without retries.
    """

    def __init__(
        self, base_url: str, *, timeout_s: float = 30.0,
        retry: Optional[RetryPolicy] = None, connect_wait_s: float = 2.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.retry = retry if retry is not None else RetryPolicy()
        self.connect_wait_s = connect_wait_s

    # -- transport ------------------------------------------------------------

    def _request(
        self, method: str, path: str, payload: Optional[dict] = None,
        *, timeout_s: Optional[float] = None,
    ) -> bytes:
        data = None
        headers = {}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        idempotent = method == "GET"
        connect_deadline = time.monotonic() + self.connect_wait_s
        attempt = 0
        while True:
            req = urllib.request.Request(
                self.base_url + path, data=data, headers=headers,
                method=method,
            )
            try:
                with urllib.request.urlopen(
                    req, timeout=timeout_s or self.timeout_s
                ) as resp:
                    return resp.read()
            except urllib.error.HTTPError as exc:
                if (idempotent and exc.code in _RETRYABLE_STATUS
                        and attempt + 1 < self.retry.max_attempts):
                    exc.read()
                    attempt += 1
                    self.retry.sleep(attempt)
                    continue
                raise self._to_error(exc)
            except urllib.error.URLError as exc:
                if _refused(exc) and time.monotonic() < connect_deadline:
                    time.sleep(0.05)
                    continue
                if idempotent and attempt + 1 < self.retry.max_attempts:
                    attempt += 1
                    self.retry.sleep(attempt)
                    continue
                raise

    @staticmethod
    def _to_error(exc: urllib.error.HTTPError) -> ReproError:
        try:
            envelope = json.loads(exc.read().decode("utf-8"))
        except ValueError:
            envelope = {}
        message = envelope.get("error") or f"HTTP {exc.code}"
        cls = _ERROR_TYPES.get(envelope.get("type"), ReproError)
        if cls is JobFailedError:
            return JobFailedError(envelope.get("id", "?"), message)
        return cls(message)

    def _json(self, method: str, path: str, payload=None, **kw) -> dict:
        return json.loads(self._request(method, path, payload, **kw))

    # -- API ------------------------------------------------------------------

    def submit(self, spec) -> dict:
        """POST one job; ``spec`` is a JobSpec or its dict form.

        Returns the job resource (``id``, ``state``, ``dedup`` ...).
        """
        payload = spec if isinstance(spec, dict) else spec.to_dict()
        return self._json("POST", "/jobs", payload)

    def job(self, job_id: str) -> dict:
        return self._json("GET", f"/jobs/{job_id}")

    def jobs(self) -> list:
        return self._json("GET", "/jobs")["jobs"]

    def cancel(self, job_id: str) -> dict:
        return self._json("DELETE", f"/jobs/{job_id}")

    def result_json(
        self, job_id: str, *, timeout: Optional[float] = None
    ) -> bytes:
        """The finished table's exact ``to_json`` bytes (see module doc)."""
        path = f"/jobs/{job_id}/result"
        if timeout is not None:
            path += f"?timeout={timeout}"
        # HTTP timeout must outlast the server-side wait.
        http_timeout = self.timeout_s + (timeout or 0)
        return self._request("GET", path, timeout_s=http_timeout)

    def result(
        self, job_id: str, *, timeout: Optional[float] = None
    ) -> ResultTable:
        """The finished table, decoded (lossless round trip)."""
        return ResultTable.from_json(
            self.result_json(job_id, timeout=timeout).decode("utf-8")
        )

    def wait(self, job_id: str, *, timeout: Optional[float] = None) -> dict:
        """Poll until the job is terminal; returns the final resource."""
        deadline = None if timeout is None else time.monotonic() + timeout
        delay = 0.02
        while True:
            job = self.job(job_id)
            if job["state"] in ("done", "failed", "cancelled"):
                return job
            if deadline is not None and time.monotonic() >= deadline:
                raise ConfigurationError(
                    f"job {job_id} still {job['state']} after {timeout}s"
                )
            time.sleep(delay)
            delay = min(delay * 2, 0.5)

    def health(self) -> dict:
        return self._json("GET", "/healthz")

    def metrics(self) -> dict:
        return self._json("GET", "/metrics")
