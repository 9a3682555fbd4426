"""Concurrent study service: job queue, dedup, and an HTTP front end.

The studies layer made every experiment a one-call function
(:func:`~repro.study.core.run_study`); the store made results durable
and content-addressed; this package makes them *servable*: a
long-lived process that accepts study jobs concurrently, coalesces
duplicates onto one execution, and hands every caller a bit-identical
:class:`~repro.study.table.ResultTable`.

Layers, bottom up:

* :mod:`repro.serve.queue` — :class:`JobSpec` (validated at submit
  time), :class:`Job` (the lifecycle record), :class:`JobQueue`
  (bounded FIFO workers + in-flight dedup on the store's content keys,
  with *exact* lifecycle counters);
* :mod:`repro.serve.service` — :class:`StudyService`: the queue wired
  to worker processes for fleet-executed studies
  (:mod:`repro.serve.worker`, one per queue thread, so the threads
  simulate on separate CPUs), an optional durable
  :class:`~repro.store.cache.ResultStore`, and a finished-table LRU;
  timeouts, cancellation, graceful draining shutdown;
* :mod:`repro.serve.http` — a stdlib-only JSON API
  (``POST /jobs`` ... ``GET /metrics``) over ``ThreadingHTTPServer``;
* :mod:`repro.serve.client` — the urllib client the ``repro submit``
  CLI drives.

The one-process quickstart::

    from repro.serve import JobSpec, StudyService

    with StudyService(workers=4) as svc:
        a = svc.submit(JobSpec("fig8", engine="fast"))
        b = svc.submit(JobSpec("fig8", engine="fast"))   # dedup hit
        table = svc.result(a.id)
        assert svc.result(b.id) is table

Or over HTTP: ``repro serve --port 8321`` in one terminal,
``repro submit fig8 --engine fast --url http://127.0.0.1:8321`` in
another.
"""

from repro import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "client": ("ServeClient",),
    "http": ("ServiceHTTPServer", "serve_http"),
    "queue": ("CANCELLED", "DONE", "FAILED", "QUEUED", "RUNNING", "STATES",
              "Job", "JobQueue", "JobSpec"),
    "service": ("StudyService",),
})
