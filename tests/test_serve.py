"""Tests for the concurrent study service (:mod:`repro.serve`).

Covers the four layers — JobSpec validation, the deduplicating queue,
StudyService lifecycle (timeouts, cancellation, graceful shutdown,
durable stores), and the HTTP API + client — plus the acceptance
integration: eight concurrent clients over mixed duplicate/distinct
jobs, byte-equal tables against serial ``run_study``, and *exact*
dedup counters.
"""

import json
import threading
import time

import pytest

from repro import obs
from repro.errors import (
    ConfigurationError,
    JobFailedError,
    ReproError,
    ServiceClosedError,
)
from repro.serve import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    JobSpec,
    ServeClient,
    StudyService,
    serve_http,
)
from repro.store.cache import ResultStore, study_table_key
from repro.study import Profile, ResultTable, Study, register, run_study
from repro.study.core import _REGISTRY

TOY = "toy-serve"


@pytest.fixture
def toy_study():
    """A registered direct study with controllable execution.

    ``control["runs"]`` records each executed seed; ``control["gate"]``
    (when set) blocks executions until released; ``control["fail"]``
    makes the run raise; ``control["sleep"]`` stalls it.
    """
    control = {"runs": [], "gate": None, "fail": False, "sleep": 0.0}

    def run(ctx):
        control["runs"].append(ctx.profile.seed)
        if control["gate"] is not None:
            assert control["gate"].wait(10.0), "toy study gate never opened"
        if control["sleep"]:
            time.sleep(control["sleep"])
        if control["fail"]:
            raise ValueError("toy study exploded")
        table = ResultTable(
            (("seed", "int"), ("value", "float")), meta={"study": TOY}
        )
        table.append(seed=ctx.profile.seed, value=ctx.profile.seed * 1.5)
        return table

    register(Study(
        name=TOY, title="toy serve study", params=("seed",),
        run=run, render=lambda t: f"toy: {len(t)} rows",
    ))
    try:
        yield control
    finally:
        _REGISTRY.pop(TOY, None)


def _spec(seed=0, **kw):
    return JobSpec(TOY, profile=Profile(seed=seed), **kw)


class TestJobSpec:
    def test_validates_at_construction(self, toy_study):
        with pytest.raises(ConfigurationError, match="unknown study"):
            JobSpec("nope")
        with pytest.raises(ConfigurationError, match="--workers"):
            JobSpec(TOY, workers=2)  # direct study
        with pytest.raises(ConfigurationError, match="timeout_s"):
            JobSpec(TOY, timeout_s=0)
        with pytest.raises(ConfigurationError, match="engine"):
            JobSpec("table1", engine="fast")  # not engine-aware

    def test_dict_round_trip(self, toy_study):
        spec = _spec(seed=7, timeout_s=9.0)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_junk(self, toy_study):
        with pytest.raises(ConfigurationError, match="unknown job spec"):
            JobSpec.from_dict({"study": TOY, "bogus": 1})
        with pytest.raises(ConfigurationError, match="needs a 'study'"):
            JobSpec.from_dict({})
        with pytest.raises(ConfigurationError, match="unknown profile"):
            JobSpec.from_dict({"study": TOY, "profile": {"nope": 1}})
        with pytest.raises(ConfigurationError, match="JSON object"):
            JobSpec.from_dict([])

    @pytest.mark.parametrize("workers", [0, -1, "2", 1.5, True])
    def test_bad_workers_rejected_at_construction(self, workers):
        with pytest.raises(ConfigurationError, match="workers must be >= 1"):
            JobSpec("fleet", workers=workers)

    def test_dedup_key_is_the_store_table_key(self, toy_study):
        spec = _spec(seed=3)
        assert spec.dedup_key() == study_table_key(
            TOY, Profile(seed=3), "reference"
        )
        # Execution options do not enter the key (bit-identity contract).
        assert _spec(seed=3, timeout_s=5.0).dedup_key() == spec.dedup_key()
        assert _spec(seed=4).dedup_key() != spec.dedup_key()


class TestDedup:
    def test_inflight_coalesce_shares_one_execution(self, toy_study):
        gate = threading.Event()
        toy_study["gate"] = gate
        svc = StudyService(workers=2)
        a = svc.submit(_spec())
        # Wait until the execution has actually started (recorded a run)
        # so the duplicate must coalesce, not race.
        deadline = time.monotonic() + 5
        while not toy_study["runs"] and time.monotonic() < deadline:
            time.sleep(0.005)
        b = svc.submit(_spec())
        assert b.coalesced_into == a.id
        gate.set()
        ta = svc.result(a.id, timeout=10)
        tb = svc.result(b.id, timeout=10)
        assert ta is tb
        assert toy_study["runs"] == [0]
        assert svc.job(b.id).from_cache is True
        counters = svc.counters()
        assert counters["submitted"] == 2
        assert counters["executions"] == 1
        assert counters["dedup_hits"] == 1
        svc.close()

    def test_completed_table_cache_hit(self, toy_study):
        svc = StudyService(workers=1)
        a = svc.submit(_spec(seed=5))
        ta = svc.result(a.id, timeout=10)
        b = svc.submit(_spec(seed=5))
        assert b.state == DONE  # resolved synchronously at submit
        assert b.from_cache is True
        assert svc.result(b.id) is ta
        assert toy_study["runs"] == [5]
        assert svc.counters()["dedup_hits"] == 1
        svc.close()

    def test_table_cache_zero_disables_completion_dedup(self, toy_study):
        svc = StudyService(workers=1, table_cache=0)
        svc.result(svc.submit(_spec()).id, timeout=10)
        svc.result(svc.submit(_spec()).id, timeout=10)
        assert toy_study["runs"] == [0, 0]
        assert svc.counters()["dedup_hits"] == 0
        svc.close()


class TestLifecycleEdges:
    def test_submit_after_shutdown_is_typed_error(self, toy_study):
        svc = StudyService(workers=1)
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.submit(_spec())
        # Idempotent close.
        svc.close()

    def test_failed_job_captures_traceback(self, toy_study):
        toy_study["fail"] = True
        svc = StudyService(workers=1)
        job = svc.submit(_spec())
        with pytest.raises(JobFailedError, match="toy study exploded"):
            svc.result(job.id, timeout=10)
        assert svc.job(job.id).state == FAILED
        assert "Traceback" in svc.job(job.id).error
        assert "ValueError" in svc.job(job.id).error
        # Failures are not cached: the next submission re-executes.
        toy_study["fail"] = False
        table = svc.result(svc.submit(_spec()).id, timeout=10)
        assert table.row(0)["seed"] == 0
        assert svc.counters()["dedup_hits"] == 0
        svc.close()

    def test_timeout_fails_job_with_traceback(self, toy_study):
        toy_study["sleep"] = 5.0
        svc = StudyService(workers=1)
        job = svc.submit(_spec(timeout_s=0.2))
        with pytest.raises(JobFailedError, match="exceeded its 0.2s"):
            svc.result(job.id, timeout=10)
        assert svc.job(job.id).state == FAILED
        assert "TimeoutError" in svc.job(job.id).error
        svc.close(timeout=10)

    def test_cancel_queued_job_never_runs(self, toy_study):
        gate = threading.Event()
        toy_study["gate"] = gate
        svc = StudyService(workers=1)
        blocker = svc.submit(_spec(seed=0))
        queued = svc.submit(_spec(seed=1))
        assert queued.state == QUEUED
        assert svc.cancel(queued.id) is True
        gate.set()
        svc.result(blocker.id, timeout=10)
        svc.close()
        assert svc.job(queued.id).state == CANCELLED
        assert 1 not in toy_study["runs"]
        with pytest.raises(JobFailedError, match="cancelled"):
            svc.result(queued.id)

    def test_cancel_running_job_refused(self, toy_study):
        gate = threading.Event()
        toy_study["gate"] = gate
        svc = StudyService(workers=1)
        job = svc.submit(_spec())
        deadline = time.monotonic() + 5
        while not toy_study["runs"] and time.monotonic() < deadline:
            time.sleep(0.005)
        assert svc.cancel(job.id) is False
        gate.set()
        svc.result(job.id, timeout=10)
        svc.close()

    def test_result_wait_timeout(self, toy_study):
        gate = threading.Event()
        toy_study["gate"] = gate
        svc = StudyService(workers=1)
        job = svc.submit(_spec())
        with pytest.raises(ConfigurationError, match="still"):
            svc.result(job.id, timeout=0.05)
        gate.set()
        svc.result(job.id, timeout=10)
        svc.close()

    def test_close_drains_queued_work(self, toy_study):
        toy_study["sleep"] = 0.05
        svc = StudyService(workers=1)
        jobs = [svc.submit(_spec(seed=s)) for s in range(4)]
        svc.close(drain=True)
        assert [svc.job(j.id).state for j in jobs] == [DONE] * 4
        assert sorted(toy_study["runs"]) == [0, 1, 2, 3]

    def test_close_without_drain_cancels_queue(self, toy_study):
        gate = threading.Event()
        toy_study["gate"] = gate
        svc = StudyService(workers=1)
        running = svc.submit(_spec(seed=0))
        queued = [svc.submit(_spec(seed=s)) for s in (1, 2)]
        deadline = time.monotonic() + 5
        while not toy_study["runs"] and time.monotonic() < deadline:
            time.sleep(0.005)
        gate.set()
        svc.close(drain=False, timeout=10)
        assert svc.job(running.id).state == DONE  # running jobs finish
        assert [svc.job(j.id).state for j in queued] == [CANCELLED] * 2
        assert sorted(toy_study["runs"]) == [0]


class TestDurableStore:
    def test_shutdown_persists_completed_work(self, tmp_path, toy_study):
        """Graceful shutdown mid-queue loses nothing: every job that
        completed is in the store's archive after reopen."""
        store = ResultStore(tmp_path / "srv")
        svc = StudyService(workers=2, store=store)
        jobs = [svc.submit(_spec(seed=s)) for s in range(4)]
        svc.close(drain=True)
        done_keys = [j.key for j in jobs if svc.job(j.id).state == DONE]
        assert len(done_keys) == 4

        reopened = ResultStore(tmp_path / "srv")
        for key in done_keys:
            assert reopened.load_table(key) is not None

    def test_restarted_service_serves_from_archive(self, tmp_path, toy_study):
        store = ResultStore(tmp_path / "srv")
        with StudyService(workers=1, store=store) as svc:
            original = svc.result(svc.submit(_spec(seed=2)).id, timeout=10)
        assert toy_study["runs"] == [2]

        # A fresh service over the same store: the table comes from the
        # archive, bit-identically, without executing the study again.
        with StudyService(workers=1, store=ResultStore(tmp_path / "srv")) \
                as svc2:
            job = svc2.submit(_spec(seed=2))
            table = svc2.result(job.id, timeout=10)
            assert svc2.job(job.id).from_cache is True
        assert toy_study["runs"] == [2]  # no second execution
        assert table.to_json() == original.to_json()


class TestAcceptanceIntegration:
    def test_eight_clients_mixed_jobs_exact_dedup(self, toy_study):
        """The ISSUE acceptance: 8 concurrent clients, 4 distinct specs
        submitted twice each, byte-equal tables vs serial run_study,
        exact dedup accounting, graceful shutdown."""
        toy_study["sleep"] = 0.02
        seeds = [0, 0, 1, 1, 2, 2, 3, 3]
        serial = {
            s: run_study(TOY, profile=Profile(seed=s)).table.to_json()
            for s in set(seeds)
        }
        runs_before = len(toy_study["runs"])

        obs.reset()
        obs.enable()
        try:
            svc = StudyService(workers=4)
            barrier = threading.Barrier(len(seeds))
            tables = [None] * len(seeds)
            errors = []

            def client(i):
                try:
                    barrier.wait()
                    job = svc.submit(_spec(seed=seeds[i]))
                    tables[i] = svc.result(job.id, timeout=30)
                except BaseException as exc:
                    errors.append(exc)

            pool = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(seeds))
            ]
            for t in pool:
                t.start()
            for t in pool:
                t.join()
            assert not errors, errors

            # Byte-equal against the serial executor, every submission.
            for i, seed in enumerate(seeds):
                assert tables[i].to_json() == serial[seed]

            # Exact accounting: 8 submitted, 4 executed, 4 dedup hits —
            # regardless of how the threads interleaved.
            counters = svc.counters()
            assert counters["submitted"] == 8
            assert counters["executions"] == 4
            assert counters["dedup_hits"] == 4
            assert counters["completed"] == 8
            assert len(toy_study["runs"]) - runs_before == 4

            # The obs counters at serialized sites agree exactly.
            snap = obs.snapshot()
            assert snap["counters"]["serve.jobs_submitted"] == 8
            assert snap["counters"]["serve.dedup_hits"] == 4
            assert snap["counters"]["serve.executions"] == 4
            assert snap["counters"]["serve.jobs_completed"] == 8
            assert snap["durations"]["serve.queue_wait"]["count"] == 4
            svc.close()
        finally:
            obs.reset()
            obs.disable()

    def test_real_study_concurrent_vs_serial_bits(self):
        """fig8 (a real, engine-aware study) through the service equals
        the serial executor byte for byte."""
        serial = run_study("fig8", engine="fast").table.to_json()
        with StudyService(workers=2) as svc:
            a = svc.submit(JobSpec("fig8", engine="fast"))
            b = svc.submit(JobSpec("fig8", engine="fast"))
            ta = svc.result(a.id, timeout=60)
            tb = svc.result(b.id, timeout=60)
            assert svc.counters()["executions"] == 1
        assert ta.to_json() == serial
        assert tb.to_json() == serial


class TestWorkerProcesses:
    """Fleet-executed jobs run in the service's spawned worker processes."""

    SPEC = dict(engine="fast", parallel=False)

    def test_obs_counts_cross_the_process_boundary(self):
        """/metrics counts a worker's fleet scenarios as in-process."""
        obs.reset()
        obs.enable()
        try:
            run_study("fig7", **self.SPEC)
            expected = obs.snapshot()["counters"]["fleet.scenarios"]
            obs.reset()
            with StudyService(workers=1) as svc:
                svc.run(JobSpec("fig7", **self.SPEC), timeout=120)
                counters = svc.metrics()["counters"]
            assert counters["fleet.scenarios"] == expected
            assert counters["serve.worker_starts"] == 1
        finally:
            obs.reset()
            obs.disable()

    def test_obs_gauges_keep_the_last_value(self):
        """A gauge (here the fleet pool size) is set, not summed, per job."""
        obs.reset()
        obs.enable()
        try:
            with StudyService(workers=1) as svc:
                for seed in (1, 2):
                    svc.run(JobSpec("sweep-trace", engine="fast", workers=2,
                                    profile=Profile(seed=seed)), timeout=120)
                gauges = svc.metrics()["gauges"]
            assert gauges["fleet.workers"] == 2
        finally:
            obs.reset()
            obs.disable()

    def test_obs_off_ships_nothing(self):
        with StudyService(workers=1) as svc:
            svc.run(JobSpec("sweep-trace", **self.SPEC), timeout=120)
            assert svc.metrics()["counters"] == {}

    def test_pooled_jobs_equal_serial_run_study(self):
        """Jobs that fork a fleet pool (from the single-threaded worker)
        keep the bits of serial run_study."""
        seeds = (1, 2, 3)
        with StudyService(workers=2) as svc:
            jobs = [
                svc.submit(JobSpec("sweep-trace", engine="fast", workers=2,
                                   profile=Profile(seed=s)))
                for s in seeds
            ]
            tables = [svc.result(j.id, timeout=120) for j in jobs]
        for seed, table in zip(seeds, tables):
            serial = run_study("sweep-trace", engine="fast", parallel=False,
                               profile=Profile(seed=seed))
            assert table.to_json() == serial.table.to_json()

    def test_store_streams_through_the_worker(self, tmp_path):
        """The worker's scenario results and table reach the service's
        store; a restarted service serves the table from the archive."""
        spec = JobSpec("sweep-trace", profile=Profile(seed=4), **self.SPEC)
        with StudyService(workers=1, store=ResultStore(tmp_path / "s")) \
                as svc:
            first = svc.run(spec, timeout=120)
        reopened = ResultStore(tmp_path / "s")
        assert len(reopened) == len(first)  # one scenario per row
        with StudyService(workers=1, store=reopened) as svc:
            job = svc.submit(spec)
            again = svc.result(job.id, timeout=120)
            assert svc.job(job.id).from_cache is True
        assert again.to_json() == first.to_json()

    def test_worker_exception_carries_its_traceback(self):
        """An exception in the worker fails the job with the worker's
        traceback; its type survives the pipe (so retry still sees it)."""
        from repro.faults import FaultPlan, FaultRule, RetryPolicy, inject

        inject.install(FaultPlan((
            FaultRule(site="fleet.model_build", kind="exception",
                      probability=1.0, times=None),
        )))
        try:
            with StudyService(workers=1,
                              retry=RetryPolicy(max_attempts=1)) as svc:
                job = svc.submit(JobSpec("sweep-trace", **self.SPEC))
                with pytest.raises(JobFailedError,
                                   match="injected exception"):
                    svc.result(job.id, timeout=120)
                error = svc.job(job.id).error
        finally:
            inject.uninstall()
        assert "prepare_models" in error  # a frame from the worker
        assert "FaultInjected" in error

    def test_timeout_terminates_the_worker(self):
        from repro.faults import RetryPolicy

        with StudyService(workers=1, retry=RetryPolicy(max_attempts=1)) \
                as svc:
            job = svc.submit(JobSpec("sweep-trace", timeout_s=0.001,
                                     **self.SPEC))
            with pytest.raises(JobFailedError, match="timeout"):
                svc.result(job.id, timeout=120)
            # The next job respawns the worker and runs to the same bits.
            table = svc.run(JobSpec("sweep-trace", **self.SPEC), timeout=120)
        serial = run_study("sweep-trace", **self.SPEC).table
        assert table.to_json() == serial.to_json()


class TestJobRetention:
    def test_finished_jobs_are_bounded(self, toy_study, monkeypatch):
        from repro.errors import JobEvictedError
        from repro.serve import queue

        monkeypatch.setattr(queue, "MAX_FINISHED_JOBS", 3)
        with StudyService(workers=1) as svc:
            jobs = [svc.submit(_spec(seed=s)) for s in range(5)]
            for job in jobs:
                job.wait(10)
            assert [j.id for j in svc.jobs()] == [j.id for j in jobs[2:]]
            with pytest.raises(JobEvictedError, match="evicted"):
                svc.job(jobs[0].id)
            with pytest.raises(ConfigurationError, match="unknown job"):
                svc.job("job-000099")

    def test_evicted_job_is_410_over_http(self, toy_study, monkeypatch):
        import urllib.error
        import urllib.request

        from repro.serve import queue

        monkeypatch.setattr(queue, "MAX_FINISHED_JOBS", 1)
        svc = StudyService(workers=1)
        server = serve_http(svc)
        try:
            client = ServeClient(server.url)
            old = client.submit(_spec(seed=1))
            client.wait(old["id"], timeout=10)
            new = client.submit(_spec(seed=2))
            client.wait(new["id"], timeout=10)
            for path in (f"/jobs/{old['id']}", f"/jobs/{old['id']}/result"):
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(server.url + path)
                assert err.value.code == 410
                assert "evicted" in json.loads(err.value.read())["error"]
            assert client.job(new["id"])["state"] == "done"
        finally:
            server.shutdown()
            svc.close()

    def test_bound_exceeds_a_serve_round(self):
        """The benchmark's 50-job serve round never evicts a job."""
        from repro.serve.queue import MAX_FINISHED_JOBS

        assert MAX_FINISHED_JOBS > 50


class TestHTTP:
    @pytest.fixture
    def server(self, toy_study):
        svc = StudyService(workers=2)
        server = serve_http(svc)
        try:
            yield server
        finally:
            server.shutdown()
            svc.close()

    def test_submit_wait_result_round_trip(self, server):
        client = ServeClient(server.url)
        job = client.submit(_spec(seed=4))
        assert job["study"] == TOY
        final = client.wait(job["id"], timeout=10)
        assert final["state"] == "done"
        table = client.result(job["id"])
        assert table.row(0)["seed"] == 4
        assert table.row(0)["value"] == 6.0

    def test_dedup_over_http_is_byte_equal(self, server):
        client = ServeClient(server.url)
        a = client.submit(_spec(seed=1))
        client.wait(a["id"], timeout=10)
        b = client.submit(_spec(seed=1))
        assert b["dedup"] is True
        assert client.result_json(a["id"]) == client.result_json(b["id"])

    def test_bad_spec_is_400_configuration_error(self, server):
        client = ServeClient(server.url)
        with pytest.raises(ConfigurationError, match="unknown study"):
            client.submit({"study": "nope"})
        with pytest.raises(ConfigurationError, match="unknown job spec"):
            client.submit({"study": TOY, "bogus": 1})

    @pytest.mark.parametrize("profile", [{"tasks": 5}, {"corpus": 5}])
    def test_non_iterable_profile_list_is_400(self, server, profile):
        client = ServeClient(server.url)
        with pytest.raises(ConfigurationError, match="bad job spec"):
            client.submit({"study": "fleet", "profile": profile})

    @pytest.mark.parametrize("workers", [0, "2"])
    def test_bad_workers_is_400_at_submit(self, server, workers):
        client = ServeClient(server.url)
        with pytest.raises(ConfigurationError, match="workers must be >= 1"):
            client.submit({"study": "fleet", "workers": workers})
        assert client.health()["counters"]["submitted"] == 0

    def test_unknown_job_is_404(self, server):
        client = ServeClient(server.url)
        with pytest.raises(ConfigurationError, match="unknown job"):
            client.job("job-999999")
        with pytest.raises(ConfigurationError, match="unknown job"):
            client.result("job-999999")

    def test_result_before_done_is_409(self, server, toy_study):
        gate = threading.Event()
        toy_study["gate"] = gate
        client = ServeClient(server.url)
        job = client.submit(_spec())
        with pytest.raises(ConfigurationError, match="not ready"):
            client.result_json(job["id"])
        gate.set()
        # ?timeout= waits server-side instead of erroring.
        table = client.result(job["id"], timeout=10)
        assert len(table) == 1

    def test_failed_job_surfaces_as_job_failed(self, server, toy_study):
        toy_study["fail"] = True
        client = ServeClient(server.url)
        job = client.submit(_spec())
        client.wait(job["id"], timeout=10)
        with pytest.raises(JobFailedError, match="toy study exploded"):
            client.result(job["id"])

    def test_cancel_routes(self, server, toy_study):
        gate = threading.Event()
        toy_study["gate"] = gate
        client = ServeClient(server.url)
        # Saturate both service workers so the third submission queues.
        running = [client.submit(_spec(seed=s)) for s in (0, 1)]
        deadline = time.monotonic() + 5
        while len(toy_study["runs"]) < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        queued = client.submit(_spec(seed=2))
        cancelled = client.cancel(queued["id"])
        assert cancelled["id"] == queued["id"]
        with pytest.raises(ReproError, match="too late"):
            client.cancel(running[0]["id"])
        gate.set()
        for job in running:
            client.wait(job["id"], timeout=10)

    def test_healthz_and_jobs_listing(self, server):
        client = ServeClient(server.url)
        job = client.submit(_spec(seed=9))
        client.wait(job["id"], timeout=10)
        health = client.health()
        assert health["ok"] is True
        assert health["counters"]["submitted"] >= 1
        # The enriched payload: depth, worker liveness, retry posture —
        # everything an operator needs to tell "idle" from "wedged".
        assert health["queue_depth"] == health["counters"]["queued"] == 0
        assert health["inflight"] == 0
        assert health["workers"] == 2
        assert health["workers_alive"] == 2
        assert health["retry"]["max_attempts"] >= 1
        assert health["retry"]["retried"] == 0
        listed = client.jobs()
        assert any(j["id"] == job["id"] for j in listed)

    def test_metrics_endpoint_is_schema_valid(self, server):
        from repro.obs.snapshot import validate_snapshot

        snap = ServeClient(server.url).metrics()
        validate_snapshot(snap)  # raises on schema violations

    def test_404_on_unknown_route(self, server):
        import urllib.error
        import urllib.request

        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/nope")
        assert err.value.code == 404

    @staticmethod
    def _post_with_length(server, content_length):
        """POST /jobs declaring ``content_length`` and sending no body;
        returns (status, decoded JSON error payload)."""
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10)
        try:
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", content_length)
            conn.endheaders()
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def test_non_integer_content_length_is_400(self, server):
        status, payload = self._post_with_length(server, "twelve")
        assert status == 400
        assert payload["type"] == "ConfigurationError"
        assert "Content-Length" in payload["error"]

    def test_negative_content_length_is_400_without_blocking(self, server):
        status, payload = self._post_with_length(server, "-1")
        assert status == 400
        assert "non-negative" in payload["error"]

    def test_oversized_body_is_413_without_reading(self, server):
        from repro.serve.http import MAX_BODY_BYTES

        status, payload = self._post_with_length(server,
                                                 str(MAX_BODY_BYTES + 1))
        assert status == 413
        assert str(MAX_BODY_BYTES) in payload["error"]
        # The server is still healthy and accepts a normal submission.
        client = ServeClient(server.url)
        job = client.submit(_spec(seed=2))
        assert client.wait(job["id"], timeout=10)["state"] == "done"

    def test_submit_after_close_is_503(self, toy_study):
        svc = StudyService(workers=1)
        server = serve_http(svc)
        try:
            svc.close()
            client = ServeClient(server.url)
            with pytest.raises(ServiceClosedError):
                client.submit(_spec())
        finally:
            server.shutdown()


class TestJobResource:
    def test_to_dict_shape(self, toy_study):
        with StudyService(workers=1) as svc:
            job = svc.submit(_spec(seed=3))
            svc.result(job.id, timeout=10)
            payload = svc.job(job.id).to_dict()
        assert payload["id"] == job.id
        assert payload["study"] == TOY
        assert payload["state"] == DONE
        assert payload["dedup"] is False
        assert payload["error"] is None
        assert payload["finished_s"] >= payload["created_s"]
        json.dumps(payload)  # JSON-serializable as a whole
