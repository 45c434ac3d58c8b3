"""The observability plane end to end: every front end exposes the same
metrics in both forms, traced requests return spans, and the scrape
verb works against a live server."""

from __future__ import annotations

import asyncio
import io
import json
import time
import urllib.error
import urllib.request
from contextlib import redirect_stdout

import pytest

from repro.__main__ import main as cli_main
from repro.client import AsyncHttpClient, HttpClient, parse_text
from repro.obs import PROMETHEUS_CONTENT_TYPE, parse_prometheus, sample_value
from repro.server.aio import start_async_background
from repro.server.httpd import start_background
from repro.server.service import DisclosureService

CHINESE_WALL = [["user_birthday", "public_profile"], ["user_likes"]]
BIRTHDAY = "SELECT birthday FROM user WHERE uid = me()"
MUSIC = "SELECT music FROM user WHERE uid = me()"


@pytest.fixture()
def service(views, schema):
    service = DisclosureService(views, schema=schema)
    service.register("app", CHINESE_WALL)
    return service


@pytest.fixture()
def stdlib_server(service):
    server, _thread = start_background(service)
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", service
    server.shutdown()
    server.server_close()


@pytest.fixture()
def async_server(service):
    handle = start_async_background(service)
    yield f"http://{handle.host}:{handle.port}", service
    handle.stop()


def _get(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.headers.get("Content-Type"), response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("Content-Type"), error.read()


def _post(url, body):
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def _drive_traffic(base_url):
    _post(f"{base_url}/v1/query", {"principal": "app", "fql": BIRTHDAY})
    _post(f"{base_url}/v1/query", {"principal": "app", "fql": MUSIC})
    _post(f"{base_url}/v1/peek", {"principal": "app", "fql": BIRTHDAY})


def _assert_forms_agree(base_url):
    """The core acceptance property: the Prometheus exposition parses
    with the in-repo parser and agrees with the JSON form on every
    counter and histogram count."""
    status, _, raw = _get(f"{base_url}/metrics")
    assert status == 200
    snapshot = json.loads(raw)
    status, content_type, text = _get(f"{base_url}/metrics?format=prometheus")
    assert status == 200
    assert content_type == PROMETHEUS_CONTENT_TYPE
    parsed = parse_prometheus(text.decode())

    for key in ("decisions", "accepted", "refused", "peeks"):
        assert sample_value(parsed, f"repro_{key}_total") == snapshot[key], key
    assert (
        sample_value(parsed, "repro_request_latency_seconds_count")
        == snapshot["latency"]["count"]
    )
    for vec in snapshot["registry"]["vectors"]:
        for row in vec["series"]:
            if vec["kind"] == "histogram":
                got = sample_value(parsed, vec["name"] + "_count", row["labels"])
                assert got == row["histogram"]["count"], vec["name"]
            elif vec["name"] == "repro_requests_total":
                # This family counts requests *including these scrapes*,
                # so the later exposition legitimately reads higher.
                got = sample_value(parsed, vec["name"], row["labels"])
                assert got is not None and got >= row["value"], row["labels"]
            else:
                got = sample_value(parsed, vec["name"], row["labels"])
                assert got == row["value"], vec["name"]
    return snapshot, parsed


class TestStdlibFrontEnd:
    def test_prometheus_agrees_with_json(self, stdlib_server):
        base_url, _ = stdlib_server
        _drive_traffic(base_url)
        snapshot, parsed = _assert_forms_agree(base_url)
        assert snapshot["decisions"] == 2 and snapshot["peeks"] == 1
        # Tenant accounting reached the labeled vectors at scrape time.
        assert sample_value(
            parsed, "repro_tenant_decisions_total", {"tenant": "app"}
        ) == 2

    def test_accept_negotiation(self, stdlib_server):
        base_url, _ = stdlib_server
        status, content_type, _ = _get(
            f"{base_url}/metrics", {"Accept": "text/plain"}
        )
        assert status == 200 and content_type == PROMETHEUS_CONTENT_TYPE
        status, content_type, raw = _get(
            f"{base_url}/metrics", {"Accept": "application/json"}
        )
        assert status == 200 and "json" in content_type
        json.loads(raw)
        # An explicit query parameter always beats the Accept header.
        status, content_type, raw = _get(
            f"{base_url}/metrics?format=json", {"Accept": "text/plain"}
        )
        assert status == 200 and "json" in content_type
        # Prometheus scrapers send a wildcard tail; that must not flip
        # a JSON-indicating Accept into the text form.
        status, _, text = _get(
            f"{base_url}/metrics",
            {"Accept": "text/plain;version=0.0.4;q=0.5, */*;q=0.1"},
        )
        assert status == 200
        parse_prometheus(text.decode())

    def test_unknown_format_is_rejected(self, stdlib_server):
        base_url, _ = stdlib_server
        status, _, raw = _get(f"{base_url}/metrics?format=xml")
        assert status == 400
        assert "format" in json.loads(raw)["error"]

    def test_stage_histograms_populate(self, stdlib_server):
        base_url, _ = stdlib_server
        _drive_traffic(base_url)
        _, parsed = _assert_forms_agree(base_url)
        # The countdown starts at 1, so the very first decision samples
        # every stage even at the default 1-in-64 rate.
        for stage in ("canonicalize", "label", "mask", "outcome"):
            count = sample_value(
                parsed, "repro_kernel_stage_seconds_count", {"stage": stage}
            )
            assert count is not None and count >= 1, stage


class TestAsyncFrontEnd:
    def test_route_parity_with_stdlib(self, async_server):
        """The asyncio front end serves the same observability routes
        with the same shapes: /metrics in both forms, negotiation,
        rejection, and the trace ring."""
        base_url, _ = async_server
        _drive_traffic(base_url)
        _assert_forms_agree(base_url)
        status, content_type, _ = _get(
            f"{base_url}/metrics", {"Accept": "text/plain"}
        )
        assert status == 200 and content_type == PROMETHEUS_CONTENT_TYPE
        status, _, raw = _get(f"{base_url}/metrics?format=xml")
        assert status == 400 and "format" in json.loads(raw)["error"]
        status, _, raw = _get(f"{base_url}/internal/trace")
        assert status == 200
        ring = json.loads(raw)
        assert set(ring) >= {"capacity", "recorded", "dropped", "traces"}

    def test_prometheus_agrees_after_v2_traffic(self, async_server, schema):
        base_url, _ = async_server
        birthday = parse_text(BIRTHDAY, "fql", schema=schema)

        async def drive():
            client = AsyncHttpClient(base_url)
            await asyncio.gather(*[client.peek("app", birthday) for _ in range(9)])
            await client.close()

        asyncio.run(drive())
        snapshot, _ = _assert_forms_agree(base_url)
        assert snapshot["peeks"] == 9


class TestPooledFrontEnd:
    def test_merged_prometheus_agrees_with_merged_json(self, views, schema):
        from repro.server.pool import start_pooled_background

        handle = start_pooled_background(
            2, service_kwargs={"security_views": views, "schema": schema}
        )
        base_url = f"http://{handle.host}:{handle.port}"
        try:
            for principal in ("app", "other"):
                _post(
                    f"{base_url}/v1/register",
                    {"principal": principal, "policy": CHINESE_WALL},
                )
            for principal in ("app", "other") * 3:
                _post(
                    f"{base_url}/v1/query",
                    {"principal": principal, "fql": BIRTHDAY},
                )
            snapshot, parsed = _assert_forms_agree(base_url)
            assert snapshot["decisions"] == 6
            assert snapshot["replica_count"] == 2
            # The merged totals equal the sum over the replicas.
            replica_total = sum(
                replica["decisions"] for replica in snapshot["replicas"]
            )
            assert sample_value(parsed, "repro_decisions_total") == replica_total
        finally:
            handle.stop()

    def test_trace_ring_records_pooled_requests(self, views, schema):
        """Replicas only decide: the front end builds every span and
        records it in its own ring, which ``/internal/trace`` serves."""
        from repro.server.pool import start_pooled_background

        handle = start_pooled_background(
            2, service_kwargs={"security_views": views, "schema": schema}
        )
        base_url = f"http://{handle.host}:{handle.port}"
        try:
            _post(
                f"{base_url}/v1/register",
                {"principal": "app", "policy": CHINESE_WALL},
            )
            client = HttpClient(base_url, trace=True)
            started = time.perf_counter()
            decision = client.submit(
                "app", parse_text(BIRTHDAY, "fql", schema=schema)
            )
            wall = time.perf_counter() - started
            client.close()
            status, _, raw = _get(f"{base_url}/internal/trace")
        finally:
            handle.stop()
        span = decision["trace"]
        assert span["transport"] == "async"
        _span_is_sane(span, wall)
        assert status == 200
        ring = json.loads(raw)
        assert ring["capacity"] == handle.service.traces.capacity
        assert ring["recorded"] == 1
        assert ring["traces"][0]["principal"] == "app"


def _span_is_sane(span, wall_seconds):
    stage_sum_us = span["label_us"] + span["decide_us"] + span["serialize_us"]
    assert stage_sum_us <= span["total_us"] + span["serialize_us"] + 1.0
    assert span["total_us"] <= wall_seconds * 1e6
    assert span["queue_us"] >= 0.0
    assert span["coalesced"] >= 1


class TestTracing:
    def test_traced_v2_request_on_the_stdlib_front_end(
        self, stdlib_server, schema
    ):
        base_url, service = stdlib_server
        birthday = parse_text(BIRTHDAY, "fql", schema=schema)
        client = HttpClient(base_url, trace=True)
        started = time.perf_counter()
        decision = client.submit("app", birthday)
        wall = time.perf_counter() - started
        span = decision["trace"]
        assert span["transport"] == "http"
        assert span["principal"] == "app"
        assert span["peek"] is False
        _span_is_sane(span, wall)
        ring = service.traces.snapshot()
        assert ring["recorded"] == 1
        assert ring["traces"][0]["principal"] == "app"

    def test_traced_v2_request_through_the_async_client(
        self, async_server, schema
    ):
        base_url, service = async_server
        birthday = parse_text(BIRTHDAY, "fql", schema=schema)

        async def drive():
            client = AsyncHttpClient(base_url, trace=True)
            started = time.perf_counter()
            decision = await client.submit("app", birthday)
            wall = time.perf_counter() - started
            untraced = await client.peek("app", birthday, trace=False)
            await client.close()
            return decision, wall, untraced

        decision, wall, untraced = asyncio.run(drive())
        span = decision["trace"]
        assert span["transport"] == "async"
        assert span["qid"] is not None
        _span_is_sane(span, wall)
        assert "trace" not in untraced
        ring = service.traces.snapshot()
        assert ring["recorded"] == 1

    def test_sampled_tracing_traces_one_in_n(self, async_server, schema):
        base_url, service = async_server
        birthday = parse_text(BIRTHDAY, "fql", schema=schema)

        async def drive():
            client = AsyncHttpClient(base_url, trace=3)
            decisions = []
            for _ in range(9):  # sequential: deterministic countdown
                decisions.append(await client.peek("app", birthday))
            await client.close()
            return decisions

        decisions = asyncio.run(drive())
        traced = [d for d in decisions if "trace" in d]
        assert len(traced) == 3
        assert service.traces.snapshot()["recorded"] == 3


class TestMetricsCli:
    def test_summary_and_prometheus_forms(self, stdlib_server):
        base_url, _ = stdlib_server
        _drive_traffic(base_url)
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(["metrics", "--url", base_url])
        assert code == 0
        assert "decisions" in buffer.getvalue()

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(["metrics", "--url", base_url, "--prometheus"])
        assert code == 0
        parsed = parse_prometheus(buffer.getvalue())
        assert sample_value(parsed, "repro_decisions_total") == 2

    def test_unreachable_server_fails_cleanly(self):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(["metrics", "--url", "http://127.0.0.1:9"])
        assert code == 1
