"""The DecisionClient surface: local and HTTP transports, negotiation,
qid-delta sync, and resync after a server that lost its generations."""

from __future__ import annotations

import pytest

from repro.client import ClientError, HttpClient, LocalClient, parse_text
from repro.server.httpd import dispatch, make_server, start_background
from repro.server.service import DisclosureService
from repro.server.wire2 import gateway_for

CHINESE_WALL = [["user_birthday", "public_profile"], ["user_likes"]]

BIRTHDAY = "SELECT birthday FROM user WHERE uid = me()"
MUSIC = "SELECT music FROM user WHERE uid = me()"


@pytest.fixture()
def service(views, schema):
    service = DisclosureService(views, schema=schema)
    service.register("app", CHINESE_WALL)
    return service


@pytest.fixture()
def queries(schema):
    return {
        "birthday": parse_text(BIRTHDAY, "fql", schema=schema),
        "music": parse_text(MUSIC, "fql", schema=schema),
    }


@pytest.fixture()
def http_server(service):
    server, _thread = start_background(service)
    yield server
    server.shutdown()
    server.server_close()


def _url(server) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


class TestLocalClient:
    def test_submit_peek_cycle(self, service, queries):
        client = LocalClient(service)
        first = client.submit("app", queries["birthday"])
        assert first["accepted"] is True and first["live_after"] == 1
        peeked = client.peek("app", queries["music"])
        assert peeked["accepted"] is False
        assert peeked["live_after"] == peeked["live_before"] == 1

    def test_submit_many_matches_sequential_submits(self, views, queries):
        a = DisclosureService(views)
        b = DisclosureService(views)
        for service in (a, b):
            service.register("app", CHINESE_WALL)
        stream = [
            ("app", queries["birthday"]),
            ("app", queries["music"]),
            ("app", queries["birthday"]),
        ]
        sequential = [
            LocalClient(a).submit(principal, query)
            for principal, query in stream
        ]
        batched = LocalClient(b).submit_many(stream)
        assert batched == sequential

    def test_unknown_principal_raises_single_isolates_batch(
        self, service, queries
    ):
        client = LocalClient(service)
        with pytest.raises(ClientError) as excinfo:
            client.submit("ghost", queries["birthday"])
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown-principal"
        results = client.submit_many(
            [("ghost", queries["birthday"]), ("app", queries["birthday"])]
        )
        assert results[0]["code"] == "unknown-principal"
        assert results[1]["accepted"] is True

    def test_decide_group_and_peek_many(self, service, queries):
        client = LocalClient(service)
        group = client.decide_group(
            "app", [queries["birthday"], queries["music"]]
        )
        assert [d["accepted"] for d in group] == [True, False]
        peeks = client.peek_many(
            [("app", queries["birthday"]), ("app", queries["music"])]
        )
        # Peeks are independent probes against the committed state.
        assert [d["accepted"] for d in peeks] == [True, False]

    def test_register_reset_metrics_snapshot(self, service, queries):
        client = LocalClient(service)
        client.register("other", [["user_likes"]])
        assert client.submit("other", queries["music"])["accepted"] is True
        client.submit("app", queries["birthday"])
        client.reset("app")
        assert client.submit("app", queries["music"])["accepted"] is True
        metrics = client.metrics()
        assert metrics["decisions"] == 3
        snapshot = client.snapshot()
        assert set(snapshot["sessions"]["sessions"]) == {"app", "other"}

    def test_service_client_helper(self, service, queries):
        client = service.client()
        assert isinstance(client, LocalClient)
        assert client.submit("app", queries["birthday"])["accepted"] is True


class TestHttpClientV2:
    def test_negotiates_v2_and_decides(self, http_server, queries):
        with HttpClient(_url(http_server)) as client:
            assert client.protocol == "v2"
            first = client.submit("app", queries["birthday"])
            assert first["accepted"] is True and first["principal"] == "app"
            refused = client.submit("app", queries["music"])
            assert refused["accepted"] is False

    def test_steady_state_ships_no_delta(self, http_server, queries):
        with HttpClient(_url(http_server)) as client:
            client.submit("app", queries["birthday"])
            assert client._state.synced == 1
            # The same shape again: the interner already holds it, so the
            # request is principals plus bare ints (no delta to ship).
            from repro.client.wire import single_body

            body = single_body(
                client._state, "app", queries["birthday"], peek=True,
                compact=False,
            )
            assert "delta" not in body and body["qid"] == 0

    def test_batch_and_group_round_trip(self, http_server, queries):
        with HttpClient(_url(http_server)) as client:
            results = client.submit_many(
                [
                    ("app", queries["birthday"]),
                    ("app", queries["music"]),
                    ("ghost", queries["birthday"]),
                ]
            )
            assert [r.get("accepted") for r in results[:2]] == [True, False]
            assert results[2]["code"] == "unknown-principal"
            group = client.decide_group(
                "app", [queries["birthday"]] * 3, peek=True
            )
            assert all(d["accepted"] for d in group)

    def test_compact_and_full_responses_agree(self, http_server, queries):
        dense = HttpClient(_url(http_server), compact=True)
        plain = HttpClient(_url(http_server), compact=False)
        items = [("app", queries["birthday"]), ("app", queries["music"])]
        try:
            dense.peek_many(items)  # warm the label cache for both forms
            assert dense.peek_many(items) == plain.peek_many(items)
            assert dense.peek("app", queries["birthday"]) == plain.peek(
                "app", queries["birthday"]
            )
        finally:
            dense.close()
            plain.close()

    def test_resyncs_after_server_loses_generations(
        self, http_server, service, queries
    ):
        with HttpClient(_url(http_server)) as client:
            assert client.submit("app", queries["birthday"])["accepted"]
            # Simulate a restart: the gateway forgets every generation.
            gateway_for(service).forget_all()
            decision = client.submit("app", queries["music"])
            assert decision["accepted"] is False  # wall already committed
            assert gateway_for(service).generation_count() == 1

    def test_admin_surface(self, http_server, queries):
        with HttpClient(_url(http_server)) as client:
            client.register("other", [["user_likes"]])
            assert client.submit("other", queries["music"])["accepted"]
            client.reset("other")
            assert client.submit("other", queries["music"])["accepted"]
            metrics = client.metrics()
            assert metrics["decisions"] == 2
            snapshot = client.snapshot()
            assert "app" in snapshot["sessions"]["sessions"]
            with pytest.raises(ClientError) as excinfo:
                client.register("bad", [["no_such_view"]])
            assert excinfo.value.status == 400

    def test_unreachable_server_is_a_client_error(self, queries):
        client = HttpClient("http://127.0.0.1:9", protocol="v2", timeout=1.0)
        with pytest.raises(ClientError) as excinfo:
            client.submit("app", queries["birthday"])
        assert excinfo.value.status == 502


class TestWireStateRotation:
    def test_crossing_the_key_cap_mid_call_rotates_cleanly(self, queries):
        """A multi-query call whose novel shapes cross the generation
        key cap must rotate and re-intern, never ship an over-cap delta
        the server would refuse."""
        from repro.client.wire import WireState

        state = WireState(keys_cap=2)
        gen_before = state.gen
        gen, base, delta, qids = state.encode_refs(
            [queries["birthday"], queries["music"], queries["birthday"]]
        )
        assert gen == gen_before and base == 0 and len(delta) == 2
        assert qids == [0, 1, 0]
        # Table is now at the cap: the next call rotates up front.
        gen2, base2, delta2, qids2 = state.encode_refs([queries["music"]])
        assert gen2 != gen and base2 == 0 and len(delta2) == 1
        assert qids2 == [0]
        assert state.generations == 2

    def test_mid_intern_overflow_rotates_and_reinterns(self, schema):
        from repro.client.parsing import parse_text
        from repro.client.wire import WireState

        state = WireState(keys_cap=3)
        seed = [
            parse_text("Q(a) :- Status(u, a, m, t, r)", "datalog"),
            parse_text("Q(b) :- Album(b, o, n, v)", "datalog"),
        ]
        state.encode_refs(seed)  # 2 of 3 slots used
        gen_before = state.gen
        novel = [
            parse_text("Q(x) :- Photo(x, a, o, v)", "datalog"),
            parse_text("Q(y) :- Video(y, o, tt, d)", "datalog"),
        ]
        gen, base, delta, qids = state.encode_refs(novel)  # would hit 4 > 3
        assert gen != gen_before  # rotated mid-call
        assert base == 0 and len(delta) == 2 and qids == [0, 1]
        assert base + len(delta) <= state.keys_cap


class _V1Only:
    """A server target that predates /v2 (for negotiation tests)."""

    def __init__(self, service):
        self.service = service

    def dispatch(self, method, path, body):
        if path.startswith("/v2/"):
            return 404, {"error": f"unknown route {path}"}
        return dispatch(self.service, method, path, body)


class TestContentNegotiation:
    def test_falls_back_to_v1_and_round_trips(self, service, queries):
        import threading

        server = make_server(_V1Only(service), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with HttpClient(_url(server)) as client:
                assert client.protocol == "v1"
                first = client.submit("app", queries["birthday"])
                assert first["accepted"] is True
                many = client.submit_many(
                    [("app", queries["music"]), ("ghost", queries["music"])]
                )
                assert many[0]["accepted"] is False
                # v1 keeps its historical error shape: no code field.
                assert "unknown principal" in many[1]["error"]
                assert "code" not in many[1]
        finally:
            server.shutdown()
            server.server_close()

    def test_pinned_v1_against_a_v2_server(self, http_server, queries):
        with HttpClient(_url(http_server), protocol="v1") as client:
            assert client.protocol == "v1"
            assert client.submit("app", queries["birthday"])["accepted"]

    def test_v1_and_v2_decide_identically(self, views, schema, queries):
        streams = []
        for protocol in ("v1", "v2"):
            service = DisclosureService(views, schema=schema)
            service.register("app", CHINESE_WALL)
            server, _thread = start_background(service)
            try:
                with HttpClient(_url(server), protocol=protocol) as client:
                    streams.append(
                        client.submit_many(
                            [
                                ("app", queries["birthday"]),
                                ("app", queries["music"]),
                                ("app", queries["birthday"]),
                            ]
                        )
                    )
            finally:
                server.shutdown()
                server.server_close()
        assert streams[0] == streams[1]


class TestShardedClient:
    def test_routes_and_aggregates(self, views, queries):
        from repro.client import ShardedClient
        from repro.server.partition import shard_for

        services = [DisclosureService(views) for _ in range(3)]
        client = ShardedClient.for_services(services)
        principals = [f"app-{index}" for index in range(12)]
        for principal in principals:
            client.register(principal, CHINESE_WALL)
        for principal in principals:
            assert client.submit(principal, queries["birthday"])["accepted"]
            # The session lives on exactly the shard the hash names.
            owner = services[shard_for(principal, 3)]
            assert principal in owner
        metrics = client.metrics()
        assert metrics["decisions"] == len(principals)
        assert metrics["shard_count"] == 3
        assert [shard["decisions"] for shard in metrics["shards"]] == [
            service.decisions.value for service in services
        ]
        snapshot = client.snapshot()
        assert len(snapshot["sessions"]["sessions"]) == len(principals)
        assert snapshot["metrics"]["decisions"] == len(principals)


    @staticmethod
    def _deployment(views, seed: int, shards: int = 3):
        """One service and a ShardedClient over *shards* services, both
        with the same 18 registered principals, plus their traffic."""
        import random

        from repro.client import ShardedClient
        from repro.facebook.workload import WorkloadGenerator, generate_policies

        principals = [f"app-{index}" for index in range(18)]
        policies = generate_policies(
            views.names, len(principals), max_partitions=5, max_elements=25,
            seed=seed,
        )
        single = LocalClient(DisclosureService(views))
        services = [DisclosureService(views) for _ in range(shards)]
        sharded = ShardedClient.for_services(services)
        for principal, policy in zip(principals, policies):
            single.register(principal, policy)
            sharded.register(principal, policy)
        queries = list(WorkloadGenerator(max_subqueries=1, seed=seed).stream(96))
        rng = random.Random(seed + 100)
        traffic = [
            (rng.choice(principals), rng.choice(queries)) for _ in range(400)
        ]
        return single, sharded, services, traffic

    @staticmethod
    def _uncached(decisions):
        """Decisions without ``cached``: label-cache warmth is per shard."""
        return [
            {key: value for key, value in decision.items() if key != "cached"}
            for decision in decisions
        ]

    def test_batches_match_one_service(self, views):
        single, sharded, _, traffic = self._deployment(views, 6)
        want = [single.submit(p, q) for p, q in traffic]
        got = []
        for start in range(0, len(traffic), 83):
            got.extend(sharded.submit_many(traffic[start : start + 83]))
        assert self._uncached(got) == self._uncached(want)

    def test_single_submits_match_one_service(self, views):
        single, sharded, _, traffic = self._deployment(views, 8)
        for principal, query in traffic[:200]:
            assert self._uncached(
                [sharded.submit(principal, query)]
            ) == self._uncached([single.submit(principal, query)])

    def test_peek_many_routes_and_changes_nothing(self, views):
        single, sharded, services, traffic = self._deployment(views, 9)
        sharded.submit_many(traffic[:100])
        single.submit_many(traffic[:100])
        states = [service.export_state() for service in services]
        want = single.peek_many(traffic[100:250])
        got = sharded.peek_many(traffic[100:250])
        assert self._uncached(got) == self._uncached(want)
        assert [service.export_state() for service in services] == states

    def test_warmed_shards_are_byte_identical(self, views):
        """With every label cache warmed from one export, even the
        ``cached`` flags agree: full equality across routes."""
        single, sharded, services, traffic = self._deployment(views, 7)
        warmup = DisclosureService(views)
        warmup.kernel.resolve_queries([query for _, query in traffic])
        entries = warmup.export_label_cache()
        assert entries
        single.service.warm_label_cache(entries)
        for service in services:
            assert service.warm_label_cache(entries) == len(entries)
        want = single.submit_many(traffic)
        got = sharded.submit_many(traffic)
        assert got == want
        assert all(decision["cached"] for decision in got)
