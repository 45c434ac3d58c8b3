"""The kernel replica pool: parity, plane deltas, crash recovery.

A pooled deployment must be observationally identical to one local
service — decisions, error taxonomy, admin routes, session evolution —
with the data plane spread across worker processes.  These suites hold
a :class:`ReplicaPool` and a twin local service to the same decision
stream (the ``cached`` flag excepted: label-cache warmth is
per-replica), then break the pool on purpose: kill -9 a replica
mid-stream and require the respawn to refault its sessions from the
parent mirror and keep the stream byte-identical.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import time

import pytest

from repro.facebook.workload import WorkloadGenerator, generate_policies
from repro.server.batch import decide_wire_items
from repro.server.httpd import dispatch
from repro.server.kernel import ServiceDecision
from repro.server.partition import merge_snapshot_payloads, shard_for
from repro.server.pool import ReplicaPool, start_pooled_background
from repro.server.service import DisclosureService
from repro.server.store import state_of

PRINCIPALS = ("alice", "bob", "carol", "dave", "erin")
REPLICAS = 2


def _assert_same_decision(want, got):
    """Decision equality modulo ``cached`` (warmth is per-replica)."""
    assert isinstance(got, ServiceDecision), got
    assert (want.accepted, want.principal, want.reason) == (
        got.accepted,
        got.principal,
        got.reason,
    )
    assert (want.live_before, want.live_after) == (
        got.live_before,
        got.live_after,
    )


def _traffic(seed: int, count: int):
    generator = WorkloadGenerator(max_subqueries=1, seed=seed)
    queries = list(generator.stream(64))
    import random

    rng = random.Random(seed + 17)
    return [
        (PRINCIPALS[rng.randrange(len(PRINCIPALS))], rng.choice(queries))
        for _ in range(count)
    ]


def _call(handle, method, path, body=None):
    """One HTTP exchange with a pooled front end: ``(status, json)``."""
    connection = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
    try:
        data = None if body is None else json.dumps(body).encode()
        connection.request(
            method, path, body=data, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


CHINESE_WALL = [["user_birthday", "public_profile"], ["user_likes"]]


@pytest.fixture(scope="module")
def deployment(views, schema):
    """A 2-replica pool and its single-service twin, same policies."""
    kwargs = {"security_views": views, "schema": schema}
    local = DisclosureService(**kwargs)
    parent = DisclosureService(**kwargs)
    pool = ReplicaPool(parent, REPLICAS, service_kwargs=kwargs).start()
    policies = generate_policies(
        views.names, len(PRINCIPALS), max_partitions=4, max_elements=25,
        seed=3,
    )
    for principal, policy in zip(PRINCIPALS, policies):
        local.register(principal, policy)
        status, _ = pool.call(
            pool.dispatch_inline,
            "POST",
            "/v1/register",
            {"principal": principal, "policy": [list(p) for p in policy]},
        )
        assert status == 200
    yield local, parent, pool
    pool.close()
    parent.close()
    local.close()


class TestDecideParity:
    def test_updates_and_peeks_match_local(self, deployment):
        local, _, pool = deployment
        traffic = _traffic(5, 80)
        for update in (True, False, True):
            entries = [(p, q, None) for p, q in traffic]
            want = decide_wire_items(local, entries, update=update)
            got = pool.call(pool.decide, entries, update=update)
            assert len(want) == len(got)
            for w, g in zip(want, got):
                _assert_same_decision(w, g)

    def test_unknown_principal_is_isolated_per_item(self, deployment):
        local, _, pool = deployment
        (_, query), = _traffic(6, 1)
        entries = [("alice", query, None), ("ghost", query, None)]
        want = decide_wire_items(local, entries, update=True)
        got = pool.call(pool.decide, entries, update=True)
        _assert_same_decision(want[0], got[0])
        assert got[1] == want[1]  # the same error dict, byte for byte
        assert got[1]["code"] == "unknown-principal"

    def test_parent_mirror_tracks_replica_sessions(self, deployment):
        local, parent, pool = deployment
        pool.call(
            pool.decide,
            [(p, q, None) for p, q in _traffic(7, 40)], update=True
        )
        decide_wire_items(
            local, [(p, q, None) for p, q in _traffic(7, 40)], update=True
        )
        mirror = dict(parent.store.iter_states())
        for principal in PRINCIPALS:
            session = local.store.peek(principal)
            want = (
                state_of(session)
                if session is not None
                else dict(local.store.iter_states())[principal]
            )
            got = mirror[principal]
            assert (want.partitions, want.live) == (
                got.partitions,
                got.live,
            )

    def test_sessions_partition_by_crc32(self, deployment):
        _, _, pool = deployment
        for principal in PRINCIPALS:
            assert pool.owner_of(principal) == shard_for(principal, REPLICAS)

    def test_each_replica_holds_only_its_principals(self, deployment):
        _, _, pool = deployment
        held = [
            set(merge_snapshot_payloads([payload])["sessions"]["sessions"])
            for payload in pool.call(pool.snapshot_payloads)
        ]
        assert len(held) == REPLICAS
        assert set().union(*held) == set(PRINCIPALS)
        for index, principals in enumerate(held):
            for principal in principals:
                assert shard_for(principal, REPLICAS) == index

    def test_peeks_change_no_session_anywhere(self, deployment):
        _, parent, pool = deployment
        entries = [(p, q, None) for p, q in _traffic(13, 60)]
        pool.call(pool.decide, entries, update=True)

        def sessions():
            return [
                payload["sessions"]
                for payload in pool.call(pool.snapshot_payloads)
            ]

        replicas, mirror = sessions(), dict(parent.store.iter_states())
        got = pool.call(pool.decide, entries, update=False)
        assert all(isinstance(g, ServiceDecision) for g in got)
        assert sessions() == replicas
        assert dict(parent.store.iter_states()) == mirror


class TestInlineRoutes:
    def test_v1_batch_matches_local_dispatch(self, deployment):
        local, _, pool = deployment
        from repro.server.loadgen import query_to_datalog

        traffic = _traffic(8, 12)
        body = {
            "queries": [
                {"principal": p, "datalog": query_to_datalog(q)}
                for p, q in traffic
            ]
            + [
                {"principal": "ghost", "datalog": "q(X) :- likes(U, X)"},
                {"bad": "item"},
            ]
        }
        want_status, want = dispatch(local, "POST", "/v1/batch", body)
        got_status, got = pool.call(pool.dispatch_inline, "POST", "/v1/batch", body)
        assert (want_status, want["count"]) == (got_status, got["count"])
        for w, g in zip(want["decisions"], got["decisions"]):
            if "error" in w:
                assert w == g
            else:
                for key in ("accepted", "principal", "reason",
                            "live_before", "live_after"):
                    assert w[key] == g[key]

    def test_reset_restores_full_liveness_everywhere(self, deployment):
        local, parent, pool = deployment
        local.reset("alice")
        status, payload = pool.call(
            pool.dispatch_inline,
            "POST", "/v1/reset", {"principal": "alice"}
        )
        assert (status, payload) == (200, {"reset": "alice"})
        (_, query), = _traffic(9, 1)
        want = decide_wire_items(local, [("alice", query, None)], update=True)
        got = pool.call(pool.decide, [("alice", query, None)], update=True)
        _assert_same_decision(want[0], got[0])

    def test_metrics_merge_across_replicas(self, deployment):
        _, _, pool = deployment
        snapshot = pool.call(pool.metrics_snapshot)
        assert snapshot["replica_count"] == REPLICAS
        assert len(snapshot["replicas"]) == REPLICAS
        # Every decision in this module went through a replica; the sum
        # must cover them all (exact counts shift as tests are added).
        assert snapshot["decisions"] > 0
        vectors = {
            vector["name"] for vector in snapshot["registry"]["vectors"]
        }
        assert {"repro_pool_batches_total", "repro_pool_items_total"} <= vectors
        scalars = {
            scalar["name"] for scalar in snapshot["registry"]["scalars"]
        }
        assert "repro_pool_dispatch_seconds" in scalars

    def test_merged_snapshot_restores_into_one_service(
        self, deployment, views, schema
    ):
        local, _, pool = deployment
        merged = pool.call(pool.merged_snapshot)
        sessions = merged["sessions"]["sessions"]
        assert set(PRINCIPALS) <= set(sessions)
        restored = DisclosureService(views, schema=schema)
        try:
            assert restored.import_state(merged["sessions"]) == len(sessions)
            (_, query), = _traffic(10, 1)
            want = pool.call(pool.decide, [("bob", query, None)], update=False)
            got = decide_wire_items(
                restored, [("bob", query, None)], update=False
            )
            _assert_same_decision(got[0], want[0])
        finally:
            restored.close()


class TestPlaneDeltas:
    def test_rotation_mid_stream_stays_exact(self, views, schema):
        """Tiny interner cap: the parent rotates planes every few
        shapes, replicas must adopt each epoch and stay id-exact."""
        kwargs = {"security_views": views, "schema": schema}
        local = DisclosureService(**kwargs)
        parent = DisclosureService(**kwargs)
        local.kernel.max_interned_shapes = 8
        parent.kernel.max_interned_shapes = 8
        pool = ReplicaPool(parent, REPLICAS, service_kwargs=kwargs).start()
        try:
            policies = generate_policies(
                views.names, len(PRINCIPALS), max_partitions=4,
                max_elements=25, seed=3,
            )
            for principal, policy in zip(PRINCIPALS, policies):
                local.register(principal, policy)
                status, _ = pool.call(
                    pool.dispatch_inline,
                    "POST",
                    "/v1/register",
                    {
                        "principal": principal,
                        "policy": [list(p) for p in policy],
                    },
                )
                assert status == 200
            epochs = set()
            for start in range(0, 60, 6):
                batch = [(p, q, None) for p, q in _traffic(30, 60)[start:start + 6]]
                want = decide_wire_items(local, batch, update=True)
                got = pool.call(pool.decide, batch, update=True)
                for w, g in zip(want, got):
                    _assert_same_decision(w, g)
                epochs.add(parent.kernel.plane.epoch)
            assert len(epochs) > 1, "the cap never forced a rotation"
        finally:
            pool.close()
            parent.close()
            local.close()


class TestCrashRecovery:
    def test_kill_dash_nine_respawns_and_refaults(self, deployment):
        local, _, pool = deployment
        victim = pool.handles[0]
        old_pid = victim.process.pid
        os.kill(old_pid, signal.SIGKILL)
        time.sleep(0.2)
        traffic = _traffic(11, 40)
        entries = [(p, q, None) for p, q in traffic]
        want = decide_wire_items(local, entries, update=True)
        got = pool.call(pool.decide, entries, update=True)
        for w, g in zip(want, got):
            _assert_same_decision(w, g)
        assert pool.handles[0].process.pid != old_pid
        snapshot = pool.call(pool.metrics_snapshot)
        respawns = [
            series
            for vector in snapshot["registry"]["vectors"]
            if vector["name"] == "repro_pool_respawns_total"
            for series in vector["series"]
        ]
        assert sum(series["value"] for series in respawns) >= 1

    def test_both_replicas_die_both_recover(self, deployment):
        local, _, pool = deployment
        for handle in list(pool.handles):
            os.kill(handle.process.pid, signal.SIGKILL)
        time.sleep(0.2)
        traffic = _traffic(12, 30)
        entries = [(p, q, None) for p, q in traffic]
        want = decide_wire_items(local, entries, update=True)
        got = pool.call(pool.decide, entries, update=True)
        for w, g in zip(want, got):
            _assert_same_decision(w, g)


class TestPooledFrontEndCrashScenario:
    def test_restart_mid_stream_digest_survives_a_replica_kill(
        self, views
    ):
        """kill -9 one replica mid-scenario through the real pooled
        front end: the respawn + session refault must leave the replayed
        decision stream byte-identical to an uninterrupted local run."""
        import asyncio

        from repro.client import AsyncHttpClient, LocalClient
        from repro.scenarios import (
            compile_scenario,
            get_scenario,
            replay_trace,
            replay_trace_async,
        )

        spec = get_scenario("restart-mid-stream").scaled(
            events=60, principals=16
        )
        trace = compile_scenario(spec, seed=7, view_names=views.names)
        local_report = replay_trace(
            trace, LocalClient(DisclosureService(views))
        )
        assert local_report.errors == 0

        handle = start_pooled_background(
            REPLICAS, service_kwargs={"security_views": views}
        )
        try:
            kill_at = len(trace) // 2
            victim_pid = handle.pool.handles[0].process.pid

            class KillingClient(AsyncHttpClient):
                sent = 0

                async def _decide(self, *args, **kwargs):
                    KillingClient.sent += 1
                    if KillingClient.sent == kill_at:
                        os.kill(victim_pid, signal.SIGKILL)
                    return await super()._decide(*args, **kwargs)

            async def drive():
                client = KillingClient(
                    f"http://{handle.host}:{handle.port}"
                )
                await client.connect()
                try:
                    return await replay_trace_async(trace, client)
                finally:
                    await client.close()

            report = asyncio.run(drive())
            assert KillingClient.sent > kill_at, "the kill never fired"
            assert report.errors == 0
            assert report.digest() == local_report.digest()
            assert handle.pool.handles[0].process.pid != victim_pid
        finally:
            handle.stop()


class TestWarmStart:
    def test_warm_started_pool_decides_like_a_local_service(
        self, views, schema
    ):
        """Warm entries intern into the parent's plane too: the first
        plane delta then starts where the replicas' warm import ended,
        so no replica reports plane drift."""
        kwargs = {"security_views": views, "schema": schema}
        traffic = _traffic(40, 60)
        previous = DisclosureService(**kwargs)
        previous.kernel.resolve_queries([query for _, query in traffic])
        entries = previous.export_label_cache()
        previous.close()
        assert len(entries) >= 8

        local = DisclosureService(**kwargs)
        local.warm_label_cache(entries)
        parent = DisclosureService(**kwargs)
        pool = ReplicaPool(
            parent, REPLICAS, service_kwargs=kwargs, warm_entries=entries
        ).start()
        try:
            policies = generate_policies(
                views.names, len(PRINCIPALS), max_partitions=4,
                max_elements=25, seed=3,
            )
            for principal, policy in zip(PRINCIPALS, policies):
                local.register(principal, policy)
                status, _ = pool.call(
                    pool.dispatch_inline,
                    "POST",
                    "/v1/register",
                    {"principal": principal, "policy": [list(p) for p in policy]},
                )
                assert status == 200
            for handle in pool.handles:
                assert handle.shipped == len(parent.kernel.plane.queries)
            entries = [(p, q, None) for p, q in traffic]
            want = decide_wire_items(local, entries, update=True)
            got = pool.call(pool.decide, entries, update=True)
            # Every shape was warmed everywhere, so even ``cached``
            # agrees: the replicas serve from the imported labels.
            assert [w.as_dict() for w in want] == [
                g.as_dict() if isinstance(g, ServiceDecision) else g
                for g in got
            ]
        finally:
            pool.close()
            parent.close()
            local.close()


class TestSnapshotsUnderTraffic:
    def test_snapshots_from_a_thread_keep_the_stream_exact(self, views):
        """A snapshot thread (the pooled --state-dir snapshotter) reaches
        the replicas through ``pool.call``, which queues on the front
        end's tick consumer — so it never interleaves frames with the
        decisions the loop has in flight on the same pipes."""
        import asyncio
        import threading

        from repro.client import AsyncHttpClient, LocalClient
        from repro.scenarios import (
            compile_scenario,
            get_scenario,
            replay_trace,
            replay_trace_async,
        )

        spec = get_scenario("restart-mid-stream").scaled(
            events=300, principals=24
        )
        trace = compile_scenario(spec, seed=11, view_names=views.names)
        local_report = replay_trace(
            trace, LocalClient(DisclosureService(views))
        )
        handle = start_pooled_background(
            REPLICAS, service_kwargs={"security_views": views}
        )
        done = threading.Event()
        taken, failures = [], []

        def snapshots():
            while not done.is_set():
                try:
                    payloads = handle.pool.call(handle.pool.snapshot_payloads)
                except Exception as exc:  # noqa: BLE001 - counted below
                    failures.append(exc)
                    continue
                taken.append(len(payloads))

        thread = threading.Thread(target=snapshots, daemon=True)
        try:
            thread.start()

            async def drive():
                client = AsyncHttpClient(f"http://{handle.host}:{handle.port}")
                await client.connect()
                try:
                    # A desynchronized pipe stalls the stream: fail, not hang.
                    return await asyncio.wait_for(
                        replay_trace_async(trace, client), timeout=60
                    )
                finally:
                    await client.close()

            report = asyncio.run(drive())
        finally:
            done.set()
            thread.join(timeout=30)
            handle.stop()
        assert not thread.is_alive()
        assert failures == []
        assert taken and set(taken) == {REPLICAS}
        assert report.errors == 0
        assert report.digest() == local_report.digest()


class TestPooledWire:
    """The v1 wire contract, served by the pooled front end: single
    routes reach the owning replica, batches split across replicas and
    reassemble in input order, and errors keep their shapes."""

    @pytest.fixture(scope="class")
    def front_end(self, views, schema):
        handle = start_pooled_background(
            3, service_kwargs={"security_views": views, "schema": schema}
        )
        status, _ = _call(
            handle, "POST", "/v1/register",
            {"principal": "app", "policy": CHINESE_WALL},
        )
        assert status == 200
        yield handle
        handle.stop()

    def test_single_routes_forward_to_owner(self, front_end):
        status, body = _call(
            front_end, "POST", "/v1/query",
            {"principal": "app", "fql": "SELECT birthday FROM user WHERE uid = me()"},
        )
        assert status == 200 and body["accepted"] is True
        status, body = _call(
            front_end, "POST", "/v1/query",
            {"principal": "ghost", "fql": "SELECT name FROM user WHERE uid = me()"},
        )
        assert status == 404
        status, body = _call(
            front_end, "POST", "/v1/reset", {"principal": "app"}
        )
        assert status == 200 and body["reset"] == "app"

    def test_batch_splits_and_reassembles_in_order(self, front_end, views):
        from repro.server.loadgen import query_to_datalog

        generator = WorkloadGenerator(max_subqueries=1, seed=4)
        queries = list(generator.stream(40))
        policies = generate_policies(
            views.names, 12, max_partitions=5, max_elements=25, seed=4
        )
        requests = []
        for index, policy in enumerate(policies):
            principal = f"app-{index}"
            status, _ = _call(
                front_end, "POST", "/v1/register",
                {"principal": principal, "policy": [list(p) for p in policy]},
            )
            assert status == 200
            requests.append(
                {
                    "principal": principal,
                    "datalog": query_to_datalog(queries[index % len(queries)]),
                }
            )
        owners = {shard_for(r["principal"], 3) for r in requests}
        assert len(owners) > 1  # the batch really spans replicas
        requests.insert(3, {"principal": "", "datalog": "Q(x) :- User(x)"})
        requests.insert(7, "garbage")
        status, body = _call(
            front_end, "POST", "/v1/batch", {"queries": requests}
        )
        assert status == 200
        assert body["count"] == len(requests)
        assert "principal" in body["decisions"][3]["error"]
        assert "JSON object" in body["decisions"][7]["error"]
        for position, request in enumerate(requests):
            if position in (3, 7):
                continue
            entry = body["decisions"][position]
            assert entry["principal"] == request["principal"], position

    def test_bad_batch_bodies(self, front_end):
        status, body = _call(front_end, "POST", "/v1/batch", {"queries": "x"})
        assert status == 400 and "queries" in body["error"]
        status, body = _call(
            front_end, "POST", "/v1/batch", {"queries": [], "peek": "yes"}
        )
        assert status == 400 and "peek" in body["error"]

    def test_unknown_route_and_missing_principal(self, front_end):
        assert _call(front_end, "GET", "/nope")[0] == 404
        assert _call(
            front_end, "POST", "/v1/nope", {"principal": "x"}
        )[0] == 404
        status, body = _call(
            front_end, "POST", "/v1/query", {"sql": "SELECT 1"}
        )
        assert status == 400 and "principal" in body["error"]

    def test_healthz(self, front_end):
        status, body = _call(front_end, "GET", "/healthz")
        assert status == 200 and body["ok"] is True

    def test_unknown_metrics_format_is_refused(self, front_end):
        status, body = _call(front_end, "GET", "/metrics?format=xml")
        assert status == 400 and "unknown metrics format" in body["error"]

    def test_metrics_count_every_decision_exactly(self, views, schema):
        handle = start_pooled_background(
            3, service_kwargs={"security_views": views, "schema": schema}
        )
        try:
            policies = generate_policies(
                views.names, len(PRINCIPALS), max_partitions=4,
                max_elements=25, seed=5,
            )
            for principal, policy in zip(PRINCIPALS, policies):
                status, _ = handle.pool.call(
                    handle.pool.dispatch_inline, "POST", "/v1/register",
                    {"principal": principal, "policy": [list(p) for p in policy]},
                )
                assert status == 200
            entries = [(p, q, None) for p, q in _traffic(5, 300)]
            handle.pool.call(handle.pool.decide, entries, update=True)
            status, metrics = _call(handle, "GET", "/metrics")
        finally:
            handle.stop()
        assert status == 200
        assert metrics["replica_count"] == 3
        assert metrics["decisions"] == 300
        assert metrics["accepted"] + metrics["refused"] == 300
        assert metrics["latency"]["count"] == 300
        sessions = metrics["sessions"]
        assert sessions["active"] + sessions["passive"] == len(PRINCIPALS)
        # The merged total is the sum of the per-replica snapshots it carries.
        assert metrics["decisions"] == sum(
            replica["decisions"] for replica in metrics["replicas"]
        )


class TestWarmFrontEnd:
    def test_warm_replicas_serve_cached_decisions_over_http(self, views):
        """A warm-started pool behind the asyncio front end: sequential
        and batched decisions over HTTP equal one in-process service,
        the warmed shapes answer from cache, and both replicas serve."""
        from repro.server.aio import start_async_background
        from repro.server.loadgen import query_to_datalog

        principals = [f"app-{index}" for index in range(18)]
        policies = generate_policies(
            views.names, len(principals),
            max_partitions=5, max_elements=25, seed=11,
        )

        def traffic(seed, count):
            import random

            generator = WorkloadGenerator(max_subqueries=1, seed=seed)
            queries = list(generator.stream(96))
            rng = random.Random(seed + 100)
            return [
                (rng.choice(principals), rng.choice(queries))
                for _ in range(count)
            ]

        warmup = DisclosureService()
        for principal, policy in zip(principals, policies):
            warmup.register(principal, policy)
        for principal, query in traffic(11, 200):
            warmup.submit(principal, query)
        parent = DisclosureService()
        pool = ReplicaPool(
            parent, REPLICAS, warm_entries=warmup.export_label_cache()
        ).start()
        try:
            front = start_async_background(parent, pool=pool)
        except Exception:
            pool.close()
            raise
        try:
            single = DisclosureService()
            for principal, policy in zip(principals, policies):
                single.register(principal, policy)
                status, _ = _call(
                    front, "POST", "/v1/register",
                    {"principal": principal, "policy": [list(p) for p in policy]},
                )
                assert status == 200
            for principal, query in traffic(11, 60):
                want = single.submit(principal, query)
                status, got = _call(
                    front, "POST", "/v1/query",
                    {"principal": principal, "datalog": query_to_datalog(query)},
                )
                assert status == 200
                assert got["accepted"] == want.accepted
                assert got["live_after"] == want.live_after
                assert got["cached"] is True  # imported at spawn

            more = traffic(12, 60)
            want_batch = [single.submit(p, q).as_dict() for p, q in more]
            status, body = _call(
                front, "POST", "/v1/batch",
                {
                    "queries": [
                        {"principal": p, "datalog": query_to_datalog(q)}
                        for p, q in more
                    ]
                },
            )
            assert status == 200
            for got, want in zip(body["decisions"], want_batch):
                for key in ("accepted", "live_after", "reason"):
                    assert got[key] == want[key]

            status, metrics = _call(front, "GET", "/metrics")
            assert status == 200
            assert metrics["replica_count"] == REPLICAS
            assert metrics["decisions"] == 120
            assert all(
                replica["sessions"]["active"] + replica["sessions"]["passive"]
                > 0
                for replica in metrics["replicas"]
            )
        finally:
            front.stop()
            pool.close()
            parent.close()
