"""Unit tests for :class:`DisclosureService` session and state behavior."""

from __future__ import annotations

import json

import pytest

from repro.errors import ParseError, PolicyError
from repro.policy.policy import PartitionPolicy
from repro.server.service import DisclosureService

CHINESE_WALL = [["user_birthday", "public_profile"], ["user_likes"]]

BIRTHDAY_FQL = "SELECT birthday FROM user WHERE uid = me()"
MUSIC_FQL = "SELECT music FROM user WHERE uid = me()"


def _submit(service, principal, text, dialect="sql"):
    """Text submit through the supported path (parse, then submit)."""
    return service.submit(principal, service.parse(text, dialect))


def _peek(service, principal, text, dialect="sql"):
    return service.peek(principal, service.parse(text, dialect))


@pytest.fixture()
def service(views, schema):
    service = DisclosureService(views, schema=schema)
    service.register("app", CHINESE_WALL)
    return service


class TestSessions:
    def test_unknown_principal_raises(self, service):
        with pytest.raises(PolicyError, match="unknown principal"):
            _submit(service, "ghost", BIRTHDAY_FQL, "fql")

    def test_default_policy_auto_registers(self, views):
        service = DisclosureService(views, default_policy=[["public_profile"]])
        decision = _submit(service, 
            "new-app", "SELECT name FROM user WHERE uid = me()", "fql"
        )
        assert decision.accepted
        assert "new-app" in service

    def test_default_policy_peek_does_not_allocate(self, views):
        service = DisclosureService(views, default_policy=[["public_profile"]])
        for index in range(50):
            decision = _peek(service, 
                f"anon-{index}", "SELECT name FROM user WHERE uid = me()", "fql"
            )
            assert decision.accepted
        assert service.principal_count() == 0

    def test_default_policy_reset_of_unseen_principal_is_a_noop(self, views):
        service = DisclosureService(views, default_policy=[["public_profile"]])
        service.reset("never-seen")
        assert service.principal_count() == 0
        strict = DisclosureService(views)
        with pytest.raises(PolicyError, match="unknown principal"):
            strict.reset("never-seen")

    def test_fresh_ephemeral_sessions_are_dropped_on_demotion(self, views):
        """Anonymous default-policy traffic must not grow the passive
        store: only sessions that actually narrowed their live bits are
        worth keeping across demotion."""
        service = DisclosureService(
            views,
            max_active_sessions=2,
            default_policy=[["user_birthday", "public_profile"], ["user_likes"]],
        )
        # This query is refused (email is outside the default policy), so
        # live bits stay fresh and the demoted sessions evaporate.
        for index in range(40):
            refused = _submit(service, 
                f"anon-{index}", "SELECT email FROM user WHERE uid = me()", "fql"
            )
            assert not refused.accepted
        assert service.principal_count() <= 2
        # A principal that *commits* survives demotion with its wall intact.
        _submit(service, "committed", BIRTHDAY_FQL, "fql")
        for index in range(10):
            _submit(service, f"churn-{index}", BIRTHDAY_FQL, "fql")
        assert "committed" in service
        assert service.live_partitions("committed") == (True, False)

    def test_reregistration_resets_state(self, service):
        assert _submit(service, "app", BIRTHDAY_FQL, "fql").accepted
        assert not _submit(service, "app", MUSIC_FQL, "fql").accepted
        service.register("app", CHINESE_WALL)
        assert _submit(service, "app", MUSIC_FQL, "fql").accepted

    def test_unregister(self, service):
        service.unregister("app")
        assert "app" not in service
        with pytest.raises(PolicyError):
            _submit(service, "app", BIRTHDAY_FQL, "fql")

    def test_chinese_wall_commitment(self, service):
        first = _submit(service, "app", BIRTHDAY_FQL, "fql")
        assert first.accepted
        second = _submit(service, "app", MUSIC_FQL, "fql")
        assert not second.accepted
        assert "committed" in second.reason
        assert service.live_partitions("app") == (True, False)

    def test_reset_restores_all_partitions(self, service):
        _submit(service, "app", BIRTHDAY_FQL, "fql")
        service.reset("app")
        assert service.live_partitions("app") == (True, True)
        assert _submit(service, "app", MUSIC_FQL, "fql").accepted

    def test_peek_leaves_state_untouched(self, service):
        before = service.live_partitions("app")
        peeked = _peek(service, "app", BIRTHDAY_FQL, "fql")
        assert peeked.accepted
        assert service.live_partitions("app") == before

    def test_policy_validation(self, service):
        with pytest.raises(PolicyError, match="unknown security view"):
            service.register("bad", [["no_such_view"]])
        with pytest.raises(PolicyError, match="unknown security view"):
            DisclosureService(
                service.security_views,
                default_policy=PartitionPolicy([["no_such_view"]]),
            )


class TestTextFrontEnd:
    def test_sql_dialect(self, service):
        decision = _submit(service, 
            "app", "SELECT birthday FROM User WHERE rel = 'self'", "sql"
        )
        assert decision.accepted

    def test_datalog_dialect(self, views):
        service = DisclosureService(views, default_policy=[["public_status"]])
        decision = _submit(service, 
            "app",
            "Q(s) :- Status(u, s, m, t, 'self')",
            "datalog",
        )
        assert decision.accepted

    def test_unknown_dialect(self, service):
        with pytest.raises(ParseError, match="unknown query dialect"):
            _submit(service, "app", "whatever", "graphql")

    def test_parse_cache_hits_on_repeat(self, service):
        _submit(service, "app", BIRTHDAY_FQL, "fql")
        before = service.parse_cache.stats().hits
        _peek(service, "app", BIRTHDAY_FQL, "fql")
        assert service.parse_cache.stats().hits == before + 1

    def test_sql_without_schema_raises(self, views):
        service = DisclosureService(views, default_policy=[["public_profile"]])
        with pytest.raises(ParseError, match="no schema"):
            _submit(service, "app", "SELECT name FROM User", "sql")


class TestSerializableState:
    def test_export_import_roundtrip_preserves_commitments(self, views, schema):
        service = DisclosureService(views, schema=schema)
        service.register("app", CHINESE_WALL)
        assert _submit(service, "app", BIRTHDAY_FQL, "fql").accepted

        blob = json.dumps(service.export_state())

        restored = DisclosureService(views, schema=schema)
        assert restored.import_state(json.loads(blob)) == 1
        # The Chinese Wall commitment survives the restart: partition 1
        # is still dead, so the likes query is still refused.
        assert restored.live_partitions("app") == (True, False)
        assert not _submit(restored, "app", MUSIC_FQL, "fql").accepted

    def test_export_covers_active_and_passive(self, views):
        service = DisclosureService(views, max_active_sessions=1)
        service.register("a", [["public_profile"]])
        service.register("b", [["user_likes"]])
        _submit(service, "a", "SELECT name FROM user WHERE uid = me()", "fql")
        _submit(service, "b", MUSIC_FQL, "fql")
        state = service.export_state()
        assert set(state["sessions"]) == {"a", "b"}

    def test_export_rejects_non_string_principals(self, views):
        service = DisclosureService(views)
        service.register(7, [["public_profile"]])
        with pytest.raises(PolicyError, match="not a string"):
            service.export_state()

    def test_import_rejects_bad_format(self, views):
        service = DisclosureService(views)
        with pytest.raises(PolicyError, match="format"):
            service.import_state({"format": "nope"})

    def test_import_rejects_mismatched_live_bits(self, views):
        service = DisclosureService(views)
        with pytest.raises(PolicyError, match="live bits"):
            service.import_state(
                {
                    "format": "repro.server/1",
                    "sessions": {
                        "x": {"partitions": [["public_profile"]], "live": [True, True]}
                    },
                }
            )
        with pytest.raises(PolicyError, match="no live partition"):
            service.import_state(
                {
                    "format": "repro.server/1",
                    "sessions": {
                        "x": {"partitions": [["public_profile"]], "live": [False]}
                    },
                }
            )


class TestMetrics:
    def test_snapshot_counts_decisions(self, service):
        _submit(service, "app", BIRTHDAY_FQL, "fql")
        _submit(service, "app", MUSIC_FQL, "fql")
        _peek(service, "app", BIRTHDAY_FQL, "fql")
        snapshot = service.metrics_snapshot()
        assert snapshot["decisions"] == 2
        assert snapshot["accepted"] == 1
        assert snapshot["refused"] == 1
        assert snapshot["peeks"] == 1
        assert snapshot["sessions"]["active"] == 1
        assert snapshot["latency"]["count"] == 2
        assert snapshot["latency"]["p99_us"] > 0
        assert 0.0 <= snapshot["label_cache"]["hit_rate"] <= 1.0
