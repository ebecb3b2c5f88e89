"""Shard ownership: clocks, lease records, locks, rings, ClusterNode.

Every test drives the cluster plane synchronously — ``tick()`` is a plain
method, and the :class:`ClusterClock` takes an injectable time base — so
lease expiry, failover, and fencing are exercised without sleeping.
"""

import pytest

from repro.errors import FencedError, LeaseError
from repro.service.cluster import (
    LEASE_RECORD,
    ClusterClock,
    ClusterConfig,
    ClusterNode,
    HashRing,
    LeaseRecord,
    LeaseStore,
)


pytestmark = pytest.mark.usefixtures("fresh_registry")


def manual_clock(start=100.0):
    state = {"t": start}
    clock = ClusterClock(base=lambda: state["t"])
    return clock, state


def make_node(tmp_path, name, state, **over):
    cfg = dict(
        root=tmp_path / "cluster", node_id=name, endpoint=f"{name}:1",
        num_shards=4, lease_ttl=2.0, heartbeat_interval=0.5, durable=False,
    )
    cfg.update(over)
    return ClusterNode(
        ClusterConfig(**cfg), clock=ClusterClock(base=lambda: state["t"])
    )


# ---------------------------------------------------------------------------
class TestClusterClock:
    def test_advance_accumulates_skew(self):
        clock, state = manual_clock(50.0)
        assert clock.now() == 50.0
        clock.advance(3.5)
        assert clock.now() == 53.5
        state["t"] = 60.0
        assert clock.now() == 63.5

    def test_wall_clock_default(self):
        clock = ClusterClock()
        a = clock.now()
        assert clock.now() >= a


class TestLeaseRecord:
    def test_meta_round_trip(self):
        rec = LeaseRecord(
            shard=2, owner="a", endpoint="h:1", epoch=7,
            expires_at=123.5, renewed_at=121.5,
        )
        assert LeaseRecord.from_meta(rec.to_meta()) == rec

    def test_expiry_boundary(self):
        rec = LeaseRecord(
            shard=0, owner="a", endpoint="", epoch=1,
            expires_at=10.0, renewed_at=8.0,
        )
        assert not rec.expired(9.999)
        assert rec.expired(10.0)

    def test_malformed_meta_raises(self):
        with pytest.raises(LeaseError):
            LeaseRecord.from_meta({"shard": "x"})


class TestLeaseStore:
    def test_write_read(self, tmp_path):
        store = LeaseStore(tmp_path, durable=False)
        rec = LeaseRecord(
            shard=1, owner="a", endpoint="h:1", epoch=3,
            expires_at=5.0, renewed_at=4.0,
        )
        store.write(rec)
        assert store.read(1) == rec
        assert store.read(2) is None

    def test_torn_record_reads_as_absent(self, tmp_path):
        store = LeaseStore(tmp_path, durable=False)
        store.write(LeaseRecord(
            shard=0, owner="a", endpoint="", epoch=1,
            expires_at=5.0, renewed_at=4.0,
        ))
        path = store._lease_path(0)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # torn write
        assert store.read(0) is None

    def test_presence_and_liveness(self, tmp_path):
        store = LeaseStore(tmp_path, durable=False)
        store.publish_node("a", "h:1", alive_until=12.0, now=10.0)
        store.publish_node("b", "h:2", alive_until=12.5, now=10.5)
        assert store.live_nodes(11.0) == {"a": "h:1", "b": "h:2"}
        assert store.live_nodes(12.2) == {"b": "h:2"}
        assert store.live_nodes(99.0) == {}

    def test_lock_is_exclusive_and_breaks_stale(self, tmp_path):
        store = LeaseStore(tmp_path, durable=False, lock_stale_after=0.1)
        with store.lock(0):
            assert store._lock_path(0).exists()
        # A stale lock left by a dead process is broken, not waited out.
        store._lock_path(0).touch()
        import os
        import time
        stale = time.time() - 5.0
        os.utime(store._lock_path(0), (stale, stale))
        with store.lock(0):
            pass


class TestHashRing:
    def test_preference_is_deterministic(self):
        nodes = ["a", "b", "c"]
        ring = HashRing()
        for shard in range(8):
            assert ring.preference(shard, nodes) == ring.preference(shard, nodes)
        assert any(
            ring.preference(s, nodes) != ring.preference(0, nodes)
            for s in range(1, 8)
        )

    def test_owner_moves_only_for_departed_node(self):
        ring = HashRing()
        for shard in range(8):
            owner = ring.owner(shard, ["a", "b", "c"])
            survivors = [n for n in ("a", "b", "c") if n != owner]
            # Removing a non-owner never moves the shard.
            others = [n for n in ("a", "b", "c") if n != survivors[0]]
            if owner in others:
                assert ring.owner(shard, others) == owner

    def test_owner_of_empty_set(self):
        assert HashRing().owner(0, []) is None


# ---------------------------------------------------------------------------
class TestClusterNode:
    def test_first_comer_claims_every_shard(self, tmp_path):
        clock, state = manual_clock()
        node = make_node(tmp_path, "a", state)
        claims = node.tick()
        assert sorted(s for s, _ in claims) == [0, 1, 2, 3]
        assert all(prev is None for _, prev in claims)
        assert node.owned_shards == [0, 1, 2, 3]
        assert all(e == 1 for e in node.held.values())
        assert node.failovers == 0

    def test_renewal_keeps_epoch(self, tmp_path):
        _, state = manual_clock()
        node = make_node(tmp_path, "a", state)
        node.tick()
        state["t"] += 0.5
        assert node.tick() == []
        assert all(e == 1 for e in node.held.values())
        lease = node.store.read(0)
        assert lease.expires_at == state["t"] + 2.0

    def test_second_node_is_sticky_while_leases_live(self, tmp_path):
        _, state = manual_clock()
        a = make_node(tmp_path, "a", state)
        b = make_node(tmp_path, "b", state)
        a.tick()
        state["t"] += 0.5
        assert b.tick() == []
        assert b.owned_shards == []

    def test_expired_leases_fail_over_with_epoch_bump(self, tmp_path):
        _, state = manual_clock()
        a = make_node(tmp_path, "a", state)
        b = make_node(tmp_path, "b", state)
        a.tick()
        b.tick()
        state["t"] += 2.5  # past the TTL without a renewal from a
        claims = b.tick()
        assert sorted(s for s, _ in claims) == [0, 1, 2, 3]
        assert all(prev == "a" for _, prev in claims)
        assert all(e == 2 for e in b.held.values())
        assert b.failovers == 4

    def test_clean_release_is_claimable_immediately(self, tmp_path):
        _, state = manual_clock()
        a = make_node(tmp_path, "a", state)
        b = make_node(tmp_path, "b", state)
        a.tick()
        b.tick()
        a.release_all()
        state["t"] += 0.01  # no TTL wait: released leases expire at once
        claimed = {s for s, _ in b.tick()}
        # a's presence record is still live, so b picks up only the shards
        # the rendezvous ring assigns to b — the rest stay parked for a.
        assert claimed == {
            s for s in range(4) if HashRing().owner(s, ["a", "b"]) == "b"
        }
        # Once a's heartbeat lapses too, b sweeps up the remainder.
        state["t"] += 2.5
        b.tick()
        assert b.owned_shards == [0, 1, 2, 3]

    def test_heartbeat_misses_count_transitions(self, tmp_path):
        _, state = manual_clock()
        a = make_node(tmp_path, "a", state)
        b = make_node(tmp_path, "b", state)
        a.tick()
        b.tick()
        assert b.heartbeat_misses == 0
        state["t"] += 2.5
        b.tick()
        assert b.heartbeat_misses == 1
        state["t"] += 0.5
        b.tick()  # a is still gone, but that's the same outage
        assert b.heartbeat_misses == 1

    def test_clock_skew_expires_leases_early(self, tmp_path):
        _, state = manual_clock()
        a = make_node(tmp_path, "a", state)
        b = make_node(tmp_path, "b", state)
        a.tick()
        b.tick()
        b.clock.advance(2.5)  # b's clock runs fast: a looks dead to it
        claims = b.tick()
        assert sorted(s for s, _ in claims) == [0, 1, 2, 3]
        # ...but a, on the true clock, is fenced at its next commit.
        with pytest.raises(FencedError):
            a.check_fence(0)

    def test_fence_passes_for_live_owner(self, tmp_path):
        _, state = manual_clock()
        a = make_node(tmp_path, "a", state)
        a.tick()
        a.check_fence(3)  # disk 3 -> shard 3

    def test_fence_rejects_stale_epoch(self, tmp_path):
        _, state = manual_clock()
        a = make_node(tmp_path, "a", state)
        b = make_node(tmp_path, "b", state)
        a.tick()
        b.tick()
        state["t"] += 2.5
        b.tick()
        state["t"] += 0.6  # a's fence cache (one heartbeat) has lapsed
        with pytest.raises(FencedError) as err:
            a.check_fence(0)
        assert err.value.held_epoch == 1
        assert err.value.current_epoch == 2
        # Fencing demotes the stale owner's in-memory claim too.
        assert 0 not in a.held

    def test_fence_cache_spares_reread(self, tmp_path):
        _, state = manual_clock()
        a = make_node(tmp_path, "a", state)
        a.tick()
        a.check_fence(0)
        # Clobber the on-disk lease; within one heartbeat the cached view
        # still answers (per-chunk commits must not become per-chunk IO).
        a.store.write(LeaseRecord(
            shard=0, owner="z", endpoint="", epoch=9,
            expires_at=state["t"] + 10, renewed_at=state["t"],
        ))
        a.check_fence(0)
        state["t"] += 0.6
        with pytest.raises(FencedError):
            a.check_fence(0)

    def test_status_snapshot_shape(self, tmp_path):
        _, state = manual_clock()
        a = make_node(tmp_path, "a", state)
        a.tick()
        status = a.status()
        assert status["node"] == "a"
        assert status["owned_shards"] == [0, 1, 2, 3]
        assert status["epochs"] == {"0": 1, "1": 1, "2": 1, "3": 1}
        assert list(status["live_nodes"]) == ["a"]
        assert status["leases"]["0"]["owner"] == "a"
        assert status["leases"]["0"]["expires_in"] == 2.0

    def test_shard_of_disk_and_ownership(self, tmp_path):
        _, state = manual_clock()
        a = make_node(tmp_path, "a", state, num_shards=3)
        assert a.shard_of_disk(7) == 1
        assert not a.owns_disk(7)
        a.tick()
        assert a.owns_disk(7)

    def test_heartbeat_must_undercut_ttl(self, tmp_path):
        with pytest.raises(LeaseError):
            ClusterConfig(
                root=tmp_path, node_id="a", lease_ttl=1.0,
                heartbeat_interval=1.0,
            )

    def test_lease_record_type_constant(self, tmp_path):
        # The WAL frame type is part of the on-disk format: renaming it
        # silently orphans every existing lease file.
        assert LEASE_RECORD == "lease"
