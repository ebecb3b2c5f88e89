"""Parity scrubbing: silent-corruption and degradation detection."""

import pytest

from repro.ec.stripe import ChunkId


class TestScrub:
    def test_clean_server(self, small_server):
        report = small_server.scrub()
        assert report.healthy
        assert len(report.clean) == 20
        assert report.stripes_checked == 20

    def test_degraded_after_failure(self, small_server):
        small_server.fail_disk(0)
        report = small_server.scrub()
        assert not report.healthy
        assert set(report.degraded) == set(small_server.layout.stripe_set(0))
        assert not report.corrupt

    def test_silent_corruption_detected(self, small_server):
        stripe = small_server.layout[3]
        disk_id = stripe.disks[1]
        cid = ChunkId(3, 1)
        data = small_server.store.get(disk_id, cid)
        data[0] ^= 0xFF  # flip a byte
        small_server.store.put(disk_id, cid, data)
        report = small_server.scrub()
        assert report.corrupt == [3]
        assert 3 not in report.clean

    def test_subset_of_stripes(self, small_server):
        report = small_server.scrub(stripe_indices=[0, 1, 2])
        assert report.stripes_checked == 3

    def test_latent_sector_error_degrades_not_raises(self, small_server):
        from repro.hdss.store import FaultyChunkStore

        small_server.store = FaultyChunkStore(small_server.store)
        stripe = small_server.layout[2]
        small_server.store.mark_bad(stripe.disks[0], ChunkId(2, 0))
        report = small_server.scrub()
        assert 2 in report.degraded
        assert 2 not in report.clean
        assert not report.corrupt

    def test_metadata_only_unpopulated(self, metadata_server):
        report = metadata_server.scrub()
        assert len(report.unpopulated) == 30
        assert report.healthy

    def test_repair_restores_health(self, small_server):
        """Fail, scrub, repair through the data path, scrub again: the
        failure degrades exactly the failed disk's stripes, and the repair
        lands every lost chunk on a spare and remaps placement onto it."""
        from repro.core import FullStripeRepair, recover_disk

        small_server.fail_disk(0)
        stripes = small_server.layout.stripe_set(0)
        report = small_server.scrub()
        # placement points at the dead disk -> degraded, not corrupt
        assert set(report.degraded) == set(stripes)
        assert not report.corrupt
        result = recover_disk(small_server, FullStripeRepair(), 0)
        stats = result.data_path
        # every lost chunk exists, byte-exact, on a spare ...
        for (si, shard, spare) in stats.writebacks:
            assert small_server.store.contains(spare, ChunkId(si, shard))
        # ... and placement was remapped onto it -> healthy again
        assert result.remapped == len(stats.writebacks)
        final = small_server.scrub()
        assert final.healthy
        assert len(final.clean) == 20

    def test_commit_updates_stripe_sets(self, small_server):
        from repro.core import FullStripeRepair, recover_disk

        small_server.fail_disk(0)
        before = small_server.layout.stripe_set(0)
        stats = recover_disk(small_server, FullStripeRepair(), 0).data_path
        assert small_server.layout.stripe_set(0) == []
        spares_used = {w[2] for w in stats.writebacks}
        for spare in spares_used:
            assert set(small_server.layout.stripe_set(spare)) <= set(before)

    def test_remap_rejects_duplicate_disk(self, small_server):
        stripe = small_server.layout[0]
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            small_server.layout.remap_shard(0, 0, stripe.disks[1])

    def test_remap_same_disk_noop(self, small_server):
        stripe = small_server.layout[0]
        out = small_server.layout.remap_shard(0, 0, stripe.disks[0])
        assert out.disks == stripe.disks
