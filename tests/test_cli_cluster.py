"""CLI cluster surface: ``hdpsr chaos`` and ``hdpsr top --endpoint``.

``chaos`` runs fully in-process (two daemons on ephemeral ports inside
one event loop), so ``main([...])`` is enough. The ``top`` aggregation
tests front a real ``serve`` subprocess the way the single-endpoint smoke
tests in ``test_cli_service.py`` do.
"""

import json
import os

import pytest

from repro.cli import main

SERVER_ARGS = [
    "--n", "5", "--k", "3", "--num-disks", "12", "--chunk-size", "2KiB",
    "--disk-size", "16KiB", "--memory", "16", "--ros", "0",
    "--placement", "rotating", "--seed", "11", "--no-fsync",
]


class TestChaosCommand:
    def test_chaos_passes_and_writes_report(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code = main([
            "chaos", "--dir", str(tmp_path / "run"), "--json",
            "--output", str(out_file),
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["failures"] == []
        assert report["byte_identical"] is True
        assert report["duplicate_writes"] == []
        assert report["stale_owner_fenced"] is True
        assert json.loads(out_file.read_text()) == report

    def test_chaos_human_summary(self, tmp_path, capsys):
        code = main(["chaos", "--dir", str(tmp_path / "run")])
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos: PASS" in out
        assert "takeover" in out


class TestTopEndpoint:
    def test_aggregated_json_over_two_daemons(self, serve, tmp_path, capsys):
        cluster = tmp_path / "cluster"
        common = [
            "--cluster-dir", str(cluster), "--cluster-shards", "4",
            "--lease-ttl", "1.0", "--heartbeat-interval", "0.25",
            "--journal", str(tmp_path / "journal"),
        ]
        _, port_a = serve(
            "--store", str(tmp_path / "store"), "--node-id", "a", *common,
        )
        _, port_b = serve(
            "--store", str(tmp_path / "store"), "--attach", "--node-id", "b",
            "--daemon-index", "1", *common,
        )
        ep_a, ep_b = f"127.0.0.1:{port_a}", f"127.0.0.1:{port_b}"
        code = main([
            "top", "--endpoint", ep_a, "--endpoint", ep_b, "--once", "--json",
        ])
        assert code == 0
        snapshots = json.loads(capsys.readouterr().out)
        assert set(snapshots) == {ep_a, ep_b}
        assert snapshots[ep_a]["cluster"]["node"] == "a"
        assert snapshots[ep_b]["cluster"]["node"] == "b"
        # First comer holds every shard; the second stays sticky.
        assert snapshots[ep_a]["cluster"]["owned_shards"] == [0, 1, 2, 3]
        assert snapshots[ep_b]["cluster"]["owned_shards"] == []
        assert "jobs" in snapshots[ep_a]["stats"]

        # The human-readable frame renders both tables.
        code = main(["top", "--endpoint", ep_a, "--endpoint", ep_b, "--once"])
        assert code == 0
        frame = capsys.readouterr().out
        assert "cluster daemons" in frame
        assert "shard leases" in frame

    def test_single_endpoint_json_shape_is_stable(self, serve, tmp_path, capsys):
        # The pre-cluster contract: no --endpoint, same snapshot keys.
        _, port = serve("--store", str(tmp_path / "store"))
        code = main(["top", "--port", str(port), "--once", "--json"])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        for key in ("jobs", "foreground", "memory", "failed"):
            assert key in stats

    def test_all_endpoints_down_exits_one(self, capsys):
        code = main([
            "top", "--endpoint", "127.0.0.1:1", "--once", "--json",
        ])
        assert code == 1


class ClosedPipe:
    """A stdout whose reader went away (``hdpsr top --once | head``): every
    write raises, over a real descriptor with nobody on the other end."""

    def __init__(self):
        reader, self.fd = os.pipe()
        os.close(reader)

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


class TestClosedStdout:
    """A closed pipe is a clean exit — no traceback — from every command
    that prints a daemon snapshot, not only single-daemon ``top``."""

    @pytest.mark.parametrize("command", [
        lambda port: ["top", "--port", str(port), "--once"],
        lambda port: ["top", "--endpoint", f"127.0.0.1:{port}", "--once"],
        lambda port: ["scrub", "--port", str(port)],
    ], ids=["top", "top-endpoint", "scrub"])
    def test_exits_zero(self, serve, monkeypatch, command):
        _, port = serve()
        pipe = ClosedPipe()
        monkeypatch.setattr("sys.stdout", pipe)
        try:
            assert main(command(port)) == 0
        finally:
            os.close(pipe.fd)
