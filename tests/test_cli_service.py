"""End-to-end ``hdpsr serve`` / ``hdpsr client`` subprocess tests.

These drive the real wire path: a daemon subprocess on an ephemeral port
(discovered through ``--port-file``), a client subprocess failing a disk
and hammering the front door, and — for the crash leg — a scripted
``process_crash`` that kills the daemon mid-repair followed by a second
incarnation resuming from the journal.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

from repro.service.client import spawn_hdpsr

from tests.conftest import START_TIMEOUT

SERVER_ARGS = [
    "--num-disks", "12", "--chunk-size", "32KiB", "--disk-size", "128KiB",
    "--placement", "rotating", "--seed", "7",
]


def _run_client(port: int, *extra) -> subprocess.CompletedProcess:
    proc = spawn_hdpsr(
        "client", "--port", str(port), "--reads", "40", "--json", *extra,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=START_TIMEOUT * 2)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


class TestServeClientSmoke:
    def test_repair_under_load_exits_clean(self, serve, tmp_path):
        proc, port = serve("--store", str(tmp_path / "store"), "--no-fsync")
        result = _run_client(port, "--fail", "0", "--shutdown")
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert not report["crashed"]
        assert report["reads"] == 40
        assert report["read_errors"] == []
        (repair,) = report["repairs"]
        assert repair["certified"] and repair["stripes_lost"] == 0
        assert report["read_p99_seconds"] >= report["read_p50_seconds"] >= 0
        assert proc.wait(timeout=START_TIMEOUT) == 0

    def test_two_disk_workload(self, serve):
        proc, port = serve()
        result = _run_client(port, "--fail", "0", "--fail", "6", "--shutdown")
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert {r["disk"] for r in report["repairs"]} == {0, 6}
        assert all(r["certified"] for r in report["repairs"])
        assert proc.wait(timeout=START_TIMEOUT) == 0

    def test_crash_then_resume(self, serve, tmp_path):
        faults = tmp_path / "crash.json"
        faults.write_text(json.dumps(
            {"events": [{"at": 2e-4, "kind": "process_crash"}]}
        ))
        store, journal = str(tmp_path / "store"), str(tmp_path / "journal")
        common = ["--store", store, "--journal", journal, "--no-fsync",
                  "--faults", str(faults), "--max-stripes", "1"]

        proc, port = serve(*common)
        result = _run_client(port, "--fail", "0")
        assert result.returncode == 4, result.stderr  # EXIT_CRASHED
        assert json.loads(result.stdout)["crashed"]
        assert proc.wait(timeout=START_TIMEOUT) == 4
        assert "restart the service" in proc.communicate()[1]

        # Second incarnation: same config/store/faults; the journal's
        # resume count skips the already-fired crash.
        proc2, port2 = serve(*common)
        result = _run_client(port2, "--fail", "0", "--resume", "--shutdown")
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        (repair,) = report["repairs"]
        assert repair["certified"] and not report["crashed"]
        assert proc2.wait(timeout=START_TIMEOUT) == 0


class TestCISmokes:
    """The multi-process smokes CI runs, run here the way CI runs them:
    ``tools/<script>.py``'s ``main(workdir)`` launches its own daemons and
    exits 0 when every check held."""

    @pytest.mark.parametrize(
        "script", ["smoke_telemetry", "smoke_cluster_handoff", "smoke_scrub_resume"]
    )
    def test_smoke_passes(self, script, tmp_path):
        spec = importlib.util.spec_from_file_location(
            script, Path(__file__).parent.parent / "tools" / f"{script}.py"
        )
        smoke = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(smoke)
        assert smoke.main(tmp_path / "work") == 0
