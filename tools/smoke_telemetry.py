#!/usr/bin/env python3
"""Telemetry smoke: a real ``hdpsr serve`` process whose ``/healthz`` flips
ready, whose ``/metrics`` is scrapeable with counters monotone across a
repair episode, whose TCP ``metrics`` verb exposes the same series as HTTP
``/metrics`` without a ``stats`` call to prime either, whose page-cached
chunk reads ran on the event loop (a non-zero ``path="loop"`` series), and
whose ``top --once --json`` reports job progress and foreground p99.

    PYTHONPATH=src python tools/smoke_telemetry.py [WORKDIR]

CI calls this script and ``tests/test_cli_service.py`` imports
:func:`main`, so the two cannot disagree about what the smoke checks.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from repro.obs.exporters import parse_prometheus_text
from repro.service.client import ServiceClient, spawn_hdpsr, wait_for_port_file

REQUIRED_SERIES = (
    "hdpsr_runtime_loop_lag_seconds_count",
    "hdpsr_service_gate_inflight",
    "hdpsr_service_job_progress_ratio",
    "hdpsr_service_read_latency_seconds_count",
)
READS = "hdpsr_service_foreground_reads_total"
#: Chunk reads the page cache answered on the event loop: the store is
#: file shards of 32 KiB chunks, so the front door's reads take that path.
LOOP_READS = ("hdpsr_service_chunk_reads_total", (("path", "loop"),))


def hdpsr(*argv: str) -> str:
    """Run ``hdpsr <argv>`` to completion; its stdout (non-zero exit raises)."""
    proc = spawn_hdpsr(*argv, stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate()
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return out


def series(snap: dict, name: str) -> dict:
    return {k: v for k, v in snap.items() if k[0] == name}


def main(workdir: Path) -> int:
    workdir.mkdir(parents=True, exist_ok=True)
    port_file, http_port_file = workdir / "tel.port", workdir / "tel-http.port"
    daemon = spawn_hdpsr(
        "serve", "--num-disks", "12", "--chunk-size", "32KiB",
        "--disk-size", "128KiB", "--placement", "rotating", "--seed", "7",
        "--store", str(workdir / "tel-store"), "--no-fsync",
        "--port-file", str(port_file),
        "--metrics-port-file", str(http_port_file),
    )
    try:
        base = f"http://127.0.0.1:{wait_for_port_file(http_port_file, 15.0, daemon)}"
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            try:
                if urllib.request.urlopen(base + "/healthz").status == 200:
                    break
            except OSError:
                time.sleep(0.05)
        else:
            sys.exit("daemon never became ready")

        def scrape() -> dict:
            text = urllib.request.urlopen(base + "/metrics").read().decode()
            return dict(parse_prometheus_text(text))

        port = wait_for_port_file(port_file, 15.0, daemon)

        def ask(op: str) -> dict:
            async def call() -> dict:
                async with await ServiceClient.connect("127.0.0.1", port) as client:
                    return await client.call(op)

            return asyncio.run(call())

        def scrape_verb() -> dict:
            return dict(parse_prometheus_text(ask("metrics")["metrics_text"]))

        first = scrape_verb()
        hdpsr("client", "--port-file", str(port_file), "--reads", "40",
              "--fail", "0", "--json")
        # Back to back, and no `stats` before either: both doors run the
        # same scrape-time gauge export, so neither depends on the other
        # (or on `hdpsr top`) having been asked first.
        over_tcp, second = scrape_verb(), scrape()
        tcp_names, names = ({name for name, _ in s} for s in (over_tcp, second))
        assert tcp_names == names, sorted(tcp_names ^ names)

        for required in REQUIRED_SERIES:
            assert series(second, required), f"missing {required}"
        assert second.get(LOOP_READS, 0) > 0, "no chunk read ran on the loop"
        before = sum(series(first, READS).values())
        after = sum(series(second, READS).values())
        assert after >= before + 40, (before, after)
        for name in (READS, "hdpsr_runtime_ticks_total"):
            for key, value in series(first, name).items():
                assert second.get(key, 0) >= value, f"{key} went backwards"

        snap = json.loads(
            hdpsr("top", "--port-file", str(port_file), "--once", "--json"))
        assert snap["jobs"] and snap["jobs"][0]["done"], snap["jobs"]
        assert "p99" in snap["foreground"]["healthy"], snap["foreground"]

        ask("shutdown")
        print("telemetry smoke ok:", len(second), "series,",
              int(after), "foreground reads")
        return daemon.wait(timeout=30.0)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1] if len(sys.argv) > 1 else "telemetry-smoke")))
