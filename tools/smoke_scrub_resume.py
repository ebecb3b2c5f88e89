#!/usr/bin/env python3
"""Scrub resume smoke, the real-process flow: a scrubbing daemon (fsync
on) is ``kill -9``'d once its cursor has three disks done; a second daemon
over the same store and journal must resume cycle 1 at the first
unfinished disk instead of starting a fresh cycle.

A ``scrub_disk_done`` is flushed, not fsync'd, so it survives the death
of the process — which is what this smoke kills.

    PYTHONPATH=src python tools/smoke_scrub_resume.py [WORKDIR]

CI calls this script and ``tests/test_cli_service.py`` imports
:func:`main`, so the two cannot disagree about what the smoke checks.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from repro.service.client import spawn_hdpsr, wait_for_port_file

#: Disks the first daemon must have finished before it is killed.
DONE_BEFORE_KILL = 3


def scrub_status(port_file: Path) -> dict:
    """What ``hdpsr scrub --json`` reports of the daemon at ``port_file``."""
    out = spawn_hdpsr(
        "scrub", "--port-file", str(port_file), "--json",
        stdout=subprocess.PIPE, text=True,
    ).communicate(timeout=30.0)[0]
    return json.loads(out)


def main(workdir: Path) -> int:
    workdir.mkdir(parents=True, exist_ok=True)
    common = [
        "--num-disks", "12", "--chunk-size", "32KiB", "--disk-size", "2MiB",
        "--placement", "rotating", "--seed", "7",
        "--store", str(workdir / "scrub-store"),
        "--journal", str(workdir / "scrub-journal"),
        "--scrub", "--scrub-interval-ms", "20",
    ]
    daemons = []

    def serve(name: str, *extra: str, stdout=subprocess.DEVNULL) -> int:
        port_file = workdir / f"{name}.port"
        daemons.append(spawn_hdpsr(
            "serve", *common, "--port-file", str(port_file), *extra,
            stdout=stdout, text=True,
        ))
        return wait_for_port_file(port_file, 30.0, daemons[-1])

    try:
        serve("a")
        deadline = time.monotonic() + 60.0
        while scrub_status(workdir / "a.port")["disks_done"] < DONE_BEFORE_KILL:
            if time.monotonic() > deadline:
                sys.exit("scrub resume smoke: daemon a made no progress")
            time.sleep(0.1)
        daemons[0].kill()  # SIGKILL: no graceful cycle_done, no close
        daemons[0].wait()

        serve("b", "--attach", stdout=subprocess.PIPE)  # its banner
        status = scrub_status(workdir / "b.port")
        if (status["cycle"], status["resumed_cycles"]) != (1, 1):
            sys.exit(f"scrub resume smoke: b did not resume cycle 1: {status}")
        daemons[1].terminate()
        banner = daemons[1].communicate(timeout=30.0)[0]
        if "resuming cycle 1" not in banner:
            sys.exit(f"scrub resume smoke: b's banner names no resume: {banner}")
        print("scrub resume smoke ok: b resumed cycle 1 with",
              status["disks_done"], "of", status["disks_total"], "disks done")
        return 0
    finally:
        for daemon in daemons:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1] if len(sys.argv) > 1 else "scrub-smoke")))
