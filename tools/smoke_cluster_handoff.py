#!/usr/bin/env python3
"""Cluster handoff smoke, the real two-process flow: daemon ``a`` (the
owner) dies on a scripted ``daemon_crash`` mid-repair; daemon ``b``
attaches to the same store, claims the leases, and finishes the repair
byte-identically from ``a``'s journal.

Then the machine "goes down" instead of a process: the journal is cut back
to its fsync'd ``begin`` (``stripe_done`` records are flushed, not fsync'd)
and one rebuilt chunk loses its rename, which only the job's directory
sync before ``complete`` makes durable (the chunk is absent, its dead
writer's tmp file left behind). A third daemon over the same store and
journal must sweep the tmp, believe no record, repair every stripe from
the plan and certify byte-identically.

    PYTHONPATH=src python tools/smoke_cluster_handoff.py [WORKDIR]

CI calls this script and ``tests/test_cli_service.py`` imports
:func:`main`, so the two cannot disagree about what the smoke checks.
"""

from __future__ import annotations

import asyncio
import sys
import time
import urllib.request
from pathlib import Path

from repro.faults import EXIT_CRASHED
from repro.journal.wal import WALReader, encode_record, list_segments
from repro.service.client import ServiceClient, spawn_hdpsr, wait_for_port_file

DISK = 3
SHARDS = 4
NUM_DISKS = 12


async def wait_owner(port: int, deadline: float) -> None:
    """``a`` must be the first comer: the scenario needs the crashing daemon
    to own the failed disk's shard."""
    async with await ServiceClient.connect("127.0.0.1", port) as client:
        while time.monotonic() < deadline:
            st = await client.call("cluster")
            if len(st.get("owned_shards") or []) == SHARDS:
                return
            await asyncio.sleep(0.1)
    sys.exit("daemon a never claimed every shard")


async def episode(port_a: int, port_b: int, mport_b: int) -> dict:
    """Drive the handoff and gate recovery on ``b``'s ``/healthz``; returns
    every object's bytes as first read."""
    async with await ServiceClient.connect("127.0.0.1", port_a) as a, \
            await ServiceClient.connect("127.0.0.1", port_b) as b:
        hello = await a.call("ping")
        objects = {
            si: await a.read_object(si) for si in range(int(hello["num_stripes"]))
        }
        await a.call("fail_disk", disk=DISK)
        await a.call("repair", disk=DISK)
        # a dies on the scripted crash mid-repair; wait for b to claim the
        # lease and finish the handoff job.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            st = await b.call("cluster")
            if DISK in (st.get("handoffs") or []):
                break
            await asyncio.sleep(0.1)
        else:
            sys.exit(f"b never took over disk {DISK}'s repair")
        jobs = []
        while time.monotonic() < deadline:
            stats = await b.call("stats")
            jobs = [j for j in stats["jobs"] if j["disk"] == DISK]
            if jobs and jobs[-1]["done"]:
                break
            await asyncio.sleep(0.1)
        summary = await b.call("wait", job_id=jobs[-1]["job_id"])
        assert summary["certified"], summary
        assert summary["resumed_stripes"] > 0, summary
        for si, want in objects.items():
            got = await b.read_object(si)
            assert got == want, f"stripe {si} bytes diverged"
        health = urllib.request.urlopen(f"http://127.0.0.1:{mport_b}/healthz")
        assert health.status == 200, health.status
        await b.call("shutdown")
    print("cluster failover smoke ok: survivor finished",
          summary["stripes_repaired"], "stripes, resumed",
          summary["resumed_stripes"])
    return objects


def lose_the_tail_and_a_rename(journal: Path, store: Path, writer_pid: int) -> None:
    """What a power cut may leave of a repair before its ``complete``: the
    journal's fsync'd ``begin`` alone, and one rebuilt chunk whose rename
    never reached the disk — back under a tmp name carrying a writer pid,
    ``writer_pid``, that is no longer alive."""
    first, *rest = list_segments(journal)
    begin = next(iter(WALReader(journal)))
    assert begin.type == "begin", begin.type
    first.write_bytes(encode_record(begin))
    for segment in rest:
        segment.unlink()
    rebuilt = sorted(
        p for p in store.glob("shard-*/disk-*/s*.chunk")
        if int(p.parent.name.split("-")[1]) >= NUM_DISKS  # on a spare
    )
    victim = rebuilt[0]
    victim.rename(victim.with_name(f"{victim.name}.{writer_pid}.deadbeef.tmp"))


async def lost_tail_episode(port: int, objects: dict) -> None:
    """Every stripe is redone from the plan: no record survived to replay."""
    async with await ServiceClient.connect("127.0.0.1", port) as c:
        stats = await c.call("stats")
        assert stats["store"]["swept_tmp_files"] == 1, stats["store"]
        await c.call("fail_disk", disk=DISK)
        job = await c.call("repair", disk=DISK, resume=True)
        summary = await c.call("wait", job_id=job["job_id"])
        assert summary["certified"], summary
        assert summary["resumed_stripes"] == 0, summary
        assert summary["stripes_repaired"] == summary["stripes"], summary
        for si, want in objects.items():
            got = await c.read_object(si)
            assert got == want, f"stripe {si} bytes diverged"
        await c.call("shutdown")
    print("lost-tail smoke ok: every one of", summary["stripes"],
          "stripes repaired fresh over a lost rename")


def main(workdir: Path) -> int:
    workdir.mkdir(parents=True, exist_ok=True)
    crash = workdir / "daemon-crash.json"
    # `hdpsr chaos`'s default crash point: 6.5 reads of 2 KiB on the read
    # clock, the third stripe's second read, with two stripes journaled.
    crash.write_text(
        '{"events": [{"at": 7.4e-5, "kind": "daemon_crash", "daemon": 0}]}\n'
    )
    store, journal = workdir / "cluster-store", workdir / "cluster-journal"
    common = [
        "--n", "5", "--k", "3", "--num-disks", str(NUM_DISKS), "--chunk-size", "2KiB",
        "--disk-size", "16KiB", "--memory", "16", "--ros", "0", "--seed", "11",
        "--placement", "rotating", "--store", str(store),
        "--journal", str(journal), "--no-fsync",
        # One stripe at a time, as in `hdpsr chaos`: with the default four in
        # flight, wall-clock interleaving decides whether any stripe is
        # journaled by the crash instant, and `resumed_stripes > 0` flakes.
        "--max-stripes", "1",
    ]
    cluster = [
        "--cluster-dir", str(workdir / "cluster-leases"),
        "--cluster-shards", str(SHARDS), "--lease-ttl", "1.0",
        "--heartbeat-interval", "0.25",
    ]

    def serve(node: str, index: int, *extra: str):
        return spawn_hdpsr(
            "serve", *common, "--node-id", node, "--daemon-index", str(index),
            "--port-file", str(workdir / f"{node}.port"),
            "--metrics-port-file", str(workdir / f"{node}.mport"), *extra,
        )

    daemons = [serve("a", 0, *cluster, "--faults", str(crash))]
    try:
        deadline = time.monotonic() + 30.0
        port_a = wait_for_port_file(workdir / "a.port", 30.0, daemons[0])
        asyncio.run(wait_owner(port_a, deadline))
        daemons.append(serve("b", 1, *cluster, "--attach"))
        port_b = wait_for_port_file(workdir / "b.port", 30.0, daemons[1])
        mport_b = wait_for_port_file(workdir / "b.mport", 30.0, daemons[1])
        objects = asyncio.run(episode(port_a, port_b, mport_b))
        rc_a, rc_b = (d.wait(timeout=30.0) for d in daemons)
        assert rc_a == EXIT_CRASHED, rc_a  # the scripted kill fired
        assert rc_b == 0, rc_b

        # A lone daemon (no leases to wait out) over what the crash left.
        lose_the_tail_and_a_rename(
            journal / f"disk-{DISK:03d}", store, daemons[1].pid
        )
        daemons.append(serve("c", 2, "--attach"))
        port_c = wait_for_port_file(workdir / "c.port", 30.0, daemons[2])
        asyncio.run(lost_tail_episode(port_c, objects))
        rc_c = daemons[2].wait(timeout=30.0)
        assert rc_c == 0, rc_c
        return 0
    finally:
        for daemon in daemons:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1] if len(sys.argv) > 1 else "cluster-smoke")))
