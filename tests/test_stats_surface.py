"""The ``stats`` reply is pinned, structurally.

``tests/data/stats_keys.json`` records section → key → JSON type of the
reply a daemon gives with every plane on (overload control, cluster,
scrubber, loop monitor) after one degraded read, one repair, one healthy
read and one scrub cycle. It is compared as data, so a refactor of the
telemetry plane can prove it added, removed, renamed and re-typed nothing
that ``hdpsr top``, the benchmarks and the dashboards read. Regenerate it —
only when the reply is meant to change — with::

    PYTHONPATH=src python tests/test_stats_surface.py
"""

import asyncio
import json
import tempfile
from pathlib import Path

from repro.obs import MetricsRegistry, use_registry
from repro.obs.runtime import EventLoopMonitor
from repro.service import (
    ClusterConfig,
    ClusterNode,
    OverloadConfig,
    ServiceClient,
    ServiceDaemon,
)
from repro.service.scrub import ScrubConfig, Scrubber
from repro.service.chaos_rig import build_server, build_service

SNAPSHOT = Path(__file__).parent / "data" / "stats_keys.json"

#: Sections whose keys are data (disk ids, read paths, shard indices, node
#: ids, work classes): pinned as one ``*`` entry every value must share.
KEYED_BY_DATA = {
    "gates", "foreground", "overload.sheds",
    "cluster.epochs", "cluster.leases", "cluster.live_nodes",
}
JSON_TYPES = {
    bool: "boolean", int: "integer", float: "number", str: "string",
    type(None): "null",
}


def shape(value, path=""):
    """``value`` with every leaf replaced by the name of its JSON type; a
    list or a data-keyed map becomes ``{"*": <the shape its rows share>}``."""
    if isinstance(value, list) or (isinstance(value, dict) and path in KEYED_BY_DATA):
        rows = list(value.values()) if isinstance(value, dict) else value
        shapes = [shape(row, path + ".*") for row in rows]
        assert all(s == shapes[0] for s in shapes), f"{path}: rows differ"
        return {"*": shapes[0]} if shapes else {}
    if isinstance(value, dict):
        return {k: shape(v, f"{path}.{k}".lstrip(".")) for k, v in value.items()}
    return JSON_TYPES[type(value)]


async def stats_after_an_episode(cluster_root: str) -> dict:
    server = build_server()
    service = build_service(server, overload=OverloadConfig())
    # One cycle, then idle: no cycle is open when `stats` is asked.
    scrubber = Scrubber(service, ScrubConfig(interval_ms=0.0, cycle_pause_s=60.0))
    daemon = ServiceDaemon(
        service,
        monitor=EventLoopMonitor(interval=0.005),
        cluster=ClusterNode(
            ClusterConfig(root=cluster_root, node_id="node-a", durable=False)
        ),
        scrubber=scrubber,
    )
    port = await daemon.start()
    serving = asyncio.create_task(daemon.serve_until_stopped())
    shard = server.layout[0].disks.index(0)  # rotating placement: stripe 0 has disk 0
    async with await ServiceClient.connect("127.0.0.1", port) as client:
        await client.call("fail_disk", disk=0)
        await client.read_chunk(0, shard)  # degraded: decoded from survivors
        job = await client.call("repair", disk=0)
        await client.call("wait", job_id=job["job_id"])
        await client.read_chunk(0, shard)  # healthy again, off the spare
        assert await scrubber.wait_cycles(1)
        stats = await client.stats()
        await client.call("shutdown")
    await serving
    return stats


def current() -> dict:
    with use_registry(MetricsRegistry()), tempfile.TemporaryDirectory() as root:
        return shape(asyncio.run(stats_after_an_episode(root)))


def test_stats_reply_matches_the_snapshot():
    want, got = json.loads(SNAPSHOT.read_text()), current()
    for section in want:
        assert got.get(section) == want[section], section
    assert got == want  # nothing added


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps(current(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {SNAPSHOT}")
