"""The live telemetry plane: trace propagation, scrape verbs, /healthz.

Runs the daemon in-process (no subprocess) so the client and server share
one RecordingTracer — which is exactly what proves the span tree of a
traced client request stays *connected* across the wire. No pytest-asyncio
in the toolchain: every test drives its coroutine with ``asyncio.run``.
"""

import asyncio
from pathlib import Path

import pytest

from repro.obs import (
    EventLoopMonitor,
    MetricsRegistry,
    RecordingTracer,
    parse_prometheus_text,
    use_registry,
    use_tracer,
)
from repro.obs.context import new_span_context, use_span
from repro.obs.exporters import chrome_trace
from repro.service import ServiceClient
from repro.service.telemetry import TelemetryServer, stats_snapshot
from repro.service import protocol
from repro.service.chaos_rig import NUM_DISKS
from repro.service.chaos_rig import build_server as make_server
from repro.service.chaos_rig import build_service as make_service
from repro.service.netserver import OPS
from repro.service.protocol import MAX_REQUEST_BYTES, ProtocolError

from tests.conftest import start_daemon


def lost_chunk_of(server, disk_id):
    """(stripe, shard) living on ``disk_id`` — lost once the disk fails."""
    for si, stripe in enumerate(server.layout):
        for shard, disk in enumerate(stripe.disks):
            if disk == disk_id:
                return si, shard
    raise AssertionError(f"disk {disk_id} holds no chunks")


async def http_get(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), body.decode()


# ---------------------------------------------------------------------------
# End-to-end trace propagation
# ---------------------------------------------------------------------------
class TestTracePropagation:
    def test_degraded_read_yields_connected_span_tree(self):
        tracer = RecordingTracer()
        registry = MetricsRegistry()

        async def run():
            server = make_server()
            service = make_service(server)
            daemon, port, task = await start_daemon(service)
            client = await ServiceClient.connect("127.0.0.1", port)
            root = new_span_context()
            with use_span(root):
                await client.call("fail_disk", disk=0)
                await client.call("repair", disk=0)
                si, shard = lost_chunk_of(server, 0)
                await client.read_chunk(si, shard)  # degraded path
                reply = await client.call("wait", job_id=0)
            assert reply["trace_id"] == root.trace_id
            await client.call("shutdown")
            await client.close()
            await task
            return root

        with use_tracer(tracer), use_registry(registry):
            root = asyncio.run(run())

        events = [e for e in tracer.events if e.args.get("trace_id") == root.trace_id]
        cats = {e.category for e in events}
        # The daemon side of each call plus the request's anatomy.
        assert "request" in cats
        assert "wait" in cats      # admission-gate / piggyback waits
        assert "read" in cats      # survivor reads
        assert "decode" in cats    # partial decode
        assert "writeback" in cats # shard write-back
        # Connectivity: walking parent_id from any event reaches the root.
        by_span = {e.args["span_id"]: e for e in events}
        for event in events:
            seen = set()
            cursor = event.args
            while cursor.get("parent_id") is not None:
                parent = cursor["parent_id"]
                assert parent not in seen, "parent cycle"
                seen.add(parent)
                if parent == root.span_id:
                    break
                assert parent in by_span, (
                    f"{event.name}: dangling parent {parent}"
                )
                cursor = by_span[parent].args
            else:
                pytest.fail(f"{event.name} has no parent chain to the root")

    def test_survivor_read_span_does_not_contain_a_gate_wait(self):
        """The gate emits its own ``wait`` span; the survivor's ``read``
        span times the ``get`` alone, so a slow gate is counted once.
        Every live disk's single gate slot is held until a repair round
        queues behind one, then for a known interval more."""
        tracer = RecordingTracer()
        hold = 0.05

        async def run():
            server = make_server()
            service = make_service(server, per_disk_reads=1)
            server.fail_disk(0)
            release = asyncio.Event()

            async def blocker(disk):
                async with service.gate.read(disk):
                    await release.wait()

            blockers = [asyncio.create_task(blocker(d)) for d in range(1, NUM_DISKS)]
            await asyncio.sleep(0)  # every blocker takes its slot
            ticket = service.submit_repair(0)
            while not any(
                row["waiting_background"] for row in service.gate.depths().values()
            ):
                await asyncio.sleep(0.001)
            await asyncio.sleep(hold)
            release.set()
            await asyncio.gather(*blockers)
            result = await ticket.wait()
            await service.close()
            return result

        with use_tracer(tracer):
            assert asyncio.run(asyncio.wait_for(run(), timeout=60)).certified
        reads = [e for e in tracer.spans("read") if e.name.startswith("survivor:")]
        waits = [e for e in tracer.spans("wait") if e.name.startswith("gate:")]
        assert reads and any(w.duration >= hold for w in waits)
        for read in reads:
            for wait in waits:
                if wait.args["disk"] == read.args["disk"]:
                    inside = read.ts <= wait.ts and wait.end <= read.end
                    assert not inside, (read, wait)

    def test_trace_exports_to_chrome_trace_with_ids(self):
        tracer = RecordingTracer()
        registry = MetricsRegistry()

        async def run():
            server = make_server()
            service = make_service(server)
            daemon, port, task = await start_daemon(service)
            client = await ServiceClient.connect("127.0.0.1", port)
            root = new_span_context()
            with use_span(root):
                await client.call("ping")
            await client.call("shutdown")
            await client.close()
            await task
            return root

        with use_tracer(tracer), use_registry(registry):
            root = asyncio.run(run())
        doc = chrome_trace(tracer)
        stamped = [
            e for e in doc["traceEvents"]
            if e.get("args", {}).get("trace_id") == root.trace_id
        ]
        assert stamped, "trace ids must survive the Chrome export"

    def test_untraced_calls_carry_no_trace(self):
        async def run():
            server = make_server()
            service = make_service(server)
            daemon, port, task = await start_daemon(service)
            client = await ServiceClient.connect("127.0.0.1", port)
            reply = await client.call("ping")
            assert "trace_id" not in reply
            await client.call("shutdown")
            await client.close()
            await task

        asyncio.run(run())

    def test_workload_report_carries_trace_id(self):
        from repro.service import run_workload

        async def run():
            server = make_server()
            service = make_service(server)
            daemon, port, task = await start_daemon(service)
            report = await run_workload(
                "127.0.0.1", port, disks=[0], reads=8, read_concurrency=2,
                shutdown=True,
            )
            await task
            return report

        report = asyncio.run(run())
        assert len(report["trace_id"]) == 16
        assert report["exit_code"] == 0


# ---------------------------------------------------------------------------
# stats / metrics verbs
# ---------------------------------------------------------------------------
class TestScrapeVerbs:
    def test_stats_reports_progress_gates_and_percentiles(self):
        registry = MetricsRegistry()

        async def run():
            server = make_server()
            service = make_service(server)
            daemon, port, task = await start_daemon(
                service, monitor=EventLoopMonitor(interval=0.01)
            )
            client = await ServiceClient.connect("127.0.0.1", port)
            await client.call("fail_disk", disk=0)
            await client.call("repair", disk=0)
            si, shard = lost_chunk_of(server, 0)
            await client.read_chunk(si, shard)
            await client.call("wait", job_id=0)
            await asyncio.sleep(0.05)  # let the loop monitor tick
            stats = await client.stats()
            await client.call("shutdown")
            await client.close()
            await task
            return stats

        with use_registry(registry):
            stats = asyncio.run(run())
        (job,) = stats["jobs"]
        assert job["done"] is True
        assert job["stripes_done"] == job["stripes_total"] > 0
        assert job["eta_seconds"] == 0.0
        assert job["algorithm"] == "hd-psr-ap"
        assert stats["gates"], "per-disk gate depths must be reported"
        gate = next(iter(stats["gates"].values()))
        assert set(gate) == {
            "width", "inflight", "waiting_foreground", "waiting_background"
        }
        assert stats["foreground"], "read percentiles must be reported"
        paths = set(stats["foreground"])
        assert paths & {"piggyback", "decode"}, "the degraded read must show"
        for entry in stats["foreground"].values():
            assert entry["count"] >= 1
            assert "p99" in entry
        assert stats["runtime"]["ticks"] > 0

    def test_stats_refreshes_progress_gauges(self):
        registry = MetricsRegistry()

        async def run():
            server = make_server()
            service = make_service(server)
            server.fail_disk(0)
            ticket = service.submit_repair(0)
            await ticket.wait()
            return stats_snapshot(service)

        with use_registry(registry):
            snap = asyncio.run(run())
        assert snap["jobs"][0]["done"]
        from repro.service.telemetry import JOB_PROGRESS
        gauge = registry.get(JOB_PROGRESS)
        assert gauge is not None
        assert gauge.labels(disk="0", job="0").value == 1.0

    def test_metrics_verb_returns_prometheus_text(self):
        registry = MetricsRegistry()

        async def run():
            server = make_server()
            service = make_service(server)
            daemon, port, task = await start_daemon(service)
            client = await ServiceClient.connect("127.0.0.1", port)
            await client.read_chunk(0, 0)
            text = await client.metrics_text()
            await client.call("shutdown")
            await client.close()
            await task
            return text

        with use_registry(registry):
            text = asyncio.run(run())
        parsed = parse_prometheus_text(text)
        names = {name for name, _ in parsed}
        assert "hdpsr_service_foreground_reads_total" in names

    def test_one_latency_type_counts_every_front_door_read(self):
        """Every latency the daemon exports is a histogram: no summary on
        either ``/metrics`` door, and the read-latency histogram counts
        exactly the front-door reads served, by path."""
        registry = MetricsRegistry()

        async def run():
            server = make_server()
            service = make_service(server)
            telemetry = TelemetryServer()
            await telemetry.start()
            daemon, port, task = await start_daemon(
                service, monitor=EventLoopMonitor(interval=0.005),
                telemetry=telemetry,
            )
            client = await ServiceClient.connect("127.0.0.1", port)
            healthy = [(si, 0) for si in range(len(server.layout))]
            for si, shard in healthy:
                await client.read_chunk(si, shard)
            await client.call("fail_disk", disk=0)
            await client.read_chunk(*lost_chunk_of(server, 0))
            await asyncio.sleep(0.02)  # let the loop monitor tick
            texts = [await client.metrics_text(),
                     (await http_get(telemetry.port, "/metrics"))[1]]
            await client.call("shutdown")
            await client.close()
            await task
            return len(healthy) + 1, texts

        with use_registry(registry):
            served, texts = asyncio.run(run())
        for text in texts:
            types = dict(
                line.split()[2:4] for line in text.splitlines()
                if line.startswith("# TYPE ")
            )
            assert "summary" not in types.values()
            for name in ("hdpsr_service_read_latency_seconds",
                         "hdpsr_runtime_loop_lag_seconds"):
                assert types[name] == "histogram"
            counts = {
                labels: value
                for (name, labels), value in parse_prometheus_text(text).items()
                if name == "hdpsr_service_read_latency_seconds_count"
            }
            assert sum(counts.values()) == served
            assert counts[(("path", "healthy"),)] == served - 1

    def test_checked_in_metric_dumps_hold_no_summary(self):
        results = Path(__file__).resolve().parent.parent / "benchmarks" / "results"
        dumps = sorted(results.glob("*.prom"))
        assert dumps
        for dump in dumps:
            for line in dump.read_text().splitlines():
                assert not (line.startswith("# TYPE ")
                            and line.split()[-1] == "summary"), (dump.name, line)

    def test_ops_tuple_covers_dispatch(self):
        assert "stats" in OPS and "metrics" in OPS


# ---------------------------------------------------------------------------
# HTTP listener: /metrics + /healthz readiness
# ---------------------------------------------------------------------------
class TestJobProgress:
    def test_resumed_job_eta_extrapolates_from_decoded_stripes_only(self):
        """A stripe replayed from the journal costs no read, so a resumed
        job's ETA comes from the stripes this incarnation decoded."""
        import time

        from repro.core.plans import RepairPlan, StripePlan
        from repro.service.service import ServiceJob

        plan = RepairPlan("fsr", [StripePlan(i, [[0, 1, 2]]) for i in range(4)])
        job = ServiceJob(plan, [0, 1, 2, 3], [[1, 2, 3]] * 4, [0], {})
        job.started_wall = time.monotonic() - 2.0
        job.stats.resumed_stripes = 2
        job.stripes_done = 2  # replayed only: nothing to extrapolate from
        assert job.progress()["eta_seconds"] is None
        job.stripes_done = 3  # one stripe decoded in 2 s, one left
        assert 2.0 <= job.progress()["eta_seconds"] < 3.0


class TestTelemetryServer:
    def test_healthz_flips_with_daemon_lifecycle(self):
        registry = MetricsRegistry()

        async def run():
            server = make_server()
            service = make_service(server)
            telemetry = TelemetryServer()
            tport = await telemetry.start()
            status, body = await http_get(tport, "/healthz")
            assert (status, body) == (503, "starting\n")

            daemon, port, task = await start_daemon(service, telemetry=telemetry)
            for _ in range(100):
                status, body = await http_get(tport, "/healthz")
                if status == 200:
                    break
                await asyncio.sleep(0.01)
            assert (status, body) == (200, "ok\n")

            client = await ServiceClient.connect("127.0.0.1", port)
            await client.read_chunk(0, 0)
            status, text = await http_get(tport, "/metrics")
            assert status == 200
            await client.call("shutdown")
            await client.close()
            await task
            assert telemetry.ready is False
            with pytest.raises(OSError):
                await http_get(tport, "/healthz")  # listener is gone
            return text

        with use_registry(registry):
            text = asyncio.run(run())
        assert "hdpsr_" in text

    def test_metrics_scrape_refreshes_progress_gauges(self):
        # The daemon wires TelemetryServer.refresh to stats_snapshot, so
        # an HTTP scrape materializes the scrape-time gauges (job
        # progress, writer backlog) even if no `stats` verb ever ran.
        registry = MetricsRegistry()

        async def run():
            server = make_server()
            server.fail_disk(0)
            service = make_service(server)
            telemetry = TelemetryServer()
            tport = await telemetry.start()
            daemon, port, task = await start_daemon(service, telemetry=telemetry)
            await service.submit_repair(0).wait()
            status, text = await http_get(tport, "/metrics")
            assert status == 200
            client = await ServiceClient.connect("127.0.0.1", port)
            await client.call("shutdown")
            await client.close()
            await task
            return text

        with use_registry(registry):
            text = asyncio.run(run())
        parsed = parse_prometheus_text(text)
        series = {
            labels: value for (name, labels), value in parsed.items()
            if name == "hdpsr_service_job_progress_ratio"
        }
        assert series, "scrape did not refresh the progress gauge"
        assert set(series.values()) == {1.0}

    def test_unknown_route_and_method(self):
        async def run():
            telemetry = TelemetryServer()
            tport = await telemetry.start()
            status, _ = await http_get(tport, "/nope")
            assert status == 404
            reader, writer = await asyncio.open_connection("127.0.0.1", tport)
            writer.write(b"POST /metrics HTTP/1.0\r\n\r\n")
            await writer.drain()
            raw = await reader.read(-1)
            writer.close()
            assert b"405" in raw.split(b"\r\n", 1)[0]
            await telemetry.stop()

        asyncio.run(run())


# ---------------------------------------------------------------------------
# Protocol hardening (malformed input never kills the daemon)
# ---------------------------------------------------------------------------
class TestProtocolHardening:
    async def _daemon(self):
        server = make_server()
        service = make_service(server)
        return await start_daemon(service)

    async def _raw(self, port):
        return await asyncio.open_connection(
            "127.0.0.1", port, limit=protocol.MAX_MESSAGE_BYTES
        )

    def test_non_json_line_answered_and_connection_survives(self):
        async def run():
            daemon, port, task = await self._daemon()
            reader, writer = await self._raw(port)
            writer.write(b"this is not json\n")
            await writer.drain()
            reply = await protocol.read_message(reader)
            assert reply["ok"] is False
            assert reply["kind"] == "ProtocolError"
            # Same connection still serves requests.
            writer.write(protocol.encode_message({"op": "ping"}))
            await writer.drain()
            reply = await protocol.read_message(reader)
            assert reply["ok"] is True
            writer.write(protocol.encode_message({"op": "shutdown"}))
            await writer.drain()
            await protocol.read_message(reader)
            writer.close()
            await task

        asyncio.run(run())

    def test_non_object_payload_is_recoverable(self):
        async def run():
            daemon, port, task = await self._daemon()
            reader, writer = await self._raw(port)
            writer.write(b"[1, 2, 3]\n")
            await writer.drain()
            reply = await protocol.read_message(reader)
            assert reply["ok"] is False and reply["kind"] == "ProtocolError"
            writer.write(protocol.encode_message({"op": "shutdown"}))
            await writer.drain()
            assert (await protocol.read_message(reader))["ok"] is True
            writer.close()
            await task

        asyncio.run(run())

    def test_unknown_op_is_structured_error(self):
        async def run():
            daemon, port, task = await self._daemon()
            client = await ServiceClient.connect("127.0.0.1", port)
            with pytest.raises(Exception) as exc_info:
                await client.call("frobnicate")
            assert "unknown op" in str(exc_info.value)
            await client.call("shutdown")
            await client.close()
            await task

        asyncio.run(run())

    def test_missing_field_is_structured_error(self):
        async def run():
            daemon, port, task = await self._daemon()
            reader, writer = await self._raw(port)
            writer.write(protocol.encode_message({"op": "read"}))  # no stripe
            await writer.drain()
            reply = await protocol.read_message(reader)
            assert reply["ok"] is False and reply["kind"] == "KeyError"
            writer.write(protocol.encode_message({"op": "shutdown"}))
            await writer.drain()
            assert (await protocol.read_message(reader))["ok"] is True
            writer.close()
            await task

        asyncio.run(run())

    def test_oversized_frame_answered_then_closed(self):
        async def run():
            daemon, port, task = await self._daemon()
            reader, writer = await self._raw(port)
            writer.write(b"x" * (MAX_REQUEST_BYTES + 64 * 1024) + b"\n")
            await writer.drain()
            reply = await protocol.read_message(reader)
            assert reply["ok"] is False and reply["kind"] == "ProtocolError"
            # Fatal: the daemon hangs up after answering.
            assert await protocol.read_message(reader) is None
            writer.close()
            # Daemon itself survives: a fresh connection still works.
            client = await ServiceClient.connect("127.0.0.1", port)
            assert (await client.call("ping"))["ok"] is True
            await client.call("shutdown")
            await client.close()
            await task

        asyncio.run(run())

    @staticmethod
    def _fed(data: bytes) -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return reader

    def test_read_message_cap_is_fatal(self):
        async def run():
            reader = self._fed(b"x" * 128 + b"\n")
            with pytest.raises(ProtocolError) as exc_info:
                await protocol.read_message(reader, max_bytes=64)
            assert exc_info.value.fatal

        asyncio.run(run())

    def test_blank_line_does_not_hang_up(self):
        async def run():
            daemon, port, task = await self._daemon()
            reader, writer = await self._raw(port)
            writer.write(b"\n")
            await writer.drain()
            writer.write(b" \r\n" + protocol.encode_message({"op": "ping"}))
            await writer.drain()
            reply = await protocol.read_message(reader)
            assert reply["ok"] is True
            assert reply["version"] == protocol.PROTOCOL_VERSION
            writer.write(protocol.encode_message({"op": "shutdown"}))
            await writer.drain()
            assert (await protocol.read_message(reader))["ok"] is True
            writer.close()
            await task

        asyncio.run(run())

    def test_read_message_skips_blank_lines_until_eof(self):
        async def run():
            frame = protocol.encode_message({"op": "ping"})
            assert await protocol.read_message(self._fed(b"\n\n" + frame)) == {
                "op": "ping"
            }
            assert await protocol.read_message(self._fed(b"\n \n")) is None

        asyncio.run(run())

    def test_a_body_reply_round_trips(self):
        async def run():
            body = bytes(range(256)) * 3
            frame = protocol.frame_reply(protocol.ok(data=memoryview(body), x=1))
            assert len(frame) == 2 and bytes(frame[1]) == body
            reader = self._fed(b"".join(frame) + protocol.encode_message({"ok": True}))
            assert await protocol.read_reply(reader) == {"ok": True, "x": 1, "data": body}
            assert await protocol.read_reply(reader) == {"ok": True}
            assert await protocol.read_reply(reader) is None

        asyncio.run(run())

    @pytest.mark.parametrize(
        "nbytes", [-1, 1.5, "8", True, None, protocol.MAX_MESSAGE_BYTES + 1]
    )
    def test_a_bad_body_length_is_fatal(self, nbytes):
        async def run():
            header = protocol.encode_message({"ok": True, "nbytes": nbytes})
            with pytest.raises(ProtocolError) as exc_info:
                await protocol.read_reply(self._fed(header + b"\0" * 16))
            return exc_info.value

        assert asyncio.run(run()).fatal

    def test_a_short_body_reads_as_eof(self):
        async def run():
            header = protocol.encode_message({"ok": True, "nbytes": 16})
            return await protocol.read_reply(self._fed(header + b"\0" * 15))

        assert asyncio.run(run()) is None

    def test_protocol_error_fatal_flag_default(self):
        assert ProtocolError("x").fatal is False
        assert ProtocolError("x", fatal=True).fatal is True


# ---------------------------------------------------------------------------
# Event-loop monitor
# ---------------------------------------------------------------------------
class TestEventLoopMonitor:
    def test_measures_ticks_and_snapshot_keys(self):
        registry = MetricsRegistry()

        async def run():
            monitor = EventLoopMonitor(interval=0.005)
            monitor.start()
            monitor.start()  # idempotent
            await asyncio.sleep(0.06)
            snap = monitor.snapshot()
            await monitor.stop()
            assert not monitor.running
            return snap

        with use_registry(registry):
            snap = asyncio.run(run())
        assert snap["ticks"] >= 3
        assert snap["loop_lag_last_seconds"] >= 0.0
        assert "loop_lag_p99_seconds" in snap
        assert registry.get("hdpsr_runtime_loop_lag_seconds") is not None

    def test_lag_reflects_blocked_loop(self):
        registry = MetricsRegistry()

        async def run():
            import time as _time

            monitor = EventLoopMonitor(interval=0.005)
            monitor.start()
            await asyncio.sleep(0.02)
            _time.sleep(0.1)  # block the loop on purpose
            await asyncio.sleep(0.02)
            snap = monitor.snapshot()
            await monitor.stop()
            return snap

        with use_registry(registry):
            snap = asyncio.run(run())
        assert snap["ticks"] > 0
        # The tick pending across the block woke ~0.095 s late; the lag
        # histogram's running sum must have caught it.
        lag_histogram = registry.get("hdpsr_runtime_loop_lag_seconds")
        assert lag_histogram.sum > 0.05


# ---------------------------------------------------------------------------
# hdpsr top rendering
# ---------------------------------------------------------------------------
class TestTopRendering:
    def test_render_top_frame(self):
        from repro.commands.clients import _render_top

        frame = _render_top({
            "jobs": [{
                "job_id": 0, "disk": 3, "algorithm": "hd-psr-ap",
                "stripes_total": 40, "stripes_done": 10, "stripes_lost": 0,
                "chunks_rebuilt": 10, "resumed_stripes": 0, "replans": 1,
                "fresh_restarts": 0, "checksum_failures": 0,
                "elapsed_seconds": 2.0, "eta_seconds": 6.0, "done": False,
            }],
            "foreground": {"healthy": {"count": 9, "p50": 0.001, "p99": 0.002,
                                       "p999": 0.002}},
            "gates": {"3": {"width": 2, "inflight": 1, "waiting_foreground": 0,
                            "waiting_background": 2}},
            "journal": {"records": 12, "commits": 12, "bytes": 4096},
            "runtime": {"loop_lag_last_seconds": 0.0003,
                        "loop_lag_p99_seconds": 0.001},
            "failed": [3],
        })
        assert "10/40" in frame and "25.0" in frame
        assert "6.0" in frame          # eta
        assert "piggyback" not in frame
        assert "4.00 KiB" in frame     # journal volume
        assert "failed disks: 3" in frame

    def test_render_top_idle_daemon(self):
        from repro.commands.clients import _render_top

        frame = _render_top({"jobs": [], "foreground": {}, "gates": {},
                             "journal": {}, "failed": []})
        assert "no repair jobs" in frame
