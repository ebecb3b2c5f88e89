"""The cluster client's survival kit: taxonomy, backoff, breakers, wire.

Unit layers first (error classification, backoff arithmetic, breaker
state machine — all clock-injected, no sleeping), then daemon-backed
tests that run real :class:`ServiceDaemon`\\ s in-process and point a
:class:`ClusterClient` at them through scripted wire faults
(``conn_reset``/``slow_peer``/``partial_frame``) and real ``not_owner``
redirects. No pytest-asyncio in the toolchain: tests drive their
coroutines with ``asyncio.run``.
"""

import asyncio
import base64
import itertools
import time

import pytest

from repro.errors import ReproError
from repro.faults.service import ServiceFaultInjector
from repro.faults.spec import FaultEvent, FaultSchedule
from repro.service import protocol
from repro.service.chaos_rig import build_server as make_server
from repro.service.chaos_rig import build_service as make_service
from repro.service.chaos_rig import originals_of
from repro.service.client import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BackoffPolicy,
    CircuitBreaker,
    ClusterClient,
    ServiceClient,
    ServiceError,
    parse_endpoint,
)
from repro.service.cluster import ClusterConfig, ClusterNode

from tests.conftest import start_daemon, stop_daemon


pytestmark = pytest.mark.usefixtures("fresh_registry")


# --------------------------------------------------------------- taxonomy
class TestErrorTaxonomy:
    def test_codes_map_to_retryability(self):
        for code in protocol.RETRYABLE_CODES:
            assert protocol.is_retryable(code)
        for code in (
            protocol.ERR_FENCED, protocol.ERR_BAD_REQUEST,
            protocol.ERR_PROTOCOL, protocol.ERR_NOT_FOUND,
            protocol.ERR_INTERNAL,
        ):
            assert not protocol.is_retryable(code)

    def test_error_reply_carries_code_and_retryable(self):
        reply = protocol.error("nope", code=protocol.ERR_OVERLOAD)
        assert reply["ok"] is False
        assert reply["code"] == protocol.ERR_OVERLOAD
        assert reply["retryable"] is True
        assert protocol.error("x", code=protocol.ERR_BAD_REQUEST)[
            "retryable"
        ] is False

    def test_crash_reply_has_no_legacy_flag(self):
        # The pre-v3 `crashed` boolean is gone from the wire: `code` says it.
        reply = protocol.error("dead", code=protocol.ERR_CRASH)
        assert reply["code"] == protocol.ERR_CRASH and reply["retryable"]
        assert "crashed" not in reply

    def test_reply_without_a_code_reads_as_internal(self):
        """No pre-v3 fallback: `crashed: true` without `code` is not a crash."""
        async def run():
            async def answer(reader, writer):
                await reader.readline()
                writer.write(protocol.encode_message(
                    {"ok": False, "error": "old daemon", "crashed": True}
                ))
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(answer, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await ServiceClient.connect("127.0.0.1", port)
            try:
                with pytest.raises(ServiceError) as err:
                    await client.call("ping")
            finally:
                await client.close()
                server.close()
                await server.wait_closed()
            return err.value

        err = asyncio.run(run())
        assert err.code == protocol.ERR_INTERNAL
        assert not err.crashed and not err.retryable

    def test_service_error_defaults(self):
        err = ServiceError("boom")
        assert err.code == protocol.ERR_INTERNAL
        assert not err.retryable and not err.crashed
        err = ServiceError("gone", code=protocol.ERR_CRASH)
        assert err.retryable and err.crashed

    def test_service_error_redirect_fields(self):
        err = ServiceError(
            "not owner", code=protocol.ERR_NOT_OWNER,
            reply={"owner": "b", "endpoint": "h:9", "epoch": 3, "shard": 2},
        )
        assert err.retryable
        assert (err.owner, err.endpoint, err.epoch, err.shard) == (
            "b", "h:9", 3, 2
        )
        assert ServiceError("x").owner is None
        assert ServiceError("x").epoch == -1

    def test_explicit_retryable_overrides_code(self):
        err = ServiceError(
            "odd", code=protocol.ERR_INTERNAL, retryable=True
        )
        assert err.retryable


# ---------------------------------------------------------------- backoff
class TestBackoffPolicy:
    def test_growth_and_cap_without_jitter(self):
        policy = BackoffPolicy(base=0.01, cap=0.05, multiplier=2.0, jitter=0.0)
        assert [policy.delay(a) for a in range(5)] == pytest.approx(
            [0.01, 0.02, 0.04, 0.05, 0.05]
        )

    def test_jitter_is_seeded_and_bounded(self):
        a = BackoffPolicy(seed=7)
        b = BackoffPolicy(seed=7)
        seq_a = [a.delay(i) for i in range(6)]
        seq_b = [b.delay(i) for i in range(6)]
        assert seq_a == seq_b  # replayable for the chaos harness
        c = BackoffPolicy(seed=8)
        assert [c.delay(i) for i in range(6)] != seq_a
        for i, d in enumerate(seq_a):
            raw = min(0.5, 0.02 * 2.0 ** i)
            assert raw * 0.5 <= d <= raw

    def test_bad_parameters_rejected(self):
        for kwargs in (
            {"base": 0.0}, {"cap": 0.001}, {"multiplier": 0.5},
            {"jitter": 1.5},
        ):
            with pytest.raises(ReproError):
                BackoffPolicy(**kwargs)


# ---------------------------------------------------------------- breaker
class TestCircuitBreaker:
    def make(self, threshold=3, reset_after=1.0, start=100.0):
        state = {"t": start}
        breaker = CircuitBreaker(
            threshold, reset_after, clock=lambda: state["t"]
        )
        return breaker, state

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN and not breaker.allow()

    def test_success_resets_the_streak(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_admits_one_probe(self):
        breaker, state = self.make()
        for _ in range(3):
            breaker.record_failure()
        state["t"] += 1.0
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.allow()
        assert not breaker.allow()  # second caller waits on the probe
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED and breaker.allow()

    def test_failed_probe_reopens(self):
        breaker, state = self.make()
        for _ in range(3):
            breaker.record_failure()
        state["t"] += 1.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        state["t"] += 1.0
        assert breaker.state == BREAKER_HALF_OPEN

    def test_parse_endpoint(self):
        assert parse_endpoint("10.0.0.2:8100") == ("10.0.0.2", 8100)
        assert parse_endpoint(":8100") == ("127.0.0.1", 8100)
        with pytest.raises(ReproError):
            parse_endpoint("no-port")


# ------------------------------------------------------------ wire faults
class TestClientUnderWireFaults:
    def test_conn_reset_is_retried_transparently(self):
        async def run():
            server = make_server()
            service = make_service(server)
            chaos = ServiceFaultInjector(FaultSchedule([
                FaultEvent(at=0, kind="conn_reset"),
            ]))
            daemon, port, task = await start_daemon(service, chaos=chaos)
            client = ClusterClient(
                [f"127.0.0.1:{port}"], hedge_after=None,
                backoff=BackoffPolicy(base=0.005, cap=0.01),
            )
            try:
                # First request is RST mid-flight; the ladder reconnects.
                data = await client.read_chunk(0, 0)
                expected = (await service.read_chunk(0, 0)).tobytes()
                assert data == expected
                assert client.retry_count >= 1
                assert chaos.applied == {"conn_reset": 1}
                assert chaos.exhausted
            finally:
                await client.close()
                await stop_daemon(port, task)

        asyncio.run(run())

    def test_partial_frame_is_retried_transparently(self):
        async def run():
            server = make_server()
            service = make_service(server)
            chaos = ServiceFaultInjector(FaultSchedule([
                FaultEvent(at=1, kind="partial_frame"),
            ]))
            daemon, port, task = await start_daemon(service, chaos=chaos)
            client = ClusterClient(
                [f"127.0.0.1:{port}"], hedge_after=None,
                backoff=BackoffPolicy(base=0.005, cap=0.01),
            )
            try:
                await client.call("ping")  # ordinal 0: clean
                data = await client.read_chunk(0, 1)  # ordinal 1: torn
                expected = (await service.read_chunk(0, 1)).tobytes()
                assert data == expected
                assert client.retry_count >= 1
                assert chaos.applied == {"partial_frame": 1}
            finally:
                await client.close()
                await stop_daemon(port, task)

        asyncio.run(run())

    def test_slow_peer_triggers_hedged_read(self):
        async def run():
            server = make_server()
            service = make_service(server)
            # Daemon A answers everything 0.5s late; B is clean. Both
            # front the same server, as cluster daemons front one store.
            slow = ServiceFaultInjector(FaultSchedule([
                FaultEvent(at=0, kind="slow_peer", factor=100, duration=0.5),
            ]))
            daemon_a, port_a, task_a = await start_daemon(service, chaos=slow)
            daemon_b, port_b, task_b = await start_daemon(service)
            client = ClusterClient(
                [f"127.0.0.1:{port_a}", f"127.0.0.1:{port_b}"],
                hedge_after=0.05,
            )
            try:
                started = time.monotonic()
                data = await client.read_chunk(2, 1)
                elapsed = time.monotonic() - started
                expected = (await service.read_chunk(2, 1)).tobytes()
                assert data == expected
                assert client.hedged_reads == 1
                assert elapsed < 0.5, "hedge did not bound the slow peer"
            finally:
                await client.close()
                await stop_daemon(port_a, task_a)
                await stop_daemon(port_b, task_b)

        asyncio.run(run())

    def test_overload_is_retried_until_admitted(self):
        async def run():
            server = make_server()
            service = make_service(server)
            daemon, port, task = await start_daemon(service, max_inflight=1)
            endpoint = f"127.0.0.1:{port}"
            # Separate clients => separate connections, so requests race
            # for the daemon's single admission slot.
            clients = [
                ClusterClient(
                    [endpoint], hedge_after=None,
                    backoff=BackoffPolicy(base=0.005, cap=0.02, seed=i),
                )
                for i in range(6)
            ]
            try:
                payloads = await asyncio.gather(*(
                    c.read_chunk(i % 12, i % 5) for i, c in enumerate(clients)
                ))
                for i, data in enumerate(payloads):
                    expected = (await service.read_chunk(i % 12, i % 5)).tobytes()
                    assert data == expected
                assert sum(c.retry_count for c in clients) > 0
            finally:
                for c in clients:
                    await c.close()
                await stop_daemon(port, task)

        asyncio.run(run())

    def test_fatal_errors_are_not_retried(self):
        async def run():
            server = make_server()
            service = make_service(server)
            daemon, port, task = await start_daemon(service)
            client = ClusterClient([f"127.0.0.1:{port}"], hedge_after=None)
            try:
                with pytest.raises(ServiceError) as err:
                    await client.call("read", stripe=0)  # missing `shard`
                assert err.value.code == protocol.ERR_BAD_REQUEST
                assert not err.value.retryable
                assert client.retry_count == 0
            finally:
                await client.close()
                await stop_daemon(port, task)

        asyncio.run(run())


# -------------------------------------------------------------- redirects
class TestNotOwnerRedirect:
    def test_client_follows_redirect_and_learns_owner(self, tmp_path):
        async def run():
            server = make_server()
            service_a = make_service(server)
            service_b = make_service(server)

            def node(name):
                return ClusterNode(ClusterConfig(
                    root=tmp_path / "cluster", node_id=name,
                    num_shards=4, lease_ttl=0.5, heartbeat_interval=0.1,
                    durable=False,
                ))

            daemon_a, port_a, task_a = await start_daemon(
                service_a, cluster=node("a")
            )
            # a claims every shard before b arrives (first comer).
            await asyncio.sleep(0)
            deadline = time.monotonic() + 10.0
            while len(daemon_a.cluster.owned_shards) < 4:
                assert time.monotonic() < deadline
                await asyncio.sleep(0.02)
            daemon_b, port_b, task_b = await start_daemon(
                service_b, cluster=node("b")
            )
            while daemon_b.cluster.ticks == 0:
                assert time.monotonic() < deadline
                await asyncio.sleep(0.02)

            ep_a = f"127.0.0.1:{port_a}"
            ep_b = f"127.0.0.1:{port_b}"
            # b listed first: the mutation lands on the wrong daemon.
            client = ClusterClient([ep_b, ep_a], hedge_after=None)
            try:
                disk = 3
                shard = daemon_a.cluster.shard_of_disk(disk)
                reply = await client.call("fail_disk", shard=shard, disk=disk)
                assert reply["ok"] is True
                assert client.redirects >= 1
                assert client.owners[shard] == ep_a
                # The next mutation goes straight to the learned owner.
                redirects_before = client.redirects
                reply = await client.call("repair", shard=shard, disk=disk)
                assert client.redirects == redirects_before
                control = await client._conn(ep_a)
                await control.call("wait", job_id=reply["job_id"])
            finally:
                await client.close()
                await stop_daemon(port_a, task_a)
                await stop_daemon(port_b, task_b)

        asyncio.run(run())


# ------------------------------------------------------------ body framing
BODY = bytes(range(256)) * 8
HEADER, _ = protocol.frame_reply(protocol.ok(data=BODY))
FULL = b"".join(protocol.frame_reply(protocol.ok(data=BODY)))
#: Where a dying daemon may cut a read reply.
TEARS = {
    "header": len(HEADER) // 2,
    "boundary": len(HEADER),
    "body": len(HEADER) + len(BODY) // 2,
}


async def scripted_daemon(frames):
    """A fake daemon: its i-th connection reads one request, writes
    ``frames[i]`` (the last one once they run out), then hangs up."""
    conns = itertools.count()

    async def answer(reader, writer):
        frame = frames[min(next(conns), len(frames) - 1)]
        await reader.readline()
        writer.write(frame)
        await writer.drain()
        writer.close()

    server = await asyncio.start_server(answer, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


class TestBodyFraming:
    """Protocol v6: a read reply is a JSON header naming ``nbytes``, then
    that many raw bytes."""

    @pytest.mark.parametrize("tear", sorted(TEARS))
    def test_a_torn_reply_is_a_crash_retried_to_the_right_bytes(self, tear):
        async def run():
            torn = FULL[: TEARS[tear]]
            server, port = await scripted_daemon([torn, torn, FULL])
            try:
                async with await ServiceClient.connect("127.0.0.1", port) as one:
                    with pytest.raises(ServiceError) as err:
                        await one.read_chunk(0, 0)
                client = ClusterClient(
                    [f"127.0.0.1:{port}"], hedge_after=None,
                    backoff=BackoffPolicy(base=0.005, cap=0.01),
                )
                try:
                    data = await client.read_chunk(0, 0)
                finally:
                    await client.close()
            finally:
                server.close()
                await server.wait_closed()
            return err.value, data, client.retry_count

        err, data, retries = asyncio.run(run())
        assert err.code == protocol.ERR_CRASH and err.retryable
        assert data == BODY
        assert retries == 1

    def test_a_bad_body_length_drops_the_connection(self):
        async def run():
            bad = protocol.encode_message({"ok": True, "nbytes": -1}) + BODY
            server, port = await scripted_daemon([bad])
            try:
                async with await ServiceClient.connect("127.0.0.1", port) as client:
                    with pytest.raises(protocol.ProtocolError) as err:
                        await client.read_chunk(0, 0)
                    assert err.value.fatal
                    with pytest.raises(ServiceError) as lost:
                        await client.call("ping")
                    assert lost.value.crashed
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(run())

    def test_a_v5_base64_reply_names_the_protocol_version(self):
        async def run():
            v5 = protocol.encode_message(
                protocol.ok(data_b64=base64.b64encode(BODY).decode())
            )
            server, port = await scripted_daemon([v5])
            try:
                async with await ServiceClient.connect("127.0.0.1", port) as client:
                    with pytest.raises(protocol.ProtocolError) as err:
                        await client.read_chunk(0, 0)
            finally:
                server.close()
                await server.wait_closed()
            return err.value

        err = asyncio.run(run())
        assert not isinstance(err, KeyError)
        assert f"v{protocol.PROTOCOL_VERSION}" in str(err) and not err.fatal

    def test_reads_over_the_wire_are_byte_identical(self):
        """A v6 daemon's healthy, degraded and whole-object replies carry
        exactly the bytes the service returns in-process."""
        async def run():
            server = make_server()
            service = make_service(server)
            originals = originals_of(server)
            stripe = server.layout[0]
            daemon, port, task = await start_daemon(service)
            try:
                async with await ServiceClient.connect("127.0.0.1", port) as client:
                    ping = await client.call("ping")
                    assert ping["version"] == protocol.PROTOCOL_VERSION == 6
                    healthy = []
                    for shard in range(stripe.n):
                        data = await client.read_chunk(0, shard)
                        assert type(data) is bytes
                        assert data == (await service.read_chunk(0, shard)).tobytes()
                        healthy.append(data)
                    await client.call("fail_disk", disk=stripe.disks[1])
                    assert server.disk(stripe.disks[1]).is_failed
                    degraded = await client.read_chunk(0, 1)
                    assert degraded == healthy[1]
                    assert degraded == (await service.read_chunk(0, 1)).tobytes()
                    for si, original in originals.items():
                        payload = await client.read_object(si)
                        assert payload == original == await service.read_object(si)
            finally:
                await stop_daemon(port, task)

        asyncio.run(run())
