"""The ``hdpsr serve`` daemon: a :class:`RepairService` behind a socket.

:class:`ServiceDaemon` owns one :class:`~repro.service.service.RepairService`
and speaks the protocol of :mod:`repro.service.protocol` on a TCP
listener: JSON-line requests and replies, chunk bodies raw after their
reply's header line. Clients fail disks, submit repairs, and read
chunks/objects through the front door while repairs run.

The daemon is also the scrape plane: ``stats`` returns the structured
telemetry snapshot of :func:`~repro.service.telemetry.stats_snapshot`,
``metrics`` returns the registry as Prometheus text over the same socket,
and an optional :class:`~repro.service.telemetry.TelemetryServer` serves
the HTTP twins (``/metrics``, ``/healthz`` — readiness flips on inside
:meth:`serve_until_stopped` and off again when draining). All three take
the same reading (:meth:`ServiceDaemon.stats`), so the scrape-time gauges
are as fresh on one as on another. Requests that
carry a ``trace`` context are dispatched under it, so everything a request
touches — gate waits, survivor reads, decodes, piggybacks — exports as one
connected span tree stamped with the client's ``trace_id``.

Crash semantics mirror the CLI's journaled repairs: a scripted
``process_crash`` fault kills the whole daemon — the process exits with
:data:`~repro.faults.report.EXIT_CRASHED` (4) — and restarting it with
``--resume`` replays every journaled repair byte-for-byte. A clean
``shutdown`` exits 0, or :data:`~repro.faults.report.EXIT_DATA_LOSS` (3)
when any finished repair lost stripes.

Malformed wire input is answered, not swallowed: a recoverable
:class:`~repro.service.protocol.ProtocolError` (bad JSON, non-object
payload) produces a structured error response and the connection lives on;
a *fatal* one (a frame overrunning :data:`~repro.service.protocol.MAX_REQUEST_BYTES`)
is answered once and then the daemon hangs up, because the byte stream has
lost its framing.
"""

from __future__ import annotations

import asyncio
import contextlib
from pathlib import Path
from typing import Dict, Optional

from repro.errors import (
    ChunkNotFoundError,
    ChunkQuarantinedError,
    ConfigurationError,
    DeadlineExceededError,
    FencedError,
    NotOwnerError,
    OverloadError,
    ReproError,
)
from repro.faults.injector import SimulatedCrash
from repro.faults.report import EXIT_CRASHED
from repro.faults.service import ServiceFaultInjector, WireVerdict, apply_corruption
from repro.journal.journal import journal_exists, load_state
from repro.obs.context import current_registry, current_tracer, use_span
from repro.obs.exporters import prometheus_text
from repro.obs.runtime import EventLoopMonitor
from repro.obs.tracer import SpanContext
from repro.service import protocol
from repro.service.client import write_port_file
from repro.service.cluster import ClusterNode
from repro.service.protocol import (
    ERR_BAD_REQUEST,
    ERR_CORRUPT,
    ERR_CRASH,
    ERR_DEADLINE,
    ERR_FENCED,
    ERR_NOT_OWNER,
    ERR_NOT_FOUND,
    ERR_OVERLOAD,
    ERR_PROTOCOL,
    MAX_REQUEST_BYTES,
)
from repro.service.overload import Deadline
from repro.service.scrub import Scrubber
from repro.service.service import RepairService, RepairTicket
from repro.service.telemetry import TelemetryServer, stats_snapshot

#: Ops a connection handler dispatches (``op`` field of each request).
OPS = (
    "ping", "stats", "metrics", "cluster", "fail_disk", "repair", "wait",
    "read", "read_object", "scrub", "shutdown",
)

#: Ops exempt from the in-flight admission cap: they are cheap, and they
#: are exactly what an operator needs while the daemon is overloaded.
UNCAPPED_OPS = ("ping", "stats", "metrics", "cluster", "scrub", "shutdown")

#: Ops that mutate shard-owned state and are therefore refused with
#: ``not_owner`` on a daemon that does not hold the target disk's lease.
#: Reads stay unrestricted — every daemon fronts the whole shared store,
#: which is what makes hedged failover reads possible during a takeover.
OWNED_OPS = ("fail_disk", "repair")


class ServiceDaemon:
    """Socket front end around one :class:`RepairService`.

    Args:
        service: the repair service to expose.
        host: listen address.
        port: listen port (0 picks an ephemeral one).
        port_file: when set, the *actual* bound port is written here once
            listening — how test harnesses find an ephemeral port.
        telemetry: optional HTTP ``/metrics`` + ``/healthz`` listener; the
            daemon starts it, flips its readiness, and stops it.
        monitor: optional event-loop lag monitor started with the daemon.
        cluster: optional :class:`~repro.service.cluster.ClusterNode`; the
            daemon runs its heartbeat loop, refuses mutations of shards it
            does not own (``not_owner`` + redirect), answers the
            ``cluster`` op, and — on claiming a dead peer's shard —
            resumes that peer's unfinished repair journals (handoff).
        chaos: optional wire-fault injector (``conn_reset``/``slow_peer``/
            ``partial_frame``/``clock_skew``/``bitrot``/``torn_write``/
            ``misdirected_write``), consulted once per request.
        max_inflight: admission cap on concurrently served requests
            (telemetry/control ops exempt); excess requests are answered
            with a retryable ``overload`` error instead of queueing
            without bound.
        scrubber: optional background :class:`~repro.service.scrub.Scrubber`;
            the daemon starts it once ready and stops it during drain, and
            the ``scrub`` op reports its cursor/progress/quarantine status.
    """

    def __init__(
        self,
        service: RepairService,
        host: str = "127.0.0.1",
        port: int = 0,
        port_file: "str | Path | None" = None,
        telemetry: Optional[TelemetryServer] = None,
        monitor: Optional[EventLoopMonitor] = None,
        cluster: Optional[ClusterNode] = None,
        chaos: Optional[ServiceFaultInjector] = None,
        max_inflight: Optional[int] = None,
        scrubber: Optional[Scrubber] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.port_file = Path(port_file) if port_file else None
        self.telemetry = telemetry
        self.monitor = monitor
        self.cluster = cluster
        self.chaos = chaos
        self.max_inflight = max_inflight
        self.scrubber = scrubber
        if cluster is not None:
            if cluster.on_claim is None:
                cluster.on_claim = self._handle_claim
            if service.fence is None:
                service.fence = cluster.check_fence
        if telemetry is not None and telemetry.refresh is None:
            # An HTTP scrape must see the same scrape-time gauges a
            # `stats` call sets.
            telemetry.refresh = self.stats
        self.exit_code = 0
        self.crashed: Optional[SimulatedCrash] = None
        self._stop = asyncio.Event()
        self._listener: Optional[asyncio.AbstractServer] = None
        self._results: Dict[int, dict] = {}
        self._conns: "set[asyncio.StreamWriter]" = set()
        self._inflight = 0
        self._handoffs: "list[int]" = []

    def stats(self) -> dict:
        """The daemon's telemetry snapshot now; taking it sets the gauges."""
        return stats_snapshot(
            self.service, self.monitor, self.cluster, self.scrubber
        )

    # --------------------------------------------------------------- lifecycle
    async def start(self) -> int:
        """Bind the listener; returns the actual port.

        The stream limit is the *request* cap: a client frame that overruns
        it surfaces as a fatal :class:`~repro.service.protocol.ProtocolError`
        instead of buffering without bound.
        """
        self._listener = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_REQUEST_BYTES
        )
        self.port = self._listener.sockets[0].getsockname()[1]
        if self.port_file is not None:
            write_port_file(self.port_file, self.port)
        if self.cluster is not None and not self.cluster.config.endpoint:
            # Ephemeral ports are only known after bind; patch the (frozen)
            # config so lease records point clients at the real endpoint.
            object.__setattr__(
                self.cluster.config, "endpoint", f"{self.host}:{self.port}"
            )
        return self.port

    async def serve_until_stopped(self) -> int:
        """Serve until ``shutdown`` (or a crash); returns the exit code."""
        if self._listener is None:
            await self.start()
        if self.monitor is not None:
            self.monitor.start()
        if self.cluster is not None:
            # First tick runs inline so the daemon is an owner (and any
            # dead predecessor's journals are handed off) before readiness
            # flips; the heartbeat loop takes over from there.
            await self.cluster.tick_async()
            self.cluster.start()
        if self.telemetry is not None:
            await self.telemetry.start()  # idempotent when already bound
            self.telemetry.set_ready(True)
        if self.scrubber is not None:
            self.scrubber.start()
        await self._stop.wait()
        if self.telemetry is not None:
            self.telemetry.set_ready(False)
        if self.scrubber is not None:
            # Stop before closing the service: a mid-verify scrub read must
            # not race the store teardown, and the cursor journal's last
            # committed record is what a restart resumes from.
            await self.scrubber.stop()
        self._listener.close()
        # Unblock handlers parked in read_message: closing the transport
        # EOFs their readers (3.12's wait_closed waits for every handler).
        for writer in list(self._conns):
            writer.close()
        try:
            await asyncio.wait_for(self._listener.wait_closed(), timeout=5.0)
        except asyncio.TimeoutError:
            pass
        if self.monitor is not None:
            await self.monitor.stop()
        if self.cluster is not None:
            # A crash must NOT release leases — peers take over only after
            # the TTL, exactly like a real dead process. Clean shutdowns
            # release so successors claim immediately.
            await self.cluster.stop(release=self.crashed is None)
        if self.crashed is None:
            # Clean drain: finish queued writes before reporting.
            await self.service.close()
        if self.telemetry is not None:
            await self.telemetry.stop()
        return self.exit_code

    def stop(self) -> None:
        """Ask :meth:`serve_until_stopped` to drain and return."""
        self._stop.set()

    def _trip(self, exc: SimulatedCrash) -> None:
        """A scripted crash fired: bring the whole daemon down (exit 4)."""
        if self.crashed is None:
            self.crashed = exc
            self.exit_code = EXIT_CRASHED
        self.stop()

    def _watch(self, ticket: RepairTicket) -> None:
        def done(task: asyncio.Task) -> None:
            if task.cancelled():
                return
            exc = task.exception()
            if isinstance(exc, SimulatedCrash):
                self._trip(exc)

        ticket.task.add_done_callback(done)

    # ----------------------------------------------------------------- cluster
    async def _handle_claim(self, shard: int, prev_owner: Optional[str]) -> None:
        """Journal handoff: after claiming a dead peer's shard, resume its
        unfinished per-disk repair journals on this daemon.

        This is PR 4's ``--resume`` lifted across daemons: the journals
        live under the *shared* ``journal_root``, so the survivor skips
        every finished stripe whose rebuilt chunk the dead peer persisted
        and redoes the rest — the in-flight stripes and any whose record
        was appended but whose put never landed — from the journaled plan.
        """
        if prev_owner is None:
            return  # initial claim of a never-owned shard: nothing to resume
        root = self.service.config.journal_root
        if root is None or self.cluster is None:
            return
        for jdir in sorted(Path(root).glob("disk-*")):
            try:
                disk = int(jdir.name.split("-", 1)[1])
            except ValueError:
                continue
            if self.cluster.shard_of_disk(disk) != shard:
                continue
            if not journal_exists(jdir):
                continue
            if any(
                t.disk == disk and not t.task.done()
                for t in self.service.tickets()
            ):
                continue  # already repairing this disk locally
            try:
                state = await asyncio.to_thread(load_state, jdir)
            except ReproError:
                continue  # torn/foreign journal: nothing restorable
            if state.completed:
                continue
            server = self.service.server
            if not server.disk(disk).is_failed:
                # The dead peer failed this disk; mirror that here without
                # touching the shared store (its chunks are already gone).
                server.fail_disk(disk, destroy_data=False)
            ticket = self.service.submit_repair(disk, resume=True)
            self._watch(ticket)
            self._handoffs.append(disk)
            current_registry().counter(
                "hdpsr_cluster_handoffs_total",
                "Dead peers' repair journals resumed on this daemon.",
            ).inc()

    def _require_ownership(self, disk: int) -> None:
        """Raise :class:`NotOwnerError` (with redirect info) unless this
        daemon holds the lease on ``disk``'s shard."""
        cluster = self.cluster
        if cluster is None or cluster.owns_disk(disk):
            return
        shard = cluster.shard_of_disk(disk)
        lease = cluster.owner_of_shard(shard)
        raise NotOwnerError(
            f"node {cluster.node_id} does not own shard {shard} (disk {disk})",
            shard=shard,
            owner=lease.owner if lease is not None else None,
            endpoint=lease.endpoint if lease is not None else None,
            epoch=lease.epoch if lease is not None else -1,
        )

    # -------------------------------------------------------------- connection
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conns.add(writer)
        try:
            while not self._stop.is_set():
                try:
                    msg = await protocol.read_message(
                        reader, max_bytes=MAX_REQUEST_BYTES
                    )
                except protocol.ProtocolError as exc:
                    writer.writelines(protocol.frame_reply(
                        protocol.error(
                            str(exc), code=ERR_PROTOCOL, kind="ProtocolError"
                        )
                    ))
                    await writer.drain()
                    if exc.fatal:
                        # Framing lost: answer once, then hang up. Discard
                        # whatever the peer already sent first — closing
                        # with unread bytes buffered turns the FIN into an
                        # RST that can destroy the error reply in flight.
                        await self._discard_input(reader)
                        break
                    continue
                if msg is None:
                    break
                if self.chaos is not None:
                    verdict = self.chaos.on_request()
                    if verdict.corruptions:
                        await self._apply_corruptions(verdict)
                    if verdict.skew_seconds and self.cluster is not None:
                        self.cluster.clock.advance(verdict.skew_seconds)
                    if verdict.delay_seconds:
                        await asyncio.sleep(verdict.delay_seconds)
                    if verdict.reset:
                        # Abort, not close: the peer sees an RST mid-request,
                        # exactly what a dying daemon's kernel would send.
                        writer.transport.abort()
                        break
                    if verdict.partial:
                        reply = await self._serve_one(msg)
                        frame = b"".join(protocol.frame_reply(reply))
                        writer.write(frame[: max(1, len(frame) // 2)])
                        await writer.drain()
                        break  # hang up with the frame torn (header or body)
                reply = await self._serve_one(msg)
                writer.writelines(protocol.frame_reply(reply))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self._conns.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _discard_input(
        reader: asyncio.StreamReader, budget: float = 0.25
    ) -> None:
        """Best-effort drain of a connection we are about to abandon."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + budget
        try:
            while loop.time() < deadline:
                chunk = await asyncio.wait_for(
                    reader.read(1 << 16), timeout=0.05
                )
                if not chunk:
                    return
        except (asyncio.TimeoutError, ConnectionResetError, BrokenPipeError):
            return

    @staticmethod
    def _deadline_of(msg: dict) -> Optional[Deadline]:
        """The request's latency budget, stamped absolute at admission.

        ``deadline_ms`` counts from *daemon arrival*, not client send —
        the two clocks share no domain, and a budget that starts here is
        the only one both sides can reason about.
        """
        budget = msg.get("deadline_ms")
        if budget is None:
            return None
        return Deadline.from_budget_ms(float(budget))

    async def _apply_corruptions(self, verdict: WireVerdict) -> None:
        """Land the verdict's corruption events on the backing store.

        The write happens off-loop (it is file I/O) and the service is
        told the seed time, so scrub detection latency is measurable.
        Events aimed at chunks that do not exist (yet) are dropped — a
        schedule may fire before the victim stripe is written.
        """
        for event in verdict.corruptions:
            try:
                await asyncio.to_thread(
                    apply_corruption, self.service.server.store, event
                )
            except (ChunkNotFoundError, ConfigurationError):
                continue
            self.service.note_corruption_seeded(
                int(event.disk), int(event.stripe), int(event.shard)
            )

    async def handle_request(self, msg: dict) -> dict:
        """Serve one already-decoded request dict (full protocol
        semantics minus TCP framing) — the front door for in-process
        harnesses like the overload and bitrot chaos scenarios, where
        thousands of open-loop requests would otherwise each need a
        socket. The wire injector is still consulted, but only verdicts
        that make sense without a socket apply: corruption and clock
        skew land, delays are honoured, resets/torn frames are ignored.
        A ``read``/``read_object`` reply carries its body as a
        :class:`memoryview` under ``data``.
        """
        if self.chaos is not None:
            verdict = self.chaos.on_request()
            if verdict.corruptions:
                await self._apply_corruptions(verdict)
            if verdict.skew_seconds and self.cluster is not None:
                self.cluster.clock.advance(verdict.skew_seconds)
            if verdict.delay_seconds:
                await asyncio.sleep(verdict.delay_seconds)
        return await self._serve_one(msg)

    async def _serve_one(self, msg: dict) -> dict:
        """Dispatch one request under its (optional) propagated trace."""
        ctx = SpanContext.from_wire(msg.get("trace"))
        op = msg.get("op")
        if (
            self.max_inflight is not None
            and op not in UNCAPPED_OPS
            and self._inflight >= self.max_inflight
        ):
            reply = protocol.error(
                f"daemon at capacity ({self.max_inflight} requests in flight)",
                code=ERR_OVERLOAD,
                retry_after_ms=(
                    self.service.overload.retry_after_ms()
                    if self.service.overload is not None
                    else 50.0
                ),
            )
            if ctx is not None:
                reply.setdefault("trace_id", ctx.trace_id)
            return reply
        self._inflight += 1
        try:
            with contextlib.ExitStack() as traced:
                if ctx is not None:
                    traced.enter_context(use_span(ctx))
                    traced.enter_context(current_tracer().span(
                        "request", f"op:{op}", track="daemon", op=str(op)
                    ))
                reply = await self._dispatch(msg)
        except SimulatedCrash as exc:
            self._trip(exc)
            reply = protocol.error("service crashed", code=ERR_CRASH)
        except NotOwnerError as exc:
            reply = protocol.error(
                str(exc), code=ERR_NOT_OWNER, kind="NotOwnerError",
                shard=exc.shard, owner=exc.owner, endpoint=exc.endpoint,
                epoch=exc.epoch,
            )
        except FencedError as exc:
            reply = protocol.error(
                str(exc), code=ERR_FENCED, kind="FencedError",
                shard=exc.shard, held_epoch=exc.held_epoch,
                current_epoch=exc.current_epoch,
            )
        except DeadlineExceededError as exc:
            if self.service.overload is not None:
                self.service.overload.note_deadline_expired()
            reply = protocol.error(
                str(exc), code=ERR_DEADLINE, kind="DeadlineExceededError",
                hop=exc.hop,
                overshoot_ms=round(exc.overshoot_seconds * 1e3, 3),
            )
        except OverloadError as exc:
            reply = protocol.error(
                str(exc), code=ERR_OVERLOAD, kind="OverloadError",
                work_class=exc.work_class,
                retry_after_ms=exc.retry_after_ms,
            )
        except ChunkQuarantinedError as exc:
            reply = protocol.error(
                str(exc), code=ERR_CORRUPT, kind="ChunkQuarantinedError",
                disk=exc.disk, stripe=exc.stripe, shard=exc.shard,
            )
        except ChunkNotFoundError as exc:
            reply = protocol.error(
                str(exc), code=ERR_NOT_FOUND, kind=type(exc).__name__
            )
        except ConfigurationError as exc:
            reply = protocol.error(
                str(exc), code=ERR_BAD_REQUEST, kind=type(exc).__name__
            )
        except ReproError as exc:
            reply = protocol.error(str(exc), kind=type(exc).__name__)
        except (KeyError, TypeError, ValueError) as exc:
            # Well-formed JSON, ill-formed request (missing/mistyped
            # fields): answer structurally instead of killing the handler.
            reply = protocol.error(
                f"bad request for op {op!r}: {exc!r}",
                code=ERR_BAD_REQUEST, kind=type(exc).__name__,
            )
        finally:
            self._inflight -= 1
        if ctx is not None:
            reply.setdefault("trace_id", ctx.trace_id)
        return reply

    async def _dispatch(self, msg: dict) -> dict:
        op = msg.get("op")
        service = self.service
        server = service.server

        if op == "ping":
            extra = {}
            if self.cluster is not None:
                extra["node"] = self.cluster.node_id
                extra["endpoint"] = self.cluster.config.endpoint
                extra["owned_shards"] = self.cluster.owned_shards
            return protocol.ok(
                version=protocol.PROTOCOL_VERSION,
                num_stripes=len(server.layout),
                n=server.config.n,
                k=server.config.k,
                num_disks=server.config.num_disks,
                spares=server.config.spares,
                failed=server.failed_disks(),
                **extra,
            )
        if op == "stats":
            return protocol.ok(**self.stats())
        if op == "metrics":
            self.stats()  # sets the scrape-time gauges, as HTTP /metrics does
            return protocol.ok(metrics_text=prometheus_text(current_registry()))
        if op == "cluster":
            if self.cluster is None:
                return protocol.ok(enabled=False)
            return protocol.ok(
                enabled=True,
                handoffs=list(self._handoffs),
                **self.cluster.status(),
            )
        if op == "fail_disk":
            disk = int(msg["disk"])
            self._require_ownership(disk)
            server.fail_disk(disk)
            return protocol.ok(disk=disk, failed=server.failed_disks())
        if op == "repair":
            disk = int(msg["disk"])
            self._require_ownership(disk)
            ticket = service.submit_repair(
                disk, resume=bool(msg.get("resume", False))
            )
            self._watch(ticket)
            return protocol.ok(job_id=ticket.job_id, disk=ticket.disk)
        if op == "wait":
            job_id = int(msg["job_id"])
            if job_id in self._results:
                return protocol.ok(**self._results[job_id])
            ticket = service.ticket(job_id)
            result = await asyncio.shield(ticket.task)
            self._results[job_id] = result.summary()
            return protocol.ok(**self._results[job_id])
        if op == "read":
            data = await service.read_chunk(
                int(msg["stripe"]), int(msg["shard"]),
                deadline=self._deadline_of(msg),
            )
            return protocol.ok(data=memoryview(data))
        if op == "read_object":
            payload = await service.read_object(
                int(msg["stripe"]), deadline=self._deadline_of(msg)
            )
            return protocol.ok(data=memoryview(payload))
        if op == "scrub":
            if self.scrubber is None:
                return protocol.ok(enabled=False)
            return protocol.ok(enabled=True, **self.scrubber.status().to_dict())
        if op == "shutdown":
            for ticket in service.tickets():
                if ticket.done and not ticket.task.cancelled():
                    exc = ticket.task.exception()
                    if exc is None:
                        self.exit_code = max(
                            self.exit_code, ticket.task.result().exit_code
                        )
            self.stop()
            return protocol.ok(exit_code=self.exit_code)
        return protocol.error(
            f"unknown op {op!r}", code=ERR_BAD_REQUEST, kind="UnknownOp"
        )
