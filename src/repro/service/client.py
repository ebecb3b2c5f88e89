"""The ``hdpsr client`` workload driver.

:class:`ServiceClient` is a thin async client for one daemon connection
(JSON-line requests; chunk bodies come back raw, see
:mod:`repro.service.protocol`). :func:`run_workload` is the
benchmark/smoke driver: it fails disks, submits their repairs, and —
while the repairs run — hammers the front door with seeded random chunk
reads from several concurrent connections, timing each read's *wall-clock*
user latency. The report carries repair summaries plus the exact
foreground p50/p99 of those reads, which is the
paper-style "user latency during recovery" number the service exists to
protect.

Every request minted by :meth:`ServiceClient.call` carries the ambient
span context on the wire (``trace``): install one with
:func:`~repro.obs.context.use_span` — or let :func:`run_workload` mint a
fresh ``trace_id`` per episode — and the daemon's exported trace shows the
server-side anatomy of each client call, correlated by ``trace_id``.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.faults.report import EXIT_CRASHED
from repro.obs.context import current_registry, current_span, current_tracer, use_span
from repro.obs.metrics import LATENCY_BUCKETS, percentiles
from repro.obs.tracer import new_span_context
from repro.service import protocol
from repro.service.overload import RetryBudget
from repro.service.protocol import (
    ERR_CRASH,
    ERR_NOT_OWNER,
    ERR_OVERLOAD,
    MAX_MESSAGE_BYTES,
)
from repro.utils.rng import make_rng
from repro.workloads.arrivals import make_arrivals


class ServiceError(ReproError):
    """The daemon answered ``ok: false`` (or the connection died).

    Carries the v3 error taxonomy: ``code`` is one of
    :data:`repro.service.protocol.ERROR_CODES` and ``retryable`` says
    whether a client may transparently retry; :attr:`crashed` reads
    ``code == ERR_CRASH``. For ``not_owner`` errors the reply's
    redirect fields are exposed as :attr:`owner`/:attr:`endpoint`/
    :attr:`epoch`/:attr:`shard`.
    """

    def __init__(
        self,
        message: str,
        code: str = protocol.ERR_INTERNAL,
        retryable: Optional[bool] = None,
        reply: Optional[dict] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.retryable = (
            protocol.is_retryable(code) if retryable is None else bool(retryable)
        )
        self.reply = dict(reply or {})

    @property
    def crashed(self) -> bool:
        return self.code == ERR_CRASH

    @property
    def owner(self) -> Optional[str]:
        value = self.reply.get("owner")
        return None if value is None else str(value)

    @property
    def endpoint(self) -> Optional[str]:
        value = self.reply.get("endpoint")
        return None if value is None else str(value)

    @property
    def epoch(self) -> int:
        return int(self.reply.get("epoch", -1))

    @property
    def shard(self) -> int:
        return int(self.reply.get("shard", -1))

    @property
    def retry_after_ms(self) -> float:
        """Backoff-floor hint from an ``overload`` reply (0 when absent)."""
        try:
            return float(self.reply.get("retry_after_ms", 0.0))
        except (TypeError, ValueError):
            return 0.0


class ServiceClient:
    """One connection to a :class:`~repro.service.netserver.ServiceDaemon`."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_MESSAGE_BYTES
        )
        return cls(reader, writer)

    async def call(self, op: str, **fields) -> dict:
        """One request/response round trip (serialized per connection).

        A ``read``/``read_object`` reply carries its raw body as
        ``reply["data"]`` (:class:`bytes`).

        When a span context is installed (:func:`use_span`), a per-call
        child span is minted and sent as the request's ``trace`` field —
        the daemon re-installs it, so its spans parent onto this call.
        """
        msg = {"op": op}
        msg.update(fields)
        ctx = current_span()
        if ctx is not None:
            call_ctx = ctx.child()
            msg.setdefault("trace", call_ctx.to_wire())
            tracer = current_tracer()
            if tracer.enabled:
                # Mark the client side of the call under the *call* context
                # so the marker and the daemon's request span share lineage.
                with use_span(call_ctx):
                    tracer.instant("request", f"call:{op}", op=op)
        try:
            async with self._lock:
                self._writer.write(protocol.encode_message(msg))
                await self._writer.drain()
                reply = await protocol.read_reply(self._reader)
        except protocol.ProtocolError as exc:
            if exc.fatal:
                # Framing lost: no later reply on this stream can be trusted.
                self.close_nowait()
            raise
        except (ConnectionResetError, BrokenPipeError):
            # A dying daemon may RST instead of FIN; same meaning here.
            raise ServiceError(
                f"connection lost during {op!r}", code=ERR_CRASH
            ) from None
        if reply is None:
            raise ServiceError(f"connection closed during {op!r}", code=ERR_CRASH)
        if not reply.get("ok", False):
            raise ServiceError(
                reply.get("error", "unknown error"),
                code=str(reply.get("code", protocol.ERR_INTERNAL)),
                retryable=reply.get("retryable"),
                reply=reply,
            )
        return reply

    async def stats(self) -> dict:
        """Live telemetry snapshot (see :func:`repro.service.telemetry.stats_snapshot`)."""
        return await self.call("stats")

    async def metrics_text(self) -> str:
        """The daemon's registry as Prometheus text exposition."""
        reply = await self.call("metrics")
        return str(reply["metrics_text"])

    async def read_chunk(
        self, stripe: int, shard: int, deadline_ms: Optional[float] = None
    ) -> bytes:
        fields = {"stripe": stripe, "shard": shard}
        if deadline_ms is not None:
            fields["deadline_ms"] = float(deadline_ms)
        reply = await self.call("read", **fields)
        return protocol.reply_body(reply)

    async def read_object(
        self, stripe: int, deadline_ms: Optional[float] = None
    ) -> bytes:
        fields = {"stripe": stripe}
        if deadline_ms is not None:
            fields["deadline_ms"] = float(deadline_ms)
        reply = await self.call("read_object", **fields)
        return protocol.reply_body(reply)

    async def cluster(self) -> dict:
        """The daemon's cluster/ownership snapshot (v3 ``cluster`` op)."""
        return await self.call("cluster")

    async def scrub(self) -> dict:
        """The daemon's scrub-plane snapshot (v5 ``scrub`` op):
        cursor/cycle position, progress + ETA, verify counts, and the
        quarantine ledger. ``{"enabled": False}`` on a daemon running
        without a scrubber."""
        return await self.call("scrub")

    def close_nowait(self) -> None:
        """Start closing the connection; do not wait for the peer."""
        self._writer.close()

    async def close(self) -> None:
        self.close_nowait()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


def write_port_file(path: Path, port: int) -> None:
    """Publish a bound port at ``path``: temp file + rename, so a reader sees
    no file or the whole port, never an empty one. Not fsync'd — the file
    is a rendezvous between live processes, not data."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(str(port))
    os.replace(tmp, path)


def spawn_hdpsr(*argv: str, **popen) -> subprocess.Popen:
    """Start ``hdpsr <argv>`` as a child on this interpreter and this copy of
    ``repro``, whatever its working directory; ``popen`` goes to
    :class:`subprocess.Popen`. A daemon launched with ``--port-file`` is
    found with :func:`wait_for_port_file`."""
    env = dict(popen.pop("env", os.environ))
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv], env=env, **popen
    )


def wait_for_port_file(
    path: "str | Path", timeout: float, proc: Optional[subprocess.Popen] = None
) -> int:
    """Block until a daemon publishes its port at ``path``; returns it.

    Raises :class:`TimeoutError` after ``timeout`` seconds, and
    :class:`ServiceError` at once when ``proc`` — the daemon, if the caller
    launched it — exits without publishing.
    """
    path = Path(path)
    deadline = time.monotonic() + timeout
    while True:
        try:
            return int(path.read_text())
        except FileNotFoundError:
            pass
        if proc is not None and proc.poll() is not None:
            stderr = proc.stderr.read() if proc.stderr is not None else ""
            raise ServiceError(
                f"daemon exited early ({proc.returncode}) without writing "
                f"{path}: {stderr}", code=ERR_CRASH,
            )
        if time.monotonic() > deadline:
            raise TimeoutError(f"timed out waiting for port file {path}")
        time.sleep(0.05)


class BackoffPolicy:
    """Capped exponential backoff with deterministic jitter.

    ``delay(attempt)`` grows ``base * multiplier**attempt`` up to ``cap``,
    then subtracts up to ``jitter`` of itself using a seeded RNG — so
    retry storms decorrelate, but a given seed replays the exact same
    delay sequence (the chaos harness asserts on timings).
    """

    def __init__(
        self,
        base: float = 0.02,
        cap: float = 0.5,
        multiplier: float = 2.0,
        jitter: float = 0.5,
        seed: int = 0,
    ) -> None:
        if base <= 0 or cap < base or multiplier < 1 or not 0 <= jitter <= 1:
            raise ReproError(
                f"bad backoff policy (base={base}, cap={cap}, "
                f"multiplier={multiplier}, jitter={jitter})"
            )
        self.base = base
        self.cap = cap
        self.multiplier = multiplier
        self.jitter = jitter
        self._rng = make_rng(seed)

    def delay(self, attempt: int) -> float:
        raw = min(self.cap, self.base * self.multiplier ** max(0, attempt))
        return raw * (1.0 - self.jitter * float(self._rng.random()))


#: Circuit-breaker states, exported as 0/1/2 on the state gauge.
BREAKER_CLOSED = "closed"
BREAKER_HALF_OPEN = "half_open"
BREAKER_OPEN = "open"
_BREAKER_GAUGE = {BREAKER_CLOSED: 0, BREAKER_HALF_OPEN: 1, BREAKER_OPEN: 2}


class CircuitBreaker:
    """Per-daemon failure gate: stop hammering an endpoint that is down.

    ``failure_threshold`` consecutive retryable failures open the
    breaker; after ``reset_after`` seconds one probe request is let
    through (half-open) — its outcome closes or re-opens the circuit.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_after: float = 1.0,
        clock=time.monotonic,
    ) -> None:
        self.failure_threshold = max(1, failure_threshold)
        self.reset_after = reset_after
        self._clock = clock
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return BREAKER_CLOSED
        if self._clock() - self._opened_at >= self.reset_after:
            return BREAKER_HALF_OPEN
        return BREAKER_OPEN

    def allow(self) -> bool:
        """Whether a request may go to this endpoint right now."""
        state = self.state
        if state == BREAKER_CLOSED:
            return True
        if state == BREAKER_OPEN:
            return False
        if self._probing:
            return False  # one probe at a time through a half-open circuit
        self._probing = True
        return True

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        self._probing = False
        self._failures += 1
        if self._failures >= self.failure_threshold:
            self._opened_at = self._clock()


def parse_endpoint(endpoint: str) -> Tuple[str, int]:
    """Split ``host:port`` (the port is the part after the last colon)."""
    host, sep, port = endpoint.rpartition(":")
    if not sep or not port.isdigit():
        raise ReproError(f"bad endpoint {endpoint!r}; expected host:port")
    return host or "127.0.0.1", int(port)


class ClusterClient:
    """Backpressure-aware client over a fleet of repair daemons.

    Wraps one :class:`ServiceClient` per endpoint and layers on the
    cluster survival kit:

    * retries **only retryable** errors (``crash``/``overload``/
      ``not_owner``) with capped exponential backoff + seeded jitter;
      fatal codes surface immediately;
    * per-daemon :class:`CircuitBreaker`\\ s, so a dead endpoint stops
      absorbing attempts until its reset window elapses;
    * ``NOT_OWNER`` redirect handling: the reply's ``endpoint`` updates a
      shard→endpoint ownership cache and the request is re-sent straight
      to the owner (a redirect does not count against the breaker);
    * per-endpoint :class:`~repro.service.overload.RetryBudget` token
      buckets, so during a brownout retries amplify offered load by at
      most ``1 + retry_budget_ratio`` instead of storming the daemon;
      ``retry_after_ms`` hints from ``overload`` replies are honored as a
      floor under the jittered exponential backoff;
    * hedged failover reads: :meth:`read_chunk` can fire a backup read at
      a second daemon after ``hedge_after`` seconds of silence and take
      whichever answers first — bounding foreground p99 through a daemon
      death instead of waiting out timeouts.

    Everything is observable: retries (by code), backoff sleeps, redirects,
    failovers, hedged reads, and breaker states land in the ambient
    metrics registry under ``hdpsr_client_*``.
    """

    def __init__(
        self,
        endpoints: Sequence[str],
        *,
        retries: int = 6,
        backoff: Optional[BackoffPolicy] = None,
        breaker_threshold: int = 3,
        breaker_reset_after: float = 1.0,
        hedge_after: Optional[float] = 0.05,
        retry_budget_ratio: float = 0.1,
        retry_budget_cap: float = 10.0,
    ) -> None:
        if not endpoints:
            raise ReproError("ClusterClient needs at least one endpoint")
        self.endpoints: List[str] = list(dict.fromkeys(endpoints))
        self.retries = retries
        self.backoff = backoff or BackoffPolicy()
        self.hedge_after = hedge_after
        self._budget_ratio = retry_budget_ratio
        self._budget_cap = retry_budget_cap
        self._budgets: Dict[str, RetryBudget] = {}
        self._conns: Dict[str, ServiceClient] = {}
        self._breakers: Dict[str, CircuitBreaker] = {
            ep: CircuitBreaker(breaker_threshold, breaker_reset_after)
            for ep in self.endpoints
        }
        #: shard index -> endpoint learned from redirects / cluster ops.
        self.owners: Dict[int, str] = {}
        self.retry_count = 0
        self.redirects = 0
        self.failovers = 0
        self.hedged_reads = 0

    # ----------------------------------------------------------- connections
    async def _conn(self, endpoint: str) -> ServiceClient:
        client = self._conns.get(endpoint)
        if client is None:
            host, port = parse_endpoint(endpoint)
            client = await ServiceClient.connect(host, port)
            self._conns[endpoint] = client
        return client

    def _drop_conn(self, endpoint: str) -> None:
        client = self._conns.pop(endpoint, None)
        if client is not None:
            client.close_nowait()

    def retry_budget(self, endpoint: str) -> RetryBudget:
        """The endpoint's retry token bucket (created on first use)."""
        budget = self._budgets.get(endpoint)
        if budget is None:
            budget = self._budgets[endpoint] = RetryBudget(
                ratio=self._budget_ratio, cap=self._budget_cap
            )
        return budget

    def _candidates(self, preferred: Optional[str]) -> List[str]:
        """Endpoints to try, preferred first, breaker-open ones last."""
        order = list(self.endpoints)
        if preferred in order:
            order.remove(preferred)
            order.insert(0, preferred)
        allowed = [ep for ep in order if self._breakers[ep].allow()]
        # With every breaker open there is nothing to lose: try them all
        # anyway rather than failing without a single attempt.
        return allowed or order

    # ----------------------------------------------------------------- calls
    async def call(
        self, op: str, *, shard: Optional[int] = None, **fields
    ) -> dict:
        """One logical request against the cluster.

        ``shard`` is a *routing hint only* — it routes to the cached
        lease owner first (mutations) and is not sent on the wire, so it
        never collides with ops whose payload has a ``shard`` field of
        its own (``read``'s in-stripe shard index goes through
        ``fields``, via :meth:`read_chunk`). Reads can go anywhere — any
        daemon serves the shared store.
        """
        preferred = self.owners.get(shard) if shard is not None else None
        return await self._call_with_retry(op, fields, preferred)

    async def _call_with_retry(
        self, op: str, fields: dict, preferred: Optional[str]
    ) -> dict:
        """The retry ladder; ``fields`` go on the wire verbatim."""
        last_error: Optional[ServiceError] = None
        registry = current_registry()
        retry_after_floor = 0.0
        first = True
        try:
            for attempt in range(self.retries + 1):
                for endpoint in self._candidates(preferred):
                    breaker = self._breakers[endpoint]
                    budget = self.retry_budget(endpoint)
                    if first:
                        budget.on_request()
                        first = False
                    elif last_error is not None and last_error.code == ERR_OVERLOAD:
                        # Overload retries spend the endpoint's token bucket:
                        # when it runs dry, surface the overload instead of
                        # amplifying offered load into a browned-out daemon.
                        # (Crash/redirect retries are failover correctness,
                        # not load amplification, and stay unmetered.)
                        if not budget.allow_retry():
                            raise last_error
                    try:
                        reply = await self._call_endpoint(endpoint, op, fields)
                    except ServiceError as exc:
                        last_error = exc
                        if exc.code == ERR_OVERLOAD and exc.retry_after_ms > 0:
                            retry_after_floor = max(
                                retry_after_floor, exc.retry_after_ms / 1000.0
                            )
                        if exc.code == ERR_NOT_OWNER and exc.endpoint:
                            # Redirect: learn the owner, go straight there.
                            self.redirects += 1
                            registry.counter(
                                "hdpsr_client_redirects_total",
                                "NOT_OWNER redirects followed.",
                            ).inc()
                            if exc.shard >= 0:
                                self.owners[exc.shard] = exc.endpoint
                            if exc.endpoint not in self.endpoints:
                                self.endpoints.append(exc.endpoint)
                                self._breakers.setdefault(
                                    exc.endpoint, CircuitBreaker()
                                )
                            preferred = exc.endpoint
                            break  # inner loop; no backoff for a redirect
                        if not exc.retryable:
                            raise
                        breaker.record_failure()
                        registry.counter(
                            "hdpsr_client_retries_total",
                            "Retryable request failures, by error code.",
                        ).labels(code=exc.code).inc()
                        self.retry_count += 1
                        if exc.crashed:
                            self._drop_conn(endpoint)
                            if endpoint == preferred:
                                # The shard's owner died under us; any other
                                # endpoint we reach next is a failover.
                                self.failovers += 1
                                registry.counter(
                                    "hdpsr_client_failovers_total",
                                    "Requests moved to a different daemon "
                                    "after their target died.",
                                ).inc()
                                preferred = None
                        continue  # next endpoint, no sleep yet
                    else:
                        breaker.record_success()
                        return reply
                else:
                    # Every candidate failed this round: back off, then retry.
                    delay = self.backoff.delay(attempt)
                    if retry_after_floor > 0.0:
                        # The daemon told us how long its standing queue needs
                        # to drain; sleeping less than that is just another
                        # doomed request.
                        if retry_after_floor > delay:
                            registry.counter(
                                "hdpsr_client_retry_after_honored_total",
                                "Backoff sleeps raised to a daemon's "
                                "retry_after_ms hint.",
                            ).inc()
                        delay = max(delay, retry_after_floor)
                        retry_after_floor = 0.0
                    registry.histogram(
                        "hdpsr_client_backoff_seconds",
                        "Backoff sleeps between retry rounds.",
                        buckets=LATENCY_BUCKETS,
                    ).observe(delay)
                    await asyncio.sleep(delay)
            assert last_error is not None
            raise last_error
        finally:
            # Whichever way the call ended, publish where the breakers stand.
            gauge = registry.gauge(
                "hdpsr_client_breaker_state",
                "Circuit state per endpoint (0 closed, 1 half-open, 2 open).",
            )
            for ep, breaker in self._breakers.items():
                gauge.labels(endpoint=ep).set(_BREAKER_GAUGE[breaker.state])

    async def _call_endpoint(self, endpoint: str, op: str, fields: dict) -> dict:
        try:
            conn = await self._conn(endpoint)
        except OSError as exc:
            self._drop_conn(endpoint)
            raise ServiceError(
                f"cannot reach {endpoint}: {exc}", code=ERR_CRASH
            ) from None
        try:
            return await conn.call(op, **fields)
        except ServiceError as exc:
            if exc.crashed:
                self._drop_conn(endpoint)
            raise

    # ----------------------------------------------------------------- reads
    async def read_chunk(self, stripe: int, shard_index: int) -> bytes:
        """Front-door chunk read with hedged failover.

        The primary attempt goes to the first live endpoint; if it stays
        silent for ``hedge_after`` seconds a second attempt fires at the
        next endpoint, and the first successful reply wins. A primary
        that fails fast falls back to :meth:`call`'s retry ladder.
        """
        candidates = self._candidates(None)
        fields = {"stripe": int(stripe), "shard": int(shard_index)}
        if self.hedge_after is None or len(candidates) < 2:
            reply = await self._call_with_retry("read", fields, None)
            return protocol.reply_body(reply)
        primary = asyncio.create_task(
            self._call_endpoint(candidates[0], "read", fields)
        )
        done, _ = await asyncio.wait({primary}, timeout=self.hedge_after)
        if done:
            try:
                reply = primary.result()
                self._breakers[candidates[0]].record_success()
                return protocol.reply_body(reply)
            except ServiceError as exc:
                if not exc.retryable:
                    raise
                self._breakers[candidates[0]].record_failure()
                reply = await self._call_with_retry("read", fields, None)
                return protocol.reply_body(reply)
        # Primary is slow (dying daemon, slow_peer fault): hedge.
        self.hedged_reads += 1
        current_registry().counter(
            "hdpsr_client_hedged_reads_total",
            "Reads that fired a backup request at a second daemon.",
        ).inc()
        hedge = asyncio.create_task(
            self._call_endpoint(candidates[1], "read", fields)
        )
        pending = {primary, hedge}
        last_exc: Optional[BaseException] = None
        while pending:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for task in done:
                exc = task.exception()
                if exc is None:
                    for p in pending:
                        p.cancel()
                    for p in pending:
                        try:
                            await p
                        except (ServiceError, asyncio.CancelledError):
                            pass
                    return protocol.reply_body(task.result())
                last_exc = exc
        if isinstance(last_exc, ServiceError) and last_exc.retryable:
            reply = await self._call_with_retry("read", fields, None)
            return protocol.reply_body(reply)
        raise last_exc  # type: ignore[misc]

    async def close(self) -> None:
        for endpoint in list(self._conns):
            client = self._conns.pop(endpoint)
            await client.close()


@dataclass
class RepairEpisode:
    """The frame of a repair-under-load episode, whichever way it is loaded:
    :meth:`begin` (ping → fail → submit), the driver's reads at
    :meth:`read_targets`, then :meth:`finish` (wait → report rows → exit
    code → shutdown). :func:`run_workload` and :func:`run_open_loop` differ
    only in between."""

    control: ServiceClient
    num_stripes: int
    n: int
    jobs: List[dict]

    @classmethod
    async def begin(
        cls, control: ServiceClient, disks: Sequence[int], resume: bool = False
    ) -> "RepairEpisode":
        hello = await control.call("ping")
        # Disks must be failed even when resuming: a restarted daemon holds
        # fresh Disk objects, and the journaled job only replays reads.
        already = set(hello.get("failed", []))
        for disk in disks:
            if disk not in already:
                await control.call("fail_disk", disk=disk)
        jobs = [
            await control.call("repair", disk=disk, resume=resume)
            for disk in disks
        ]
        return cls(control, int(hello["num_stripes"]), int(hello["n"]), jobs)

    def read_targets(self, seed: int, count: int) -> List[Tuple[int, int]]:
        """``count`` seeded-random ``(stripe, shard)`` reads over the volume."""
        rng = make_rng(seed)
        return [
            (int(rng.integers(self.num_stripes)), int(rng.integers(self.n)))
            for _ in range(count)
        ]

    async def finish(self, shutdown: bool) -> Tuple[List[dict], int]:
        """Wait every repair out; ``(report rows, exit code)``, the code
        being the max over repair outcomes (0 clean / 3 data loss)."""
        summaries = [
            await self.control.call("wait", job_id=job["job_id"])
            for job in self.jobs
        ]
        repairs = [
            {k: v for k, v in s.items() if k not in ("ok", "trace_id")}
            for s in summaries
        ]
        if shutdown:
            await self.control.call("shutdown")
        exit_code = max((int(s.get("exit_code", 0)) for s in summaries), default=0)
        return repairs, exit_code


async def run_workload(
    host: str,
    port: int,
    *,
    disks: Sequence[int],
    reads: int = 100,
    read_concurrency: int = 4,
    seed: int = 0,
    resume: bool = False,
    shutdown: bool = False,
) -> dict:
    """Drive one repair-under-load episode; returns the client-side report.

    Fails each disk in ``disks``, submits their repairs, then issues
    ``reads`` seeded-random chunk reads across ``read_concurrency``
    connections while the repairs run, and finally waits for every repair.
    The report's ``exit_code`` is the max over repair outcomes (0 clean /
    3 data loss), so callers can exit with it directly.

    The whole episode runs under one freshly minted trace root (unless the
    caller already installed a span context), and the report carries its
    ``trace_id`` — scrape the daemon's trace export and grep for it.
    """
    root = current_span() or new_span_context()
    with use_span(root):
        async with await ServiceClient.connect(host, port) as control:
            episode = await RepairEpisode.begin(control, disks, resume)
            report = await _closed_loop(
                episode, host, port, reads=reads,
                read_concurrency=read_concurrency, seed=seed, shutdown=shutdown,
            )
    report["trace_id"] = root.trace_id
    return report


async def _closed_loop(
    episode: RepairEpisode,
    host: str,
    port: int,
    *,
    reads: int,
    read_concurrency: int,
    seed: int,
    shutdown: bool,
) -> dict:
    latencies: List[float] = []
    queue: "asyncio.Queue[tuple]" = asyncio.Queue()
    for target in episode.read_targets(seed, reads):
        queue.put_nowait(target)
    read_errors: List[str] = []

    async def reader_loop() -> None:
        async with await ServiceClient.connect(host, port) as conn:
            while True:
                try:
                    stripe, shard = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                started = time.monotonic()
                try:
                    await conn.read_chunk(stripe, shard)
                except ServiceError as exc:
                    if exc.crashed:
                        raise
                    read_errors.append(f"({stripe},{shard}): {exc}")
                latencies.append(time.monotonic() - started)

    crashed = False
    repairs: List[dict] = []
    try:
        workers = [
            asyncio.create_task(reader_loop())
            for _ in range(max(1, read_concurrency))
        ]
        await asyncio.gather(*workers)
        repairs, exit_code = await episode.finish(shutdown)
    except ServiceError as exc:
        # A scripted process_crash killed the daemon mid-workload: the
        # episode is resumable, report it rather than raising.
        if not exc.crashed:
            raise
        crashed, exit_code = True, EXIT_CRASHED
    q = percentiles(latencies)
    return {
        "repairs": repairs,
        "crashed": crashed,
        "reads": len(latencies),
        "read_errors": read_errors,
        "read_p50_seconds": q.get(0.5, 0.0),
        "read_p99_seconds": q.get(0.99, 0.0),
        "exit_code": exit_code,
    }


Outcome = Tuple[float, "float | str"]


async def pace_open_loop(
    times: Sequence[float], send: Callable[[int], Awaitable[Optional[str]]]
) -> List[Outcome]:
    """The open-loop pacer: start ``send(i)`` at its scheduled instant.

    ``times`` are ascending arrival offsets in seconds from now; ``send(i)``
    performs arrival ``i`` and returns ``None`` on success or an error
    code. Arrivals fire whether or not earlier ones have returned, and a
    success is timed from its *scheduled* arrival — not from when the
    event loop got round to starting it, nor from when ``send`` got a
    connection — so client-side queueing counts against the service (no
    coordinated omission). Returns, in schedule order, one
    ``(offset, seconds_since_scheduled_arrival | error_code)`` each.
    """

    async def fire(i: int, offset: float) -> Outcome:
        code = await send(i)
        if code is not None:
            return offset, code
        return offset, time.monotonic() - (started + offset)

    started = time.monotonic()
    tasks: List[asyncio.Task] = []
    for i, offset in enumerate(times):
        delay = started + float(offset) - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(fire(i, float(offset))))
    return list(await asyncio.gather(*tasks))


def tally_open_loop(
    outcomes: Sequence[Outcome],
) -> Tuple[List[float], Dict[str, int]]:
    """Fold pacer outcomes into (success latencies, errors by code)."""
    latencies: List[float] = []
    errors: Dict[str, int] = {}
    for _, result in outcomes:
        if isinstance(result, str):
            errors[result] = errors.get(result, 0) + 1
        else:
            latencies.append(result)
    return latencies, errors


async def run_open_loop(
    host: str,
    port: int,
    *,
    shape: str = "constant",
    rate: float = 50.0,
    duration: float = 5.0,
    seed: int = 0,
    deadline_ms: Optional[float] = None,
    disks: Sequence[int] = (),
    connections: int = 32,
    shutdown: bool = False,
) -> dict:
    """Open-loop front-door load: send at the schedule's rate, period.

    Unlike :func:`run_workload` (closed-loop: each connection waits for
    its previous read), this driver pre-draws an arrival schedule
    (:func:`repro.workloads.arrivals.make_arrivals`) and fires one read
    per arrival *at its scheduled instant*, whether or not earlier reads
    have returned — the way real user populations load a service, and the
    only way to push a daemon past its knee. Failed requests are counted,
    never retried (an open-loop client that retries is a closed loop in
    denial).

    Pacing and timing are :func:`pace_open_loop`'s: latency counts from the
    *scheduled arrival*, so client-side queueing (bounded by
    ``connections`` sockets) counts against the service.

    When ``disks`` is non-empty the episode fails them and runs their
    repairs concurrently with the load (waited on at the end), mirroring
    the paper's repair-under-load setup.

    Returns a report with offered vs completed counts, per-error-code
    tallies (``overload`` sheds and ``deadline_exceeded`` appear here),
    goodput, and p50/p90/p99 from scheduled-arrival latency.
    """
    schedule = make_arrivals(shape, rate, duration, seed=seed)
    pool: "asyncio.Queue[ServiceClient]" = asyncio.Queue()
    opened: List[ServiceClient] = []
    try:
        async with await ServiceClient.connect(host, port) as control:
            episode = await RepairEpisode.begin(control, disks)
            for _ in range(max(1, connections)):
                conn = await ServiceClient.connect(host, port)
                opened.append(conn)
                pool.put_nowait(conn)
            targets = episode.read_targets(seed + 1, schedule.count)

            async def send(i: int) -> Optional[str]:
                conn = await pool.get()
                try:
                    await conn.read_chunk(*targets[i], deadline_ms=deadline_ms)
                except ServiceError as exc:
                    return exc.code
                finally:
                    pool.put_nowait(conn)
                return None

            started = time.monotonic()
            outcomes = await pace_open_loop(schedule.times, send)
            elapsed = time.monotonic() - started
            latencies, errors = tally_open_loop(outcomes)
            repairs, exit_code = await episode.finish(shutdown)
        q = percentiles(latencies)
        return {
            "shape": schedule.params,
            "offered": schedule.count,
            "offered_rate": schedule.mean_rate,
            "completed": len(latencies),
            "errors": errors,
            "goodput_per_s": len(latencies) / elapsed if elapsed > 0 else 0.0,
            "read_p50_seconds": q.get(0.5, 0.0),
            "read_p90_seconds": q.get(0.9, 0.0),
            "read_p99_seconds": q.get(0.99, 0.0),
            "elapsed_seconds": elapsed,
            "deadline_ms": deadline_ms,
            "repairs": repairs,
            "exit_code": exit_code,
        }
    finally:
        for conn in opened:
            await conn.close()
