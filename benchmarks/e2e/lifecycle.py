"""One run: a few short lifecycles of real ``hdpsr serve`` daemons.

A run is ``shape.cycles`` *cycles*. Each cycle launches a fresh *main*
daemon (daemon defaults, no scrubber), reads every target chunk once for
its digest, and takes it through one *round* per disk in
``workloads.ROUNDS``:

    fail the disk -> closed-loop reads -> open-loop reads ->
    repair it (alone, or under an open-loop read stream) -> re-read what
    was rebuilt

then launches a fresh *scrub* daemon (same store shape, ``--scrub`` at
full speed) and polls it through the ``scrub`` verb. Every phase is thus
cut into one short *slice* per round (or per poll), spread over the whole
run, and every end-to-end metric is the median of its slices or of their
pooled samples.

**Reference seconds.** This host's speed wanders by tens of per cent, over
seconds and over minutes, for every process on it at once; two sets of
runs of one commit twenty minutes apart have differed by a quarter. So a
probe (``calibrate.py``) times a fixed burst of work twenty times a second
beside the whole run, and each slice's wall-clock reading is scaled by
the host's speed during that slice, relative to :data:`REFERENCE_SPEED`:
the end-to-end timings are in seconds of a host running at the reference
speed. The unscaled readings are reported beside them as ``wall.*``.

Everything the client learns it learns through
:class:`repro.service.client.ServiceClient` — the repo's own wire client,
so a later change of framing is followed without editing the benchmark —
plus ``/proc`` for the daemon's CPU and memory.

Byte checks: before any disk fails, every chunk a later phase touches is
read on the healthy path and its digest kept (this also warms the page
cache: latencies here are the sandbox's, not a device's). Every later
read — timed or not, healthy, degraded or rebuilt — must match.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from workloads import (
    CLOSED_SHARE, K, MIN_WINDOW_S, N, NUM_DISKS, OPEN_SHARE, ROUNDS,
    SCRUB_POLL_S, SCRUB_SHARE, SHARDS, Shape,
)

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
#: `repro` is imported inside the functions that need it: run.py puts this
#: on sys.path only once it has checked that there is a program to measure.
SRC = REPO / "src"

Target = Tuple[int, int]  # (stripe, shard)

LAUNCH_TIMEOUT_S = 120.0
PHASE_TIMEOUT_S = 120.0
_TICKS = os.sysconf("SC_CLK_TCK")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of the full sample (no sketch)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Daemon:
    """One ``python -m repro.cli serve`` subprocess and its files."""

    def __init__(
        self, workdir: Path, name: str, shape: Shape, seed: int,
        traced: bool, scrub: bool,
    ) -> None:
        self.dir = workdir / name
        self.dir.mkdir(parents=True)
        self.name = name
        self.scrub = scrub
        self.port_file = self.dir / "port"
        self.log = self.dir / "daemon.log"
        self.spans = self.dir / "spans.json" if traced else None
        self.journal = self.dir / "journal"
        serve = [
            "serve", "--n", str(N), "--k", str(K),
            "--num-disks", str(NUM_DISKS), "--placement", "rotating",
            "--chunk-size", str(shape.chunk_size),
            "--disk-size", str(shape.disk_size), "--seed", str(seed),
            "--store", str(self.dir / "store"), "--shards", str(SHARDS),
            "--journal", str(self.journal), "--port-file", str(self.port_file),
        ]
        if scrub:
            serve += ["--scrub", "--scrub-interval-ms", "0",
                      "--scrub-cycle-pause", "0"]
        if traced:
            self.argv = [sys.executable, str(HERE / "traced_serve.py"),
                         str(self.spans)] + serve
        else:
            self.argv = [sys.executable, "-m", "repro.cli"] + serve
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def launch(self) -> float:
        """Start the daemon; seconds from exec to the port file appearing.

        That interval covers interpreter start, RS-encoding the provisioned
        data and writing it durably (checksum + fsync per chunk): the write
        path of ``ec``/``utils.checksum``/``hdss.store``.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        started = time.monotonic()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                self.argv, env=env, cwd=self.dir, stdout=log,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            )
        deadline = started + LAUNCH_TIMEOUT_S
        while True:
            try:
                text = self.port_file.read_text().strip()
            except OSError:
                text = ""
            if text:
                self.port = int(text)
                return time.monotonic() - started
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"{self.name} daemon exited {self.proc.returncode} "
                    f"before listening:\n{self.log_tail()}"
                )
            if time.monotonic() > deadline:
                raise RuntimeError(f"{self.name} daemon did not listen in time")
            time.sleep(0.005)

    def cpu_seconds(self) -> float:
        """utime + stime of the daemon process so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS

    def rss_peak_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return float("nan")

    def log_tail(self, lines: int = 20) -> str:
        try:
            return "\n".join(self.log.read_text(errors="replace").splitlines()[-lines:])
        except OSError:
            return ""

    def wait_exit(self, timeout: float = 30.0) -> int:
        return self.proc.wait(timeout=timeout)

    def kill(self) -> None:
        """Make sure the process is gone (the ``finally`` path)."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=5.0)


def leftover_processes(workdir: Path) -> List[int]:
    """Pids (other than ours) whose command line still names ``workdir``."""
    needle = str(workdir).encode()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            if needle in (entry / "cmdline").read_bytes():
                found.append(int(entry.name))
        except OSError:
            continue
    return found


#: Probe bursts per second of its own CPU time on the reference host: this
#: sandbox on an ordinary minute. It only fixes the unit; a ratio between
#: two commits does not depend on it.
REFERENCE_SPEED = 250.0


class HostSpeed:
    """The ``calibrate.py`` probe beside a run, and what it saw."""

    def __init__(self, workdir: Path) -> None:
        self.out = workdir / "host-speed.txt"
        self.proc: Optional[subprocess.Popen] = None
        self.times: List[float] = []
        self.speeds: List[float] = []

    def start(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py"), str(self.out)],
            stdin=subprocess.DEVNULL)

    def stop(self) -> None:
        """End the probe (every path out of a run) and load its bursts."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=5.0)
        self.proc = None
        if self.out.is_file():
            for line in self.out.read_text().splitlines():
                t, speed = line.split()
                self.times.append(float(t))
                self.speeds.append(float(speed))
            self.out.unlink()

    def factor(self, start: float, end: float, pad: float = 0.0) -> float:
        """The host's speed over ``[start - pad, end + pad]`` as a multiple
        of the reference: the mean of the bursts begun in it (of the
        nearest few, should it hold fewer than three)."""
        lo = bisect.bisect_left(self.times, start - pad)
        hi = bisect.bisect_right(self.times, end + pad)
        if hi - lo < 3:
            lo, hi = max(0, lo - 2), min(len(self.times), hi + 2)
        if hi <= lo:
            raise RuntimeError("the host-speed probe recorded nothing")
        return statistics.fmean(self.speeds[lo:hi]) / REFERENCE_SPEED


class Run:
    """State and phases of one workload run."""

    def __init__(
        self, shape: Shape, seed: int, seconds: float, traced: bool,
        workdir: Path,
    ) -> None:
        self.shape = shape
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.workdir = workdir
        self.rng = random.Random(seed * 7919 + 17)
        self.digests: Dict[Target, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.errors: Counter = Counter()
        self.daemons: List[Daemon] = []
        self.setups: List[float] = []
        #: name -> value for every number this run produced.
        self.values: Dict[str, float] = {}
        #: phase -> its (start, end) slices on time.monotonic(), shared with
        #: the traced daemons' span clock (CLOCK_MONOTONIC is system-wide).
        self.windows: Dict[str, List[Tuple[float, float]]] = {}
        self.samples: Dict[str, int] = {}
        #: The per-slice values and pooled samples behind every metric.
        self.raw: Dict[str, List[float]] = {}
        #: Totals over the windows (CPU, wall, MB, ops) and over the main
        #: daemons' own counters: what the per-layer budgets are shares of.
        self.sums: Counter = Counter()
        self.log_tails: Dict[str, str] = {}
        self.host = HostSpeed(workdir)
        self._mix: List[bool] = []
        self._targets()

    # ------------------------------------------------------------- targets
    def _targets(self) -> None:
        """Which chunks live on the disks that will fail, and a seeded
        sample of as many chunks that stay healthy throughout."""
        from repro.workloads import build_exp_server

        shape = self.shape
        server = build_exp_server(
            n=N, k=K, disk_size=shape.disk_size, chunk_size=shape.chunk_size,
            num_disks=NUM_DISKS, seed=self.seed, placement="rotating",
        )
        if len(server.layout) != shape.stripes:
            raise RuntimeError("layout does not match the shape's stripe count")
        self.lost: Dict[int, List[Target]] = {disk: [] for disk, _ in ROUNDS}
        others: List[Target] = []
        for stripe in server.layout:
            for shard, disk in enumerate(stripe.disks):
                if disk in self.lost:
                    self.lost[disk].append((stripe.index, shard))
                else:
                    others.append((stripe.index, shard))
        want = sum(len(chunks) for chunks in self.lost.values())
        self.healthy = self.rng.sample(others, min(want, len(others)))

    # ----------------------------------------------------------------- ops
    async def _read(
        self, conn, target: Target, scheduled: Optional[float] = None,
        record: bool = False,
    ) -> Optional[float]:
        """One front-door read; its latency in seconds, or None if it
        failed (refused, errored or byte-wrong: a failed op has no latency)."""
        from repro.service.client import ServiceError

        self.attempted += 1
        started = time.monotonic() if scheduled is None else scheduled
        try:
            data = await conn.read_chunk(*target)
        except ServiceError as exc:
            self.failed += 1
            self.errors[exc.code] += 1
            return None
        elapsed = time.monotonic() - started
        digest = _digest(data)
        if record:
            self.digests[target] = digest
        elif self.digests[target] != digest or len(data) != self.shape.chunk_size:
            self.failed += 1
            self.mismatches += 1
            return None
        return elapsed

    async def _sweep(self, conns, targets: Sequence[Target], record: bool = False) -> None:
        """Read every target once, spread over the connections (untimed)."""
        pending = list(targets)

        async def worker(conn):
            while pending:
                await self._read(conn, pending.pop(), record=record)

        await asyncio.wait_for(
            asyncio.gather(*(worker(c) for c in conns)), PHASE_TIMEOUT_S)

    def _mixed_target(self, lost: Sequence[Target]) -> Target:
        """The read phases' mix: in every ``mix_block`` consecutive targets
        exactly one sits on the failed disk, at a seeded position — a
        degraded read costs several healthy ones, and a share left to
        chance would move the slice's work with the seed."""
        if not self._mix:
            self._mix = [True] + [False] * (self.shape.mix_block - 1)
            self.rng.shuffle(self._mix)
        if self._mix.pop():
            return self.rng.choice(lost)
        return self.rng.choice(self.healthy)

    async def _closed_loop(self, conns, duration: float, pick: Callable[[], Target]) -> float:
        """Each connection sends its next read when the last one returned;
        OK replies inside the window (a read still in flight when the
        window closes counts for the share of it that was inside)."""
        end = time.monotonic() + duration
        ok = 0.0

        async def worker(conn):
            nonlocal ok
            while True:
                started = time.monotonic()
                if started >= end:
                    return
                latency = await self._read(conn, pick())
                if latency is not None:
                    ok += min(1.0, (end - started) / latency)

        await asyncio.gather(*(worker(c) for c in conns))
        return ok

    async def _open_loop(
        self, conns, rate: float, pick: Callable[[], Target],
        duration: Optional[float] = None, stop: Optional[asyncio.Event] = None,
    ) -> List[Tuple[float, Target, Optional[float]]]:
        """Arrivals sent on schedule whatever the daemon does: one every
        ``1 / rate`` seconds from a seeded phase. (Evenly spaced, not
        Poisson: a slice is a second or two long, and a Poisson count over
        it would move the slice's load by a quarter from seed to seed.)

        Latency counts from the *scheduled* arrival, so a stall is charged
        to every request it delays. Returns ``(scheduled, target,
        latency-or-None)`` per request; how late the generator itself fired
        goes to ``raw["gen_lag_ms"]``.
        """
        queue: asyncio.Queue = asyncio.Queue()
        samples: List[Tuple[float, Target, Optional[float]]] = []
        lags = self.raw.setdefault("gen_lag_ms", [])
        start = time.monotonic()

        async def generator():
            due = start + self.rng.random() / rate
            while duration is None or due - start < duration:
                delay = due - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                if stop is not None and stop.is_set():
                    break
                lags.append((time.monotonic() - due) * 1e3)
                queue.put_nowait((due, pick()))
                due += 1.0 / rate
            for _ in conns:
                queue.put_nowait(None)

        async def worker(conn):
            while True:
                item = await queue.get()
                if item is None:
                    return
                due, target = item
                samples.append((due, target, await self._read(conn, target, scheduled=due)))

        await asyncio.gather(generator(), *(worker(c) for c in conns))
        return samples

    def _window(self, name: str, start: float, end: float) -> float:
        self.windows.setdefault(name, []).append((start, end))
        return end - start

    def _launch(self, daemon: Daemon) -> None:
        started = time.monotonic()
        self.setups.append(daemon.launch())
        self._window("setup", started, started + self.setups[-1])

    def _slices(self) -> int:
        return self.shape.cycles * len(ROUNDS)

    # -------------------------------------------------------------- phases
    async def main_daemon(self) -> None:
        """One cycle's default-flags daemon: its read phases and repairs."""
        from repro.obs.exporters import parse_prometheus_text
        from repro.service.client import ServiceClient, ServiceError

        shape, sums, raw = self.shape, self.sums, self.raw
        daemon = Daemon(self.workdir, f"main-{len(self.daemons)}", shape,
                        self.seed, self.traced, scrub=False)
        self.daemons.append(daemon)
        self._launch(daemon)
        conns = [await ServiceClient.connect("127.0.0.1", daemon.port)
                 for _ in range(2)]
        ctl = conns[0]
        try:
            info = await ctl.call("ping")
            if info["num_stripes"] != shape.stripes:
                raise RuntimeError(f"daemon reports {info['num_stripes']} stripes")

            # The per-request floor: a verb that touches no chunk.
            for _ in range(100):
                t = time.monotonic()
                await ctl.call("ping")
                raw.setdefault("ping_rtt_us", []).append((time.monotonic() - t) * 1e6)

            await self._sweep(
                conns, self.healthy + [t for c in self.lost.values() for t in c],
                record=True)

            readable = list(self.healthy)
            for disk, loaded in ROUNDS:
                lost = self.lost[disk]
                await ctl.call("fail_disk", disk=disk)
                await self._read_phases(daemon, conns, lost)
                await self._repair_phase(daemon, conns, disk, loaded, readable)
                await self._sweep(conns, lost)
                readable += lost

            # ---- what the daemon says about itself
            stats = await ctl.call("stats")
            overload = stats.get("overload", {})
            sums["overload.transitions"] += overload.get("transitions", 0)
            sums["overload.repair_paced"] += overload.get("repair_paced", 0)
            sums["overload.sheds"] += overload.get("sheds_total", 0)
            paths = stats.get("foreground", {})
            sums["reads.piggyback"] += paths.get("piggyback", {}).get("count", 0.0)
            sums["reads.degraded_decode"] += paths.get("decode", {}).get("count", 0.0)
            prom = parse_prometheus_text(await ctl.metrics_text())
            for cls in ("background", "foreground"):
                sums[f"admission.wait_s_{cls}"] += prom.get(
                    ("hdpsr_service_admission_wait_seconds_sum", (("priority", cls),)), 0.0)
            sums["loop.lag_sum_s"] += prom.get(("hdpsr_runtime_loop_lag_seconds_sum", ()), 0.0)
            raw.setdefault("loop_lag_p99_ms", []).append(
                stats.get("runtime", {}).get("loop_lag_p99_seconds", 0.0) * 1e3)
            raw.setdefault("rss_peak_mb", []).append(daemon.rss_peak_mb())
            self.attempted += 1
            try:
                await ctl.call("shutdown")
            except ServiceError:
                self.failed += 1
        finally:
            for conn in conns:
                await conn.close()
        code = daemon.wait_exit()
        if code != 0:
            self.failed += 1
            self.log_tails[daemon.name] = daemon.log_tail()

    async def _read_phases(self, daemon: Daemon, conns, lost: Sequence[Target]) -> None:
        """One round's front-door reads, the round's disk failed and left
        unrepaired: a closed-loop slice, then an open-loop slice."""
        sums, raw, slices = self.sums, self.raw, self._slices()
        cpu0, mine0, t0 = daemon.cpu_seconds(), time.process_time(), time.monotonic()
        ok = await self._closed_loop(
            conns, self.seconds * CLOSED_SHARE / slices,
            lambda: self._mixed_target(lost))
        self._window("read_closed", t0, time.monotonic())
        elapsed = self.seconds * CLOSED_SHARE / slices
        raw.setdefault("read_rps", []).append(ok / elapsed)
        sums["closed_ok"] += ok
        sums["closed_wall"] += elapsed
        sums["closed_cpu"] += daemon.cpu_seconds() - cpu0
        sums["closed_client_cpu"] += time.process_time() - mine0

        t0 = time.monotonic()
        samples = await self._open_loop(
            conns, self.shape.open_rate, lambda: self._mixed_target(lost),
            duration=self.seconds * OPEN_SHARE / slices)
        self._window("read_open", t0, time.monotonic())
        on_failed = set(lost)
        for _, target, latency in samples:
            if latency is not None:
                name = "read_degraded_ms" if target in on_failed else "read_healthy_ms"
                raw.setdefault(name, []).append(latency * 1e3)
        # Where each slice's samples end in the pooled lists.
        for name in ("read_healthy_ms", "read_degraded_ms"):
            raw.setdefault(f"{name}_slice_ends", []).append(len(raw.get(name, [])))

    async def _repair_phase(
        self, daemon: Daemon, conns, disk: int, loaded: bool,
        readable: Sequence[Target],
    ) -> None:
        """One round's repair: alone, or under the foreground stream.

        ``wait`` blocks its connection, so the stream has the other one:
        two in all. Stream targets are chunks readable now (never-failed
        ones and those rebuilt in earlier rounds): a read of a chunk still
        lost parks on the repair's own decode of that stripe, seconds away,
        and would head-of-line block the one connection behind it.
        """
        ctl, sums, raw = conns[0], self.sums, self.raw
        phase = "loaded" if loaded else "idle"
        before = (await ctl.call("stats")).get("overload", {})
        stop, stream = asyncio.Event(), None
        cpu0, t0 = daemon.cpu_seconds(), time.monotonic()
        if loaded:
            stream = asyncio.ensure_future(self._open_loop(
                [conns[1]], self.shape.fg_rate,
                lambda: self.rng.choice(readable), stop=stop))
        try:
            summary = await self._repair(ctl, disk, len(self.lost[disk]))
            t1, cpu1 = time.monotonic(), daemon.cpu_seconds()
        finally:
            stop.set()
            samples = await stream if stream is not None else []
        if summary is None:
            raise _RepairFailed(daemon.log_tail())
        self._window(f"repair_{phase}", t0, t1)
        mb = summary["chunks_rebuilt"] * self.shape.chunk_size / 1e6
        raw.setdefault(f"repair_{phase}_mbps", []).append(mb / (t1 - t0))
        raw.setdefault("fg_read_ms", []).extend(
            lat * 1e3 for due, _, lat in samples if lat is not None and due <= t1)
        if not loaded:
            raw.setdefault("repair_cpu_s_per_mb", []).append((cpu1 - cpu0) / mb)
            sums["journal_bytes"] += _dir_bytes(daemon.journal / f"disk-{disk:03d}")
            sums["idle_mb"] += mb
            sums["idle_wall"] += t1 - t0
            sums["idle_cpu"] += cpu1 - cpu0
            after = (await ctl.call("stats")).get("overload", {})
            for key in ("transitions", "repair_paced"):
                sums[f"overload.idle_{key}"] += after.get(key, 0) - before.get(key, 0)

    async def _repair(self, ctl, disk: int, expect: int) -> Optional[dict]:
        """Submit one repair job and wait for it: one op. None if it failed
        (errored, uncertified, or rebuilt the wrong number of chunks)."""
        from repro.service.client import ServiceError

        self.attempted += 1
        try:
            job = await ctl.call("repair", disk=disk)
            summary = await asyncio.wait_for(
                ctl.call("wait", job_id=job["job_id"]), PHASE_TIMEOUT_S)
        except ServiceError as exc:
            self.failed += 1
            self.errors[exc.code] += 1
            return None
        if not summary.get("certified") or summary.get("chunks_rebuilt") != expect:
            self.failed += 1
            return None
        return summary

    async def scrub_daemon(self) -> None:
        """One cycle's second daemon, scrubbing flat out: the MB it
        verifies between two polls of the ``scrub`` verb, per second."""
        from repro.service.client import ServiceClient

        shape, sums = self.shape, self.sums
        daemon = Daemon(self.workdir, f"scrub-{len(self.daemons)}", shape,
                        self.seed, self.traced, scrub=True)
        self.daemons.append(daemon)
        self._launch(daemon)
        conn = await ServiceClient.connect("127.0.0.1", daemon.port)
        try:
            duration = self.seconds * SCRUB_SHARE / shape.cycles
            first = last = await conn.scrub()
            t0 = t1 = time.monotonic()
            cpu0 = daemon.cpu_seconds()
            rates = self.raw.setdefault("scrub_mbps", [])
            while t1 - t0 < duration:
                await asyncio.sleep(min(SCRUB_POLL_S, duration / 4))
                now, t = await conn.scrub(), time.monotonic()
                rates.append((now["chunks_verified"] - last["chunks_verified"])
                             * shape.chunk_size / 1e6 / (t - t1))
                self._window("scrub_poll", t1, t)
                last, t1 = now, t
            sums["scrub_cpu"] += daemon.cpu_seconds() - cpu0
            sums["scrub_chunks"] += last["chunks_verified"] - first["chunks_verified"]
            sums["scrub_cycles"] += last["cycles_completed"] - first["cycles_completed"]
            self._window("scrub", t0, t1)
            self.attempted += 1
            if last.get("corrupt_found"):
                self.failed += 1
            await conn.call("shutdown")
        finally:
            await conn.close()
        if daemon.wait_exit() != 0:
            self.failed += 1
            self.log_tails[daemon.name] = daemon.log_tail()

    def _scaled(self, key: str, window: str, rate: bool, pad: float = 0.0) -> List[float]:
        """``raw[key]``'s slices, one per slice of ``window``, from wall
        clock to reference seconds: at twice the reference speed a rate
        reads half as much, a time twice as long."""
        values, slices = self.raw[key], self.windows[window]
        if len(values) != len(slices):
            raise RuntimeError(f"{key}: {len(values)} values, {len(slices)} slices")
        factors = [self.host.factor(a, b, pad) for a, b in slices]
        return [x / f if rate else x * f for x, f in zip(values, factors)]

    def _derive(self) -> None:
        """The slices' values, pooled samples and sums, as named metrics."""
        v, sums, raw, median = self.values, self.sums, self.raw, statistics.median

        # ---- end to end: in reference seconds, and as read off the wall
        raw["setup_s"] = self.setups
        for name, key, window, rate, pad in (
            ("setup_s", "setup_s", "setup", False, 0.0),
            ("read_rps", "read_rps", "read_closed", True, 0.0),
            ("repair_mbps", "repair_idle_mbps", "repair_idle", True, 0.0),
            ("repair_loaded_mbps", "repair_loaded_mbps", "repair_loaded", True, 0.0),
            ("repair_cpu_s_per_mb", "repair_cpu_s_per_mb", "repair_idle", False, 0.0),
            # A poll is a quarter of a second: five bursts. Its neighbours'
            # bursts steady the factor.
            ("scrub_mbps", "scrub_mbps", "scrub_poll", True, SCRUB_POLL_S),
        ):
            v[name] = median(self._scaled(key, window, rate, pad))
            v[f"wall.{name}"] = median(raw[key])
        for name in ("read_healthy", "read_degraded"):
            # The open-loop samples are pooled; each is scaled by its slice.
            wall, scaled, begin = raw.get(f"{name}_ms", []), [], 0
            for end, (a, b) in zip(raw[f"{name}_ms_slice_ends"], self.windows["read_open"]):
                factor = self.host.factor(a, b)
                scaled += [x * factor for x in wall[begin:end]]
                begin = end
            v[f"{name}_p50_ms"] = percentile(scaled, 0.5)
            v[f"wall.{name}_p50_ms"] = percentile(wall, 0.5)
            # Reported without a bound (see README), off the wall clock.
            v[f"client.{name}_p90_ms"] = percentile(wall, 0.9)
            self.samples[name] = len(wall)
        v["daemon_rss_peak_mb"] = max(raw["rss_peak_mb"])
        relative = [speed / REFERENCE_SPEED for speed in self.host.speeds]
        quartiles = statistics.quantiles(relative, n=4)
        v["host.speed"] = quartiles[1]
        v["host.speed_spread"] = (quartiles[2] - quartiles[0]) / quartiles[1]
        self.samples["host_bursts"] = len(relative)

        # ---- per layer: wall clock and CPU seconds as measured
        v["wire.ping_rtt_us"] = percentile(raw["ping_rtt_us"], 0.5)
        v["read.cpu_s"] = sums["closed_cpu"]
        v["read.cpu_ms_per_req"] = sums["closed_cpu"] * 1e3 / max(1.0, sums["closed_ok"])
        v["client.cpu_share"] = sums["closed_client_cpu"] / sums["closed_wall"]
        self.samples["read_closed"] = round(sums["closed_ok"])
        # Everything about the foreground stream, whose spread no gate
        # could survive.
        stream = raw.get("fg_read_ms", [])
        v["client.fg_read_p50_ms"] = percentile(stream, 0.5)
        v["client.fg_read_p90_ms"] = percentile(stream, 0.9)
        v["client.fg_read_max_ms"] = max(stream or [float("nan")])
        self.samples["fg_read"] = len(stream)
        v["client.gen_lag_p99_ms"] = percentile(raw["gen_lag_ms"], 0.99)

        v["repair.cpu_s"] = sums["idle_cpu"]
        v["repair.wall_s"] = sums["idle_wall"]
        v["journal.bytes_per_lost_byte"] = sums["journal_bytes"] / (sums["idle_mb"] * 1e6)
        self.samples["repairs_idle"] = len(raw["repair_idle_mbps"])
        self.samples["repairs_loaded"] = len(raw["repair_loaded_mbps"])

        mb = sums["scrub_chunks"] * self.shape.chunk_size / 1e6
        v["scrub.cpu_s"] = sums["scrub_cpu"]
        v["scrub.cpu_s_per_mb"] = sums["scrub_cpu"] / max(mb, 1e-9)
        v["scrub.chunks_verified"] = sums["scrub_chunks"]
        v["scrub.cycles"] = sums["scrub_cycles"]
        self.samples["scrub_chunks"] = sums["scrub_chunks"]
        self.samples["scrub_polls"] = len(raw["scrub_mbps"])

        # The main daemons' own counters, summed over the cycles.
        for name in (
            "overload.transitions", "overload.repair_paced", "overload.sheds",
            "overload.idle_transitions", "overload.idle_repair_paced",
            "reads.piggyback", "reads.degraded_decode",
            "admission.wait_s_background", "admission.wait_s_foreground",
            "loop.lag_sum_s",
        ):
            v[name] = sums[name]
        v["loop.lag_p99_ms"] = max(raw["loop_lag_p99_ms"])

    async def run(self) -> None:
        retried = False
        self.host.start()
        try:
            cycle = 0
            while cycle < self.shape.cycles:
                # The one written-down exception to "never retried": a
                # repair job that errors is re-run once, on a fresh daemon,
                # so that its metrics exist. Both attempts stay in
                # `attempted`, the failure in `failed`, and the daemon's log
                # tail goes into the output. What the failed daemon's
                # earlier slices measured stays: it was measured.
                try:
                    await self.main_daemon()
                except _RepairFailed as exc:
                    self.log_tails[self.daemons[-1].name] = str(exc)
                    self.daemons[-1].kill()
                    if retried:
                        raise RuntimeError("repair failed twice") from None
                    retried = True
                    continue
                await self.scrub_daemon()
                cycle += 1
            self.host.stop()
            self._derive()
        finally:
            self.host.stop()
            for daemon in self.daemons:
                daemon.kill()

    @property
    def too_short(self) -> List[str]:
        # "setup" and "scrub_poll" are not phases: the launches, and the
        # scrub window once more, cut per poll.
        return sorted(
            name for name, slices in self.windows.items()
            if name not in ("setup", "scrub_poll")
            and sum(b - a for a, b in slices) < MIN_WINDOW_S)


class _RepairFailed(Exception):
    """A repair job errored; carries the daemon's log tail."""
