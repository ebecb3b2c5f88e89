"""Silent-corruption chaos: bitrot seeded mid-repair, caught by the scrub plane.

This is the scenario behind ``hdpsr chaos --scenario bitrot``, and the
proof the scrub plane exists to earn. One :class:`ServiceDaemon` (driven
in-process through
:meth:`~repro.service.netserver.ServiceDaemon.handle_request`) fronts a
*file-backed* sharded store — corruption has to land on real bytes with
real chunk digests — while a disk repair runs. The episode:

1. Fail one disk and submit its repair.
2. Mid-repair, fire one corruption event of each kind (``bitrot``,
   ``torn_write``, ``misdirected_write``) through the request-ordinal
   wire injector, each against a chunk of a stripe the repair never
   touches (so nothing but a verify can catch it). Seed times are
   stamped so detection latency is measurable.
3. Read one corrupted chunk through the front door immediately: the
   daemon must quarantine it and serve the *decoded* bytes — the reply
   is byte-identical to the original payload, never the rotted bytes.
4. Let the scrubber finish one full cycle after seeding and assert every
   corrupt chunk was detected, quarantined, and read-repaired
   byte-identically with a fresh digest (``verify_chunk`` passes).
5. Brown the daemon out (synthetic flash-crowd gate waits walk the
   controller to ``shedding``) and assert the scrubber parks — zero
   verifies while shed — then recovers and makes progress again once
   the controller walks back to ``healthy``.
6. Full byte-identity sweep: every object, including the repaired
   disk's chunks on spares, reads back exactly as written.

With ``scrub=False`` (the ``--no-scrub`` negative control) the same
corruption is seeded and nothing ever verifies the victims: the episode
ends with the corruption still latent on disk, which is what proves the
detection above is the scrub plane's doing. The control asserts only
integrity of untouched stripes; the *caller* asserts
``report["latent_corruptions"] >= 1``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from repro.ec.stripe import ChunkId
from repro.errors import ConfigurationError
from repro.faults.service import ServiceFaultInjector
from repro.faults.spec import CORRUPTION_FAULT_KINDS, FaultEvent, FaultSchedule
from repro.hdss.server import HighDensityStorageServer
from repro.hdss.store import ShardedChunkStore
from repro.service import chaos_rig as rig
from repro.service.netserver import ServiceDaemon
from repro.service.overload import STATE_HEALTHY, STATE_SHEDDING, OverloadConfig
from repro.service.protocol import reply_body
from repro.service.scrub import ScrubConfig, Scrubber
from repro.service.service import RepairService

__all__ = ["BitrotChaosConfig", "BitrotChaosScenario", "run_bitrot_chaos"]

Victim = Tuple[int, int, int]  # (disk, stripe, shard)

CHUNK_SIZE = 1024
NUM_SHARDS = 4
GATE_WIDTH = 2
#: Inter-verify pause of the scrubber under test.
SCRUB_INTERVAL_MS = 1.0
#: Full scrub cycles allowed between seeding and every victim being
#: detected + repaired (1 = "within one cycle"; the budget waits for that
#: many *complete* cycles that started after seeding).
DETECTION_CYCLES = 1
#: A twitchy controller (20 ms windows, one clean window to recover, idle
#: reset in 0.4 s) so the synthetic brownout of step 5 enters and leaves
#: shedding in well under a second.
OVERLOAD = OverloadConfig(
    target_ms=5.0, shed_target_ms=30.0, interval_ms=20.0,
    recovery_intervals=1, idle_reset_s=0.4,
    scrub_brownout_factor=4.0,
)


def _kind(i: int) -> str:
    return CORRUPTION_FAULT_KINDS[i % len(CORRUPTION_FAULT_KINDS)]


@dataclass(frozen=True)
class BitrotChaosConfig:
    """Knobs of one silent-corruption episode.

    Attributes:
        scrub: run the scrub plane (the treatment) or leave the seeded
            corruption to fester (the ``--no-scrub`` negative control).
        root: scratch directory — REQUIRED, the store must be file-backed
            for corruption to have bytes to rot.
        corruptions: victim count; kinds cycle through
            :data:`~repro.faults.spec.CORRUPTION_FAULT_KINDS`.
        deadline: wall seconds the whole episode may take.
    """

    root: "str | Path" = ""
    scrub: bool = True
    seed: int = 23
    stripes: int = 10
    failed_disk: int = 3
    corruptions: int = 3
    deadline: float = 60.0

    def __post_init__(self) -> None:
        if not str(self.root):
            raise ConfigurationError(
                "bitrot chaos needs a scratch root (file-backed store)"
            )
        if self.corruptions < 1:
            raise ConfigurationError(
                f"corruptions must be >= 1, got {self.corruptions}"
            )


class BitrotChaosScenario(rig.Episode):
    """One seeded silent-corruption episode; :meth:`run` returns the report."""

    def _pick_victims(self, server: HighDensityStorageServer) -> List[Victim]:
        """``(disk, stripe, shard)`` triples the disk repair never reads:
        data shards of stripes that do not touch the failed disk, one per
        stripe on distinct disks first (so the corruption lands "across
        shards" rather than clustering), then — if the layout is too small
        for that spread — whatever other such shards are left."""
        c = self.config
        spread: List[Victim] = []
        rest: List[Victim] = []
        used_disks: set = set()
        for si in range(len(server.layout)):
            stripe = server.layout[si]
            if c.failed_disk in stripe.disks:
                continue
            fresh = next(
                (s for s in range(stripe.k) if stripe.disks[s] not in used_disks),
                None,
            )
            for s in range(stripe.k):
                (spread if s == fresh else rest).append((stripe.disks[s], si, s))
            if fresh is not None:
                used_disks.add(stripe.disks[fresh])
        victims = (spread + rest)[:c.corruptions]
        if len(victims) < c.corruptions:
            raise ConfigurationError(
                "not enough repair-untouched stripes to seed "
                f"{c.corruptions} corruptions"
            )
        return victims

    # ------------------------------------------------------------------ run
    async def run(self) -> dict:
        c = self.config
        root = Path(c.root)
        store = rig.CountingStore(ShardedChunkStore.from_root(
            root / "store", num_shards=NUM_SHARDS, durable=False
        ))
        server = rig.build_server(
            store, stripes=c.stripes, seed=c.seed, chunk_size=CHUNK_SIZE
        )
        store.reset()
        service = rig.build_service(
            server,
            max_concurrent_stripes=2,
            per_disk_reads=GATE_WIDTH,
            journal_root=root / "journal",
            overload=OVERLOAD,
        )
        victims = self._pick_victims(server)
        injector = ServiceFaultInjector(FaultSchedule([
            # Ordinals 0 and 1 are fail_disk + repair: the events land
            # on the seeding pings fired right after, i.e. mid-repair.
            FaultEvent(at=float(2 + i), kind=_kind(i), disk=disk, stripe=si, shard=s)
            for i, (disk, si, s) in enumerate(victims)
        ]))
        scrubber = None
        if c.scrub:
            scrubber = Scrubber(service, ScrubConfig(
                interval_ms=SCRUB_INTERVAL_MS,
                cycle_pause_s=0.05,
                park_poll_s=0.02,
                journal_root=root / "scrub-cursor",
                durable_journal=False,
                auto_repair=True,
            ))
        call = rig.in_process(
            ServiceDaemon(service, chaos=injector, scrubber=scrubber)
        )
        originals = rig.originals_of(server)
        repaired = server.layout.stripe_set(c.failed_disk)
        pristine = {
            (disk, si, s): store.get(disk, ChunkId(si, s)).tobytes()
            for disk, si, s in victims
        }

        report: dict = {
            "scenario": "bitrot",
            "scrub": c.scrub,
            "seed": c.seed,
            "victims": [
                {"disk": d, "stripe": si, "shard": s, "kind": _kind(i)}
                for i, (d, si, s) in enumerate(victims)
            ],
        }

        if scrubber is not None:
            scrubber.start()

        # 1. Fail the disk and start its repair (ordinals 0 and 1).
        job_id = await self.start_repair(call, c.failed_disk)

        # 2. Seed the corruption mid-repair: each ping advances the request
        # ordinal past one scheduled corruption event.
        cycles_at_seed = scrubber.cycles_completed if scrubber else 0
        for _ in range(c.corruptions):
            await call("ping")
        seeded_at = time.monotonic()
        report["injected"] = dict(injector.applied)
        if sum(injector.applied.get(k, 0) for k in CORRUPTION_FAULT_KINDS) != len(
            victims
        ):
            self.fail(
                f"expected {len(victims)} corruption events to fire, "
                f"applied: {injector.applied}"
            )

        # 3. The front door must never leak rotted bytes: read the first
        # victim right now, while its corruption is fresh. The daemon
        # quarantines it on the checksum mismatch and serves the decode.
        _, first_si, first_s = victims[0]
        reply = await call("read", stripe=first_si, shard=first_s)
        clean = bool(reply.get("ok")) and (
            bytes(reply_body(reply)) == pristine[victims[0]]
        )
        if not reply.get("ok"):
            self.fail(f"foreground read of corrupt chunk failed: {reply}")
        elif not clean:
            self.fail(
                "foreground read of corrupt chunk returned wrong bytes "
                f"(s{first_si}/{first_s})"
            )
        report["foreground_read_clean"] = clean

        # 4. The disk repair must finish clean despite the corruption.
        summary = await self.wait_certified(call, job_id, "disk repair")
        if summary:
            report["repair"] = summary

        if scrubber is not None:
            await self._assert_treatment(
                report, service, scrubber, victims, pristine,
                cycles_at_seed, seeded_at,
            )
        else:
            # Without the scrub plane nothing verifies the victims: the
            # corruption must still be latent on disk at episode end. The
            # control's own pass/fail stays about integrity; the caller
            # asserts latent_corruptions >= 1, mirroring the overload control.
            report["latent_corruptions"] = len(rig.bad_digests(
                store, [(disk, ChunkId(si, s)) for disk, si, s in victims]
            ))

        # Final byte-identity sweep. The negative control skips stripes
        # holding latent corruption on purpose: reading them would detect
        # (and quarantine) the very rot whose latency it exists to prove.
        report["byte_identical"] = self.check(await rig.check_byte_identical(
            service.read_object, originals,
            skip=() if scrubber is not None else {si for _, si, _ in victims},
        ))
        # The victims sit on stripes the repair never touches, so the
        # repaired ones must be parity-clean with or without the scrub plane.
        report["parity_clean"] = self.check(rig.check_parity_clean(server, repaired))
        self.check_memory(report, service)

        if scrubber is not None:
            await scrubber.stop()
            report["scrub_status"] = scrubber.status().to_dict()
        await service.close()
        report["corruption"] = {
            "found": service.corrupt_found,
            "repaired": service.corrupt_repaired,
            "quarantined": len(service.quarantine),
        }
        # Each rebuilt chunk, the repair's or a read-repair's, lands once.
        report["duplicate_writes"] = [
            [disk, cid.stripe_index, cid.shard_index] for disk, cid in store.duplicates()
        ]
        return self.finish(report)

    # ------------------------------------------------------------ assertions
    async def _assert_treatment(
        self,
        report: dict,
        service: RepairService,
        scrubber: Scrubber,
        victims: List[Victim],
        pristine: Dict[Victim, bytes],
        cycles_at_seed: int,
        seeded_at: float,
    ) -> None:
        store = service.server.store

        # Detection budget: wait for DETECTION_CYCLES cycles guaranteed
        # to have *started* after seeding (+1 covers the cycle that was
        # already in flight when the corruption landed).
        target = cycles_at_seed + DETECTION_CYCLES + 1
        budget = self.remaining()
        if not await scrubber.wait_cycles(target, timeout=budget):
            self.fail(
                f"scrubber completed {scrubber.cycles_completed} cycles "
                f"(wanted {target}) within {budget:.0f}s"
            )
        report["detection_window_seconds"] = round(
            time.monotonic() - seeded_at, 3
        )

        # Every victim: detected, repaired byte-identically, digest fresh.
        rotten = set(rig.bad_digests(
            store, [(disk, ChunkId(si, s)) for disk, si, s in victims]
        ))
        still_bad = []
        for disk, si, s in victims:
            cid = ChunkId(si, s)
            if service.is_quarantined(disk, cid):
                still_bad.append((disk, si, s, "still quarantined"))
            elif (disk, cid) in rotten:
                still_bad.append((disk, si, s, "digest mismatch"))
            elif store.get(disk, cid).tobytes() != pristine[(disk, si, s)]:
                still_bad.append((disk, si, s, "bytes differ"))
        if still_bad:
            self.fail(
                f"corrupt chunks not repaired within {DETECTION_CYCLES} "
                f"scrub cycle(s): {still_bad}"
            )
        if service.corrupt_found < len(victims):
            self.fail(
                f"only {service.corrupt_found} corruptions detected of "
                f"{len(victims)} seeded"
            )
        if service.corrupt_repaired < len(victims):
            self.fail(
                f"only {service.corrupt_repaired} read-repairs completed of "
                f"{len(victims)} seeded"
            )
        report["detected"] = service.corrupt_found
        report["read_repaired"] = service.corrupt_repaired

        # Brownout: synthetic flash-crowd gate waits walk the controller
        # to shedding; the scrubber must park (zero verifies), then make
        # progress again once the controller recovers to healthy.
        controller = service.overload
        interval = controller.config.interval_ms / 1000.0

        healthy_start = scrubber.chunks_verified
        await asyncio.sleep(0.3)
        healthy_rate = (scrubber.chunks_verified - healthy_start) / 0.3
        report["scrub_rate_healthy_per_s"] = round(healthy_rate, 1)

        async def parked_after_pulse() -> bool:
            # Keep the window hot until the park lands.
            controller.observe_wait(0, 0.2)
            await asyncio.sleep(interval * 1.5)
            controller.observe_wait(0, 0.2)
            return scrubber.parked

        report["scrub_parked_while_shedding"] = await self.await_until(
            parked_after_pulse, "the scrubber to park while shedding", 2.0
        )
        report["state_during_pulse"] = controller.state
        if controller.state != STATE_SHEDDING:
            self.fail(
                f"synthetic gate waits left controller {controller.state}, "
                "expected shedding"
            )
        parked_start = scrubber.chunks_verified
        hold = time.monotonic() + 0.3
        while time.monotonic() < hold:
            controller.observe_wait(0, 0.2)
            await asyncio.sleep(0.05)
        parked_verifies = scrubber.chunks_verified - parked_start
        report["verifies_while_parked"] = parked_verifies
        if parked_verifies:
            self.fail(
                f"scrubber verified {parked_verifies} chunks while parked"
            )

        # Recovery: the idle window expires, the controller walks back to
        # healthy, and the scrubber resumes verifying.
        report["recovered_healthy"] = await self.await_until(
            lambda: controller.state == STATE_HEALTHY,
            "the controller to walk back to healthy after the pulse",
        )
        resume_start = scrubber.chunks_verified
        report["scrub_resumed"] = await self.await_until(
            lambda: scrubber.chunks_verified > resume_start,
            "the scrubber to make progress after the daemon recovered",
        )


def run_bitrot_chaos(config: BitrotChaosConfig) -> dict:
    """Synchronous front door for the CLI/CI: run one bitrot episode."""
    return asyncio.run(BitrotChaosScenario(config).run())
