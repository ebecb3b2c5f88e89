"""Monte-Carlo durability simulation of an erasure-coded chassis.

Each trial replays one mission: disks fail according to a lifetime model,
each failure triggers a repair that completes after ``repair_seconds``
(the number produced by a repair scheme — this is where HD-PSR's speedup
enters), and **data loss** is declared the moment some stripe has more
than ``m = n - k`` of its disks simultaneously down. Repaired disks return
to service with a freshly sampled lifetime (the rebuilt data lives on a
spare; the slot is modelled as good-as-new).

The estimator reports the mission loss probability with a 95% Wilson
interval and an MTTDL estimate from the observed loss times.

**Latent errors and the scrub window.** With
``latent_error_rate_per_disk_year > 0`` each disk also accrues silent
corruption (bitrot, torn writes) as a Poisson process. A latent error is
invisible — it costs nothing by itself — but while it is present the
affected disk contributes one *extra* effective erasure to its stripes:
a disk failure that would have been tolerable is fatal if it lands while
an undetected latent error sits on a survivor. ``scrub_cycle_seconds``
is the detection window: an online scrub plane finds and read-repairs a
latent error within one cycle, so shorter cycles shrink the vulnerable
window; ``None`` models no scrubbing (the error persists until the disk
itself is rebuilt). This is the reliability argument for the service's
:class:`~repro.service.scrub.Scrubber`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional


from repro.core.base import RepairAlgorithm
from repro.core.repair_job import plan_repair
from repro.core.scheduler import simulate
from repro.ec.stripe import StripeLayout
from repro.errors import ConfigurationError
from repro.hdss.server import HighDensityStorageServer
from repro.reliability.lifetimes import YEAR_SECONDS, LifetimeModel
from repro.utils.rng import RngLike, derive_seed, make_rng
from repro.utils.validation import check_positive


@dataclass
class DurabilityResult:
    """Outcome of a durability Monte-Carlo run."""

    trials: int
    losses: int
    mission_seconds: float
    repair_seconds: float
    #: Fraction of trials that lost data within the mission.
    loss_probability: float
    #: 95% Wilson confidence interval on the loss probability.
    ci95: "tuple[float, float]"
    #: MTTDL estimate in seconds (inf when no trial lost data) — total
    #: observed up-time divided by the number of losses.
    mttdl_seconds: float
    #: Mean time of the loss event among losing trials (seconds), or None.
    mean_time_to_loss: Optional[float]
    #: Scrub detection window used for latent errors (None = no scrub /
    #: no latent-error model).
    scrub_cycle_seconds: Optional[float] = None
    #: Losses where an undetected latent error supplied the fatal erasure.
    latent_losses: int = 0

    @property
    def mttdl_years(self) -> float:
        return self.mttdl_seconds / YEAR_SECONDS

    def summary(self) -> dict:
        out = {
            "trials": self.trials,
            "losses": self.losses,
            "loss_probability": self.loss_probability,
            "ci95_low": self.ci95[0],
            "ci95_high": self.ci95[1],
            "mttdl_years": self.mttdl_years,
            "repair_seconds": self.repair_seconds,
        }
        if self.scrub_cycle_seconds is not None:
            out["scrub_cycle_seconds"] = self.scrub_cycle_seconds
        if self.latent_losses:
            out["latent_losses"] = self.latent_losses
        return out


def _wilson(losses: int, trials: int, z: float = 1.959964) -> "tuple[float, float]":
    if trials == 0:
        return (0.0, 1.0)
    p = losses / trials
    denom = 1 + z**2 / trials
    centre = (p + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    return (max(0.0, centre - half), min(1.0, centre + half))


def simulate_durability(
    layout: StripeLayout,
    num_disks: int,
    lifetime: LifetimeModel,
    repair_seconds: float,
    mission_years: float = 10.0,
    trials: int = 1000,
    seed: RngLike = None,
    enclosure_size: Optional[int] = None,
    correlated_prob: float = 0.0,
    correlated_delay_seconds: float = 3600.0,
    latent_error_rate_per_disk_year: float = 0.0,
    scrub_cycle_seconds: Optional[float] = None,
) -> DurabilityResult:
    """Estimate mission loss probability and MTTDL for one repair speed.

    Args:
        layout: stripe placement (defines which disk subsets are fatal).
        num_disks: disks in the chassis (failure processes run per disk).
        lifetime: per-disk time-to-failure distribution.
        repair_seconds: how long a single-disk repair takes under the
            scheme being evaluated (see :func:`estimate_repair_seconds`).
        mission_years: horizon of each trial.
        trials: Monte-Carlo trials.
        seed: RNG seed (each trial derives an independent stream).
        enclosure_size: disks per enclosure/backplane; enables correlated
            failures (consecutive disk ids share an enclosure).
        correlated_prob: probability that a failure drags each *other*
            disk of its enclosure down within ``correlated_delay_seconds``
            — the backplane-event model that motivates the paper's
            multi-disk cooperative repair.
        correlated_delay_seconds: spread of the correlated follow-on
            failures after the trigger.
        latent_error_rate_per_disk_year: Poisson rate of silent
            corruption per disk-year. While a latent error is undetected
            its disk counts as one extra effective erasure for its
            stripes (the corrupt chunk cannot serve as a survivor).
        scrub_cycle_seconds: detection window of the online scrub plane —
            a latent error is found and read-repaired within one cycle.
            ``None`` with a nonzero latent rate models *no* scrubbing:
            the error persists until its disk is itself rebuilt.
    """
    check_positive("num_disks", num_disks)
    check_positive("repair_seconds", repair_seconds)
    check_positive("mission_years", mission_years)
    check_positive("trials", trials)
    if len(layout) == 0:
        raise ConfigurationError("layout has no stripes; nothing can be lost")
    if not 0.0 <= correlated_prob <= 1.0:
        raise ConfigurationError(f"correlated_prob must be in [0, 1], got {correlated_prob}")
    if correlated_prob > 0.0 and (enclosure_size is None or enclosure_size < 2):
        raise ConfigurationError(
            "correlated failures need enclosure_size >= 2"
        )
    if correlated_delay_seconds < 0:
        raise ConfigurationError("correlated_delay_seconds must be >= 0")
    if latent_error_rate_per_disk_year < 0:
        raise ConfigurationError(
            "latent_error_rate_per_disk_year must be >= 0, got "
            f"{latent_error_rate_per_disk_year}"
        )
    if scrub_cycle_seconds is not None and scrub_cycle_seconds <= 0:
        raise ConfigurationError(
            f"scrub_cycle_seconds must be > 0 when given, got {scrub_cycle_seconds}"
        )

    mission = mission_years * YEAR_SECONDS
    tolerance = {s.index: s.m for s in layout}
    stripe_disks = {s.index: s.disks for s in layout}

    def enclosure_peers(d: int) -> "list[int]":
        if enclosure_size is None:
            return []
        start = (d // enclosure_size) * enclosure_size
        return [
            p for p in range(start, min(start + enclosure_size, num_disks)) if p != d
        ]

    base_seed = (
        int(make_rng(seed).integers(0, 2**62))
        if not isinstance(seed, (int, type(None)))
        else (seed if seed is not None else 0)
    )

    # A latent error's vulnerable window: one scrub cycle when a scrub
    # plane runs, the rest of the mission when nothing ever verifies.
    latent_rate = latent_error_rate_per_disk_year / YEAR_SECONDS
    latent_window = (
        scrub_cycle_seconds if scrub_cycle_seconds is not None else math.inf
    )

    losses = 0
    latent_losses = 0
    loss_times = []
    survived_time_total = 0.0

    FAIL, REPAIR, LATENT = 0, 1, 2
    for trial in range(trials):
        rng = make_rng(derive_seed(base_seed, "durability", trial))
        # event heap: (time, kind, disk, epoch); per-disk epochs invalidate
        # stale events after state changes (e.g. a natural failure queued
        # behind a correlated one that already took the disk down). LATENT
        # events are slot-bound media decay, not disk-state transitions,
        # so they bypass the epoch check.
        heap = []
        epoch = [0] * num_disks
        first = lifetime.sample(num_disks, rng)
        for d in range(num_disks):
            if first[d] < mission:
                heapq.heappush(heap, (float(first[d]), FAIL, d, 0))
        if latent_rate > 0.0:
            for d in range(num_disks):
                t = float(rng.exponential(1.0 / latent_rate))
                while t < mission:
                    heapq.heappush(heap, (t, LATENT, d, -1))
                    t += float(rng.exponential(1.0 / latent_rate))
        down = set()
        latent_until = [-math.inf] * num_disks
        lost_at: Optional[float] = None
        lost_latent = False

        def stripe_dead(si: int, now: float) -> "tuple[int, int]":
            dead = sum(1 for disk in stripe_disks[si] if disk in down)
            latent = sum(
                1 for disk in stripe_disks[si]
                if disk not in down and latent_until[disk] > now
            )
            return dead, latent

        while heap:
            t, kind, d, ev_epoch = heapq.heappop(heap)
            if kind == LATENT:
                # Corruption on a down disk is moot: its rebuild decodes
                # fresh bytes from clean survivors.
                if d not in down:
                    latent_until[d] = max(latent_until[d], t + latent_window)
                    # Overlapping undetected errors can exceed m on their
                    # own — rare without scrubbing, but real loss.
                    for si in layout.stripe_set(d):
                        dead, latent = stripe_dead(si, t)
                        if dead + latent > tolerance[si]:
                            lost_at = t
                            lost_latent = True
                            break
                if lost_at is not None:
                    break
                continue
            if ev_epoch != epoch[d]:
                continue  # superseded by a later state change
            if kind == FAIL:
                epoch[d] += 1
                down.add(d)
                latent_until[d] = -math.inf  # subsumed by the full failure
                # fatal iff some stripe on d now exceeds m effective
                # erasures — down members plus undetected latent errors.
                if len(down) > 1 or latent_rate > 0.0:
                    for si in layout.stripe_set(d):
                        dead, latent = stripe_dead(si, t)
                        if dead + latent > tolerance[si]:
                            lost_at = t
                            lost_latent = latent > 0
                            break
                if lost_at is not None:
                    break
                repair_done = t + repair_seconds
                if repair_done < mission:
                    heapq.heappush(heap, (repair_done, REPAIR, d, epoch[d]))
                # correlated enclosure casualties
                if correlated_prob > 0.0:
                    for peer in enclosure_peers(d):
                        if peer in down:
                            continue
                        if rng.random() < correlated_prob:
                            delay = float(rng.uniform(0.0, correlated_delay_seconds))
                            epoch[peer] += 1
                            if t + delay < mission:
                                heapq.heappush(
                                    heap, (t + delay, FAIL, peer, epoch[peer])
                                )
            else:  # REPAIR
                epoch[d] += 1
                down.discard(d)
                next_fail = t + float(lifetime.sample(1, rng)[0])
                if next_fail < mission:
                    heapq.heappush(heap, (next_fail, FAIL, d, epoch[d]))
        if lost_at is not None:
            losses += 1
            if lost_latent:
                latent_losses += 1
            loss_times.append(lost_at)
            survived_time_total += lost_at
        else:
            survived_time_total += mission

    loss_probability = losses / trials
    mttdl = survived_time_total / losses if losses else float("inf")
    return DurabilityResult(
        trials=trials,
        losses=losses,
        mission_seconds=mission,
        repair_seconds=repair_seconds,
        loss_probability=loss_probability,
        ci95=_wilson(losses, trials),
        mttdl_seconds=mttdl,
        mean_time_to_loss=(sum(loss_times) / len(loss_times)) if loss_times else None,
        scrub_cycle_seconds=scrub_cycle_seconds if latent_rate > 0.0 else None,
        latent_losses=latent_losses,
    )


def estimate_repair_seconds(
    server: HighDensityStorageServer,
    algorithm: RepairAlgorithm,
    disk: int = 0,
) -> float:
    """Simulated single-disk repair time of ``algorithm`` on ``server``.

    Evaluates a *hypothetical* failure of ``disk`` (the server is left
    untouched) and returns the scheme's total transfer time — the number
    :func:`simulate_durability` consumes.
    """
    stripes = server.stripes_needing_repair([disk])
    if not stripes:
        raise ConfigurationError(f"disk {disk} holds no stripes")
    planned = plan_repair(server, algorithm, [disk], stripes=stripes)
    return simulate(planned, server).transfer_time
