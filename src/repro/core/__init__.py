"""HD-PSR: the paper's repair algorithms and their execution machinery.

Contents map directly onto §4 of the paper:

* :mod:`repro.core.parallelism` — the Observation-1 relationship
  ``P_a = ceil(c / P_r)`` and repair-round arithmetic;
* :mod:`repro.core.plans` — repair-plan data structures shared by all
  algorithms, and the adapter that turns plans into simulator jobs;
* :mod:`repro.core.fsr` — the FSR baseline (§2.1);
* :mod:`repro.core.psr_ap` — HD-PSR-AP, Algorithm 1 (§4.2.1);
* :mod:`repro.core.psr_as` — HD-PSR-AS, Algorithm 2 (§4.2.2);
* :mod:`repro.core.psr_pa` — HD-PSR-PA, Algorithm 3 (§4.3);
* :mod:`repro.core.scheduler` — plan execution against the simulated
  memory (interval and slot models) and whole-disk repair orchestration;
* :mod:`repro.core.multi_disk` — naive vs cooperative multi-disk repair
  (§4.4);
* :mod:`repro.core.stripe_repair` — one stripe's repair as a sans-I/O
  state machine (round queue, salvage ladder, read-policy decisions) and
  the one serial read clock, driven by :mod:`repro.service`;
* :mod:`repro.core.repair_job` — one repair *job* as a sans-I/O object:
  the one ``plan_repair`` (the only caller of ``build_plan``), the
  fingerprint guard, journal replay, spare placement and the job's
  closing tally, under every caller below and :mod:`repro.service`;
* :mod:`repro.core.slot_ledger` — the ``c``-slot repair memory, counted
  once, under :mod:`repro.service`;
* :mod:`repro.core.recovery` — ``recover_disk`` / ``recover_disks``: plan
  or resume a job, then move its bytes through the daemon's job body (the
  c-chunk memory, partial decoding, spare-disk write-back);
* :mod:`repro.core.analysis` — ACWT / TR analytics behind Figures 3-4.
"""

from repro.core.base import RepairContext
from repro.core.fsr import FullStripeRepair
from repro.core.psr_ap import ActivePreliminaryRepair
from repro.core.psr_as import ActiveSlowerFirstRepair
from repro.core.psr_pa import PassiveRepair
from repro.core.scheduler import (
    ExecutionOptions,
    execute_plan,
    repair_single_disk,
)
from repro.core.multi_disk import (
    cooperative_multi_disk_repair,
    naive_multi_disk_repair,
)
from repro.core.stripe_repair import ReadPolicy
from repro.core.recovery import recover_disk, recover_disks

ALGORITHMS = {
    "fsr": FullStripeRepair,
    "hd-psr-ap": ActivePreliminaryRepair,
    "hd-psr-as": ActiveSlowerFirstRepair,
    "hd-psr-pa": PassiveRepair,
}
"""Registry of the paper's repair schemes by canonical name."""

__all__ = [
    "RepairContext",
    "FullStripeRepair",
    "ActivePreliminaryRepair",
    "ActiveSlowerFirstRepair",
    "PassiveRepair",
    "ExecutionOptions",
    "execute_plan",
    "repair_single_disk",
    "naive_multi_disk_repair",
    "cooperative_multi_disk_repair",
    "ReadPolicy",
    "recover_disk",
    "recover_disks",
    "ALGORITHMS",
]
