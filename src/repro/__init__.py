"""HD-PSR: partial stripe repair for erasure-coded high-density storage.

Reproduction of Wang et al., *"Exploiting Parallelism of Disk Failure
Recovery via Partial Stripe Repair for an Erasure-Coded High-Density
Storage Server"* (ICPP 2022).

Quickstart::

    from repro import (
        build_exp_server, FullStripeRepair, ActivePreliminaryRepair,
        repair_single_disk,
    )

    server = build_exp_server(n=9, k=6, disk_size="1GiB", chunk_size="8MiB")
    server.fail_disk(0)
    baseline = repair_single_disk(server, FullStripeRepair(), 0)
    hdpsr    = repair_single_disk(server, ActivePreliminaryRepair(), 0)
    print(baseline.transfer_time, "->", hdpsr.transfer_time)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.version import __version__

# Server substrate
from repro.hdss.profiles import UniformProfile
from repro.hdss.server import HDSSConfig, HighDensityStorageServer
from repro.hdss.store import FileChunkStore

# Repair algorithms and execution
from repro.core.fsr import FullStripeRepair
from repro.core.multi_disk import cooperative_multi_disk_repair, naive_multi_disk_repair
from repro.core.psr_ap import ActivePreliminaryRepair
from repro.core.psr_as import ActiveSlowerFirstRepair
from repro.core.psr_pa import PassiveRepair
from repro.core.recovery import recover_disk
from repro.core.scheduler import execute_plan, repair_single_disk

# Reliability
from repro.reliability.lifetimes import WeibullLifetime
from repro.reliability.mttdl import estimate_repair_seconds, simulate_durability

# Workloads
from repro.workloads.generator import normal_transfer_times
from repro.workloads.scenarios import build_exp_server

__all__ = [
    "__version__",
    "UniformProfile",
    "FileChunkStore",
    "HDSSConfig",
    "HighDensityStorageServer",
    "FullStripeRepair",
    "ActivePreliminaryRepair",
    "ActiveSlowerFirstRepair",
    "PassiveRepair",
    "execute_plan",
    "repair_single_disk",
    "naive_multi_disk_repair",
    "cooperative_multi_disk_repair",
    "recover_disk",
    "WeibullLifetime",
    "simulate_durability",
    "estimate_repair_seconds",
    "normal_transfer_times",
    "build_exp_server",
]
