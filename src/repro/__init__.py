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

# Erasure coding
from repro.ec import ChunkId, LRCCode, PartialDecoder, RSCode, Stripe, StripeLayout

# Server substrate
from repro.hdss import (
    ActiveProber,
    BimodalSlowProfile,
    Disk,
    DiskState,
    FileChunkStore,
    HDSSConfig,
    HighDensityStorageServer,
    InMemoryChunkStore,
    LognormalProfile,
    NormalProfile,
    PassiveMonitor,
    SpeedProfile,
    UniformProfile,
)

# Repair algorithms and execution
from repro.core import (
    ALGORITHMS,
    ActivePreliminaryRepair,
    ActiveSlowerFirstRepair,
    ExecutionOptions,
    FullStripeRepair,
    MultiDiskOutcome,
    PassiveRepair,
    RepairAlgorithm,
    RepairContext,
    RepairOutcome,
    RepairPlan,
    SlotLedger,
    StripePlan,
    cooperative_multi_disk_repair,
    execute_plan,
    naive_multi_disk_repair,
    pa_for_pr,
    recover_disk,
    pr_for_pa,
    repair_single_disk,
)

# Observability
from repro.obs import (
    MetricsRegistry,
    RecordingTracer,
    use_registry,
    use_tracer,
    write_chrome_trace,
    write_prometheus,
)

# Reliability
from repro.reliability import (
    ExponentialLifetime,
    WeibullLifetime,
    estimate_repair_seconds,
    simulate_durability,
)

# Simulation
from repro.sim import (
    ChunkTransfer,
    StripeJob,
    TransferReport,
    simulate_interval_schedule,
    simulate_slot_schedule,
)

# Workloads
from repro.workloads import (
    EXP1_GRID,
    PAPER_CODES,
    PAPER_DISK_SIZES,
    TransferTimeWorkload,
    build_exp_server,
    load_trace,
    normal_transfer_times,
    save_trace,
    stripes_for,
    uniform_transfer_times,
)

# Units
from repro.utils import GiB, KiB, MiB, TiB, format_bytes, format_duration, parse_size

__all__ = [
    "__version__",
    # ec
    "ChunkId",
    "Stripe",
    "StripeLayout",
    "RSCode",
    "LRCCode",
    "PartialDecoder",
    # hdss
    "Disk",
    "DiskState",
    "SpeedProfile",
    "UniformProfile",
    "NormalProfile",
    "LognormalProfile",
    "BimodalSlowProfile",
    "InMemoryChunkStore",
    "FileChunkStore",
    "HDSSConfig",
    "HighDensityStorageServer",
    "ActiveProber",
    "PassiveMonitor",
    # core
    "ALGORITHMS",
    "RepairAlgorithm",
    "RepairContext",
    "RepairPlan",
    "StripePlan",
    "FullStripeRepair",
    "ActivePreliminaryRepair",
    "ActiveSlowerFirstRepair",
    "PassiveRepair",
    "ExecutionOptions",
    "RepairOutcome",
    "execute_plan",
    "repair_single_disk",
    "MultiDiskOutcome",
    "naive_multi_disk_repair",
    "cooperative_multi_disk_repair",
    "SlotLedger",
    "recover_disk",
    "pa_for_pr",
    "pr_for_pa",
    # obs
    "MetricsRegistry",
    "RecordingTracer",
    "use_tracer",
    "use_registry",
    "write_chrome_trace",
    "write_prometheus",
    # reliability
    "ExponentialLifetime",
    "WeibullLifetime",
    "simulate_durability",
    "estimate_repair_seconds",
    # sim
    "ChunkTransfer",
    "StripeJob",
    "TransferReport",
    "simulate_interval_schedule",
    "simulate_slot_schedule",
    # workloads
    "TransferTimeWorkload",
    "normal_transfer_times",
    "uniform_transfer_times",
    "build_exp_server",
    "stripes_for",
    "save_trace",
    "load_trace",
    "PAPER_CODES",
    "PAPER_DISK_SIZES",
    "EXP1_GRID",
    # units
    "KiB",
    "MiB",
    "GiB",
    "TiB",
    "parse_size",
    "format_bytes",
    "format_duration",
]
