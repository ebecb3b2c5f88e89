"""Workload generation: transfer-time matrices, scenarios, arrivals."""

from repro.workloads.generator import (
    disk_heterogeneous_transfer_times,
    normal_transfer_times,
)
from repro.workloads.scenarios import (
    PAPER_CODES,
    PAPER_DISK_SIZES,
    build_exp_server,
)

__all__ = [
    "disk_heterogeneous_transfer_times",
    "normal_transfer_times",
    "PAPER_CODES",
    "PAPER_DISK_SIZES",
    "build_exp_server",
]
