"""``repro.faults`` — deterministic fault injection for the repair stack.

A :class:`~repro.faults.spec.FaultSchedule` is a seed-reproducible list of
timed :class:`~repro.faults.spec.FaultEvent` — permanent disk failures,
latent sector errors on specific chunks, transient bandwidth collapses,
hung I/O windows — expressed on the *logical repair clock* (seconds of
modeled transfer time since the recovery started).

:class:`~repro.faults.injector.FaultInjector` is the one interpreter: it
binds a schedule to a live
:class:`~repro.hdss.server.HighDensityStorageServer` and mutates real state
(fails disks, degrades bandwidth, poisons chunks) as the byte-exact data
path advances its clock. The timing simulators take no schedule; they run
the paper's fault-free timeline.

Recovery outcomes under faults land in a
:class:`~repro.faults.report.DataLossReport` — per-stripe
recovered / recovered-after-replan / lost — instead of an exception.
"""

from repro.faults.injector import SimulatedCrash
from repro.faults.report import EXIT_CRASHED
from repro.faults.service import (
    ServiceFaultInjector,
    apply_corruption,
    is_service_schedule,
)
from repro.faults.spec import (
    FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
    generate_fault_schedule,
)

__all__ = [
    "FAULT_KINDS",
    "ServiceFaultInjector",
    "apply_corruption",
    "is_service_schedule",
    "FaultEvent",
    "FaultSchedule",
    "generate_fault_schedule",
    "SimulatedCrash",
    "EXIT_CRASHED",
]
