"""Discrete-event simulation substrate.

The paper's repair-time results come from schedules (which chunks move when,
under a c-chunk memory) applied to per-chunk transfer times. This package
provides:

* :mod:`repro.sim.engine` — a small generator-based event kernel (timeouts,
  processes, all-of joins, first-fit slot resources), in the style of SimPy but
  dependency-free;
* :mod:`repro.sim.transfer` — two executors for repair schedules: the
  paper's deterministic *interval* model (memory partitioned into ``P_r``
  stripe intervals) and an exact *slot* model on the event kernel;
* :mod:`repro.sim.metrics` — per-chunk timelines and the derived metrics
  the paper reports (total repair time, ACWT, TR, memory utilisation).
"""

from repro.sim.viz import render_memory_timeline
from repro.sim.transfer import simulate_slot_schedule

__all__ = [
    "simulate_slot_schedule",
    "render_memory_timeline",
]
