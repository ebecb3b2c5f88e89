"""Durability analysis: what faster repair buys you.

The paper's motivation is availability: an HDSS must recover failed disks
before further failures exceed the code's tolerance ``m = n - k``. This
package closes the loop quantitatively:

* :mod:`repro.reliability.lifetimes` — disk lifetime distributions
  (exponential and Weibull, the standard models for disk populations);
* :mod:`repro.reliability.mttdl` — Monte-Carlo data-loss simulation of a
  chassis: seeded failure arrivals, per-scheme repair durations, loss
  declared when more than ``m`` of a stripe's disks are simultaneously
  down. Reports P(loss within mission time) and an MTTDL estimate, so the
  repair-time reductions of Experiments 1 and 5 translate into durability
  improvements.
"""

from repro.reliability.lifetimes import ExponentialLifetime, WeibullLifetime
from repro.reliability.mttdl import (
    estimate_repair_seconds,
    simulate_durability,
)

__all__ = [
    "ExponentialLifetime",
    "WeibullLifetime",
    "simulate_durability",
    "estimate_repair_seconds",
]
