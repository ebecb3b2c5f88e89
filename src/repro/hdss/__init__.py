"""High-density storage server (HDSS) substrate.

Simulates the paper's testbed — a single server packing dozens of disks
(EC2 ``d3en.12xlarge``: 36 SATA disks) — as a composable set of models:

* :mod:`repro.hdss.disk` — per-disk performance model (bandwidth, slow
  state, failure) and probing;
* :mod:`repro.hdss.profiles` — disk/chunk speed distributions, including
  the paper's slow-fraction ("ROS") heterogeneity;
* :mod:`repro.hdss.store` — chunk data stores (in-memory and file-backed);
* :mod:`repro.hdss.placement` — stripe placement and per-disk stripe sets;
* :mod:`repro.hdss.server` — the assembled server: encode volumes, fail
  disks, derive the ``L_{s×k}`` transfer-time matrices repairs consume;
* :mod:`repro.hdss.prober` — active speed testing and passive slow-disk
  detection (the inputs to HD-PSR's active/passive algorithms).
"""

from repro.hdss.server import HDSSConfig, HighDensityStorageServer

__all__ = [
    "HDSSConfig",
    "HighDensityStorageServer",
]
