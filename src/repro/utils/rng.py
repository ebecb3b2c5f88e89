"""Seeded random-number helpers.

Every stochastic component in the library (workload generators, disk speed
profiles, failure injection) takes either an explicit
``numpy.random.Generator`` or an integer seed. These helpers centralise seed
derivation so that one experiment seed deterministically fans out into
independent per-component streams — a requirement for bit-reproducible
experiment tables.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` from a seed, generator, or None.

    Passing an existing generator returns it unchanged (shared stream);
    passing ``None`` gives fresh OS entropy; integers give deterministic
    streams.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(base_seed: int, *labels: "str | int") -> int:
    """Derive a stable 63-bit child seed from a base seed and labels.

    Uses BLAKE2b over the textual labels so that e.g.
    ``derive_seed(42, "disk", 3)`` is stable across Python versions and
    machines (unlike ``hash()``).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(base_seed)).encode())
    for label in labels:
        h.update(b"\x00")
        h.update(str(label).encode())
    return int.from_bytes(h.digest(), "little") & (2**63 - 1)


def optional_seed(seed: RngLike) -> Optional[int]:
    """Normalise a seed-like value to an int or None (for trace metadata)."""
    if seed is None or isinstance(seed, np.random.Generator):
        return None
    return int(seed)
