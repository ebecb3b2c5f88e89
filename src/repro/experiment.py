"""Declarative experiment runner: JSON spec in, result rows out.

A downstream user reproducing or extending the paper should not have to
write orchestration code for every parameter sweep. An *experiment spec*
names the server configuration, the failure to inject, the schemes to
compare, and how many seeded runs to average; :func:`run_experiment`
executes it and returns table-ready rows.

Spec format (JSON)::

    {
      "name": "my-sweep",
      "server": {"n": 9, "k": 6, "disk_size": "1GiB", "chunk_size": "64MiB",
                  "num_disks": 36, "memory_chunks": 12, "ros": 0.1,
                  "slow_factor": 4.0, "placement": "random"},
      "failure": {"disks": [0], "mode": "single"},
      "algorithms": ["fsr", "hd-psr-ap", "hd-psr-as", "hd-psr-pa"],
      "runs": 3,
      "base_seed": 0
    }

``failure.mode`` is ``"single"`` (repair ``disks[0]``), ``"multi-naive"``,
or ``"multi-cooperative"``. CLI: ``hdpsr run spec.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence

from repro.core import (
    ALGORITHMS,
    cooperative_multi_disk_repair,
    naive_multi_disk_repair,
    repair_single_disk,
)
from repro.errors import ConfigurationError
from repro.workloads import build_exp_server

VALID_MODES = ("single", "multi-naive", "multi-cooperative")

#: Server keys forwarded verbatim to :func:`build_exp_server`.
SERVER_KEYS = (
    "n", "k", "disk_size", "chunk_size", "num_disks", "memory_chunks",
    "ros", "slow_factor", "jitter", "placement",
)


@dataclass
class ExperimentSpec:
    """A validated experiment description."""

    name: str
    server: Dict[str, Any]
    failure_disks: List[int]
    mode: str = "single"
    algorithms: List[str] = field(default_factory=lambda: list(ALGORITHMS))
    runs: int = 1
    base_seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("experiment needs a name")
        if self.mode not in VALID_MODES:
            raise ConfigurationError(
                f"failure.mode must be one of {VALID_MODES}, got {self.mode!r}"
            )
        if not self.failure_disks:
            raise ConfigurationError("failure.disks must list at least one disk")
        if self.mode == "single" and len(self.failure_disks) != 1:
            raise ConfigurationError("mode 'single' takes exactly one failed disk")
        unknown_algos = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown_algos:
            raise ConfigurationError(
                f"unknown algorithms {unknown_algos}; known: {sorted(ALGORITHMS)}"
            )
        if not self.algorithms:
            raise ConfigurationError("algorithms must not be empty")
        if self.runs < 1:
            raise ConfigurationError(f"runs must be >= 1, got {self.runs}")
        unknown_keys = set(self.server) - set(SERVER_KEYS)
        if unknown_keys:
            raise ConfigurationError(
                f"unknown server keys {sorted(unknown_keys)}; known: {SERVER_KEYS}"
            )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        try:
            failure = data.get("failure", {})
            return cls(
                name=data["name"],
                server=dict(data.get("server", {})),
                failure_disks=list(failure.get("disks", [])),
                mode=failure.get("mode", "single"),
                algorithms=list(data.get("algorithms", list(ALGORITHMS))),
                runs=int(data.get("runs", 1)),
                base_seed=int(data.get("base_seed", 0)),
            )
        except KeyError as exc:
            raise ConfigurationError(f"spec is missing required field {exc}") from exc


def _run_once(spec: ExperimentSpec, algorithm_name: str, seed: int) -> Dict[str, float]:
    server = build_exp_server(seed=seed, **spec.server)
    for disk in spec.failure_disks:
        server.fail_disk(disk)
    factory = ALGORITHMS[algorithm_name]
    if spec.mode == "single":
        out = repair_single_disk(server, factory(), spec.failure_disks[0])
        return {
            "total_time": out.transfer_time,
            "acwt": out.acwt,
            "chunks_read": float(out.chunks_read),
            "selection_seconds": out.selection_seconds,
        }
    repair = (
        naive_multi_disk_repair if spec.mode == "multi-naive"
        else cooperative_multi_disk_repair
    )
    out = repair(server, factory, spec.failure_disks)
    return {
        "total_time": out.total_time,
        "acwt": out.total_acwt,
        "chunks_read": float(out.chunks_read),
        "selection_seconds": 0.0,
    }


def run_experiment(spec: ExperimentSpec) -> List[Dict[str, Any]]:
    """Execute the spec; one averaged row per algorithm."""
    rows: List[Dict[str, Any]] = []
    for name in spec.algorithms:
        acc: Dict[str, float] = {}
        for run in range(spec.runs):
            result = _run_once(spec, name, spec.base_seed + run)
            for key, value in result.items():
                acc[key] = acc.get(key, 0.0) + value
        row: Dict[str, Any] = {"experiment": spec.name, "algorithm": name,
                               "mode": spec.mode, "runs": spec.runs}
        row.update({key: value / spec.runs for key, value in acc.items()})
        rows.append(row)
    return rows


def expand_sweep(data: Dict[str, Any]) -> List[ExperimentSpec]:
    """Expand a spec with a ``"sweep"`` section into concrete specs.

    ``sweep`` maps server keys to value lists; the cartesian product is
    taken and each combination becomes one spec named
    ``<name>/<key>=<value>/...``::

        {"name": "ros-sweep", "server": {...}, "failure": {...},
         "sweep": {"ros": [0.0, 0.1, 0.2], "k": ...}}

    A spec without a ``sweep`` section expands to itself.
    """
    sweep = data.get("sweep")
    if not sweep:
        return [ExperimentSpec.from_dict(data)]
    bad = set(sweep) - set(SERVER_KEYS)
    if bad:
        raise ConfigurationError(
            f"sweep keys {sorted(bad)} are not server keys; known: {SERVER_KEYS}"
        )
    keys = sorted(sweep)
    for key in keys:
        if not isinstance(sweep[key], (list, tuple)) or not sweep[key]:
            raise ConfigurationError(f"sweep.{key} must be a non-empty list")

    import itertools

    specs: List[ExperimentSpec] = []
    for combo in itertools.product(*(sweep[k] for k in keys)):
        concrete = dict(data)
        concrete.pop("sweep", None)
        server = dict(data.get("server", {}))
        suffix = []
        for key, value in zip(keys, combo):
            server[key] = value
            suffix.append(f"{key}={value}")
        concrete["server"] = server
        concrete["name"] = f"{data['name']}/{'/'.join(suffix)}"
        specs.append(ExperimentSpec.from_dict(concrete))
    return specs


def run_sweep(data: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Expand and run a (possibly swept) spec; returns all rows."""
    rows: List[Dict[str, Any]] = []
    for spec in expand_sweep(data):
        rows.extend(run_experiment(spec))
    return rows


def save_rows(rows: Sequence[Dict[str, Any]], path: "str | Path") -> Path:
    """Persist result rows as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(list(rows), indent=2))
    return path
