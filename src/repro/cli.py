"""``hdpsr`` command-line interface.

Each subcommand is declared — flags and handler — in the module that owns it:

* :mod:`repro.commands.paper` — ``repair`` (single-disk recovery, FSR vs
  HD-PSR-*), ``multi`` (multi-disk, naive vs cooperative), ``faults``
  (generate a fault-injection spec), ``observe`` (the Observation 1-3
  tables), ``durability``, ``run`` (a JSON experiment spec), ``report``;
* :mod:`repro.commands.trace` — ``trace summarize`` / ``blame`` / ``diff``;
* :mod:`repro.commands.serve` — ``serve``, the asyncio repair service daemon;
* :mod:`repro.commands.clients` — ``client`` (a repair-under-load workload
  against it), ``top`` (live view of one daemon, or of a fleet with
  repeated ``--endpoint``) and ``scrub`` (its scrub plane's status);
* :mod:`repro.commands.chaos` — ``chaos``, the failover / overload / bitrot proofs;
* ``version``, below.

Flag groups several subcommands declare are in :mod:`repro.commands.flags`.
Every stochastic element is seeded via ``--seed`` for reproducible output.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.commands import chaos, clients, paper, serve, trace
from repro.errors import ConfigurationError
from repro.version import __version__


def cmd_version(args: argparse.Namespace) -> int:
    print(f"hdpsr {__version__}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdpsr",
        description="HD-PSR: partial stripe repair for erasure-coded "
                    "high-density storage servers (ICPP 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command")
    # in the order `hdpsr --help` lists them
    for add in (
        paper.add_repair, paper.add_multi, paper.add_faults, paper.add_observe,
        paper.add_durability, trace.add_trace, paper.add_run, paper.add_report,
        serve.add_serve, clients.add_client, clients.add_scrub, clients.add_top,
        chaos.add_chaos,
    ):
        add(sub)
    p_ver = sub.add_parser("version", help="print the package version")
    p_ver.set_defaults(func=cmd_version)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"hdpsr: error: {exc}", file=sys.stderr)  # e.g. --memory 3 at k=6
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
