"""Flag groups more than one ``hdpsr`` subcommand declares, each beside
the function that turns its parsed values into the object they describe."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core import ALGORITHMS
from repro.workloads import build_exp_server


def add_server_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=9, help="total shards per stripe")
    parser.add_argument("--k", type=int, default=6, help="data shards per stripe")
    parser.add_argument("--disk-size", default="1GiB", help="data on each failed disk")
    parser.add_argument("--chunk-size", default="64MiB", help="chunk size")
    parser.add_argument("--num-disks", type=int, default=36, help="disks in the chassis")
    parser.add_argument("--memory", type=int, default=None,
                        help="repair memory capacity c in chunks (default 2k)")
    parser.add_argument("--ros", type=float, default=0.1, help="slow-disk ratio")
    parser.add_argument("--slow-factor", type=float, default=4.0,
                        help="slow disks run this many times slower")
    parser.add_argument("--placement", choices=["rotating", "random"], default="random")
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")


def build_server(args: argparse.Namespace, with_data: bool = False, store=None):
    """The server :func:`add_server_args` describes."""
    return build_exp_server(
        n=args.n, k=args.k, disk_size=args.disk_size, chunk_size=args.chunk_size,
        num_disks=args.num_disks, memory_chunks=args.memory,
        ros=args.ros, slow_factor=args.slow_factor, seed=args.seed,
        placement=args.placement, with_data=with_data, store=store,
    )


def add_algorithm_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algorithm", default="all",
                        choices=["all"] + list(ALGORITHMS))


def algorithms_of(args: argparse.Namespace) -> List[str]:
    """The schemes ``--algorithm`` names: every one under ``all``."""
    return list(ALGORITHMS) if args.algorithm == "all" else [args.algorithm]


def add_observability_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="capture a structured trace: .json = Chrome trace_event "
             "(chrome://tracing, Perfetto), .jsonl = one event per line")
    parser.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="dump the metrics registry in Prometheus text format")


def observed(fn):
    """Wrap a subcommand so --trace/--metrics capture its execution."""

    def run(args: argparse.Namespace) -> int:
        trace_path = getattr(args, "trace", None)
        metrics_path = getattr(args, "metrics", None)
        if not trace_path and not metrics_path:
            return fn(args)
        from repro.obs import (
            MetricsRegistry,
            RecordingTracer,
            use_registry,
            use_tracer,
            write_chrome_trace,
            write_jsonl,
            write_prometheus,
        )

        tracer = RecordingTracer()
        registry = MetricsRegistry()
        with use_tracer(tracer), use_registry(registry):
            rc = fn(args)
        if trace_path:
            if str(trace_path).endswith(".jsonl"):
                path = write_jsonl(tracer, trace_path)
            else:
                path = write_chrome_trace(tracer, trace_path)
            print(f"trace written: {path} ({len(tracer.events)} events)")
        if metrics_path:
            path = write_prometheus(registry, metrics_path)
            print(f"metrics written: {path}")
        return rc

    return run


def add_fault_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", default=None, metavar="SPEC.json",
        help="inject faults from this schedule (see `hdpsr faults`); runs "
             "the byte-exact data path and reports per-stripe outcomes")
    parser.add_argument(
        "--read-timeout", type=float, default=None, metavar="SECONDS",
        help="abandon + retry survivor reads slower than this (modeled time)")
    parser.add_argument(
        "--retries", type=int, default=3,
        help="retry budget per read before hedging/forcing (default 3)")
    parser.add_argument(
        "--hedge", action="store_true",
        help="after retries, re-plan the read onto a different survivor")
    parser.add_argument(
        "--journal", default=None, metavar="DIR",
        help="checkpoint the repair into a crash-consistent journal at DIR "
             "(with --algorithm all, each scheme journals to DIR/<scheme>); "
             "implies the byte-exact hardened data path")
    parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted repair from --journal DIR: the journaled "
             "plan is reused verbatim, finished stripes are replayed without "
             "re-reading, and the in-flight stripe continues mid-round")


def fault_setup(args: argparse.Namespace):
    """Parse --faults/--read-timeout/--retries/--hedge into (schedule, policy).

    Returns ``(None, None)`` when no hardening was requested — callers use
    that to keep the plain timing-comparison behavior.
    """
    from repro.core import ReadPolicy
    from repro.faults import FaultSchedule

    schedule = None
    if args.faults:
        schedule = FaultSchedule.from_json(args.faults)
    policy = None
    if args.read_timeout is not None or args.hedge:
        policy = ReadPolicy(
            timeout_seconds=args.read_timeout,
            max_retries=args.retries,
            hedge=args.hedge,
        )
    return schedule, policy


def add_endpoint_args(parser: argparse.ArgumentParser, port_file_help: str) -> None:
    """Where a daemon client finds its daemon."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None)
    parser.add_argument("--port-file", default=None, metavar="FILE",
                        help=port_file_help)
    parser.add_argument("--connect-timeout", type=float, default=10.0,
                        help="seconds to wait for --port-file to appear")


def resolve_port(args: argparse.Namespace) -> Optional[int]:
    """The daemon port from ``--port`` or (waiting on) ``--port-file``;
    ``None`` — after saying why on stderr — when there is none."""
    if args.port is not None:
        return int(args.port)
    if not args.port_file:
        print(f"{args.command} needs --port or --port-file", file=sys.stderr)
        return None
    from repro.service.client import wait_for_port_file

    try:
        return wait_for_port_file(args.port_file, args.connect_timeout)
    except TimeoutError as exc:
        print(exc, file=sys.stderr)
        return None
