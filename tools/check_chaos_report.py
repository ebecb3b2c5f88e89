#!/usr/bin/env python3
"""What "the chaos proof passed" means, for each ``hdpsr chaos`` episode.

    tools/check_chaos_report.py <failover|overload|bitrot> [--control] REPORT.json

One function per episode; each asserts over the scenario's ``--json``
report and returns the line to print. CI's chaos smokes call this script
and ``tests/test_chaos_episodes.py`` imports the same functions, so the
two cannot disagree. ``--control`` selects the scenario's negative
control (``--no-control`` / ``--no-scrub``), whose report must show the
failure the treatment prevents.
"""

from __future__ import annotations

import argparse
import json
import sys


def check_memory(report: dict) -> None:
    """No repair round kept a chunk slot, however it ended, and the repair
    memory never held more than its ``c``."""
    memory = report["memory"]
    assert memory["leaked"] == 0 and memory["peak"] <= memory["capacity"], memory


def check_failover(report: dict) -> str:
    assert report["passed"], report["failures"]
    check_memory(report)
    assert report["byte_identical"] and not report["duplicate_writes"]
    assert report["stale_owner_fenced"], report
    return f"chaos scenario ok: takeover {report['takeover_seconds']} s"


def check_overload(report: dict) -> str:
    assert report["passed"], report["failures"]
    check_memory(report)
    assert report["max_state_level"] >= 1, report["states_seen"]
    assert report["recovered_healthy"], report
    sheds = report["sheds"] + report["deadline_expired"]
    assert sheds >= 1, report["errors"]
    if report["sheds"]:
        assert report["shed_example"]["retry_after_ms"] > 0
    assert report["byte_identical"] and report["repair"]["certified"]
    return (
        f"overload chaos ok: {report['sheds']} sheds, "
        f"{report['deadline_expired']} deadline-expired, p99 "
        f"{report['read_p99_seconds']} s, states {report['states_seen']}"
    )


def check_overload_control(report: dict) -> str:
    # The same stampede with the controller off must blow the p99 budget;
    # integrity must still hold.
    assert report["p99_violated"], report["read_p99_seconds"]
    assert report["byte_identical"], report
    assert not report["errors"], report["errors"]
    return (
        f"negative control ok: p99 {report['read_p99_seconds']} s "
        "without control"
    )


def check_bitrot(report: dict) -> str:
    assert report["passed"], report["failures"]
    check_memory(report)
    assert report["detected"] == report["read_repaired"] >= 1, report
    assert report["byte_identical"], report
    assert report["foreground_read_clean"], report
    assert report["repair"]["certified"], report["repair"]
    # every rebuilt chunk persisted once: no second decode of one stripe
    assert report["duplicate_writes"] == [], report["duplicate_writes"]
    return (
        f"bitrot chaos ok: {report['detected']} detected, "
        f"{report['read_repaired']} read-repaired in "
        f"{report['detection_window_seconds']} s"
    )


def check_bitrot_control(report: dict) -> str:
    # The same rot with the scrubber off must still be latent on disk.
    assert report["latent_corruptions"] >= 1, report
    assert report["byte_identical"], report
    return (
        f"negative control ok: {report['latent_corruptions']} "
        "corruptions still latent without scrub"
    )


#: (scenario, is the negative control) -> checker.
CHECKS = {
    ("failover", False): check_failover,
    ("overload", False): check_overload,
    ("overload", True): check_overload_control,
    ("bitrot", False): check_bitrot,
    ("bitrot", True): check_bitrot_control,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", choices=sorted({s for s, _ in CHECKS}))
    parser.add_argument("--control", action="store_true",
                        help="the report is the scenario's negative control")
    parser.add_argument("report", metavar="REPORT.json")
    args = parser.parse_args(argv)
    check = CHECKS.get((args.scenario, args.control))
    if check is None:
        parser.error(f"{args.scenario} has no negative control")
    with open(args.report) as fh:
        print(check(json.load(fh)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
