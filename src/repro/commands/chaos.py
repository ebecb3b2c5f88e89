"""``hdpsr chaos`` — the deterministic chaos proofs: ``failover`` (kill
the owner mid-repair), ``overload`` (flash crowd against a repairing
daemon) and ``bitrot`` (silent corruption against the scrub plane).

The scenarios themselves live in :mod:`repro.service.chaos`,
``chaos_overload`` and ``chaos_bitrot``; only the one that is run gets
imported, and only when it is run.
"""

from __future__ import annotations

import argparse
import sys

from repro.commands import flags


def _report_overload_chaos(report: dict) -> None:
    """Human rendering of one flash-crowd episode report."""
    shape = report.get("shape", {})
    overload = report.get("overload", {})
    repair = report.get("repair", {})
    print(f"flash crowd: {report.get('offered')} reads @ "
          f"{report.get('offered_rate')}/s (spike x"
          f"{shape.get('spike_factor', '?')}) against hot disk "
          f"{report.get('hot_disk')} "
          f"(capacity {report.get('hot_capacity_per_s')}/s), "
          f"control={'on' if report.get('control') else 'OFF'}")
    p99 = report.get("read_p99_seconds")
    p99_text = "-" if p99 is None else f"{p99 * 1e3:.1f} ms"
    print(f"completed {report.get('completed')}  "
          f"goodput pre {report.get('goodput_pre_per_s')}/s "
          f"spike {report.get('goodput_spike_per_s')}/s  "
          f"p99 {p99_text} (budget {report.get('p99_budget')}s, "
          f"violated={report.get('p99_violated')})")
    shed_hint = (report.get("shed_example") or {}).get("retry_after_ms")
    print(f"states {'->'.join(report.get('states_seen', []))}  "
          f"sheds {report.get('sheds')} "
          f"(retry_after {shed_hint} ms)  "
          f"deadline-expired {report.get('deadline_expired')}  "
          f"repair-paced {overload.get('repair_paced', 0)}")
    print(f"repair certified={repair.get('certified')}  "
          f"byte-identical={report.get('byte_identical')}  "
          f"recovered-healthy={report.get('recovered_healthy', 'n/a')}")


def _report_bitrot_chaos(report: dict) -> None:
    """Human-readable summary of one bitrot-chaos episode."""
    victims = report.get("victims", [])
    kinds = ", ".join(sorted({v.get("kind", "?") for v in victims}))
    print(f"seeded {len(victims)} silent corruptions mid-repair ({kinds})")
    if report.get("scrub"):
        window = report.get("detection_window_seconds")
        print(f"scrub plane: detected {report.get('detected')} / "
              f"repaired {report.get('read_repaired')}"
              + ("" if window is None else f" within {window}s"))
        print(f"foreground-read-clean={report.get('foreground_read_clean')}  "
              f"parked-while-shedding="
              f"{report.get('scrub_parked_while_shedding')}  "
              f"verifies-while-parked={report.get('verifies_while_parked')}  "
              f"resumed={report.get('scrub_resumed')}")
    else:
        print(f"scrub plane OFF (negative control): "
              f"{report.get('latent_corruptions')} corruption(s) still "
              "latent on disk")
    print(f"byte-identical={report.get('byte_identical')}  "
          f"repair certified={ (report.get('repair') or {}).get('certified') }")


def _report_failover_chaos(report: dict) -> None:
    """Human rendering of one kill-the-owner episode report."""
    latency = report.get("foreground_latency", {})
    repair = report.get("repair_b", {})
    print(f"daemon a killed mid-repair (exit {report.get('exit_code_a')}), "
          f"takeover in {report.get('takeover_seconds', '?')}s")
    print(f"handoff repaired disk(s) {report.get('handoffs')} on b: "
          f"{repair.get('stripes_repaired', '?')} stripes "
          f"({repair.get('resumed_stripes', '?')} resumed from journal), "
          f"certified={repair.get('certified')}")
    print(f"foreground: {latency.get('count', 0)} reads, "
          f"p50 {latency.get('p50', 0) * 1e3:.2f} ms, "
          f"p99 {latency.get('p99', 0) * 1e3:.2f} ms")
    print(f"byte-identical={report.get('byte_identical')}  "
          f"duplicate-writes={len(report.get('duplicate_writes', []))}  "
          f"stale-owner-fenced={report.get('stale_owner_fenced')}")


#: scenario -> (module under repro.service, config class, run function,
#: summary renderer, config field -> its value from the parsed args, for
#: the fields beyond the five every scenario takes). A ``None`` value
#: leaves the config's own default in force (``--p99-budget``).
_CHAOS_SCENARIOS = {
    "failover": ("chaos", "ChaosConfig", "run_chaos", _report_failover_chaos, {
        "crash_at": lambda a: a.crash_at,
        "lease_ttl": lambda a: a.lease_ttl,
        "heartbeat_interval": lambda a: a.heartbeat_interval,
        "p99_budget": lambda a: a.p99_budget,
    }),
    "overload": (
        "chaos_overload", "OverloadChaosConfig", "run_overload_chaos",
        _report_overload_chaos, {
            "control": lambda a: not a.no_control,
            "p99_budget": lambda a: a.p99_budget,
        },
    ),
    "bitrot": (
        "chaos_bitrot", "BitrotChaosConfig", "run_bitrot_chaos",
        _report_bitrot_chaos, {
            "scrub": lambda a: not a.no_scrub,
            "corruptions": lambda a: a.corruptions,
        },
    ),
}


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a chaos scenario: ``failover`` (kill the owner mid-repair),
    ``overload`` (flash crowd against a repairing daemon), or ``bitrot``
    (silent corruption against the scrub plane)."""
    import importlib
    import json
    import tempfile
    from pathlib import Path

    module, config_cls, run_fn, render, extra = _CHAOS_SCENARIOS[args.scenario]
    # Imported here, not at the top: the daemon and every other command
    # run without the chaos harness loaded.
    scenario = importlib.import_module(f"repro.service.{module}")

    def execute(root: Path) -> dict:
        fields = dict(
            root=root, seed=args.seed, stripes=args.stripes,
            failed_disk=args.disk, deadline=args.deadline,
        )
        fields.update((name, pick(args)) for name, pick in extra.items())
        config = getattr(scenario, config_cls)(
            **{k: v for k, v in fields.items() if v is not None}
        )
        return getattr(scenario, run_fn)(config)

    if args.dir:
        report = execute(Path(args.dir))
    else:
        with tempfile.TemporaryDirectory(prefix="hdpsr-chaos-") as td:
            report = execute(Path(td))
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(json.dumps(report, indent=2, sort_keys=True))
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        render(report)
        for failure in report.get("failures", []):
            print(f"FAIL: {failure}", file=sys.stderr)
        print("chaos: PASS" if report.get("passed") else "chaos: FAIL")
    return 0 if report.get("passed") else 1



def add_chaos(sub) -> None:
    p = sub.add_parser(
        "chaos",
        help="deterministic chaos scenarios: failover (kill the owner "
             "mid-repair), overload (flash crowd vs a repairing daemon), "
             "or bitrot (silent corruption vs the scrub plane)")
    p.add_argument("--scenario", choices=["failover", "overload", "bitrot"],
                   default="failover",
                   help="failover: 2 daemons, lease takeover + journal "
                        "handoff. overload: open-loop flash crowd "
                        "against one repairing daemon; asserts brownout "
                        "entry/exit, bounded p99, clean repair. bitrot: "
                        "corruption seeded mid-repair; asserts scrub "
                        "detection, byte-identical read-repair, zero "
                        "corrupt bytes served, park-under-shed")
    p.add_argument("--no-control", action="store_true",
                   help="overload scenario only: run the negative "
                        "control (controller + deadlines off; expect "
                        "the p99 budget to be violated)")
    p.add_argument("--no-scrub", action="store_true",
                   help="bitrot scenario only: run the negative control "
                        "(scrub plane off; the seeded corruption stays "
                        "latent on disk — see latent_corruptions)")
    p.add_argument("--corruptions", type=int, default=3,
                   help="bitrot scenario: corrupt chunks seeded "
                        "(kinds cycle bitrot/torn_write/"
                        "misdirected_write)")
    p.add_argument("--dir", default=None, metavar="DIR",
                   help="scratch directory (default: a temp dir)")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--stripes", type=int, default=12,
                   help="provisioned stripes (scenario size)")
    p.add_argument("--disk", type=int, default=3,
                   help="disk failed and repaired on the doomed daemon")
    p.add_argument("--crash-at", type=float, default=7.4e-5,
                   help="read-clock second the owner daemon dies at: "
                        "seconds of priced repair reads, one read "
                        "~1.14e-5 s at the default geometry (default: "
                        "6.5 reads, mid-repair)")
    p.add_argument("--lease-ttl", type=float, default=0.6)
    p.add_argument("--heartbeat-interval", type=float, default=0.15)
    p.add_argument("--p99-budget", type=float, default=None,
                   help="wall-clock bound asserted on foreground p99 "
                        "(default 2.0s for failover, 0.3s for overload)")
    p.add_argument("--deadline", type=float, default=60.0,
                   help="overall scenario timeout in seconds")
    p.add_argument("--json", action="store_true",
                   help="print the full JSON report")
    p.add_argument("--output", default=None, metavar="FILE",
                   help="also write the JSON report here")
    flags.add_observability_args(p)
    p.set_defaults(func=flags.observed(cmd_chaos))
