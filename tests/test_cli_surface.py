"""The parsed surface of ``hdpsr`` is pinned, structurally.

``tests/data/cli_surface.json`` records (one JSON record a line), for every
subcommand and nested subcommand, each argparse action's option strings,
dest, default, type, choices, ``nargs``, metavar and help string. It is
compared as data, not as rendered ``--help`` text (which varies with the
Python version and ``COLUMNS``), so a refactor of the CLI modules can prove
it added, removed, renamed, re-defaulted and re-worded nothing. Regenerate
it — only when a flag is meant to change — with::

    PYTHONPATH=src python tests/test_cli_surface.py
"""

import argparse
import dataclasses
import json
from pathlib import Path

from repro.cli import build_parser

SNAPSHOT = Path(__file__).parent / "data" / "cli_surface.json"


def surface(parser: argparse.ArgumentParser, command: str = "hdpsr") -> list:
    """``parser`` as plain records, in declaration order: one for the
    command itself, one per action, then the same for each subcommand."""
    head = {"command": command, "prog": parser.prog,
            "description": parser.description}
    records, nested = [head], []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            head["subcommands_dest"] = action.dest
            head["subcommands"] = {
                choice.dest: choice.help for choice in action._choices_actions
            }
            head["subcommand_order"] = list(action.choices)
            for name, sub in action.choices.items():
                nested += surface(sub, f"{command} {name}")
            continue
        records.append({
            "command": command,
            "option_strings": list(action.option_strings),
            "dest": action.dest,
            "action": type(action).__name__,
            "default": action.default,
            "type": getattr(action.type, "__name__", action.type),
            "choices": None if action.choices is None else list(action.choices),
            "nargs": action.nargs,
            "metavar": action.metavar,
            "required": action.required,
            "help": action.help,
        })
    return records + nested


def current() -> list:
    # through JSON, so tuples and lists compare alike
    return json.loads(json.dumps(surface(build_parser())))


class TestParsedSurface:
    def test_matches_the_snapshot(self):
        want, got = json.loads(SNAPSHOT.read_text()), current()

        by_flag = {(r["command"], r.get("dest")): r for r in got}
        for record in want:
            key = (record["command"], record.get("dest"))
            assert by_flag.get(key) == record, key
        assert got == want  # nothing added, nothing reordered

    def test_every_subcommand_dispatches(self):
        def leaves(parser):
            subs = [a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)]
            if not subs:
                yield parser
            for action in subs:
                for sub in action.choices.values():
                    yield from leaves(sub)

        for leaf in leaves(build_parser()):
            assert callable(leaf.get_default("func")), leaf.prog


def _serve_defaults() -> dict:
    (subs,) = [a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    serve = subs.choices["serve"]
    return {a.option_strings[0]: a.default
            for a in serve._actions if a.option_strings}


def _field_default(cls, name):
    (field,) = [f for f in dataclasses.fields(cls) if f.name == name]
    return field.default


class TestServeMirrorsItsConfigs:
    """``serve``'s tuning flags are typed by hand, not derived from the
    config dataclasses (names, units and polarity differ); what must not
    drift is the default each one mirrors."""

    def test_the_eleven_mirrored_defaults(self):
        from repro.core import ReadPolicy
        from repro.service import ClusterConfig, OverloadConfig, ServiceConfig
        from repro.service.scrub import ScrubConfig

        mirrored = {
            "--max-stripes": (ServiceConfig, "max_concurrent_stripes"),
            "--gate-width": (ServiceConfig, "per_disk_reads"),
            "--overload-target-ms": (OverloadConfig, "target_ms"),
            "--overload-shed-target-ms": (OverloadConfig, "shed_target_ms"),
            "--overload-interval-ms": (OverloadConfig, "interval_ms"),
            "--scrub-interval-ms": (ScrubConfig, "interval_ms"),
            "--scrub-cycle-pause": (ScrubConfig, "cycle_pause_s"),
            "--cluster-shards": (ClusterConfig, "num_shards"),
            "--lease-ttl": (ClusterConfig, "lease_ttl"),
            "--heartbeat-interval": (ClusterConfig, "heartbeat_interval"),
            "--retries": (ReadPolicy, "max_retries"),
        }
        flags = _serve_defaults()
        for flag, (cls, field) in mirrored.items():
            assert flags[flag] == _field_default(cls, field), (
                f"serve {flag} defaults to {flags[flag]!r} but "
                f"{cls.__name__}.{field} to {_field_default(cls, field)!r}"
            )


if __name__ == "__main__":
    SNAPSHOT.parent.mkdir(parents=True, exist_ok=True)
    lines = ",\n".join(json.dumps(r, sort_keys=True) for r in current())
    SNAPSHOT.write_text(f"[\n{lines}\n]\n")
    print(f"wrote {SNAPSHOT}")
