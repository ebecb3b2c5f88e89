"""ROBUSTNESS — recovery outcomes under injected mid-repair faults.

Repo extension (no paper figure): runs the byte-exact data path through
six scripted fault scenarios — clean hardened baseline, the same repair
checkpointing into a crash-consistent journal (overhead check), a second
disk dying mid-round (re-planning salvages accumulated partial sums), a
hung survivor ridden out via timeout/retry/hedge, an overwhelming
casualty burst that exceeds the n-k tolerance and must degrade to a
structured data-loss report rather than an exception, and a repair
killed by a scripted process crash then resumed from its journal.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

from repro.core import FullStripeRepair, ReadPolicy, recover_disk, recover_disks
from repro.faults import FaultEvent, FaultSchedule
from repro.hdss import HDSSConfig, HighDensityStorageServer
from repro.reporting import loss_report_rows
from repro.utils.tables import AsciiTable

from benchutil import emit

CHUNK = 2048
#: Seconds one fault-free chunk read takes on the default 100 MB/s profile.
READ_SECONDS = CHUNK / 100e6


def make_server(seed=7, num_disks=14, stripes=25):
    cfg = HDSSConfig(
        num_disks=num_disks, n=9, k=6, chunk_size=CHUNK,
        memory_chunks=12, spares=5, seed=seed,
    )
    server = HighDensityStorageServer(cfg)
    server.provision_stripes(stripes, with_data=True)
    return server


#: One actual chunk read on the default 180 MB/s profile (for crash timing).
ACTUAL_READ_SECONDS = CHUNK / 180e6


def run_scenarios():
    results = {}

    # clean hardened baseline: a policy without faults must change nothing
    server = make_server()
    server.fail_disk(0)
    results["clean"] = recover_disk(
        server, FullStripeRepair(), 0,
        policy=ReadPolicy(timeout_seconds=1.0),
    )

    # the identical repair checkpointing every round into the journal:
    # the journal-overhead row must match "clean" on every outcome column
    with tempfile.TemporaryDirectory() as tmp:
        server = make_server()
        server.fail_disk(0)
        results["journaled clean"] = recover_disk(
            server, FullStripeRepair(), 0,
            policy=ReadPolicy(timeout_seconds=1.0),
            journal=Path(tmp) / "journal",
        )

    # a scripted SIGKILL mid-repair, then --resume from the journal:
    # finished stripes replay from journaled payloads, zero re-reads
    with tempfile.TemporaryDirectory() as tmp:
        from repro.faults import SimulatedCrash

        crash = FaultSchedule([
            FaultEvent(at=60 * ACTUAL_READ_SECONDS, kind="process_crash"),
        ])
        server = make_server()
        server.fail_disk(0)
        with pytest.raises(SimulatedCrash):
            recover_disk(server, FullStripeRepair(), 0,
                         faults=crash, journal=Path(tmp) / "journal")
        server = make_server()
        server.fail_disk(0)
        results["crash + resume"] = recover_disk(
            server, FullStripeRepair(), 0,
            faults=crash, journal=Path(tmp) / "journal", resume=True,
        )

    # the acceptance scenario: disk 7 dies two reads into a cooperative
    # two-disk repair, under a stripe that has yet to read it; partial sums
    # already folded must be salvaged (a stripe that starts later has lost
    # the disk's chunk already and rebuilds it with the rest)
    server = make_server()
    server.fail_disk(0)
    server.fail_disk(1)
    results["mid-repair casualty"] = recover_disks(
        server, FullStripeRepair(), [0, 1],
        faults=FaultSchedule([
            FaultEvent(at=2 * READ_SECONDS, kind="disk_fail", disk=7),
        ]),
    )

    # a survivor hangs; timeout + backoff + hedging reroute the reads
    server = make_server()
    server.fail_disk(0)
    results["hung survivor"] = recover_disk(
        server, FullStripeRepair(), 0,
        faults=FaultSchedule([
            FaultEvent(at=0.0, kind="hang", disk=2, duration=0.01),
        ]),
        policy=ReadPolicy(timeout_seconds=10 * READ_SECONDS, max_retries=2,
                          backoff_base=1e-4, backoff_cap=1e-3, hedge=True),
    )

    # three more deaths overwhelm the n-k=3 tolerance: graceful loss
    server = make_server()
    server.fail_disk(0)
    server.fail_disk(1)
    results["overwhelming burst"] = recover_disks(
        server, FullStripeRepair(), [0, 1],
        faults=FaultSchedule([
            FaultEvent(at=READ_SECONDS, kind="disk_fail", disk=4),
            FaultEvent(at=2 * READ_SECONDS, kind="disk_fail", disk=5),
            FaultEvent(at=3 * READ_SECONDS, kind="disk_fail", disk=6),
        ]),
    )

    return loss_report_rows(results)


def test_robustness_outcomes(benchmark, results_sink):
    rows = benchmark.pedantic(run_scenarios, rounds=1, iterations=1)
    table = AsciiTable(
        ["scenario", "stripes", "ok", "replanned", "lost", "salvaged",
         "re-read", "exit"],
        title="Robustness: hardened recovery under injected faults",
    )
    for r in rows:
        table.add_row([r["scenario"], r["stripes"], r["recovered"],
                       r["replanned"], r["lost"], r["chunks_salvaged"],
                       r["chunks_reread"], r["exit_code"]])
    emit("Robustness: fault-injection outcomes", table.render())
    results_sink("robustness", rows)

    by = {r["scenario"]: r for r in rows}
    assert by["clean"]["exit_code"] == 0
    assert by["clean"]["certified"]
    # journaling changes durability, not outcomes
    for col in ("stripes", "recovered", "replanned", "lost", "chunks_rebuilt",
                "certified", "exit_code"):
        assert by["journaled clean"][col] == by["clean"][col], col
    resumed = by["crash + resume"]
    assert resumed["certified"] and resumed["exit_code"] == 0
    assert resumed["resumed_stripes"] > 0
    assert resumed["replayed_chunks"] > 0
    # the casualty is absorbed: stripes re-planned, nothing lost, and the
    # salvage genuinely beats repairing those stripes from scratch
    casualty = by["mid-repair casualty"]
    assert casualty["lost"] == 0 and casualty["replanned"] > 0
    assert casualty["chunks_reread"] < 6 * (
        casualty["replans"] + casualty["fresh_restarts"]
    )
    assert by["hung survivor"]["lost"] == 0
    burst = by["overwhelming burst"]
    assert burst["lost"] > 0 and burst["exit_code"] == 3
    # even under data loss the unaffected stripes were rescued
    assert burst["recovered"] + burst["replanned"] > 0
