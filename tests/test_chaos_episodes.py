"""The five ``hdpsr chaos`` proofs, as tier-1 rows.

Failover, overload with and without the controller, bitrot with and
without the scrub plane — each at the small geometry, each held to what
CI holds it to: the checker functions of ``tools/check_chaos_report.py``
are imported here, so tier-1 and the CI smokes cannot disagree about
what "the proof passed" means. A row's extra assertions are the ones the
per-scenario tests this file replaced made beyond the checker.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.service.chaos import ChaosConfig, run_chaos
from repro.service.chaos_bitrot import BitrotChaosConfig, run_bitrot_chaos
from repro.service.chaos_overload import (
    GOODPUT_FLOOR,
    OverloadChaosConfig,
    run_overload_chaos,
)

_spec = importlib.util.spec_from_file_location(
    "check_chaos_report",
    Path(__file__).parent.parent / "tools" / "check_chaos_report.py",
)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)


pytestmark = pytest.mark.usefixtures("fresh_registry")


def failover(root):
    """The whole stack once: sockets, leases on the wall clock, client
    retries/hedging, handoff, and the report's invariant checks."""
    report = run_chaos(ChaosConfig(root=root))
    assert report["failures"] == []
    assert report["exit_code_a"] == 4
    assert report["exit_code_b"] == 0
    assert report["handoffs"] == [3]
    assert report["duplicate_writes"] == []
    assert report["fence_epochs"]["current"] > report["fence_epochs"]["held"]
    assert report["repair_b"]["resumed_stripes"] > 0
    assert report["takeover_seconds"] < 30.0
    return report


def quick_overload(control: bool) -> dict:
    return run_overload_chaos(OverloadChaosConfig(
        control=control,
        base_rate=60.0,
        pre_seconds=0.8,
        spike_seconds=0.8,
        post_seconds=0.4,
        deadline_ms=80.0,
        p99_budget=0.25,
        stripes=8,
    ))


def overload(root):
    report = quick_overload(control=True)
    if report["sheds"]:
        assert report["shed_example"]["retryable"] is True
    # bounded tail, preserved goodput:
    assert report["read_p99_seconds"] <= report["p99_budget"]
    assert report["goodput_spike_per_s"] >= (
        GOODPUT_FLOOR * report["goodput_pre_per_s"]
    )
    return report


def overload_control(root):
    report = quick_overload(control=False)
    # Without the controller the same schedule must blow the budget (the
    # checker's p99_violated) with nothing shed: everything queued. But
    # correctness never degrades, only latency:
    assert report["repair"].get("certified")
    assert report["passed"], report["failures"]
    return report


def bitrot(root):
    return run_bitrot_chaos(BitrotChaosConfig(root=root))


def bitrot_control(root):
    report = run_bitrot_chaos(BitrotChaosConfig(root=root, scrub=False))
    assert report["passed"], report["failures"]
    return report


@pytest.mark.parametrize("episode, scenario, control", [
    pytest.param(failover, "failover", False, id="failover"),
    pytest.param(overload, "overload", False, id="overload"),
    pytest.param(overload_control, "overload", True, id="overload-control"),
    pytest.param(bitrot, "bitrot", False, id="bitrot"),
    pytest.param(bitrot_control, "bitrot", True, id="bitrot-control"),
])
def test_episode(episode, scenario, control, tmp_path):
    print(checker.CHECKS[scenario, control](episode(tmp_path)))


def test_checker_cli_reads_a_report_file(tmp_path, capsys):
    report = tmp_path / "r.json"
    report.write_text(
        '{"latent_corruptions": 2, "byte_identical": true}'
    )
    assert checker.main(["bitrot", "--control", str(report)]) == 0
    assert "2 corruptions still latent" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        checker.main(["failover", "--control", str(report)])
