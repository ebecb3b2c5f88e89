"""CLI smoke and behaviour tests."""

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestRepair:
    def test_all_algorithms(self, capsys):
        code, out = run(
            capsys, "repair", "--disk-size", "128MiB", "--chunk-size", "32MiB",
            "--num-disks", "12", "--seed", "1",
        )
        assert code == 0
        for name in ("fsr", "hd-psr-ap", "hd-psr-as", "hd-psr-pa"):
            assert name in out
        assert "baseline" in out

    def test_timeline_export(self, capsys, tmp_path):
        target = tmp_path / "tl.csv"
        code, out = run(
            capsys, "repair", "--disk-size", "128MiB", "--chunk-size", "32MiB",
            "--num-disks", "12", "--algorithm", "fsr",
            "--timeline", str(target),
        )
        assert code == 0
        assert (tmp_path / "tl-fsr.csv").exists()

    def test_single_algorithm(self, capsys):
        code, out = run(
            capsys, "repair", "--disk-size", "128MiB", "--chunk-size", "32MiB",
            "--num-disks", "12", "--algorithm", "fsr",
        )
        assert code == 0
        assert "hd-psr-ap" not in out

    def test_deterministic(self, capsys):
        def simulated_columns(text):
            # drop the wall-clock "selection" column (last cell per row)
            return [
                line.rsplit("|", 2)[0]
                for line in text.splitlines()
                if line.startswith("|")
            ]

        _, a = run(capsys, "repair", "--disk-size", "128MiB", "--chunk-size",
                   "32MiB", "--num-disks", "12", "--seed", "7")
        _, b = run(capsys, "repair", "--disk-size", "128MiB", "--chunk-size",
                   "32MiB", "--num-disks", "12", "--seed", "7")
        assert simulated_columns(a) == simulated_columns(b)


class TestMulti:
    def test_naive_and_cooperative(self, capsys):
        code, out = run(
            capsys, "multi", "--failed", "2", "--disk-size", "128MiB",
            "--chunk-size", "32MiB", "--num-disks", "12",
            "--algorithm", "hd-psr-as",
        )
        assert code == 0
        assert "naive" in out and "cooperative" in out


class TestObserve:
    def test_tables_printed(self, capsys):
        code, out = run(capsys, "observe", "--stripes", "20", "--k", "6",
                        "--memory", "6")
        assert code == 0
        assert "Observation 1" in out
        assert "Observation 2" in out
        assert "Observation 3" in out


class TestDurability:
    def test_table_printed(self, capsys):
        code, out = run(
            capsys, "durability", "--disk-size", "128MiB", "--chunk-size",
            "32MiB", "--num-disks", "12", "--trials", "20", "--afr", "1.0",
            "--amplify", "50000",
        )
        assert code == 0
        assert "MTTDL" in out and "fsr" in out

    def test_weibull_option(self, capsys):
        code, out = run(
            capsys, "durability", "--disk-size", "128MiB", "--chunk-size",
            "32MiB", "--num-disks", "12", "--trials", "10",
            "--weibull-shape", "1.2", "--algorithm", "fsr",
        )
        assert code == 0
        assert "weibull" in out


class TestMisc:
    def test_version(self, capsys):
        code, out = run(capsys, "version")
        assert code == 0
        assert out.startswith("hdpsr ")

    def test_no_command_prints_help(self, capsys):
        code = main([])
        assert code == 2
        assert "usage" in capsys.readouterr().out

    def test_parser_rejects_unknown_algorithm(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["repair", "--algorithm", "bogus"])


class TestFaultsCommand:
    def test_writes_spec(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        code, out = run(capsys, "faults", "--seed", "3", "--events", "5",
                        "--output", str(spec))
        assert code == 0
        assert spec.exists()
        from repro.faults import FaultSchedule
        assert len(FaultSchedule.from_json(spec)) == 5

    def test_prints_to_stdout_without_output(self, capsys):
        import json
        code, out = run(capsys, "faults", "--seed", "3", "--events", "2")
        assert code == 0
        assert len(json.loads(out)["events"]) == 2

    def test_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "faults", "--seed", "9", "--output", str(a))
        run(capsys, "faults", "--seed", "9", "--output", str(b))
        assert a.read_text() == b.read_text()

    def test_unknown_kind_rejected(self, capsys):
        code = main(["faults", "--kinds", "meteor"])
        assert code == 2


class TestHardenedExitCodes:
    """CLI convention: 0 clean, 0 + warning on replan, 3 on data loss."""

    SERVER = ["--num-disks", "12", "--disk-size", "256KiB",
              "--chunk-size", "64KiB", "--algorithm", "fsr"]

    def write_spec(self, tmp_path, events):
        import json
        spec = tmp_path / "faults.json"
        spec.write_text(json.dumps({"events": events}))
        return str(spec)

    def test_clean_recovery_exits_zero(self, capsys, tmp_path):
        code = main(["repair", *self.SERVER, "--read-timeout", "100"])
        err = capsys.readouterr().err
        assert code == 0
        assert "warning" not in err and "DATA LOSS" not in err

    def test_midrepair_casualty_warns_but_exits_zero(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path, [
            {"at": 2e-6, "kind": "disk_fail", "disk": 4},
        ])
        code = main(["repair", *self.SERVER, "--faults", spec])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning: recovery degraded" in captured.err
        assert "re-planned" in captured.err

    def test_data_loss_exits_three(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path, [
            {"at": 1e-6, "kind": "disk_fail", "disk": 1},
            {"at": 2e-6, "kind": "disk_fail", "disk": 2},
            {"at": 3e-6, "kind": "disk_fail", "disk": 3},
            {"at": 4e-6, "kind": "disk_fail", "disk": 4},
        ])
        code = main(["repair", *self.SERVER, "--faults", spec])
        captured = capsys.readouterr()
        assert code == 3
        assert "DATA LOSS" in captured.err

    def test_multi_hardened_runs(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path, [
            {"at": 2e-6, "kind": "disk_fail", "disk": 5},
        ])
        code = main(["multi", *self.SERVER, "--failed", "2", "--faults", spec])
        out = capsys.readouterr().out
        assert code in (0, 3)
        assert "fault-hardened recovery outcomes" in out

    def test_hardened_output_deterministic(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path, [
            {"at": 2e-6, "kind": "disk_fail", "disk": 4},
        ])
        code_a = main(["repair", *self.SERVER, "--faults", spec])
        a = capsys.readouterr().out
        code_b = main(["repair", *self.SERVER, "--faults", spec])
        b = capsys.readouterr().out
        assert (code_a, a) == (code_b, b)


class TestServeStore:
    def test_a_store_of_the_pre_trailer_layout_is_a_usage_error(
        self, capsys, tmp_path, monkeypatch
    ):
        """``serve --store`` over a store holding a ``.crc32c`` sidecar
        exits 2 with one ``hdpsr: error:`` line naming the file and the
        layout; the daemon never starts and the sidecar stays."""
        from repro.commands import flags

        def started(*args, **kwargs):
            raise AssertionError("the daemon started over a refused store")

        monkeypatch.setattr(flags, "build_server", started)
        sidecar = tmp_path / "store" / "shard-02" / "disk-002" / "s000001.000.chunk.crc32c"
        sidecar.parent.mkdir(parents=True)
        sidecar.write_text("00000000\n")
        assert main(["serve", "--store", str(tmp_path / "store"), "--no-fsync"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("hdpsr: error: ")
        assert str(sidecar) in err and "pre-trailer layout" in err
        assert sidecar.exists()
