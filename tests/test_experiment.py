"""Declarative experiment runner."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiment import ExperimentSpec, run_experiment, save_rows

SERVER = {
    "n": 6, "k": 4, "disk_size": "128MiB", "chunk_size": "32MiB",
    "num_disks": 12, "ros": 0.2, "placement": "random",
}


def spec_dict(**overrides):
    base = {
        "name": "test-exp",
        "server": dict(SERVER),
        "failure": {"disks": [0], "mode": "single"},
        "algorithms": ["fsr", "hd-psr-as"],
        "runs": 2,
        "base_seed": 5,
    }
    base.update(overrides)
    return base


class TestSpecValidation:
    def test_valid(self):
        ExperimentSpec.from_dict(spec_dict())

    def test_missing_name(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_dict({"server": {}})

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_dict(spec_dict(algorithms=["fsr", "magic"]))

    def test_unknown_mode(self):
        d = spec_dict()
        d["failure"]["mode"] = "chaos"
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_dict(d)

    def test_single_mode_one_disk(self):
        d = spec_dict()
        d["failure"]["disks"] = [0, 1]
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_dict(d)

    def test_no_disks(self):
        d = spec_dict()
        d["failure"]["disks"] = []
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_dict(d)

    def test_unknown_server_key(self):
        d = spec_dict()
        d["server"]["warp_drive"] = True
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_dict(d)

    def test_bad_runs(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_dict(spec_dict(runs=0))

    # A spec reaches the runner as a file through ``hdpsr run``.
    def test_from_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_dict(runs=1)))
        assert main(["run", str(path)]) == 0
        assert "Experiment spec 'test-exp'" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err


class TestRunExperiment:
    def test_single_mode(self):
        rows = run_experiment(ExperimentSpec.from_dict(spec_dict()))
        assert len(rows) == 2
        assert {r["algorithm"] for r in rows} == {"fsr", "hd-psr-as"}
        for r in rows:
            assert r["total_time"] > 0
            assert r["chunks_read"] > 0
            assert r["runs"] == 2

    def test_multi_modes(self):
        d = spec_dict(algorithms=["hd-psr-as"])
        d["failure"] = {"disks": [0, 1], "mode": "multi-naive"}
        naive = run_experiment(ExperimentSpec.from_dict(d))[0]
        d["failure"]["mode"] = "multi-cooperative"
        coop = run_experiment(ExperimentSpec.from_dict(d))[0]
        assert coop["chunks_read"] <= naive["chunks_read"]

    def test_deterministic(self):
        spec = ExperimentSpec.from_dict(spec_dict())
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert [r["total_time"] for r in a] == [r["total_time"] for r in b]

    def test_save_rows(self, tmp_path):
        rows = run_experiment(ExperimentSpec.from_dict(spec_dict(runs=1)))
        path = save_rows(rows, tmp_path / "out" / "rows.json")
        assert path.exists()
        assert json.loads(path.read_text())[0]["experiment"] == "test-exp"


class TestSweep:
    def test_expand_cartesian(self):
        from repro.experiment import expand_sweep

        d = spec_dict(runs=1)
        d["sweep"] = {"ros": [0.0, 0.2], "k": [3, 4]}
        specs = expand_sweep(d)
        assert len(specs) == 4
        names = {s.name for s in specs}
        assert "test-exp/k=3/ros=0.0" in names
        assert all(s.server["ros"] in (0.0, 0.2) for s in specs)

    def test_no_sweep_passthrough(self):
        from repro.experiment import expand_sweep

        specs = expand_sweep(spec_dict())
        assert len(specs) == 1
        assert specs[0].name == "test-exp"

    def test_unknown_sweep_key(self):
        from repro.experiment import expand_sweep

        d = spec_dict()
        d["sweep"] = {"flux_capacitor": [1]}
        with pytest.raises(ConfigurationError):
            expand_sweep(d)

    def test_empty_sweep_list(self):
        from repro.experiment import expand_sweep

        d = spec_dict()
        d["sweep"] = {"ros": []}
        with pytest.raises(ConfigurationError):
            expand_sweep(d)

    def test_run_sweep_rows(self):
        from repro.experiment import run_sweep

        d = spec_dict(runs=1, algorithms=["fsr"])
        d["sweep"] = {"ros": [0.0, 0.3]}
        rows = run_sweep(d)
        assert len(rows) == 2
        assert {r["experiment"] for r in rows} == {
            "test-exp/ros=0.0", "test-exp/ros=0.3"
        }
        # heavier slow-disk population repairs slower
        by = {r["experiment"]: r["total_time"] for r in rows}
        assert by["test-exp/ros=0.3"] > by["test-exp/ros=0.0"]


class TestCliRun:
    def test_run_and_output(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_dict(runs=1)))
        out_path = tmp_path / "rows.json"
        code = main(["run", str(spec_path), "--output", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "test-exp" in out
        assert out_path.exists()
