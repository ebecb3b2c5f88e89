"""Trace persistence round-trips."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads import normal_transfer_times
from repro.workloads.traces import load_trace, save_trace


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path):
        w = normal_transfer_times(30, 8, ros=0.05, seed=7)
        path = save_trace(w, tmp_path / "trace")
        loaded = load_trace(path)
        assert np.array_equal(loaded.L, w.L)
        assert np.array_equal(loaded.slow_mask, w.slow_mask)
        assert loaded.params["ros"] == 0.05

    def test_extension_added(self, tmp_path):
        w = normal_transfer_times(5, 4, seed=0)
        path = save_trace(w, tmp_path / "t")
        assert path.suffix == ".npz"

    def test_explicit_extension_kept(self, tmp_path):
        w = normal_transfer_times(5, 4, seed=0)
        path = save_trace(w, tmp_path / "t.npz")
        assert path.name == "t.npz"

    def test_nested_directory_created(self, tmp_path):
        w = normal_transfer_times(5, 4, seed=0)
        path = save_trace(w, tmp_path / "a" / "b" / "t.npz")
        assert path.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_trace(tmp_path / "nope.npz")

    def test_corrupt_archive_missing_fields(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, L=np.ones((2, 2)))
        with pytest.raises(ConfigurationError):
            load_trace(path)

    def test_version_check(self, tmp_path):
        import json

        w = normal_transfer_times(5, 4, seed=0)
        path = save_trace(w, tmp_path / "t.npz")
        meta = dict(w.params)
        meta["format_version"] = 99
        np.savez(
            path,
            L=w.L,
            slow_mask=w.slow_mask,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        )
        with pytest.raises(ConfigurationError):
            load_trace(path)
