"""Open-loop arrival generators: determinism, mean rate, and shape.

The properties the overload work leans on: same seed → byte-identical
schedule (the chaos scenario replays the same stampede every run), the
realised mean rate tracks the configured one within ±5% (the generators
are honest about offered load), and each shape actually has its shape
(diurnal peaks vs troughs, bursty clustering, a flash step). Everything
is seeded, so these are property tests over a fixed seed set, not flaky
statistics.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads.arrivals import (
    SHAPES,
    bursty_arrivals,
    constant_arrivals,
    diurnal_arrivals,
    flash_crowd_arrivals,
    make_arrivals,
)

#: Enough expected arrivals (rate * duration = 4000) that ±5% is ~3 sigma
#: for a Poisson count — and the draws are seeded, so no flakes either way.
RATE = 200.0
DURATION = 20.0
SEEDS = (0, 1, 2, 3, 4)

BUILDERS = {
    "constant": constant_arrivals,
    "diurnal": diurnal_arrivals,
    "bursty": bursty_arrivals,
    "flash": flash_crowd_arrivals,
}


def rate_in(sched, start, end):
    """Realised arrivals per second inside ``[start, end)``."""
    n = np.count_nonzero((sched.times >= start) & (sched.times < end))
    return n / (end - start)


class TestDeterminism:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_same_seed_byte_identical(self, shape):
        a = make_arrivals(shape, RATE, DURATION, seed=7)
        b = make_arrivals(shape, RATE, DURATION, seed=7)
        assert a.times.dtype == np.float64
        assert np.array_equal(a.times, b.times)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_different_seed_different_schedule(self, shape):
        a = make_arrivals(shape, RATE, DURATION, seed=7)
        b = make_arrivals(shape, RATE, DURATION, seed=8)
        assert not np.array_equal(a.times, b.times)


#: Kwargs under which each shape's long-run mean is `rate`: diurnal needs
#: whole periods (the sinusoid only averages out over full cycles), bursty
#: needs many on/off cycles (~800 here) for the phase fractions to settle.
MEAN_KWARGS = {
    "constant": {},
    "diurnal": {"period": DURATION / 2},
    "bursty": {"mean_on": 0.005, "mean_off": 0.02},
}


class TestMeanRate:
    @pytest.mark.parametrize("shape", sorted(MEAN_KWARGS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mean_rate_within_5_percent(self, shape, seed):
        sched = BUILDERS[shape](
            RATE, DURATION, seed=seed, **MEAN_KWARGS[shape]
        )
        assert sched.count > 0
        err = abs(sched.mean_rate - RATE) / RATE
        assert err < 0.05, (
            f"{shape} seed {seed}: realised {sched.mean_rate:.1f}/s "
            f"vs configured {RATE}/s ({err:.1%} off)"
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_flash_mean_is_base_plus_spike(self, seed):
        # flash's `rate` is the *base*; the overall mean is the piecewise
        # blend (spike_factor over the middle third here).
        sched = flash_crowd_arrivals(
            RATE, DURATION, spike_factor=8.0, seed=seed
        )
        expected = RATE * (2 / 3 + 8.0 / 3)
        assert abs(sched.mean_rate - expected) / expected < 0.05


class TestShapeInvariants:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sorted_and_in_horizon(self, shape, seed):
        sched = BUILDERS[shape](RATE, DURATION, seed=seed)
        assert np.all(np.diff(sched.times) >= 0)
        assert sched.times[0] >= 0.0
        assert sched.times[-1] < DURATION
        assert sched.duration == DURATION

    def test_diurnal_peak_beats_trough(self):
        # period = horizon: first half is the peak half-sine, second the
        # trough; their realised rates must straddle the mean accordingly.
        sched = diurnal_arrivals(
            RATE, DURATION, period=DURATION, amplitude=0.8, seed=3
        )
        peak = rate_in(sched, 0.0, DURATION / 2)
        trough = rate_in(sched, DURATION / 2, DURATION)
        assert peak > RATE > trough
        assert peak > 2.0 * trough

    def test_bursty_is_overdispersed(self):
        # MMPP counts in fixed bins have variance > mean (a plain Poisson
        # process has variance ≈ mean); that's what "bursty" means.
        bins = np.arange(0.0, DURATION + 0.25, 0.25)
        bursty = bursty_arrivals(RATE, DURATION, burst_factor=8.0, seed=5)
        flat = constant_arrivals(RATE, DURATION, seed=5)
        b_counts, _ = np.histogram(bursty.times, bins)
        f_counts, _ = np.histogram(flat.times, bins)
        assert np.var(b_counts) > 2.0 * np.mean(b_counts)
        assert np.var(f_counts) < 2.0 * np.mean(f_counts)

    def test_flash_spike_window_rate(self):
        sched = flash_crowd_arrivals(
            100.0, 9.0, spike_factor=6.0, spike_start=3.0,
            spike_duration=3.0, seed=2,
        )
        base = rate_in(sched, 0.0, 3.0)
        spike = rate_in(sched, 3.0, 6.0)
        after = rate_in(sched, 6.0, 9.0)
        assert spike / base > 4.0
        assert spike / after > 4.0
        assert sched.params["spike_start"] == 3.0



class TestValidation:
    def test_unknown_shape_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown arrival shape"):
            make_arrivals("sawtooth", 10.0, 1.0)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_nonpositive_rate_rejected(self, shape):
        with pytest.raises(ConfigurationError):
            make_arrivals(shape, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            make_arrivals(shape, 10.0, -1.0)

    def test_shape_specific_knobs_validated(self):
        with pytest.raises(ConfigurationError, match="amplitude"):
            diurnal_arrivals(10.0, 1.0, amplitude=1.5)
        with pytest.raises(ConfigurationError, match="burst_factor"):
            bursty_arrivals(10.0, 1.0, burst_factor=1.0)
        with pytest.raises(ConfigurationError, match="spike_factor"):
            flash_crowd_arrivals(10.0, 1.0, spike_factor=0.5)
        with pytest.raises(ConfigurationError, match="spike_start"):
            flash_crowd_arrivals(10.0, 1.0, spike_start=5.0)

    def test_params_carry_ground_truth(self):
        sched = make_arrivals("bursty", 40.0, 2.0, seed=1, burst_factor=4.0)
        assert sched.params["kind"] == "bursty"
        assert sched.params["rate_on"] == pytest.approx(
            4.0 * sched.params["rate_off"]
        )
