"""Event simulation: pair sampling, backgrounds, response, full runs."""

import hashlib
import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xpdc import events
from xpdc.config import build_run_config, default_settings
from xpdc.events import (
    BeamCurrentProfile,
    ConfigError,
    DetectorResponse,
    GaussianLine,
    RunConfig,
    SourceModel,
    Stream,
    _apply_response_batch,
    _MAX_EXPECTED_EVENTS,
    _dead_time_mask,
    _detector_columns,
    _expected_photons,
    _members_recorded,
    _sample_pair_batch,
    _sorted_members,
    landing_acceptance,
    simulate_run,
    thread_map,
)
from xpdc.listmode import EVENT_DTYPE, merge_streams, write_events_csv
from xpdc.physics import DetectorGeometry, PhysicsError, emission_angles


def reference_run(**overrides) -> RunConfig:
    settings = default_settings()
    for key, value in overrides.items():
        settings[key] = value
    return build_run_config(settings)


def records(stream, detector_id: int) -> np.ndarray:
    """The stream packed as EVENT_DTYPE records of one detector."""
    packed = np.empty(len(stream), dtype=EVENT_DTYPE)
    packed["detector_id"] = detector_id
    packed["timestamp_ns"] = stream.timestamp_ns
    packed["energy_ev"] = stream.energy_ev
    return packed


def quiet_settings(**overrides):
    """Defaults with every background component switched off."""
    settings = default_settings()
    for key in list(settings):
        if key.startswith("source.") and key.endswith(".rate"):
            settings[key] = "0 /s"
    settings.update(overrides)
    return settings


class TestSamplePair:
    def test_energies_sum_to_pump_exactly(self):
        run = reference_run(**{"beam.bandwidth_fwhm": "0 eV"})
        batch = _sample_pair_batch(
            np.random.default_rng(5), run.experiment, np.full(4000, 123.0)
        )
        both = batch["signal_detected"] & batch["idler_detected"]
        assert both.sum() >= 1
        assert np.all(batch["e_signal"][both] + batch["e_idler"][both] == 22000.0)
        assert np.all(batch["time_ns"][both] == 123.0)

    def test_sum_within_bandwidth(self):
        run = reference_run()
        rng = np.random.default_rng(6)
        batch = _sample_pair_batch(rng, run.experiment, np.zeros(5000))
        sums = batch["e_signal"] + batch["e_idler"]
        # pump drawn with 2.9 eV FWHM; sums track the drawn pump exactly
        assert np.max(np.abs(sums - 22000.0)) < 10.0

    def test_full_acceptance_ideal_chain_always_both(self):
        settings = quiet_settings()
        settings["chain.model"] = "ideal"
        settings["detector1.area"] = "1e9 mm2"
        settings["detector2.area"] = "1e9 mm2"
        run = build_run_config(settings)
        batch = _sample_pair_batch(np.random.default_rng(7), run.experiment, np.zeros(50))
        assert np.all(batch["signal_detected"] & batch["idler_detected"])

    def test_negative_detuning_raises(self):
        run = reference_run(**{"crystal.detuning": "-10 mdeg"})
        with pytest.raises(PhysicsError):
            _sample_pair_batch(np.random.default_rng(0), run.experiment, np.zeros(1))

    def test_landing_fraction_against_rejection_sampler(self):
        # Independent oracle: explicit detector-plane coordinates with a
        # square detector; the thin-ring sector model in the package must
        # agree on the coincidence fraction to within a few percent.
        run = reference_run()
        exp = run.experiment
        n = 100_000
        batch = _sample_pair_batch(np.random.default_rng(11), exp, np.zeros(n))
        p_model = np.mean(batch["signal_landed"] & batch["idler_landed"])

        rng = np.random.default_rng(13)
        lo, hi = exp.split_window()
        x = rng.uniform(lo, hi, n)
        r_x, r_y = emission_angles(x, exp.crystal.detuning_rad, exp.theta_b())
        phi = rng.uniform(-np.pi, np.pi, n)
        det1, det2 = exp.positioned_detectors()

        def hits_square(det, angle, azimuth):
            ring = det.distance_mm * np.tan(angle)
            center = det.distance_mm * math.tan(det.center_angle_offset_rad)
            u = ring * np.cos(azimuth) - center
            v = ring * np.sin(azimuth)
            half = det.side_mm / 2
            return (np.abs(u) <= half) & (np.abs(v) <= half)

        # idler leaves at phi + pi and detector 2 sits on the opposite
        # side, so the same azimuth variable applies to both
        p_oracle = np.mean(hits_square(det1, r_x, phi) & hits_square(det2, r_y, phi))
        stat = 5 * math.sqrt(2 * p_model * (1 - p_model) / n)
        assert abs(p_model - p_oracle) < max(stat, 0.03 * p_model)


class TestLandingAcceptance:
    @pytest.mark.parametrize(
        "detuning, offset_factor",
        [("5 mdeg", None), ("10 mdeg", None), ("50 mdeg", None), ("10 mdeg", 0.9),
         ("10 mdeg", 1.1)],
    )
    def test_pair_value_matches_the_sampler(self, detuning, offset_factor):
        # 4 M pairs through the sampler's landing decisions: sigma is
        # 1.1e-4 at 5 mdeg, where the thin ring's w / (2 pi r0) is 1.2e-3
        # above the integral.
        exp = reference_run(**{"crystal.detuning": detuning}).experiment
        if offset_factor is not None:  # both detectors aimed at offset_factor * r0
            offset = offset_factor * exp.degenerate_offset()
            exp = exp._replace(detectors=tuple(
                DetectorGeometry(d.distance_mm, d.active_area_mm2, offset) for d in exp.detectors
            ))
        rng = np.random.default_rng(5)
        n, batch, landed = 4_000_000, 500_000, 0
        for _ in range(n // batch):
            pairs = _sample_pair_batch(rng, exp, np.zeros(batch))
            landed += int(np.count_nonzero(pairs["signal_landed"] & pairs["idler_landed"]))
        p = landing_acceptance(exp)[2]
        assert abs(landed / n - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_each_detector_matches_the_sampler(self):
        exp = reference_run().experiment
        n = 1_000_000
        pairs = _sample_pair_batch(np.random.default_rng(8), exp, np.zeros(n))
        for p, landed in zip(landing_acceptance(exp), ("signal_landed", "idler_landed")):
            assert abs(np.mean(pairs[landed]) - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_a_simulated_run_lands_the_pair_value(self):
        settings = quiet_settings(**{"source.pair_rate": f"{18900 * 100} /hr"})
        run = build_run_config(settings)
        manifest = simulate_run(run)[2]
        p = landing_acceptance(run.experiment)[2]
        n = manifest.pairs_generated
        assert abs(manifest.pairs_landed_both / n - p) < 3 * math.sqrt(p * (1 - p) / n)


def background(rng, source, duration_s, detector_id, suppression=1.0, profile=None):
    """_detector_columns of a detector without pair members or resolution."""
    return _detector_columns(
        rng, source, duration_s, detector_id, suppression, profile or BeamCurrentProfile(), 0.0,
        (np.empty(0), np.empty(0)),
    )


class TestSampleBackground:
    def test_zero_rates_empty(self):
        source = SourceModel(true_pair_rate_per_s=0.0)
        times, energies, counts = background(np.random.default_rng(0), source, 10.0, 1)
        assert len(times) == len(energies) == 0 and counts == {}

    def test_poisson_concentration(self):
        rate, duration = 40.0, 30.0  # rate * T = 1200 >> 100
        line = GaussianLine("fe_ka", 6400.0, 10.0, rate)
        source = SourceModel(true_pair_rate_per_s=0.0, components=((line,), ()))
        _, energies, counts = background(np.random.default_rng(21), source, duration, 1)
        expected = rate * duration
        assert abs(counts["d1_fe_ka"] - expected) < 5 * math.sqrt(expected)
        assert abs(energies.mean() - 6400.0) < 5 * 10.0 / 2.355 / math.sqrt(len(energies))

    def test_streams_independent_between_detectors(self):
        line = GaussianLine("fe_ka", 6400.0, 10.0, 200.0)
        source = SourceModel(true_pair_rate_per_s=0.0, components=((line,), (line,)))
        rng = np.random.default_rng(3)
        t1 = np.sort(background(rng, source, 60.0, 1)[0])
        t2 = np.sort(background(rng, source, 60.0, 2)[0])
        window = 200.0  # ns
        lo = np.searchsorted(t2, t1 - window)
        hi = np.searchsorted(t2, t1 + window, side="right")
        observed = int((hi - lo).sum())
        expected = len(t1) * len(t2) * (2 * window) / (60e9)
        assert abs(observed - expected) < 5 * math.sqrt(expected + 1)

    def test_suppression_scales_polarized_components(self):
        elastic = GaussianLine("elastic", 22000.0, 60.0, 1000.0, suppressed=True)
        source = SourceModel(
            true_pair_rate_per_s=0.0, components=((elastic,), (elastic,))
        )
        _, _, counts = background(
            np.random.default_rng(5), source, 50.0, 1, suppression=0.1
        )
        expected = 1000.0 * 0.1 * 50.0
        assert abs(counts["d1_elastic"] - expected) < 5 * math.sqrt(expected)


# Every statistical bound of TestBackgroundStatistics, in standard errors.
Z = 5.0


class TestBackgroundStatistics:
    """Background drawn once at its recorded width and without time
    jitter has the statistics of lines smeared photon by photon: Poisson
    counts, Gaussian lines of FWHM hypot(line, resolution), and
    exponential gaps at the total rate."""

    LINES = (
        GaussianLine("fe_ka", 6400.0, 10.0, 4000.0),
        GaussianLine("compton", 20000.0, 900.0, 6000.0, suppressed=True),
        GaussianLine("elastic", 22000.0, 60.0, 10000.0, suppressed=True),
    )
    SUPPRESSION, RESOLUTION, DURATION = 0.5, 150.0, 20.0

    def columns(self, profile):
        source = SourceModel(true_pair_rate_per_s=0.0, components=(self.LINES, ()))
        return _detector_columns(
            np.random.default_rng(31), source, self.DURATION, 1, self.SUPPRESSION, profile,
            self.RESOLUTION, (np.empty(0), np.empty(0)),
        )

    def test_counts_and_recorded_lines(self):
        _, energies, counts = self.columns(BeamCurrentProfile((2.0, 1.0, 3.0)))
        start = 0
        for line in self.LINES:  # one block per component, in order
            n = counts[f"d1_{line.label}"]
            expected = line.rate(self.SUPPRESSION) * self.DURATION
            assert abs(n - expected) < Z * math.sqrt(expected)
            recorded = energies[start : start + n]
            start += n
            sigma = math.hypot(line.fwhm_ev, self.RESOLUTION) / 2.355
            assert abs(recorded.mean() - line.center_ev) < Z * sigma / math.sqrt(n)
            assert abs(recorded.std() - sigma) < Z * sigma / math.sqrt(2 * n)
        assert start == len(energies)

    def test_gaps_under_1_us_follow_the_total_rate(self):
        times, _, _ = self.columns(BeamCurrentProfile())
        gaps = np.diff(np.sort(times))
        rate = sum(line.rate(self.SUPPRESSION) for line in self.LINES)  # /s
        p = 1.0 - math.exp(-rate * 1e-6)
        assert abs(np.mean(gaps < 1000.0) - p) < Z * math.sqrt(p * (1 - p) / len(gaps))


class TestStream:
    @pytest.mark.parametrize(
        "stamps",
        [[20, 0], [0, 2**63], [2**64 - 1, 2**64 - 1]],
        ids=["decreasing", "at-2**63", "first-at-2**64-1"],
    )
    def test_unordered_stamps_raise(self, stamps):
        with pytest.raises(ValueError, match=r"^Stream timestamps decrease or reach 2\*\*63 ns$"):
            Stream(stamps, [11000] * len(stamps))

    @pytest.mark.parametrize("energies", [[11000], [11000] * 3, [[11000, 11000]]])
    def test_unequal_columns_raise(self, energies):
        with pytest.raises(ValueError, match="one-dimensional and of equal length"):
            Stream([0, 20], energies)

    @pytest.mark.parametrize(
        "stamps", [[], [5, 5, 5], [0, 2**63 - 1]], ids=["empty", "ties", "last-at-2**63-1"]
    )
    def test_ordered_stamps_accepted(self, stamps):
        stream = Stream(stamps, [11000] * len(stamps))
        assert stream.timestamp_ns.tolist() == stamps and len(stream) == len(stamps)

    def test_replace_checks_again(self):
        stream = Stream([0, 20], [11000, 12000])
        assert Stream([20, 20], stream.energy_ev).timestamp_ns.tolist() == [20, 20]
        with pytest.raises(ValueError, match="decrease"):
            Stream([20, 0], stream.energy_ev)
        with pytest.raises(ValueError, match="equal length"):
            Stream(stream.timestamp_ns, [11000])


class TestDetectorResponse:
    def test_identity_up_to_quantization(self):
        response = DetectorResponse(
            energy_resolution_fwhm_ev=0.0,
            time_jitter_sigma_ns=0.0,
            clock_tick_ns=20,
            energy_range_ev=(1000.0, 30000.0),
        )
        rng = np.random.default_rng(0)
        stamps, recorded = np.array([1234.0]), np.array([11000.0])
        keep = _apply_response_batch(stamps, recorded, response, rng)  # in place
        assert keep[0]
        assert stamps[0] * 20 == 1240  # nearest tick, as its index
        assert recorded[0] == 11000

    def test_out_of_range_energy_dropped(self):
        response = DetectorResponse(
            energy_resolution_fwhm_ev=0.0,
            time_jitter_sigma_ns=0.0,
            energy_range_ev=(5000.0, 17000.0),
        )
        rng = np.random.default_rng(0)
        keep = _apply_response_batch(np.array([0.0]), np.array([4000.0]), response, rng)
        assert not keep[0]

    def test_inter_detector_time_difference_width(self):
        # 150 ns per detector gives a 212 ns difference distribution
        response = DetectorResponse(time_jitter_sigma_ns=150.0)
        rng = np.random.default_rng(17)
        # The step works in place, so each call gets its own copies.
        a, b = np.full(10_000, 1e6), np.full(10_000, 1e6)
        keep_a = _apply_response_batch(a, np.full(10_000, 11000.0), response, rng)
        keep_b = _apply_response_batch(b, np.full(10_000, 11000.0), response, rng)
        assert keep_a.all() and keep_b.all()
        sigma = np.std(b - a) * response.clock_tick_ns  # a and b hold tick indices
        assert abs(sigma - 212.0) < 5.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            DetectorResponse(clock_tick_ns=0)
        with pytest.raises(ConfigError):
            DetectorResponse(clock_tick_ns=1.5)
        tick = DetectorResponse(clock_tick_ns=0.02 * 1e3).clock_tick_ns  # 0.02 us
        assert tick == 20 and type(tick) is int
        with pytest.raises(ConfigError):
            DetectorResponse(energy_range_ev=(17000.0, 5000.0))


class TestBeamCurrentProfile:
    def test_normalized_to_unit_mean(self):
        profile = BeamCurrentProfile(values=(2.0, 4.0))
        assert profile.values == (2.0 / 3.0, 4.0 / 3.0)
        assert profile.mean == pytest.approx(1.0)

    def test_rate_modulation(self):
        line = GaussianLine("fe_ka", 6400.0, 10.0, 500.0)
        source = SourceModel(true_pair_rate_per_s=0.0, components=((line,), ()))
        profile = BeamCurrentProfile(values=(2.0, 1.0))  # -> 4/3, 2/3
        times, _, _ = background(
            np.random.default_rng(9), source, 60.0, 1, profile=profile
        )
        first = int((times < 30e9).sum())
        second = len(times) - first
        # expected ratio 2:1
        assert abs(first - 2 * second) < 5 * math.sqrt(first + 4 * second)

    def test_invalid(self):
        with pytest.raises(ConfigError):
            BeamCurrentProfile(values=())
        with pytest.raises(ConfigError):
            BeamCurrentProfile(values=(1.0, -2.0))


class TestSimulateRun:
    def test_zero_rates_empty_streams(self):
        settings = quiet_settings()
        settings["source.pair_rate"] = "0 /s"
        settings["run.duration"] = "0.001 s"
        run = build_run_config(settings)
        s1, s2, manifest = simulate_run(run)
        assert len(s1) == 0 and len(s2) == 0
        assert manifest.pairs_generated == 0

    def test_deterministic_streams(self):
        settings = default_settings()
        settings["run.duration"] = "5 s"
        run = build_run_config(settings)
        a1, a2, ma = simulate_run(run)
        b1, b2, mb = simulate_run(run)
        for a, b in ((a1, b1), (a2, b2)):
            assert np.array_equal(a.timestamp_ns, b.timestamp_ns)
            assert np.array_equal(a.energy_ev, b.energy_ev)
        assert ma.as_dict() == mb.as_dict()

    def test_streams_sorted_and_in_range(self):
        settings = default_settings()
        settings["run.duration"] = "10 s"
        run = build_run_config(settings)
        s1, s2, _ = simulate_run(run)
        for stream in (s1, s2):
            assert stream.timestamp_ns.dtype == np.uint64
            assert stream.energy_ev.dtype == np.uint32
            assert np.all(np.diff(stream.timestamp_ns.astype(np.int64)) >= 0)
            assert np.all(stream.timestamp_ns % 20 == 0)
            lo, hi = run.experiment.response.energy_range_ev
            assert np.all(stream.energy_ev >= lo)
            assert np.all(stream.energy_ev <= hi)

    def test_detected_pair_rate_plausible(self):
        settings = default_settings()
        settings["run.duration"] = "600 s"
        run = build_run_config(settings)
        _, _, manifest = simulate_run(run)
        rate = manifest.pairs_detected_both / (600.0 / 3600.0)
        assert 60.0 < rate < 220.0

    def test_negative_detuning_generates_no_pairs(self):
        settings = default_settings()
        settings["crystal.detuning"] = "-50 mdeg"
        settings["run.duration"] = "5 s"
        run = build_run_config(settings)
        _, _, manifest = simulate_run(run)
        assert manifest.pairs_generated == 0

    def test_rate_scale_thins_pairs(self):
        settings = quiet_settings()
        settings["run.duration"] = "200 s"
        full = build_run_config(settings)
        settings["crystal.rate_scale"] = "0.25"
        quarter = build_run_config(settings)
        _, _, m_full = simulate_run(full)
        _, _, m_quarter = simulate_run(quarter)
        expected = 0.25 * m_full.pairs_generated
        assert abs(m_quarter.pairs_generated - expected) < 5 * math.sqrt(expected)

    def test_dead_time_filters_close_events(self):
        settings = quiet_settings()
        settings["source.line.fe_ka.rate"] = "2000 /s"
        settings["source.pair_rate"] = "0 /s"
        settings["run.duration"] = "2 s"
        settings["response.dead_time"] = "10 us"
        run = build_run_config(settings)
        s1, _, _ = simulate_run(run)
        gaps = np.diff(s1.timestamp_ns.astype(np.int64))
        assert np.all(gaps >= 10_000)

    def test_truth_counts_follow_dead_time(self):
        settings = quiet_settings(
            **{"source.pair_rate": "2000000 /hr", "run.duration": "600 s"}
        )
        _, _, live = simulate_run(build_run_config(settings))
        settings["response.dead_time"] = "200 us"
        s1, s2, dead = simulate_run(build_run_config(settings))
        assert dead.events_recorded < live.events_recorded
        # no background: every recorded event is a member of a pair
        for det, stream in enumerate((s1, s2)):
            assert len(stream) == dead.pairs_detected_both + dead.singles_detected[det]

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(duration_s=0.0)

    def test_ties_within_a_tick_are_ordered_by_energy(self):
        run = reference_run(**{"run.duration": "60 s", "response.clock_tick": "100 us"})
        for stream in simulate_run(run)[:2]:
            tied = np.diff(stream.timestamp_ns.astype(np.int64)) == 0
            assert tied.sum() > 100  # about 0.04 events per tick
            assert np.all(np.diff(stream.energy_ev.astype(np.int64))[tied] >= 0)

    def test_jitter_past_the_run_ends_records_no_stamp_outside_the_run(self):
        # Members jittered by 10 s fall before 0 and after 60 s; casting
        # those stamps would warn, and keeping them would record them.
        settings = quiet_settings(**{
            "source.pair_rate": "2000000 /hr", "run.duration": "60 s",
            "response.time_jitter_sigma": "10 s",
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s1, s2, manifest = simulate_run(build_run_config(settings))
        for det, stream in enumerate((s1, s2)):
            assert stream.timestamp_ns[-1] <= 60 * 10**9
            # no background: every recorded event is a member of a pair
            assert 0 < len(stream) == manifest.pairs_detected_both + manifest.singles_detected[det]


INSTRUMENT_SETTINGS = {  # every optional detector-chain feature on
    "response.dead_time": "1 us",
    "chain.model": "table",
    "chain.table": "5000:0.35,11000:0.42,17000:0.5",
    "run.current_segments": "1.0,0.96,1.04,0.92,1.06,1.02",
}


class TestEventBudget:
    @pytest.mark.parametrize(
        "overrides", [{}, INSTRUMENT_SETTINGS, {"run.duration": "24 hr"}]
    )
    def test_default_runs_within_budget(self, overrides):
        assert 0 < _expected_photons(reference_run(**overrides)) < _MAX_EXPECTED_EVENTS

    def test_budget_counts_peak_current(self):
        flat = _expected_photons(reference_run())
        peaked = _expected_photons(reference_run(**{"run.current_segments": "3,1"}))
        assert peaked == pytest.approx(1.5 * flat)


class TestSimulatedBytes:
    """The streams and manifest of fixed runs, pinned by sha256."""

    @pytest.mark.parametrize(
        "tick, streams_sha, manifest_sha, csv_sha",
        [
            ("20 ns",
             "fed2a8dcda76b1e98e6e9562979e34673a2d79f451c44299f69a3b86b1d5d1e3",
             "2eb8a1b8f10fd6b4a6fc1d08a87331f6e2f21880d04a93b715020854559a9907",
             "b09668d363f6d1ec8e8983336880aabfa5033bdde5013c5c00a07e60e83243ee"),
            # Many tied timestamps: records at one stamp must be in energy order.
            ("100 us",
             "35db89985c2617cc4355229613bc489dbd2b204b5f20704b3d008fba0beef2ff",
             "50bc42d175926451351a9e94961eec8e51eb1d726c94531552100fd3c6b0763f",
             "960bd5f63e40406f32ee46db8cd9daee3b94a4f6102c2e6a49148a12a9bf0e8e"),
        ],
        ids=["tick-20ns", "tick-100us"],
    )
    def test_instrument_run_bytes(self, tmp_path, tick, streams_sha, manifest_sha, csv_sha):
        run = reference_run(
            **INSTRUMENT_SETTINGS, **{"run.duration": "60 s", "run.seed": "301",
                                      "response.clock_tick": tick}
        )
        s1, s2, manifest = simulate_run(run)
        text = "".join(f"{key} = {value}\n" for key, value in manifest.as_dict().items())
        packed = records(s1, 1).tobytes() + records(s2, 2).tobytes()
        assert hashlib.sha256(packed).hexdigest() == streams_sha
        assert hashlib.sha256(text.encode()).hexdigest() == manifest_sha
        write_events_csv(str(tmp_path / "events.csv"), merge_streams(s1, s2))
        assert hashlib.sha256((tmp_path / "events.csv").read_bytes()).hexdigest() == csv_sha

    def test_peak_memory_per_event(self):
        # float64 (time, energy) column copies of every photon took the
        # peak to 76 B per recorded event and plain columns to 50; one
        # detector at a time, worked on in place, takes it to about 24,
        # and holding no stale float64 array of detector 1 while detector
        # 2 is sorted to about 20.
        run = reference_run(**INSTRUMENT_SETTINGS, **{"run.duration": "60 s"})
        simulate_run(run)  # the first run also fills caches
        tracemalloc.start()
        try:
            s1, s2, _ = simulate_run(run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (len(s1) + len(s2)) <= 22


def reference_dead_time_mask(times_ns: np.ndarray, dead_time_ns: float) -> np.ndarray:
    """The non-paralyzable dead time as one loop over every event."""
    keep = np.ones(len(times_ns), dtype=bool)
    if dead_time_ns <= 0:
        return keep
    last = -math.inf
    for i, t in enumerate(times_ns.astype(np.int64)):
        if t - last < dead_time_ns:
            keep[i] = False
        else:
            last = t
    return keep


GAPS = st.one_of(st.integers(0, 3), st.integers(0, 2_000), st.integers(0, 10**7))


@st.composite
def dead_time_streams(draw):
    """(sorted uint64 timestamps, dead time): ties, bursts, 0 and 1
    events; dead times of 0, fractional, equal to a gap of the stream,
    and longer than the whole stream."""
    offset = draw(st.sampled_from([0, 2**40, 2**62]))
    steps = draw(st.lists(GAPS, max_size=200))
    times = offset + np.cumsum(np.array(steps, dtype=np.uint64), dtype=np.uint64)
    span = int(times[-1] - times[0]) if len(times) else 0
    choices = [
        st.just(0.0),
        st.floats(0.0, 1.0, exclude_min=True),
        st.floats(0.0, 3_000.0),
        st.integers(1, 3_000).map(float),
        st.floats(span + 1.0, 1e18),
    ]
    if len(steps) > 1:
        choices.append(st.sampled_from(steps[1:]).map(float))
    return times, draw(st.one_of(choices))


class TestDeadTimeMask:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(dead_time_streams())
    def test_matches_per_event_loop(self, case):
        times, dead_time = case
        assert np.array_equal(
            _dead_time_mask(times, dead_time), reference_dead_time_mask(times, dead_time)
        )

    def test_gap_equal_to_dead_time_is_kept(self):
        times = np.array([0, 1000, 1999, 2000, 2999, 3000], dtype=np.uint64)
        assert _dead_time_mask(times, 1000.0).tolist() == [
            True, True, False, True, False, True
        ]

    def test_dense_background_at_200_us(self):
        dense = quiet_settings(
            **{"source.line.fe_ka.rate": "3000 /s", "source.pair_rate": "0 /s",
               "run.duration": "60 s"}
        )
        stream, _, _ = simulate_run(build_run_config(dense))
        times = stream.timestamp_ns
        short = np.diff(times.astype(np.int64)) < 200_000
        assert short.mean() > 0.4 and np.sum(short[1:] & short[:-1]) > 10_000  # clusters
        mask = _dead_time_mask(times, 200_000.0)
        assert np.array_equal(mask, reference_dead_time_mask(times, 200_000.0))
        assert 0.3 < 1 - mask.mean() < 0.5  # 1 - 1 / (1 + rate * dead time) = 0.375

    def test_no_per_event_loop(self):
        # 5 M events, no gap under the dead time: a loop over every event
        # takes 10-15 s on a 2-core VM, the vector pass under 0.1 s
        rng = np.random.default_rng(0)
        times = np.cumsum(rng.integers(1_000, 5_000, 5_000_000), dtype=np.uint64)
        start = time.perf_counter()
        mask = _dead_time_mask(times, 1_000.0)
        elapsed = time.perf_counter() - start
        assert mask.all()
        assert elapsed < 1.0


def reference_members_recorded(keep: np.ndarray, order: np.ndarray, live: np.ndarray, members: int):
    """Which of the leading members entries of a block were recorded: the
    dead-time mask carried back through a full inverse of the sort to
    every kept entry, then through the keep mask to the block."""
    survived = np.empty_like(live)
    survived[order] = live
    keep = keep.copy()
    keep[keep] = survived
    return keep[:members]


E_BITS = 2  # the energy bits of the packed keys below


def members_recorded_both_ways(keys, keep, members, dead_time):
    """(_members_recorded, reference) for a block of packed (tick << E_BITS)
    | energy keys whose leading members entries are pair members, after
    the response keep mask, the sort and the dead time (in ticks), as
    simulate_run applies them.  The reference sorts by a stable argsort of
    the keys, members first at a tied key."""
    kept = keys[keep]
    order = np.argsort(kept, kind="stable")
    ordered = np.sort(kept)
    live = _dead_time_mask(ordered >> np.uint64(E_BITS), dead_time)
    member_keys = kept[: np.count_nonzero(keep[:members])]
    return (
        _members_recorded(members, _sorted_members(ordered, member_keys, keep[:members]), live),
        reference_members_recorded(keep, order, live, members),
    )


@st.composite
def member_blocks(draw):
    """(keys, keep mask, leading member count, dead time): a block of pair
    members then background, unsorted, on a coarse grid of ticks and
    energies so that keys tie; dead times from none to longer than the
    block."""
    n = draw(st.integers(0, 60))
    ticks = np.array(draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)), dtype=np.uint64)
    energies = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.uint64)
    keep = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    members = draw(st.integers(0, n))
    dead_time = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0, 7.5, 100.0]))
    return (ticks << np.uint64(E_BITS)) | energies, keep, members, dead_time


class TestMembersRecorded:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(member_blocks())
    def test_matches_full_inverse(self, case):
        new, reference = members_recorded_both_ways(*case)
        assert np.array_equal(new, reference)

    def test_dense_dead_time_run(self):
        # Members dropped by the energy cut, by the dead time, and at keys
        # tied with another kept entry.
        rng = np.random.default_rng(12)
        n, members = 200_000, 20_000
        ticks = rng.integers(0, n // 2, n).astype(np.uint64)
        keys = (ticks << np.uint64(E_BITS)) | rng.integers(0, 4, n).astype(np.uint64)
        keep = rng.random(n) < 0.9
        new, reference = members_recorded_both_ways(keys, keep, members, 2.5)
        assert np.array_equal(new, reference)
        cut = ~keep[:members]
        dead = keep[:members] & ~new
        _, counts = np.unique(keys[keep], return_counts=True)
        tied = np.isin(keys[:members], np.unique(keys[keep])[counts > 1])
        assert cut.sum() > 1000 and dead.sum() > 1000 and (dead & tied).sum() > 1000


class TestThreadMap:
    @pytest.mark.parametrize("cpus", [1, 2, 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 13])
    def test_results_in_input_order(self, monkeypatch, cpus, n):
        monkeypatch.setattr(events, "usable_cpus", lambda: cpus)
        start = threading.active_count()
        assert thread_map(lambda i: i * i, range(n)) == [i * i for i in range(n)]
        assert threading.active_count() == start

    def test_many_threads_switching_often_lose_no_result(self, monkeypatch):
        monkeypatch.setattr(events, "usable_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            squares = thread_map(lambda i: [i * i for _ in range(50)][-1], range(2000))
        finally:
            sys.setswitchinterval(interval)
        assert squares == [i * i for i in range(2000)]

    def test_shares_are_fixed_and_the_caller_runs_share_0(self, monkeypatch):
        monkeypatch.setattr(events, "usable_cpus", lambda: 3)
        threads = thread_map(lambda i: threading.current_thread(), range(7))
        assert threads[0] is threading.current_thread()
        for k in range(3):
            assert len(set(threads[k::3])) == 1
        assert len(set(threads)) == 3

    def test_a_lone_item_runs_on_the_caller(self, monkeypatch):
        monkeypatch.setattr(events, "usable_cpus", lambda: 4)
        start = threading.active_count()
        assert thread_map(lambda i: threading.get_ident(), [0]) == [threading.get_ident()]
        assert threading.active_count() == start

    def test_the_lowest_failing_item_is_raised(self, monkeypatch):
        # Item 1 (thread 1) fails last; items 2 (caller) and 3 (thread 1's
        # next, never run) would fail first.
        monkeypatch.setattr(events, "usable_cpus", lambda: 2)
        start = threading.active_count()

        def work(i):
            if i == 1:
                time.sleep(0.1)
            if i >= 1:
                raise ValueError(f"item {i}")
            return i

        with pytest.raises(ValueError, match="^item 1$"):
            thread_map(work, range(6))
        assert threading.active_count() == start
