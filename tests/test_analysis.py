"""Coincidence analysis: filtering, pairing, maps, fits, rates."""

import math

import numpy as np
import pytest
from scipy import stats

from xpdc.analysis import (
    AnalysisError,
    CoincidenceCriteria,
    RoiSpec,
    analyze,
    build_correlation_map,
    conversion_efficiency,
    energy_peak_centroid,
    find_coincidence_pairs,
    fit_energy_profile,
    fit_gaussian_profile,
    fit_misalignment_scan,
    fit_time_profile,
    roi_rate,
    select_candidates,
)
from xpdc.events import Stream


def make_stream(times_ns, energies_ev):
    return Stream(np.asarray(times_ns, dtype=np.uint64), np.asarray(energies_ev, dtype=np.uint32))


def random_stream(rng, n, horizon_ns=100_000, e_range=(3000, 20000)):
    times = np.sort(rng.integers(0, horizon_ns, n)) * 20 // 20 * 20
    energies = rng.integers(e_range[0], e_range[1], n)
    return make_stream(np.sort(times), energies)


CRIT = CoincidenceCriteria()


class TestSelectCandidates:
    def test_window_boundaries_closed(self):
        stream = make_stream([0, 20, 40, 60], [4900, 5000, 17000, 17100])
        kept = select_candidates(stream, CRIT)
        assert list(kept.energy_ev) == [5000, 17000]

    def test_order_preserving_and_matches_naive(self):
        rng = np.random.default_rng(12)
        stream = random_stream(rng, 10_000)
        kept = select_candidates(stream, CRIT)
        lo, hi = CRIT.single_energy_window_ev
        events = zip(stream.timestamp_ns.tolist(), stream.energy_ev.tolist())
        naive = [(t, e) for t, e in events if lo <= e <= hi]
        assert list(zip(kept.timestamp_ns.tolist(), kept.energy_ev.tolist())) == naive
        assert np.all(np.diff(kept.timestamp_ns.astype(np.int64)) >= 0)

    def test_window_that_keeps_every_event_returns_the_input(self):
        stream = make_stream([0, 20, 40], [5000, 11000, 17000])
        assert select_candidates(stream, CRIT) is stream
        assert select_candidates(make_stream([], []), CRIT).energy_ev.size == 0


def brute_force_pairs(s1, s2, criteria):
    t1 = s1.timestamp_ns.astype(np.int64)[:, None]
    t2 = s2.timestamp_ns.astype(np.int64)[None, :]
    e1 = s1.energy_ev.astype(np.int64)[:, None]
    e2 = s2.energy_ev.astype(np.int64)[None, :]
    ok = (np.abs(t2 - t1) <= criteria.max_abs_dt_ns) & (
        np.abs(e1 + e2 - criteria.sum_center_ev) <= criteria.sum_half_width_ev
    )
    i, j = np.nonzero(ok)
    return sorted(
        zip(
            t1[i, 0].tolist(),
            t2[0, j].tolist(),
            e1[i, 0].tolist(),
            e2[0, j].tolist(),
        )
    )


class TestFindCoincidencePairs:
    def test_empty(self):
        empty = make_stream([], [])
        assert len(find_coincidence_pairs(empty, empty, CRIT)) == 0

    def test_constructed_example(self):
        s1 = make_stream([1000], [11000])
        s2 = make_stream([1100], [11200])
        pairs = find_coincidence_pairs(s1, s2, CRIT)
        assert len(pairs) == 1
        assert pairs[0]["dt_ns"] == 100
        assert pairs[0]["e1_ev"] == 11000 and pairs[0]["e2_ev"] == 11200

    def test_sum_window_boundaries(self):
        # against 11000 eV partners: 11500 sums to the closed edge 22500,
        # 11501/10499 fall one eV outside, 10500 on the lower edge
        s1 = make_stream([1000], [11000])
        s2 = make_stream([900, 950, 1000, 1050], [11500, 11501, 10499, 10500])
        pairs = find_coincidence_pairs(s1, s2, CRIT)
        assert sorted(int(p["e2_ev"]) for p in pairs) == [10500, 11500]

    def test_matches_brute_force_on_random_streams(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            s1 = random_stream(rng, 400, horizon_ns=400_000, e_range=(9000, 13000))
            s2 = random_stream(rng, 400, horizon_ns=400_000, e_range=(9000, 13000))
            pairs = find_coincidence_pairs(s1, s2, CRIT)
            got = sorted(
                zip(
                    pairs["t1_ns"].tolist(),
                    pairs["t2_ns"].tolist(),
                    pairs["e1_ev"].tolist(),
                    pairs["e2_ev"].tolist(),
                )
            )
            assert got == brute_force_pairs(s1, s2, CRIT)

    def test_label_swap_negates_dt(self):
        rng = np.random.default_rng(5)
        s1 = random_stream(rng, 300, horizon_ns=200_000, e_range=(9000, 13000))
        s2 = random_stream(rng, 300, horizon_ns=200_000, e_range=(9000, 13000))
        forward = find_coincidence_pairs(s1, s2, CRIT)
        swapped = find_coincidence_pairs(s2, s1, CRIT)
        assert sorted(forward["dt_ns"].tolist()) == sorted(
            (-swapped["dt_ns"]).tolist()
        )
        assert sorted(forward["t1_ns"].tolist()) == sorted(swapped["t2_ns"].tolist())
        assert sorted(forward["e1_ev"].tolist()) == sorted(swapped["e2_ev"].tolist())

    def test_all_pairs_multiplicity(self):
        s1 = make_stream([1000], [11000])
        s2 = make_stream([900, 1100], [11000, 11000])
        pairs = find_coincidence_pairs(s1, s2, CRIT)
        assert len(pairs) == 2  # one detector-1 event appears twice

    def test_exclusive_matching(self):
        s1 = make_stream([1000], [11000])
        s2 = make_stream([900, 1100], [11000, 11000])
        pairs = find_coincidence_pairs(s1, s2, CRIT, exclusive=True)
        assert len(pairs) == 1


class TestCorrelationMap:
    def test_single_pair_single_bin(self):
        s1 = make_stream([1000], [11050])
        s2 = make_stream([1000], [10950])
        pairs = find_coincidence_pairs(s1, s2, CRIT)
        corr = build_correlation_map(pairs, CRIT, duration_s=1.0)
        assert corr.counts.sum() == 1
        e_bin = np.searchsorted(corr.e_edges_ev, 11050, side="right") - 1
        dt_bin = np.searchsorted(corr.dt_edges_ns, 0, side="right") - 1
        assert corr.counts[e_bin, dt_bin] == 1

    def test_total_counts_equals_accepted_pairs(self):
        rng = np.random.default_rng(8)
        s1 = random_stream(rng, 2000, horizon_ns=10_000_000, e_range=(9000, 13000))
        s2 = random_stream(rng, 2000, horizon_ns=10_000_000, e_range=(9000, 13000))
        pairs = find_coincidence_pairs(s1, s2, CRIT)
        corr = build_correlation_map(pairs, CRIT, duration_s=0.01)
        assert corr.counts.sum() == len(pairs)

    def test_sharding_invariance(self):
        rng = np.random.default_rng(44)
        s1 = random_stream(rng, 1500, horizon_ns=5_000_000, e_range=(9000, 13000))
        s2 = random_stream(rng, 1500, horizon_ns=5_000_000, e_range=(9000, 13000))
        pairs = find_coincidence_pairs(s1, s2, CRIT)
        whole = build_correlation_map(pairs, CRIT, duration_s=0.005)
        half = len(pairs) // 2
        part1 = build_correlation_map(pairs[:half], CRIT, duration_s=0.005)
        part2 = build_correlation_map(pairs[half:], CRIT, duration_s=0.005)
        assert np.array_equal(whole.counts, part1.counts + part2.counts)

    def test_accidental_dt_marginal_is_flat(self):
        # Fluorescence-only simulation with two lines that pair across
        # the sum window: the time-difference marginal must be uniform.
        from xpdc.config import build_run_config, default_settings
        from xpdc.events import simulate_run

        settings = default_settings()
        for key in list(settings):
            if key.startswith("source.") and key.endswith(".rate"):
                settings[key] = "0 /s"
        settings["source.pair_rate"] = "0 /s"
        settings["source.line.fe_ka.rate"] = "600 /s"      # 6.4 keV
        settings["source.line.partner.energy"] = "15.6 keV"
        settings["source.line.partner.fwhm"] = "10 eV"
        settings["source.line.partner.rate"] = "600 /s"
        settings["run.duration"] = "600 s"
        run = build_run_config(settings)
        s1, s2, _ = simulate_run(run)
        corr = analyze(s1, s2, CRIT, run.duration_s).corr_map
        marginal = corr.dt_marginal
        assert marginal.sum() > 1000
        expected = marginal.sum() / len(marginal)
        chi2 = float(((marginal - expected) ** 2 / expected).sum())
        p_value = stats.chi2.sf(chi2, len(marginal) - 1)
        assert p_value > 0.001


def synthetic_map(amplitude=120.0, sigma_ns=212.0, baseline=0.0, rng=None):
    """Map whose dt marginal is an exact (optionally Poisson-fluctuated)
    Gaussian-plus-constant, concentrated in one energy row."""
    from xpdc.analysis import PAIR_DTYPE

    pairs = np.empty(0, dtype=PAIR_DTYPE)
    corr = build_correlation_map(pairs, CRIT, duration_s=1800.0)
    centers = corr.dt_centers_ns
    shape = amplitude * np.exp(-0.5 * (centers / sigma_ns) ** 2) + baseline
    row = np.searchsorted(corr.e_edges_ev, 11000.0) - 1
    if rng is None:
        corr.counts[row, :] = np.rint(shape).astype(np.int64)
    else:
        corr.counts[row, :] = rng.poisson(shape)
    return corr


class TestFitTimeProfile:
    def test_recovers_sigma_on_noiseless_histogram(self):
        corr = synthetic_map(amplitude=40.0, sigma_ns=212.0)
        fit = fit_time_profile(corr)
        assert abs(fit.sigma - 212.0) / 212.0 < 0.05
        assert abs(fit.center) < 10.0

    def test_flat_marginal_amplitude_consistent_with_zero(self):
        rng = np.random.default_rng(31)
        corr = synthetic_map(amplitude=0.0, baseline=5.0, rng=rng)
        fit = fit_time_profile(corr)
        assert abs(fit.amplitude) < 2.0 * fit.amplitude_err + 1e-6

    def test_degenerate_profile_raises(self):
        with pytest.raises(AnalysisError):
            fit_gaussian_profile(np.arange(10.0), np.zeros(10))

    def test_empty_map_raises(self):
        pairs = np.empty(
            0,
            dtype=find_coincidence_pairs(
                make_stream([], []), make_stream([], []), CRIT
            ).dtype,
        )
        corr = build_correlation_map(pairs, CRIT, duration_s=1.0)
        with pytest.raises(AnalysisError):
            fit_time_profile(corr)

    def test_poisson_sampled_recovery(self):
        rng = np.random.default_rng(77)
        corr = synthetic_map(amplitude=3.0, sigma_ns=212.0, baseline=0.05, rng=rng)
        fit = fit_time_profile(corr)
        assert abs(fit.sigma - 212.0) < 40.0
        assert abs(fit.center) < 50.0

    def test_errors_match_numerical_hessian_of_likelihood(self):
        rng = np.random.default_rng(12)
        corr = synthetic_map(amplitude=3.0, sigma_ns=212.0, baseline=0.05, rng=rng)
        x, n = corr.dt_centers_ns, corr.dt_marginal.astype(float)
        fit = fit_time_profile(corr)
        p = np.array([fit.amplitude, fit.center, fit.sigma, fit.baseline])

        def nll(q):
            mu = q[0] * np.exp(-0.5 * ((x - q[1]) / q[2]) ** 2) + q[3]
            return float(np.sum(mu - n * np.log(mu)))

        steps = 1e-4 * np.abs(p)
        hessian = np.empty((4, 4))
        for i in range(4):
            for j in range(4):
                di, dj = np.eye(4)[i] * steps[i], np.eye(4)[j] * steps[j]
                hessian[i, j] = (
                    nll(p + di + dj) - nll(p + di - dj) - nll(p - di + dj) + nll(p - di - dj)
                ) / (4.0 * steps[i] * steps[j])
        errors = np.sqrt(np.diag(np.linalg.inv(hessian)))
        fitted = [fit.amplitude_err, fit.center_err, fit.sigma_err, fit.baseline_err]
        assert np.allclose(fitted, errors, rtol=1e-3)
        # an optimum: no finite-difference step lowers the likelihood
        assert all(nll(p + d) >= nll(p) for d in np.vstack([np.diag(steps), -np.diag(steps)]))

    def test_dip_puts_amplitude_on_its_bound(self):
        counts = np.full(41, 10.0)
        counts[18:23] = 2.0
        fit = fit_gaussian_profile(np.arange(41.0), counts)
        assert fit.amplitude == 0.0
        assert math.isinf(fit.center_err) and math.isinf(fit.sigma_err)
        assert math.isfinite(fit.amplitude_err) and math.isfinite(fit.baseline_err)

    def test_iteration_cap_raises(self, monkeypatch):
        import xpdc.analysis

        corr = synthetic_map(amplitude=40.0, sigma_ns=212.0, baseline=1.0)
        monkeypatch.setattr(xpdc.analysis, "_MAX_ITERATIONS", 1)
        with pytest.raises(AnalysisError, match="did not converge"):
            fit_time_profile(corr)


def peak_streams(n=400, seed=55):
    """Two 1800 s streams holding n true pairs: E1 ~ N(11 keV, 500 eV),
    E1 + E2 = 22 keV, t2 - t1 ~ N(0, 212 ns)."""
    rng = np.random.default_rng(seed)
    e1 = rng.normal(11000.0, 500.0, n)
    dts = rng.normal(0.0, 212.0, n)
    t1 = np.sort(rng.integers(0, 1_800_000_000_000, n))
    s1 = make_stream(t1 // 20 * 20, np.rint(e1).astype(int))
    s2 = make_stream(
        np.sort((t1 + dts).astype(np.int64)) // 20 * 20,
        np.rint(22000.0 - e1).astype(int),
    )
    return s1, s2


class TestEnergyProfile:
    def test_centroid_and_fit_locate_peak(self):
        criteria = CRIT
        s1, s2 = peak_streams()
        # pair i-to-i alignment is lost after the sort; rebuild via pairing
        pairs = find_coincidence_pairs(s1, s2, criteria)
        corr = build_correlation_map(pairs, criteria, duration_s=1800.0)
        centroid = energy_peak_centroid(corr, 640.0, 1100.0)
        fit = fit_energy_profile(corr, 640.0, 1100.0)
        assert abs(centroid - 11000.0) < 150.0
        assert abs(fit.center - 11000.0) < 150.0
        assert abs(fit.sigma - 500.0) < 150.0

    def test_least_squares_fit_matches_curve_fit(self):
        from scipy.optimize import curve_fit

        x = np.arange(5050.0, 17000.0, 100.0)
        rng = np.random.default_rng(21)
        errors = np.full(len(x), 1.5)
        y = 3.0 * np.exp(-0.5 * ((x - 11000.0) / 600.0) ** 2) + rng.normal(0.0, 1.5, len(x))
        fit = fit_gaussian_profile(x, y, errors)

        def model(x, a, c, s, b):
            return a * np.exp(-0.5 * ((x - c) / s) ** 2) + b

        popt, pcov = curve_fit(
            model, x, y, p0=(3.0, 11000.0, 600.0, 0.0), sigma=errors, absolute_sigma=True
        )
        perr = np.sqrt(np.diag(pcov))
        fitted = np.array([fit.amplitude, fit.center, fit.sigma, fit.baseline])
        assert np.all(np.abs(fitted - popt) < 1e-3 * perr)
        fitted_err = [fit.amplitude_err, fit.center_err, fit.sigma_err, fit.baseline_err]
        assert np.allclose(fitted_err, perr, rtol=1e-3)

    def test_no_excess_raises(self):
        corr = synthetic_map(amplitude=0.0, baseline=0.0)
        with pytest.raises(AnalysisError):
            energy_peak_centroid(corr, 640.0, 1100.0)

    @pytest.mark.parametrize(
        "t_half, inner", [(-1.0, 1100.0), (640.0, 5000.0), (640.0, 600.0)]
    )
    def test_empty_or_overlapping_regions_raise(self, t_half, inner):
        corr = synthetic_map(amplitude=30.0, baseline=2.0)
        for stage in (fit_energy_profile, energy_peak_centroid):
            with pytest.raises(AnalysisError):
                stage(corr, t_half, inner)
        with pytest.raises(AnalysisError):
            roi_rate(corr, RoiSpec(t_half_width_ns=t_half, sideband_inner_ns=inner))


class TestRoiRate:
    def test_flat_map_net_consistent_with_zero(self):
        rng = np.random.default_rng(9)
        corr = synthetic_map(amplitude=0.0, baseline=4.0, rng=rng)
        result = roi_rate(corr, RoiSpec())
        assert abs(result.net_rate_per_hr) < 2 * result.net_rate_err_per_hr

    def test_linearity_in_counts(self):
        import dataclasses

        rng = np.random.default_rng(10)
        corr = synthetic_map(amplitude=30.0, baseline=2.0, rng=rng)
        result = roi_rate(corr, RoiSpec())
        doubled = dataclasses.replace(corr, counts=corr.counts * 2)
        result2 = roi_rate(doubled, RoiSpec())
        assert result2.net_rate_per_hr == pytest.approx(2 * result.net_rate_per_hr)
        assert result2.net_rate_err_per_hr == pytest.approx(
            math.sqrt(2) * result.net_rate_err_per_hr
        )

    def test_error_positive_when_counts_present(self):
        rng = np.random.default_rng(11)
        corr = synthetic_map(amplitude=10.0, baseline=1.0, rng=rng)
        result = roi_rate(corr, RoiSpec())
        assert result.roi_counts + result.sideband_counts > 0
        assert result.net_rate_err_per_hr > 0

    def test_overlapping_sidebands_rejected(self):
        corr = synthetic_map(amplitude=10.0)
        with pytest.raises(AnalysisError):
            roi_rate(corr, RoiSpec(t_half_width_ns=1200.0, sideband_inner_ns=1100.0))

    def test_normalization_by_current(self):
        corr = synthetic_map(amplitude=30.0)
        base = roi_rate(corr, RoiSpec())
        corr.mean_current = 2.0
        halved = roi_rate(corr, RoiSpec())
        assert halved.net_rate_per_hr == pytest.approx(base.net_rate_per_hr / 2)


class TestMisalignmentScan:
    def test_two_exact_points(self):
        amplitude = 400.0
        points = [(d, amplitude / math.sqrt(d), 1.0) for d in (5.0, 20.0)]
        fit = fit_misalignment_scan(points)
        assert fit.exponent == pytest.approx(-0.5, abs=1e-12)
        assert fit.amplitude == pytest.approx(amplitude, rel=1e-12)

    def test_noisy_five_point_scan(self):
        rng = np.random.default_rng(2024)
        amplitude = 420.0
        points = []
        for d in (5.0, 10.0, 20.0, 30.0, 50.0):
            rate = amplitude / math.sqrt(d)
            noisy = rate * (1.0 + 0.1 * rng.standard_normal())
            points.append((d, noisy, 0.1 * rate))
        fit = fit_misalignment_scan(points)
        assert abs(fit.exponent + 0.5) < 0.15

    def test_constant_rates_reject_fixed_exponent(self):
        rng = np.random.default_rng(7)
        points = [(d, 100.0 + rng.normal(0, 2.0), 2.0) for d in (5.0, 10.0, 20.0, 40.0)]
        fit = fit_misalignment_scan(points)
        assert abs(fit.exponent) < 0.1
        assert fit.chi2_per_dof_fixed > 10.0

    def test_nonpositive_rates_excluded_with_warning(self):
        points = [( 5.0, 100.0, 5.0), (10.0, -3.0, 5.0), (20.0, 50.0, 5.0)]
        with pytest.warns(UserWarning):
            fit = fit_misalignment_scan(points)
        assert fit.n_used == 2

    def test_too_few_points(self):
        with pytest.raises(AnalysisError):
            fit_misalignment_scan([(10.0, 100.0, 5.0)])
        with pytest.raises(AnalysisError):
            fit_misalignment_scan([(10.0, 100.0, 5.0), (10.0, 120.0, 5.0)])


class TestConversionEfficiency:
    def test_reference_chain(self):
        result = conversion_efficiency(130.0, 0.0382, 0.18, 0.98e13)
        assert abs(result.observable_rate_per_hr - 3400.0) < 300.0
        assert result.total_rate_per_hr == pytest.approx(18900.0, rel=0.05)
        assert result.efficiency == pytest.approx(5.3e-13, rel=0.10)
        assert result.incident_per_pair == pytest.approx(2.7e14, rel=0.05)

    def test_identity(self):
        result = conversion_efficiency(130.0, 1.0, 1.0, 1e13)
        assert result.total_rate_per_hr == 130.0

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            conversion_efficiency(130.0, 0.0, 0.18, 1e13)
        with pytest.raises(AnalysisError):
            conversion_efficiency(130.0, 0.04, 1.5, 1e13)
        with pytest.raises(AnalysisError):
            conversion_efficiency(130.0, 0.04, 0.18, 0.0)
        for net_rate in (math.nan, math.inf, 1e308):  # the last overflows when unfolded
            with pytest.raises(AnalysisError, match="does not unfold to a finite rate"):
                conversion_efficiency(net_rate, 0.04, 0.18, 1e13)


class TestCriteriaValidation:
    def test_horizon_must_cover_five_bins(self):
        with pytest.raises(AnalysisError):
            CoincidenceCriteria(max_abs_dt_ns=80, dt_bin_ns=20)

    def test_sum_window_positive(self):
        with pytest.raises(AnalysisError):
            CoincidenceCriteria(sum_half_width_ev=0.0)


class TestAnalyze:
    def test_roi_follows_time_fit(self):
        s1, s2 = peak_streams()
        result = analyze(
            s1, s2, CRIT, 1800.0, roi=RoiSpec(e_half_width_ev=2000.0),
            roi_sigmas=2.0, sideband_sigmas=4.0,
        )
        sigma = abs(result.time_fit.sigma)
        assert abs(sigma - 212.0) < 40.0
        assert result.roi == RoiSpec(11000.0, 2000.0, 2.0 * sigma, 4.0 * sigma)
        assert result.roi_result == roi_rate(result.corr_map, result.roi)
        assert result.corr_map.counts.sum() == len(result.pairs) >= 390
        assert abs(result.energy_centroid - 11000.0) < 150.0
        assert abs(result.energy_fit.center - 11000.0) < 150.0

    @pytest.mark.parametrize(
        "roi_sigmas, sideband_sigmas",
        [(0.05, 5.0), (3.0, 9.0)],  # under one dt bin; sidebands past 0.9 horizon
    )
    def test_implausible_fitted_roi_falls_back(self, roi_sigmas, sideband_sigmas):
        s1, s2 = peak_streams()
        nominal = RoiSpec(e_half_width_ev=2000.0)
        result = analyze(
            s1, s2, CRIT, 1800.0, roi=nominal,
            roi_sigmas=roi_sigmas, sideband_sigmas=sideband_sigmas,
        )
        assert result.time_fit is not None
        assert result.roi == nominal
        assert result.roi_result == roi_rate(result.corr_map, nominal)

    def test_no_pairs_uses_nominal_roi(self):
        result = analyze(make_stream([], []), make_stream([], []), CRIT, 10.0)
        assert len(result.pairs) == 0
        assert result.time_fit is None and result.energy_fit is None
        assert result.energy_centroid is None
        assert result.roi == RoiSpec()
        assert result.roi_result.roi_counts == 0

    @pytest.mark.parametrize("times", [[100, 40], [0, 2**63]], ids=["decreasing", "past-int64"])
    @pytest.mark.parametrize("which", [0, 1])
    def test_unsorted_input_rejected(self, times, which):
        streams = [make_stream([0], [11000]), make_stream([0], [11000])]
        streams[which] = make_stream(times, [6000, 6000])
        with pytest.raises(AnalysisError, match=f"stream{which + 1} is not time-ordered"):
            analyze(*streams, CRIT, 1.0)

    def test_exclusive_keeps_each_event_once(self):
        s1 = make_stream([1000, 1020], [11000, 11000])
        s2 = make_stream([1000], [11000])
        assert len(analyze(s1, s2, CRIT, 1.0).pairs) == 2
        assert len(analyze(s1, s2, CRIT, 1.0, exclusive=True).pairs) == 1
