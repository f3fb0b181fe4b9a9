"""Coincidence analysis: filtering, pairing, maps, fits, rates."""

import math
from unittest import mock

import numpy as np
import pytest
from scipy import stats

from xpdc import analysis, events
from xpdc.analysis import (
    AnalysisError,
    CoincidenceCriteria,
    RoiSpec,
    WindowLimitError,
    analyze,
    build_correlation_map,
    conversion_efficiency,
    correlate,
    energy_peak_centroid,
    find_coincidence_pairs,
    fit_gaussian_profile,
    fit_misalignment_scan,
    fit_time_profile,
    measure,
    roi_rate,
    select_candidates,
)
from xpdc.events import Stream
from xpdc.listmode import merge_streams, split_streams


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

    def test_unordered_stream_cannot_be_paired(self):
        # Pairing bisects stream 2 by time, so unordered streams would lose
        # pairs (these two have 2); such a Stream cannot be built.
        with pytest.raises(ValueError, match="decrease or reach 2"):
            find_coincidence_pairs(
                Stream([5000, 1000], [11000, 11000]), Stream([1000, 5000], [11000, 11000]), CRIT
            )

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


def greedy_loop(pairs, idx1, idx2):
    """The exclusive matching, pair by pair: pairs in stable |dt| order,
    each kept while neither of its events is used."""
    order = np.argsort(np.abs(pairs["dt_ns"]), kind="stable")
    used1: set[int] = set()
    used2: set[int] = set()
    keep = []
    for k in order:
        i, j = int(idx1[k]), int(idx2[k])
        if i in used1 or j in used2:
            continue
        used1.add(i)
        used2.add(j)
        keep.append(k)
    keep.sort()
    return pairs[keep]


def dense_streams(seed, n=300, ticks=1000):
    """Streams of n events each at distinct 20 ns ticks of a 20 us span,
    every energy summing into the window: each event has about 60
    partners, and many pairs tie in |dt|."""
    rng = np.random.default_rng(seed)
    return [
        make_stream(np.sort(rng.choice(ticks, n, replace=False)) * 20, np.full(n, 11000))
        for _ in range(2)
    ]


class TestBlockedPairing:
    @pytest.mark.parametrize("seed", [7, 8])
    @pytest.mark.parametrize("block", [3, 1 << 15])
    def test_dense_exclusive_equals_greedy_loop(self, seed, block):
        s1, s2 = dense_streams(seed)
        with mock.patch.object(analysis, "_PAIR_BLOCK", block):
            every = find_coincidence_pairs(s1, s2, CRIT)
            kept = find_coincidence_pairs(s1, s2, CRIT, exclusive=True)
        assert len(every) > 40 * len(kept) > 0
        # Stamps are distinct within each stream, so they give back the events.
        idx1 = np.searchsorted(s1.timestamp_ns, every["t1_ns"].astype(np.uint64))
        idx2 = np.searchsorted(s2.timestamp_ns, every["t2_ns"].astype(np.uint64))
        assert kept.tobytes() == greedy_loop(every, idx1, idx2).tobytes()

    @pytest.mark.parametrize("exclusive", [False, True])
    def test_pairs_and_split_do_not_depend_on_cpu_count(self, exclusive):
        rng = np.random.default_rng(21)
        s1 = random_stream(rng, 500, horizon_ns=200_000, e_range=(9000, 13000))
        s2 = random_stream(rng, 500, horizon_ns=200_000, e_range=(9000, 13000))
        records = merge_streams(s1, s2)
        results = []
        for cpus in (1, 4):  # 4: more threads than this test may have CPUs
            with mock.patch.object(events, "usable_cpus", return_value=cpus), \
                    mock.patch.object(analysis, "_PAIR_BLOCK", 16):
                split = split_streams(records, 2)
                pairs = find_coincidence_pairs(*split, CRIT, exclusive=exclusive)
            columns = [column for s in split for column in (s.timestamp_ns, s.energy_ev)]
            results.append([array.tobytes() for array in (pairs, *columns)])
        assert len(pairs) > 20
        assert results[0] == results[1]

    @pytest.mark.parametrize("exclusive", [False, True])
    def test_empty_stream_on_either_side(self, exclusive):
        empty = make_stream([], [])
        full = make_stream(np.arange(10) * 500, np.full(10, 11000))
        with mock.patch.object(analysis, "_PAIR_BLOCK", 2):
            for s1, s2 in ((empty, full), (full, empty)):
                pairs = find_coincidence_pairs(s1, s2, CRIT, exclusive=exclusive)
                assert pairs.dtype == analysis.PAIR_DTYPE and len(pairs) == 0

    def test_window_limit_counts_each_block_before_its_pairs(self, monkeypatch):
        # Three keys each see the same four stream-2 events: 12 candidates,
        # counted whether or not their energies sum into the window.
        s1 = make_stream([0, 0, 0], [11000] * 3)
        for e2 in (11000, 1000):
            s2 = make_stream([0, 10, 20, 30], [e2] * 4)
            monkeypatch.setattr(analysis, "_MAX_WINDOW_PAIRS", 12)
            assert len(find_coincidence_pairs(s1, s2, CRIT)) == (12 if e2 == 11000 else 0)
            monkeypatch.setattr(analysis, "_MAX_WINDOW_PAIRS", 11)
            with pytest.raises(WindowLimitError, match=(
                "^a pairing block of 3 events has 12 time-window candidates, "
                "over the limit of 11$"
            )):
                find_coincidence_pairs(s1, s2, CRIT)

    def test_window_limit_names_the_first_block_over_it(self, monkeypatch):
        # One key per block; the blocks have 2, 3 and 4 candidates and run
        # on three threads, the last ones first.
        monkeypatch.setattr(analysis, "_PAIR_BLOCK", 1)
        monkeypatch.setattr(analysis, "_MAX_WINDOW_PAIRS", 1)
        monkeypatch.setattr(events, "usable_cpus", lambda: 3)
        s1 = make_stream([0, 10**6, 2 * 10**6], [11000] * 3)
        s2 = make_stream([0, 1] + [10**6] * 3 + [2 * 10**6] * 4, [11000] * 9)
        with pytest.raises(WindowLimitError, match="^a pairing block of 1 events has 2 "):
            find_coincidence_pairs(s1, s2, CRIT)

    def test_windows_reaching_past_the_top_stamp(self):
        top = 2**63 - 1
        s1 = make_stream([top - 3000, top - 1], [11000, 11000])
        s2 = make_stream([top - 1000, top], [11000, 11000])
        pairs = find_coincidence_pairs(s1, s2, CRIT)
        assert pairs[["t1_ns", "t2_ns"]].tolist() == [
            (top - 3000, top - 1000), (top - 1, top - 1000), (top - 1, top)
        ]


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
        whole = build_correlation_map(pairs, CRIT, duration_s=5.0, mean_current=0.9)
        half = len(pairs) // 2
        part1 = build_correlation_map(pairs[:half], CRIT, duration_s=2.0, mean_current=0.9)
        part2 = build_correlation_map(pairs[half:], CRIT, duration_s=3.0, mean_current=0.9)
        total = part1 + part2
        assert np.array_equal(whole.counts, total.counts)
        assert (total.duration_s, total.mean_current) == (5.0, 0.9)

    @pytest.mark.parametrize(
        "criteria, mean_current",
        [
            (CRIT, 0.9),
            (CoincidenceCriteria(single_energy_window_ev=(5100.0, 17100.0)), 1.0),
            (CoincidenceCriteria(e_bin_ev=200), 1.0),
            (CoincidenceCriteria(max_abs_dt_ns=1000), 1.0),
        ],
        ids=["mean-current", "shifted-e-edges", "e-bin", "horizon"],
    )
    def test_maps_of_other_edges_or_current_do_not_add(self, criteria, mean_current):
        empty = np.empty(0, analysis.PAIR_DTYPE)
        other = build_correlation_map(empty, criteria, 1.0, mean_current)
        with pytest.raises(AnalysisError, match="different edges or mean current"):
            build_correlation_map(empty, CRIT, 1.0) + other

    @pytest.mark.parametrize("horizon, dt_bin", [(2000, 30), (2010, 20), (1999, 7), (2000, 20)])
    def test_dt_bin_centers_are_symmetric_about_zero_within_the_horizon(self, horizon, dt_bin):
        criteria = CoincidenceCriteria(max_abs_dt_ns=horizon, dt_bin_ns=dt_bin)
        empty = np.empty(0, analysis.PAIR_DTYPE)
        centers = build_correlation_map(empty, criteria, 1.0).dt_centers_ns
        assert np.array_equal(centers, -centers[::-1])
        assert 0.0 in centers
        # Every multiple of the bin within the horizon, and no other.
        assert centers[-1] <= horizon < centers[-1] + dt_bin

    @pytest.mark.parametrize(
        "criteria",
        [
            CoincidenceCriteria(single_energy_window_ev=(0.0, math.inf)),
            CoincidenceCriteria(single_energy_window_ev=(5000.0, 1e303)),
            CoincidenceCriteria(max_abs_dt_ns=4 * 10**18),
        ],
        ids=["infinite-window", "1e303-window", "4e18-horizon"],
    )
    def test_map_too_large_to_count_in_ints_is_refused(self, criteria):
        with pytest.raises(AnalysisError, match="bins is over the limit of 16777216"):
            build_correlation_map(np.empty(0, analysis.PAIR_DTYPE), criteria, 1.0)

    def test_bin_limit_counts_the_bins_built(self, monkeypatch):
        # The default map has 120 x 201 bins; the limit admits exactly that many.
        monkeypatch.setattr(analysis, "_MAX_MAP_BINS", 120 * 201)
        empty = np.empty(0, analysis.PAIR_DTYPE)
        assert build_correlation_map(empty, CRIT, 1.0).counts.shape == (120, 201)
        wider = CoincidenceCriteria(single_energy_window_ev=(5000.0, 17000.5))
        with pytest.raises(AnalysisError, match=r"2\.43e\+04 bins is over the limit of 24120"):
            build_correlation_map(empty, wider, 1.0)

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

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_counts_below_zero_raise(self, bad):
        counts = np.full(10, 3.0)
        counts[4] = bad
        with pytest.raises(AnalysisError, match="counts must be >= 0"):
            fit_gaussian_profile(np.arange(10.0), counts)

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

    def test_fit_records_the_parameters_on_a_bound(self):
        x = np.arange(41.0)
        peak = np.random.default_rng(1).poisson(100 * np.exp(-0.5 * ((x - 20) / 4) ** 2) + 5)
        spike = np.ones(41)
        spike[20] = 30.0
        # A rising ramp, with no flat floor: the baseline ends on its least.
        fits = [fit_gaussian_profile(x, counts) for counts in (peak, spike, x + 1)]
        assert [fit.on_bound for fit in fits] == [(0, 0, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)]
        assert fits[1].sigma == 0.5

    def test_sparse_profile_reaches_lower_optimum(self):
        # 8 pairs in the time profile: from the moment seeds alone the fit
        # stopped at a half likelihood-ratio chi^2 of 14.600 (sigma 202 ns);
        # the grid start reaches 14.062 (center 83 ns, sigma 98 ns).
        from xpdc.config import build_run_config, default_settings
        from xpdc.events import simulate_run

        settings = default_settings()
        settings.update({"crystal.detuning": "50 mdeg", "run.duration": "600 s", "run.seed": "6"})
        s1, s2, _ = simulate_run(build_run_config(settings))
        corr = analyze(s1, s2, CRIT, 600.0).corr_map
        x, y = corr.dt_centers_ns, corr.dt_marginal.astype(np.float64)
        fit = fit_time_profile(corr)
        mu = fit.amplitude * np.exp(-0.5 * ((x - fit.center) / fit.sigma) ** 2) + fit.baseline
        loss = np.sum(mu - y + y * np.log(np.where(y > 0, y, 1.0) / mu))
        assert y.sum() == 8 and loss <= 14.07

    @pytest.mark.parametrize("seed", [35, 101, 164, 166])
    def test_dense_profile_fitted_at_planted_center(self, seed):
        # A 212 ns peak of about 2200 pairs on a floor of 700 pairs per bin,
        # like the high-background benchmark map.  At these seeds the
        # moment seeds alone led to a noise spike or the window edge.
        corr = synthetic_map(
            amplitude=85.0, sigma_ns=212.0, baseline=700.0, rng=np.random.default_rng(seed)
        )
        fit = fit_time_profile(corr)
        assert abs(fit.center) < 3.0 * fit.center_err < 100.0
        assert abs(fit.sigma - 212.0) < 3.0 * fit.sigma_err

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


def planted_pairs_map(e1_ev, rng):
    """Map of pairs with the given E1 values and t2 - t1 ~ N(0, 212 ns)
    on 20 ns ticks, E1 + E2 = 22 keV, and no accidentals."""
    from xpdc.analysis import PAIR_DTYPE

    pairs = np.zeros(len(e1_ev), dtype=PAIR_DTYPE)
    pairs["e1_ev"] = np.rint(e1_ev)
    pairs["e2_ev"] = 22000 - pairs["e1_ev"]
    pairs["dt_ns"] = 20 * np.rint(rng.normal(0.0, 212.0, len(e1_ev)) / 20.0)
    return build_correlation_map(pairs, CRIT, duration_s=1800.0)


class TestEnergyProfile:
    def test_centroid_locates_peak(self):
        criteria = CRIT
        s1, s2 = peak_streams()
        # pair i-to-i alignment is lost after the sort; rebuild via pairing
        pairs = find_coincidence_pairs(s1, s2, criteria)
        corr = build_correlation_map(pairs, criteria, duration_s=1800.0)
        centroid, error = energy_peak_centroid(
            corr, RoiSpec(t_half_width_ns=640.0, sideband_inner_ns=1100.0)
        )
        assert abs(centroid - 11000.0) < 150.0
        # about 500 eV / sqrt(400 pairs)
        assert 20.0 < error < 30.0

    # Pulls (centroid - planted mean) / error over 100 toy maps of 400
    # planted pairs each, no accidentals.  These bounds are fixed: a
    # change that leaves them is a finding, not a reason to widen them.
    PULL_MEAN_BOUND = 0.25
    PULL_WIDTH_RANGE = (0.85, 1.15)

    @pytest.mark.parametrize(
        "shape, mean_ev",
        [
            (lambda rng, n: rng.normal(11000.0, 500.0, n), 11000.0),
            # the split window of the default geometry: uniform in x
            (lambda rng, n: rng.uniform(9580.0, 12260.0, n), 10920.0),
        ],
        ids=["gaussian", "box"],
    )
    def test_centroid_error_pulls(self, shape, mean_ev):
        rng = np.random.default_rng(2024)
        pulls = []
        for _ in range(100):
            corr = planted_pairs_map(shape(rng, 400), rng)
            centroid, error = energy_peak_centroid(
                corr, RoiSpec(t_half_width_ns=640.0, sideband_inner_ns=1100.0)
            )
            pulls.append((centroid - mean_ev) / error)
        assert abs(np.mean(pulls)) < self.PULL_MEAN_BOUND
        lo, hi = self.PULL_WIDTH_RANGE
        assert lo < np.std(pulls, ddof=1) < hi

    @pytest.mark.parametrize("count", [1, 9, 400])
    def test_one_bin_excess_has_the_within_bin_error(self, count):
        # Each pair sits anywhere in its 100 eV bin: the centroid's error is
        # the bin's uniform spread over count pairs, not 0.
        from xpdc.analysis import PAIR_DTYPE

        pairs = np.zeros(count, dtype=PAIR_DTYPE)
        pairs["e1_ev"], pairs["e2_ev"] = 11020, 10980
        corr = build_correlation_map(pairs, CRIT, duration_s=1800.0)
        centroid, error = energy_peak_centroid(
            corr, RoiSpec(t_half_width_ns=640.0, sideband_inner_ns=1100.0)
        )
        assert centroid == 11050.0
        assert error == pytest.approx(CRIT.e_bin_ev / math.sqrt(12 * count))

    def test_no_excess_raises(self):
        corr = synthetic_map(amplitude=0.0, baseline=0.0)
        with pytest.raises(AnalysisError):
            energy_peak_centroid(corr, RoiSpec(t_half_width_ns=640.0, sideband_inner_ns=1100.0))

    @pytest.mark.parametrize(
        "t_half, inner", [(-1.0, 1100.0), (640.0, 5000.0), (640.0, 600.0)]
    )
    def test_empty_or_overlapping_regions_raise(self, t_half, inner):
        corr = synthetic_map(amplitude=30.0, baseline=2.0)
        with pytest.raises(AnalysisError):
            energy_peak_centroid(corr, RoiSpec(t_half_width_ns=t_half, sideband_inner_ns=inner))
        with pytest.raises(AnalysisError):
            roi_rate(corr, RoiSpec(t_half_width_ns=t_half, sideband_inner_ns=inner))


class TestRoiRate:
    def test_flat_map_net_consistent_with_zero(self):
        rng = np.random.default_rng(9)
        corr = synthetic_map(amplitude=0.0, baseline=4.0, rng=rng)
        result = roi_rate(corr, RoiSpec())
        assert abs(result.net_rate_per_hr) < 2 * result.net_rate_err_per_hr

    def test_linearity_in_counts(self):
        rng = np.random.default_rng(10)
        corr = synthetic_map(amplitude=30.0, baseline=2.0, rng=rng)
        result = roi_rate(corr, RoiSpec())
        doubled = corr._replace(counts=corr.counts * 2)
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
        corr = corr._replace(mean_current=2.0)
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

    @pytest.mark.parametrize(
        "point, message",
        [
            ((10.0, -3.0, 5.0), "rates must be > 0"),
            ((10.0, 0.0, 5.0), "rates must be > 0"),
            ((10.0, math.nan, 5.0), "rates must be > 0"),
            ((0.0, 80.0, 5.0), "detunings must be > 0"),
            ((10.0, 80.0, 0.0), "rate errors must be > 0"),
        ],
        ids=["negative-rate", "zero-rate", "nan-rate", "zero-detuning", "zero-rate-error"],
    )
    def test_nonpositive_values_are_refused(self, point, message):
        with pytest.raises(AnalysisError, match=message):
            fit_misalignment_scan([(5.0, 100.0, 5.0), point, (20.0, 50.0, 5.0)])

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

    def test_horizon_must_be_below_2_62(self):
        with pytest.raises(AnalysisError, match=r"^pairing horizon must be below 2\*\*62 ns$"):
            CoincidenceCriteria(max_abs_dt_ns=2**62)
        # The widest horizon allowed pairs stamps from 0 to 2**63 - 1.
        widest = CoincidenceCriteria(max_abs_dt_ns=2**62 - 1)
        s1 = make_stream([0, 2**63 - 1], [11000, 11000])
        s2 = make_stream([2**62 - 1, 2**63 - 1], [11000, 11000])
        assert find_coincidence_pairs(s1, s2, widest)["dt_ns"].tolist() == [2**62 - 1, 0]

    def test_sum_window_positive(self):
        with pytest.raises(AnalysisError):
            CoincidenceCriteria(sum_half_width_ev=0.0)

    @pytest.mark.parametrize(
        "center, half_width",
        [(math.nan, 500.0), (math.inf, 500.0), (-math.inf, 500.0), (22000.0, math.nan),
         (22000.0, math.inf)],
    )
    def test_sum_window_finite(self, center, half_width):
        # A nan window would pair nothing, an infinite half-width everything.
        with pytest.raises(AnalysisError, match="must be finite"):
            CoincidenceCriteria(sum_center_ev=center, sum_half_width_ev=half_width)


def planted_streams(true_pairs: int, flat_pairs: int, seed: int):
    """Two streams of pairs 1 s apart, all inside the windows: E1 ~ N(11
    keV, 500 eV), E1 + E2 = 22 keV, and t2 - t1 ~ N(0, 212 ns) for the
    true pairs, uniform over the pairing horizon for the flat ones."""
    rng = np.random.default_rng(seed)
    dts = np.concatenate(
        [rng.normal(0.0, 212.0, true_pairs), rng.uniform(-1990.0, 1990.0, flat_pairs)]
    )
    e1 = np.rint(rng.normal(11000.0, 500.0, len(dts)))
    t1 = (np.arange(len(dts)) + 1) * 10**9
    return make_stream(t1, e1), make_stream(t1 + 20 * np.rint(dts / 20.0).astype(int), 22000 - e1)


class TestAnalyze:
    @pytest.mark.parametrize("true_pairs", [2, 3])
    def test_sparse_time_fit_keeps_the_given_roi(self, true_pairs):
        # On 100 flat pairs, 6 of these 16 fits passed the width checks
        # with amplitude under twice its error, as narrow as 10 ns: an ROI
        # of +-30 ns that held none of the true pairs.
        nominal = RoiSpec(e_half_width_ev=2000.0)
        for seed in range(1, 9):
            result = analyze(*planted_streams(true_pairs, 100, seed), CRIT, 1800.0, roi=nominal)
            assert result.time_fit is not None
            assert result.roi == nominal

    def test_thirty_true_pairs_keep_the_fitted_roi(self):
        for seed in range(1, 9):
            result = analyze(
                *planted_streams(30, 100, seed), CRIT, 1800.0, roi=RoiSpec(e_half_width_ev=2000.0)
            )
            fit = result.time_fit
            assert fit.amplitude >= 2 * fit.amplitude_err
            assert result.roi == RoiSpec(e_half_width_ev=2000.0).fitted(fit.sigma)

    def test_roi_follows_time_fit(self):
        s1, s2 = peak_streams()
        result = analyze(
            s1, s2, CRIT, 1800.0,
            roi=RoiSpec(e_half_width_ev=2000.0, roi_sigmas=2.0, sideband_sigmas=4.0),
        )
        sigma = abs(result.time_fit.sigma)
        assert abs(sigma - 212.0) < 40.0
        assert result.roi == RoiSpec(11000.0, 2000.0, 2.0 * sigma, 4.0 * sigma, 2.0, 4.0)
        assert result.roi_result == roi_rate(result.corr_map, result.roi)
        assert result.corr_map.counts.sum() >= 390
        assert abs(result.energy_centroid - 11000.0) < 150.0
        assert (result.energy_centroid, result.energy_centroid_err) == energy_peak_centroid(
            result.corr_map, result.roi
        )

    @pytest.mark.parametrize(
        "roi_sigmas, sideband_sigmas",
        [(0.05, 5.0), (3.0, 9.0)],  # under one dt bin; sidebands past 0.9 horizon
    )
    def test_implausible_fitted_roi_falls_back(self, roi_sigmas, sideband_sigmas):
        s1, s2 = peak_streams()
        nominal = RoiSpec(
            e_half_width_ev=2000.0, roi_sigmas=roi_sigmas, sideband_sigmas=sideband_sigmas
        )
        result = analyze(s1, s2, CRIT, 1800.0, roi=nominal)
        assert result.time_fit is not None
        assert result.roi == nominal
        assert result.roi_result == roi_rate(result.corr_map, nominal)

    @pytest.mark.parametrize(
        "on_bound, roi_from, reported",
        [
            ((0, 0, 0, 0), "fit", None),
            ((0, 0, 0, -1), "fit", None),  # the baseline's floor
            ((0, 0, -1, 0), "fit", "sigma"),  # narrower than half a dt bin
            ((0, 0, 1, 0), "given", "sigma"),
            ((0, -1, 0, 0), "given", "center"),
            ((0, 1, 0, 0), "given", "center"),
            ((0, 1, 1, 0), "given", "center,sigma"),
        ],
    )
    def test_time_fit_on_a_bound_sets_the_roi_only_with_sigma_at_its_least(
        self, monkeypatch, on_bound, roi_from, reported
    ):
        s1, s2 = peak_streams()
        fit = analyze(s1, s2, CRIT, 1800.0).time_fit._replace(on_bound=on_bound)
        monkeypatch.setattr(analysis, "fit_time_profile", lambda corr_map: fit)
        result = analyze(s1, s2, CRIT, 1800.0)
        assert result.roi_from == roi_from
        assert result.summary().get("time_fit_on_bound") == reported

    def test_analyze_is_correlate_then_measure(self):
        s1, s2 = peak_streams()
        roi = RoiSpec(e_half_width_ev=2000.0, roi_sigmas=2.0, sideband_sigmas=4.0)
        corr_map = correlate(s1, s2, CRIT, 1800.0, 0.9, exclusive=True)
        measured = measure(corr_map, roi)
        result = analyze(s1, s2, CRIT, 1800.0, 0.9, roi, exclusive=True)
        assert measured.events is None
        assert "events_d1" not in measured.summary()
        assert np.array_equal(result.corr_map.counts, corr_map.counts)
        assert result.summary() == {
            "events_d1": str(len(s1)), "events_d2": str(len(s2)), **measured.summary()
        }

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"roi": RoiSpec(roi_sigmas=0.0)}, "0 < roi_sigmas < sideband_sigmas"),
            ({"roi": RoiSpec(roi_sigmas=-2.0, sideband_sigmas=-1.0)}, "0 < roi_sigmas"),
            ({"roi": RoiSpec(roi_sigmas=math.nan)}, "0 < roi_sigmas"),
            ({"roi": RoiSpec(sideband_sigmas=3.0)}, "0 < roi_sigmas"),
            ({"roi": RoiSpec(roi_sigmas=5.0, sideband_sigmas=3.0)}, "0 < roi_sigmas"),
            ({"roi": RoiSpec(sideband_sigmas=math.inf)}, "0 < roi_sigmas"),
            ({"roi": RoiSpec(e_center_ev=math.nan)}, "roi.e_center_ev must be finite"),
            ({"roi": RoiSpec(e_center_ev=-math.inf)}, "roi.e_center_ev must be finite"),
            ({"roi": RoiSpec(e_half_width_ev=0.0)}, "roi.e_center_ev must be finite"),
            ({"roi": RoiSpec(e_half_width_ev=math.inf)}, "roi.e_center_ev must be finite"),
            ({"roi": RoiSpec(e_center_ev=30000.0)}, "holds no E1 bin center"),
        ],
    )
    def test_bad_settings_are_refused_before_the_streams_are_used(
        self, monkeypatch, settings, message
    ):
        def untouched(*args, **kwargs):
            raise AssertionError("a stream was used before the settings were checked")

        monkeypatch.setattr(analysis, "select_candidates", untouched)
        s = make_stream([0], [11000])
        with pytest.raises(AnalysisError, match=message):
            analyze(s, s, CRIT, 1.0, **settings)

    # Narrower than one dt bin, and sidebands past the pairing horizon.
    UNUSABLE_ROI = RoiSpec(e_half_width_ev=2000.0, t_half_width_ns=10.0, sideband_inner_ns=5000.0)

    def test_fitted_roi_replaces_a_given_roi_that_could_not_be_used(self):
        s1, s2 = peak_streams()
        roi = self.UNUSABLE_ROI._replace(roi_sigmas=2.0, sideband_sigmas=4.0)
        result = analyze(s1, s2, CRIT, 1800.0, roi=roi)
        assert result.roi_from == "fit"
        assert result.roi == RoiSpec(11000.0, 2000.0, 2.0 * abs(result.time_fit.sigma),
                                     4.0 * abs(result.time_fit.sigma), 2.0, 4.0)

    @pytest.mark.parametrize("t_half_width", [19.5, math.nan])
    def test_given_roi_narrower_than_a_dt_bin_is_refused_where_it_is_used(self, t_half_width):
        # With no pairs there is no time fit, so the given ROI would be used.
        no_events = make_stream([], [])
        roi = RoiSpec(t_half_width_ns=t_half_width)
        with pytest.raises(AnalysisError, match=r"roi.t_half_width_ns = \S+ is under criteria"):
            analyze(no_events, no_events, CRIT, 10.0, roi=roi)

    def test_no_pairs_uses_nominal_roi(self):
        result = analyze(make_stream([], []), make_stream([], []), CRIT, 10.0)
        assert result.corr_map.counts.sum() == 0
        assert result.time_fit is None
        assert result.energy_centroid is None and result.energy_centroid_err is None
        assert result.roi == RoiSpec()
        assert result.roi_result.roi_counts == 0

    @pytest.mark.parametrize("times", [[100, 40], [0, 2**63]], ids=["decreasing", "past-int64"])
    @pytest.mark.parametrize("which", [0, 1])
    def test_unsorted_input_rejected(self, times, which):
        # Unordered stamps cannot make a Stream, so analyze never sees them.
        streams = [make_stream([0], [11000]), make_stream([0], [11000])]
        with pytest.raises(ValueError, match=r"^Stream timestamps decrease or reach 2\*\*63 ns$"):
            streams[which] = make_stream(times, [6000, 6000])

    def test_given_streams_are_not_checked_again(self, monkeypatch):
        # Only a Stream the candidate cut makes shorter is built, and checked.
        checked = []
        in_order = events.stamps_in_order

        def counted(stamps):
            checked.append(len(stamps))
            return in_order(stamps)

        s1 = make_stream([0, 20, 40], [11000, 11000, 11000])
        s2 = make_stream([0, 20, 40], [11000, 11000, 30000])
        monkeypatch.setattr(events, "stamps_in_order", counted)
        analyze(s1, s1, CRIT, 1.0)
        assert checked == []
        analyze(s1, s2, CRIT, 1.0)
        assert checked == [2]
        assert not hasattr(analysis, "stamps_in_order")

    def test_exclusive_keeps_each_event_once(self):
        s1 = make_stream([1000, 1020], [11000, 11000])
        s2 = make_stream([1000], [11000])
        assert analyze(s1, s2, CRIT, 1.0).corr_map.counts.sum() == 2
        assert analyze(s1, s2, CRIT, 1.0, exclusive=True).corr_map.counts.sum() == 1
