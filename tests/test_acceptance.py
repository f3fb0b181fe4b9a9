"""Acceptance suite: the eight exit criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail
line per criterion.  Statistical criteria run at fixed seeds; each
bound is the stated tolerance, not a recalibrated one.
"""

import math

import numpy as np
import pytest
from scipy import stats

from xpdc.analysis import (
    CoincidenceCriteria,
    RoiSpec,
    analyze,
    conversion_efficiency,
    find_coincidence_pairs,
    fit_misalignment_scan,
    roi_rate,
)
from xpdc.config import build_run_config, config_hash, default_settings
from xpdc.events import Stream, simulate_run
from xpdc.listmode import (
    EVENT_DTYPE, ListModeHeader, merge_streams, read_listmode, split_streams, write_listmode,
)
from xpdc.physics import DEG, MDEG, emission_angles, polarization_suppression

THETA_B = math.radians(84.1) / 2
CRITERIA = CoincidenceCriteria()


def emission_angle_approx(x: float, detuning_rad: float, theta_b_rad: float) -> float:
    """The paper's small-angle emission offset from the Laue direction of a
    signal photon carrying energy fraction x of the pump, in radians:
    R(x) = sqrt(2 * detuning * ((1 - x) / x) * sin(2 theta_B))."""
    return math.sqrt(2.0 * detuning_rad * ((1.0 - x) / x) * math.sin(2.0 * theta_b_rad))


def report(number, name, checks):
    ok = all(passed for _, passed, _ in checks)
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    for label, passed, detail in checks:
        print(f"    [{'ok' if passed else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {number} ({name}) failed"


def simulate_and_analyze(run, roi_e_half_ev=1500.0):
    """Simulate one run and push it through the analysis pipeline."""
    stream1, stream2, manifest = simulate_run(run)
    result = analyze(
        stream1,
        stream2,
        CRITERIA,
        run.duration_s,
        run.beam_current_profile.mean,
        roi=RoiSpec(e_half_width_ev=roi_e_half_ev),
    )
    return manifest, result


@pytest.fixture(scope="module")
def reference_run_result():
    settings = default_settings()
    settings["run.duration"] = "1800 s"
    settings["run.seed"] = "3"
    return simulate_and_analyze(build_run_config(settings))


def test_criterion_1_geometry():
    r_deg = emission_angle_approx(0.5, 10 * MDEG, THETA_B) / DEG
    report(
        1,
        "degenerate emission angle",
        [("R(0.5, 10 mdeg, 84.1 deg)", abs(r_deg - 1.07) <= 0.01, f"{r_deg:.4f} deg vs 1.07 +/- 0.01")],
    )


def test_criterion_2_oracle_agreement():
    worst = 0.0
    where = None
    for detuning_mdeg in np.linspace(1.0, 50.0, 50):
        detuning = float(detuning_mdeg) * MDEG
        for x in np.linspace(0.23, 0.77, 50):
            approx = emission_angle_approx(float(x), detuning, THETA_B)
            exact = emission_angles(float(x), detuning, THETA_B)[0]
            rel = abs(approx - exact) / exact
            if rel > worst:
                worst, where = rel, (float(detuning_mdeg), float(x))
    report(
        2,
        "small-angle formula vs exact solver",
        [(
            "max |R_approx - R_exact| / R_exact on 50x50 grid",
            worst < 0.01,
            f"{worst:.2e} at (detuning, x) = {where}",
        )],
    )


def test_criterion_3_polarization():
    value = polarization_suppression(THETA_B, 0.0)
    report(
        3,
        "polarization suppression",
        [("factor at (84.1 deg, chi=0)", abs(value - 0.0105) <= 0.0005, f"{value:.5f} vs 0.0105 +/- 0.0005")],
    )


def test_criterion_4_efficiency_arithmetic():
    result = conversion_efficiency(130.0, 0.0382, 0.18, 0.98e13)
    checks = [
        (
            "observable rate",
            abs(result.observable_rate_per_hr - 3400.0) <= 300.0,
            f"{result.observable_rate_per_hr:.0f}/hr vs 3400 +/- 300",
        ),
        (
            "total generation rate",
            abs(result.total_rate_per_hr - 18900.0) / 18900.0 <= 0.10,
            f"{result.total_rate_per_hr:.0f}/hr vs 18900 +/- 10%",
        ),
        (
            "conversion efficiency",
            abs(result.efficiency - 5.3e-13) / 5.3e-13 <= 0.10,
            f"{result.efficiency:.3e} vs 5.3e-13 +/- 10%",
        ),
        (
            "incident photons per pair",
            abs(result.incident_per_pair - 2.7e14) / 2.7e14 <= 0.05,
            f"{result.incident_per_pair:.3e} vs 2.7e14 +/- 5%",
        ),
    ]
    report(4, "efficiency pipeline arithmetic", checks)


def test_criterion_5_end_to_end_reference_reproduction(reference_run_result):
    manifest, result = reference_run_result
    corr = result.corr_map
    time_fit = result.time_fit
    roi = result.roi_result

    hours = manifest.duration_s / 3600.0
    true_rate = manifest.pairs_detected_both / hours
    centroid_kev = result.energy_centroid / 1e3
    net_counts = roi.net_rate_per_hr * hours
    err_counts = roi.net_rate_err_per_hr * hours
    true_counts = manifest.pairs_detected_both

    checks = [
        (
            "correlation peak energy",
            abs(centroid_kev - 11.0) <= 0.3,
            f"{centroid_kev:.2f} keV vs 11.0 +/- 0.3",
        ),
        (
            "correlation peak time",
            abs(time_fit.center) <= 50.0,
            f"{time_fit.center:.1f} ns vs 0 +/- 50",
        ),
        (
            "time-profile width",
            abs(time_fit.sigma - 212.0) <= 40.0,
            f"{time_fit.sigma:.1f} ns vs 212 +/- 40",
        ),
        (
            "net ROI rate vs ground truth",
            abs(net_counts - true_counts) <= 3.0 * max(err_counts, 1.0),
            f"net {net_counts:.1f} vs true {true_counts} counts (3 sigma = {3 * err_counts:.1f})",
        ),
        (
            "true detected-pair rate",
            90.0 <= true_rate <= 170.0,
            f"{true_rate:.1f}/hr vs [90, 170]",
        ),
    ]
    # supporting check: the default 1 keV region of interest reproduces
    # the 100-130/hr range (with the documented 15% allowance for the
    # unstated exact ROI bounds)
    narrow = roi_rate(corr, RoiSpec(e_half_width_ev=1000.0).fitted(time_fit.sigma))
    checks.append(
        (
            "net rate with default ROI",
            85.0 <= narrow.net_rate_per_hr <= 150.0,
            f"{narrow.net_rate_per_hr:.1f}/hr vs 100-130 +/- 15%",
        )
    )
    report(5, "end-to-end reference reproduction (0.5 h)", checks)


def test_criterion_6_control_run(reference_run_result):
    settings = default_settings()
    # crystal detuned to the wrong side; detectors stay at the 10 mdeg
    # positions and the region of interest comes from the 10 mdeg run
    positive = build_run_config(settings)
    offset = positive.experiment.degenerate_offset()
    settings["crystal.detuning"] = "-50 mdeg"
    settings["detector1.offset"] = f"{offset} rad"
    settings["detector2.offset"] = f"{offset} rad"
    settings["run.duration"] = "1800 s"
    settings["run.seed"] = "5"
    run = build_run_config(settings)
    roi_spec = RoiSpec(e_half_width_ev=1000.0).fitted(reference_run_result[1].time_fit.sigma)
    manifest, result = simulate_and_analyze(run)
    net = roi_rate(result.corr_map, roi_spec).net_rate_per_hr
    checks = [
        (
            "pairs generated with negative detuning",
            manifest.pairs_generated == 0,
            f"{manifest.pairs_generated}",
        ),
        ("net ROI rate", abs(net) < 1.0, f"{net:+.2f}/hr vs |rate| < 1"),
    ]
    report(6, "detuned control run", checks)


def test_criterion_7_scaling_law():
    detunings = (5.0, 10.0, 20.0, 30.0, 50.0)
    seeds = (1, 2, 3)
    points = []
    for detuning in detunings:
        rates, variances = [], []
        for seed in seeds:
            settings = default_settings()
            settings["crystal.detuning"] = f"{detuning} mdeg"
            settings["run.duration"] = "1800 s"
            settings["run.seed"] = str(seed)
            run = build_run_config(settings)
            roi = simulate_and_analyze(run, roi_e_half_ev=2000.0)[1].roi_result
            rates.append(roi.net_rate_per_hr)
            variances.append(roi.net_rate_err_per_hr ** 2)
        points.append(
            (detuning, float(np.mean(rates)), math.sqrt(sum(variances)) / len(rates))
        )
    fit = fit_misalignment_scan(points)
    detail = ", ".join(f"{d:g}: {r:.0f}/hr" for d, r, _ in points)
    report(
        7,
        "1/sqrt(detuning) scaling",
        [(
            "free-fit exponent",
            abs(fit.exponent + 0.5) <= 0.15,
            f"{fit.exponent:.3f} +/- {fit.exponent_err:.3f} vs -0.5 +/- 0.15 ({detail})",
        )],
    )


def _random_stream(rng, n):
    times = np.sort(rng.integers(0, 2_000_000, n)) // 20 * 20
    return Stream(times, rng.integers(9000, 13001, n))


def _brute_force(s1, s2):
    t1 = s1.timestamp_ns.astype(np.int64)[:, None]
    t2 = s2.timestamp_ns.astype(np.int64)[None, :]
    e1 = s1.energy_ev.astype(np.int64)[:, None]
    e2 = s2.energy_ev.astype(np.int64)[None, :]
    ok = (np.abs(t2 - t1) <= CRITERIA.max_abs_dt_ns) & (
        np.abs(e1 + e2 - CRITERIA.sum_center_ev) <= CRITERIA.sum_half_width_ev
    )
    i, j = np.nonzero(ok)
    return sorted(zip(t1[i, 0].tolist(), t2[0, j].tolist(), e1[i, 0].tolist(), e2[0, j].tolist()))


def test_criterion_8_property_suites(tmp_path):
    checks = []

    # pairing equals the O(n*m) brute-force oracle
    rng = np.random.default_rng(2718)
    mismatches = 0
    for _ in range(100):
        s1 = _random_stream(rng, 1000)
        s2 = _random_stream(rng, 1000)
        pairs = find_coincidence_pairs(s1, s2, CRITERIA)
        got = sorted(
            zip(
                pairs["t1_ns"].tolist(),
                pairs["t2_ns"].tolist(),
                pairs["e1_ev"].tolist(),
                pairs["e2_ev"].tolist(),
            )
        )
        if got != _brute_force(s1, s2):
            mismatches += 1
    checks.append(
        ("pairing vs brute force (100 x 10^3 events/side)", mismatches == 0, f"{mismatches} mismatching cases")
    )

    # list-mode round trip is bit exact
    bad_roundtrips = 0
    for i in range(100):
        n = int(rng.integers(0, 400))
        events = np.empty(n, dtype=EVENT_DTYPE)
        events["detector_id"] = rng.integers(1, 3, n)
        events["timestamp_ns"] = np.sort(rng.integers(0, 10**10, n))
        events["energy_ev"] = rng.integers(1, 2**31, n)
        header = ListModeHeader(
            clock_tick_ns=int(rng.integers(1, 1000)),
            detector_count=2,
            config_hash=int(rng.integers(0, 2**63)),
        )
        path = str(tmp_path / f"round_{i}.xpdc")
        write_listmode(path, split_streams(events, 2), header)
        back, header_back = read_listmode(path)
        if back.tobytes() != events.tobytes() or header_back != header:
            bad_roundtrips += 1
    checks.append(
        ("list-mode round trip (100 random files)", bad_roundtrips == 0, f"{bad_roundtrips} failures")
    )

    # simulation determinism: identical bytes on repeat
    settings = default_settings()
    settings["run.duration"] = "10 s"
    settings["run.seed"] = "77"
    run = build_run_config(settings)
    a1, a2, manifest_a = simulate_run(run, config_hash=config_hash(settings))
    b1, b2, manifest_b = simulate_run(run, config_hash=config_hash(settings))
    identical = (
        merge_streams(a1, a2).tobytes() == merge_streams(b1, b2).tobytes()
        and manifest_a.as_dict() == manifest_b.as_dict()
    )
    checks.append(("simulate determinism", identical, "byte-identical repeat"))

    # category counts Poisson-consistent with configured rates
    duration = 5.0
    n_seeds = 20
    counts: dict[str, list[int]] = {}
    expected: dict[str, float] = {}
    for seed in range(1, n_seeds + 1):
        settings = default_settings()
        settings["run.duration"] = f"{duration} s"
        settings["run.seed"] = str(seed)
        run = build_run_config(settings)
        _, _, manifest = simulate_run(run)
        exp = run.experiment
        suppression = polarization_suppression(
            exp.theta_b(), exp.beam.polarization_angle_rad
        )
        counts.setdefault("pairs_generated", []).append(manifest.pairs_generated)
        expected["pairs_generated"] = exp.source.true_pair_rate_per_s * duration
        for det_index, det_id in ((0, 1), (1, 2)):
            for line in exp.source.components[det_index]:
                key = f"d{det_id}_{line.label}"
                rate = line.rate_per_s * (suppression if line.suppressed else 1.0)
                counts.setdefault(key, []).append(manifest.background_counts[key])
                expected[key] = rate * duration
    worst_p = 1.0
    worst_key = None
    for key, values in counts.items():
        lam = expected[key]
        chi2 = float(sum((v - lam) ** 2 / lam for v in values))
        p_value = stats.chi2.sf(chi2, n_seeds)
        if p_value < worst_p:
            worst_p, worst_key = p_value, key
    checks.append(
        (
            "Poisson count consistency (chi-square, 20 seeds)",
            worst_p > 0.001,
            f"worst p = {worst_p:.4f} ({worst_key})",
        )
    )

    report(8, "property suites", checks)
