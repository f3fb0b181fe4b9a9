"""
Monte Carlo generation of timestamped, energy-tagged photon event streams
for the two coincidence detectors: down-converted pairs, fluorescence
lines, Compton and elastic background, detector response, and
beam-current drift.

Where a pair member lands is one model, _landing_geometry: the sampler
draws from it, and landing_acceptance integrates it into the
acceptance that plan and report use.

The output of a run is a pair of Streams, one per detector: time-ordered
timestamp_ns (u8) and energy_ev (u4) columns, plus a manifest of ground
truth counts.  Packed records exist only at the file boundary (see
listmode).  Everything is driven by one 64-bit seed; identical (config,
seed) gives bit-identical streams.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import threading
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .physics import (
    BeamConfig,
    ChainEfficiencyModel,
    CrystalConfig,
    DetectorGeometry,
    FWHM_OVER_SIGMA,
    _Frozen,
    bragg_angle,
    emission_angles,
    polarization_suppression,
)


class Stream(_Frozen):
    """One detector's events as two aligned columns of equal length:
    timestamp_ns (uint64, non-decreasing, below 2**63) and energy_ev
    (uint32).  Construction raises ValueError for any other columns, so
    every stage may take a Stream's order as given."""

    __slots__ = ("timestamp_ns", "energy_ev")

    def __init__(self, timestamp_ns: np.ndarray, energy_ev: np.ndarray):
        timestamp_ns = np.asarray(timestamp_ns, dtype=np.uint64)  # no copy where the
        energy_ev = np.asarray(energy_ev, dtype=np.uint32)  # dtypes already match
        if timestamp_ns.ndim != 1 or timestamp_ns.shape != energy_ev.shape:
            raise ValueError("Stream columns must be one-dimensional and of equal length")
        if not stamps_in_order(timestamp_ns):
            raise ValueError("Stream timestamps decrease or reach 2**63 ns")
        self._set(timestamp_ns, energy_ev)

    def __len__(self) -> int:
        return len(self.timestamp_ns)


def stamps_in_order(stamps: np.ndarray) -> bool:
    """Whether uint64 stamps are non-decreasing and below 2**63 (pairing
    computes in int64): as int64, non-decreasing from a first stamp >= 0."""
    s = stamps.view(np.int64)
    return not len(s) or bool(s[0] >= 0 and np.all(s[1:] >= s[:-1]))


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask."""
    return len(os.sched_getaffinity(0))


def thread_map(function, items: Sequence) -> list:
    """[function(item) for item in items], for numpy work, which releases
    the GIL: on one plain thread per usable CPU, at most one per item, each
    with a fixed share as in fork_map.  Thread k runs items k, k + workers,
    ..., and the caller runs share 0 itself, so one item starts no thread.
    Every thread is joined before this returns or raises.  A share stops at
    its first failing item; the exception of the lowest-numbered failing
    item is raised."""
    workers = max(min(len(items), usable_cpus()), 1)
    results = [None] * len(items)
    errors = [None] * len(items)

    def run_share(k: int) -> None:
        for i in range(k, len(items), workers):
            try:
                results[i] = function(items[i])
            except BaseException as exc:
                errors[i] = exc
                return

    threads = []
    try:
        for k in range(1, workers):
            thread = threading.Thread(target=run_share, args=(k,))
            thread.start()
            threads.append(thread)
        run_share(0)
    finally:
        for thread in threads:
            thread.join()
    for error in errors:
        if error is not None:
            raise error
    return results


class WorkerDied(Exception):
    """A fork_map worker ended without sending back its results."""


class _WorkerTraceback(Exception):
    """A fork_map worker's traceback, as text: the cause of the worker's
    exception where fork_map raises it again."""


def fork_map(function, items: Sequence) -> list:
    """[function(item) for item in items] on forked worker processes, which
    inherit the modules, function and items instead of importing or
    pickling them.

    Forks one worker per usable CPU, at most one per item.  Worker k runs a
    fixed share, items k, k + workers, ..., and pickles back through a pipe
    its results or its first exception.  The results come back in input
    order.  A worker's exception is raised again here, from its traceback
    in the worker; a worker that ends without answering raises WorkerDied.  Every child is reaped before this
    returns or raises.  stdout and stderr are flushed before forking, so no
    buffered text is written twice.
    """
    workers = min(len(items), usable_cpus())
    sys.stdout.flush()
    sys.stderr.flush()
    pids, read_ends, answers = [], [], []
    try:
        for k in range(workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _fork_worker(function, items[k::workers], write_end, [read_end, *read_ends])
            pids.append(pid)
            read_ends.append(read_end)
            os.close(write_end)
        for read_end in read_ends:
            with open(read_end, "rb", closefd=False) as pipe:
                answers.append(pipe.read())
    finally:
        for read_end in read_ends:
            os.close(read_end)  # a worker still writing fails and exits
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    results = [None] * len(items)
    for k, (pid, code, answer) in enumerate(zip(pids, codes, answers)):
        if code or not answer:
            raise WorkerDied(f"pid {pid} ended with status {code} before sending its results")
        done, value, trace = pickle.loads(answer)
        if not done:
            raise value from _WorkerTraceback(trace)
        results[k::workers] = value
    return results


def _fork_worker(function, share: Sequence, write_end: int, read_ends: list[int]):
    """A fork_map worker: close the read ends it inherited, send back
    (True, results, None) or (False, first exception, its traceback), and
    leave by os._exit without running the parent's code or cleanup."""
    code = 1
    try:
        for read_end in read_ends:
            os.close(read_end)
        try:
            answer = (True, [function(item) for item in share], None)
        except BaseException as exc:
            import traceback

            answer = (False, exc, traceback.format_exc())
        with open(write_end, "wb") as pipe:
            pickle.dump(answer, pipe)
        sys.stdout.flush()
        sys.stderr.flush()
        code = 0
    finally:
        os._exit(code)


class ConfigError(ValueError):
    """Invalid run or experiment configuration."""


class AnalysisError(ValueError):
    """Invalid input to an analysis operation."""


class WindowLimitError(AnalysisError):
    """A pairing block with more than analysis._MAX_WINDOW_PAIRS
    time-window candidates: the windows asked for are at fault more than
    the data."""


class GaussianLine(_Frozen):
    """One background component: Gaussian energy profile at a fixed rate.
    Polarization-sensitive components (elastic, Compton) are suppressed:
    scaled by the suppression factor; isotropic fluorescence is not."""

    __slots__ = ("label", "center_ev", "fwhm_ev", "rate_per_s", "suppressed")

    def __init__(
        self, label: str, center_ev: float, fwhm_ev: float, rate_per_s: float,
        suppressed: bool = False,
    ):
        if rate_per_s < 0:
            raise ConfigError(f"background rate for {label!r} must be >= 0")
        if center_ev <= 0 or fwhm_ev < 0:
            raise ConfigError(f"bad line shape for {label!r}")
        self._set(label, center_ev, fwhm_ev, rate_per_s, suppressed)

    def rate(self, suppression: float) -> float:
        """Rate in /s under the given polarization suppression factor."""
        return self.rate_per_s * (suppression if self.suppressed else 1.0)


class SourceModel(_Frozen):
    """True pair rate plus per-detector background components.

    true_pair_rate_per_s counts pairs emitted into the full azimuthal
    ring with energy splits inside the configured split window.
    components holds one tuple of background components per detector
    (detector 1, detector 2); each component draws its own random
    numbers, in tuple order.
    """

    __slots__ = ("true_pair_rate_per_s", "components")

    def __init__(
        self,
        true_pair_rate_per_s: float = 18900.0 / 3600.0,
        components: tuple[tuple[GaussianLine, ...], tuple[GaussianLine, ...]] = ((), ()),
    ):
        if true_pair_rate_per_s < 0:
            raise ConfigError("pair rate must be >= 0")
        self._set(true_pair_rate_per_s, components)


class DetectorResponse(_Frozen):
    """Recording chain: energy resolution, time jitter, clock (a whole
    number of ns), range, and a non-paralyzable dead time (0 disables)."""

    __slots__ = ("energy_resolution_fwhm_ev", "time_jitter_sigma_ns", "clock_tick_ns",
                 "energy_range_ev", "dead_time_ns")

    def __init__(
        self,
        energy_resolution_fwhm_ev: float = 150.0,
        time_jitter_sigma_ns: float = 150.0,
        clock_tick_ns: int = 20,
        energy_range_ev: tuple[float, float] = (1000.0, 30000.0),
        dead_time_ns: float = 0.0,
    ):
        if energy_resolution_fwhm_ev < 0 or time_jitter_sigma_ns < 0:
            raise ConfigError("response widths must be >= 0")
        if clock_tick_ns <= 0:
            raise ConfigError("clock tick must be > 0")
        if clock_tick_ns >= 2**32:  # the list-mode header's u32 field
            raise ConfigError("clock tick must be under 2**32 ns (about 4.3 s)")
        if not float(clock_tick_ns).is_integer():
            raise ConfigError("clock tick must be a whole number of ns")
        lo, hi = energy_range_ev
        if not 0 < lo < hi:
            raise ConfigError("energy range must satisfy 0 < min < max")
        if hi >= 2**32:  # the list-mode record's u32 field
            raise ConfigError("energy max must be under 2**32 eV (about 4.3 GeV)")
        if dead_time_ns < 0:
            raise ConfigError("dead time must be >= 0")
        self._set(energy_resolution_fwhm_ev, time_jitter_sigma_ns, int(clock_tick_ns),
                  energy_range_ev, dead_time_ns)


class BeamCurrentProfile(_Frozen):
    """Piecewise-constant relative beam current over the run.

    Segments of equal duration span the run; values are normalized to a
    mean of 1 at construction so configured rates refer to the mean
    current.
    """

    __slots__ = ("values",)

    def __init__(self, values: tuple[float, ...] = (1.0,)):
        if not values or any(v <= 0 for v in values):
            raise ConfigError("beam current values must be > 0")
        mean = sum(values) / len(values)
        values = tuple(v / mean for v in values)
        # Huge values overflow the mean; a spread past the float range
        # underflows a segment to 0.
        if not all(math.isfinite(v) and v > 0 for v in (mean, *values)):
            raise ConfigError("beam current values do not normalize to a finite mean of 1")
        self._set(values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    def segments(self, duration_s: float) -> list[tuple[float, float, float]]:
        """(t_start_s, t_end_s, relative_value) covering [0, duration)."""
        n = len(self.values)
        seg = duration_s / n
        return [(i * seg, (i + 1) * seg, v) for i, v in enumerate(self.values)]


class ExperimentModel(NamedTuple):
    """Everything the sampler needs: crystal, beam, detectors, source,
    response and efficiency chain."""

    crystal: CrystalConfig = CrystalConfig()
    beam: BeamConfig = BeamConfig()
    detectors: tuple[DetectorGeometry, DetectorGeometry] = (
        DetectorGeometry(distance_mm=1351.0),
        DetectorGeometry(distance_mm=1560.0),
    )
    source: SourceModel = SourceModel()
    response: DetectorResponse = DetectorResponse()
    chain: ChainEfficiencyModel = ChainEfficiencyModel()
    # Energy-split sampling window; None derives it from the detector
    # radial spans (see split_window()).
    split_window_x: tuple[float, float] | None = None

    def theta_b(self) -> float:
        return bragg_angle(self.beam.pump_energy_ev, self.crystal)

    def degenerate_offset(self) -> float:
        """Emission angle of the degenerate x = 0.5 split."""
        return float(emission_angles(0.5, self.crystal.detuning_rad, self.theta_b())[0])

    def positioned_detectors(self) -> tuple[DetectorGeometry, DetectorGeometry]:
        """Detectors with auto (None) offsets aimed at the degenerate angle."""
        if self.crystal.detuning_rad <= 0:
            return self.detectors
        r0 = self.degenerate_offset()
        return tuple(
            DetectorGeometry(d.distance_mm, d.active_area_mm2, r0)
            if d.center_angle_offset_rad is None
            else d
            for d in self.detectors
        )

    def split_window(self) -> tuple[float, float]:
        """Energy-split window actually sampled.

        When not set explicitly this is the range of splits whose signal
        and idler rings fall on the detectors' radial spans (the window
        the detector size implies), clipped to the 5-17 keV analysis
        band.  Falls back to the full band when the detectors do not
        intersect the cone.
        """
        if self.split_window_x is not None:
            return self.split_window_x
        band = (5000.0 / self.beam.pump_energy_ev, 17000.0 / self.beam.pump_energy_ev)
        band = (max(band[0], 0.02), min(band[1], 0.98))
        if self.crystal.detuning_rad <= 0:
            return band
        det1, det2 = self.positioned_detectors()
        r0 = self.degenerate_offset()
        lo, hi = band

        def squared(angle):
            """(angle / r0) ** 2, held at 1e300 (also where r0 is 0): from
            there on 1 / (1 + q) is under the band and q / (1 + q) rounds
            to 1, so the window comes out the same."""
            return (angle / r0) ** 2 if angle < 1e150 * r0 else 1e300

        # Signal on detector 1: R(x) = r0 sqrt((1-x)/x) inside its span.
        c1, h1 = det1.center_angle_offset_rad, det1.half_extent_rad
        if c1 + h1 > 0:
            lo = max(lo, 1.0 / (1.0 + squared(c1 + h1)))
        if c1 - h1 > 0:
            hi = min(hi, 1.0 / (1.0 + squared(c1 - h1)))
        # Idler on detector 2: R(y) = r0 sqrt(x/(1-x)) inside its span.
        c2, h2 = det2.center_angle_offset_rad, det2.half_extent_rad
        if c2 - h2 > 0:
            q = squared(c2 - h2)
            lo = max(lo, q / (1.0 + q))
        if c2 + h2 > 0:
            q = squared(c2 + h2)
            hi = min(hi, q / (1.0 + q))
        if not lo < hi:
            return band
        return (lo, hi)


class RunConfig(_Frozen):
    """One simulated acquisition."""

    __slots__ = ("duration_s", "seed", "experiment", "beam_current_profile")

    def __init__(
        self,
        duration_s: float = 1800.0,
        seed: int = 1,
        experiment: ExperimentModel = ExperimentModel(),
        beam_current_profile: BeamCurrentProfile = BeamCurrentProfile(),
    ):
        if duration_s <= 0:
            raise ConfigError("duration must be > 0")
        if duration_s * 1e9 >= 2**63:  # timestamps are analysed as int64 ns
            raise ConfigError("duration must be under 2**63 ns (about 292 years)")
        if not 0 <= int(seed) < 2**64:
            raise ConfigError("seed must fit in 64 bits")
        self._set(duration_s, seed, experiment, beam_current_profile)


class RunManifest(NamedTuple):
    """Ground-truth counters recorded alongside the event streams."""

    seed: int
    duration_s: float
    config_hash: int
    mean_current: float
    pairs_generated: int
    pairs_landed_both: int
    pairs_detected_both: int
    singles_detected: tuple[int, int]
    background_counts: dict[str, int]
    events_recorded: tuple[int, int]

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "seed": self.seed,
            "duration_s": self.duration_s,
            "config_hash": f"{self.config_hash:016x}",
            "mean_current": self.mean_current,
            "pairs_generated": self.pairs_generated,
            "pairs_landed_both": self.pairs_landed_both,
            "pairs_detected_both": self.pairs_detected_both,
            "singles_detected_d1": self.singles_detected[0],
            "singles_detected_d2": self.singles_detected[1],
            "events_recorded_d1": self.events_recorded[0],
            "events_recorded_d2": self.events_recorded[1],
        }
        for key, count in sorted(self.background_counts.items()):
            out[f"bg_{key}"] = count
        return out


# ---------------------------------------------------------------------------
# Sampling

# Refuse runs expecting more generated photons than this: 14 times a 24 h
# default run, about 17 GB at the ~17 B per event a simulation peaks at.
_MAX_EXPECTED_EVENTS = 1e9


def _expected_photons(config: RunConfig) -> float:
    """Upper bound on the photons a run generates: both members of every
    pair and every background component, at the highest beam current
    for the whole run."""
    exp = config.experiment
    suppression = polarization_suppression(exp.theta_b(), exp.beam.polarization_angle_rad)
    rate = 2 * exp.source.true_pair_rate_per_s * exp.crystal.effective_rate_scale + sum(
        line.rate(suppression) for lines in exp.source.components for line in lines
    )
    return config.duration_s * max(config.beam_current_profile.values) * rate


def _poisson_times(
    rng: np.random.Generator,
    rate_per_s: float,
    duration_s: float,
    profile: BeamCurrentProfile,
) -> np.ndarray:
    """Event times (ns, float64, sorted) of a Poisson process whose rate
    follows the piecewise-constant beam-current profile."""
    times = np.concatenate([np.empty(0)] + [
        rng.uniform(t0 * 1e9, t1 * 1e9, rng.poisson(rate_per_s * value * (t1 - t0)))
        for t0, t1, value in profile.segments(duration_s)
    ])
    times.sort()
    return times


def _landing_geometry(
    experiment: ExperimentModel, x: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Where the members of pairs with energy splits x can land: for the
    signal on detector 1 and the idler on detector 2, whether the
    member's ring crosses the detector's radial span, and the half-arc
    of azimuth that the detector intercepts on that ring (w / 2r, or pi
    when the ring fits inside the detector of side w).

    A member lands when its ring crosses the span and its azimuth phi,
    measured from the detector's center, has |phi| <= half-arc.  The
    idler leaves back-to-back on the ring, so with the detectors on
    opposite sides of the Laue spot one phi governs both arcs.
    """
    r_x, r_y = emission_angles(x, experiment.crystal.detuning_rad, experiment.theta_b())
    geometry = []
    for det, angle in zip(experiment.positioned_detectors(), (r_x, r_y)):
        radial = np.abs(angle - det.center_angle_offset_rad) <= det.half_extent_rad
        ring_radius = det.distance_mm * np.tan(angle)
        half_arc = np.where(
            ring_radius <= 0.5 * det.side_mm,
            np.pi,
            0.5 * det.side_mm / np.maximum(ring_radius, 1e-12),
        )
        geometry.append((radial, half_arc))
    return geometry


# Splits of the midpoint rule by which landing_acceptance integrates over
# the split window.
_ACCEPTANCE_SPLITS = 2**16


def landing_acceptance(experiment: ExperimentModel) -> tuple[float, float, float]:
    """Probabilities that a generated pair lands its signal on detector 1,
    its idler on detector 2, and both: the landing geometry that
    simulate_run samples, integrated over the uniform split in
    split_window() (midpoint rule, _ACCEPTANCE_SPLITS splits) and over
    the uniform azimuth.  Both members share one azimuth, so the azimuth
    integral is exact: a pair lands on both when both rings cross their
    spans and |phi| is within the smaller half-arc.
    """
    lo, hi = experiment.split_window()
    x = lo + (hi - lo) * (np.arange(_ACCEPTANCE_SPLITS) + 0.5) / _ACCEPTANCE_SPLITS
    (radial1, arc1), (radial2, arc2) = _landing_geometry(experiment, x)
    both = (radial1 & radial2) * np.minimum(arc1, arc2)
    # A ring inside both detectors has mean(pi) / pi, which can round above 1.
    return tuple(
        min(float(np.mean(arcs)) / np.pi, 1.0) for arcs in (radial1 * arc1, radial2 * arc2, both)
    )


def _sample_pair_batch(
    rng: np.random.Generator,
    experiment: ExperimentModel,
    times_ns: np.ndarray,
) -> dict[str, np.ndarray]:
    """Draw one down-converted pair per emission time and decide which
    members land on their detector and survive the detection chain.

    Both members share the emission time exactly, and their energies
    sum to the drawn pump energy exactly.
    """
    n = len(times_ns)
    lo, hi = experiment.split_window()
    x = rng.uniform(lo, hi, n)
    pump = experiment.beam.pump_energy_ev + rng.normal(
        0.0, experiment.beam.bandwidth_fwhm_ev / FWHM_OVER_SIGMA, n
    )
    e_signal = x * pump
    e_idler = pump - e_signal  # exact energy conservation per pair
    abs_phi = np.abs(rng.uniform(-np.pi, np.pi, n))  # the signal azimuth
    land1, land2 = (
        radial & (abs_phi <= half_arc) for radial, half_arc in _landing_geometry(experiment, x)
    )
    keep1 = rng.random(n) < experiment.chain.photon_efficiency(e_signal)
    keep2 = rng.random(n) < experiment.chain.photon_efficiency(e_idler)
    return {
        "time_ns": times_ns,
        "e_signal": e_signal,
        "e_idler": e_idler,
        "signal_landed": land1,
        "idler_landed": land2,
        "signal_detected": land1 & keep1,
        "idler_detected": land2 & keep2,
    }


def _detector_columns(
    rng: np.random.Generator, source: SourceModel, duration_s: float, detector_id: int,
    suppression: float, profile: BeamCurrentProfile, resolution_fwhm_ev: float,
    members: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
    """One detector's float64 (time ns, energy eV) columns, the given pair
    members first, then its background; and the per-component counts.

    Each component is an independent Poisson process, thinned by the
    beam-current profile, its rate scaled by the suppression factor where
    it is polarization-suppressed, and one unsorted block of the columns.
    Background is drawn as recorded: one Gaussian of FWHM hypot(line,
    resolution) per photon (a sum of independent Gaussians is one) and no
    time jitter (a Poisson process displaced by i.i.d. offsets is the same
    process).
    """
    lines = source.components[detector_id - 1]
    segments = profile.segments(duration_s)
    counts = rng.poisson(np.outer(
        [line.rate(suppression) for line in lines], [(t1 - t0) * v for t0, t1, v in segments]
    ))
    start = len(members[0])
    times = np.empty(start + int(counts.sum()))
    energies = np.empty_like(times)
    times[:start], energies[:start] = members
    for line, line_counts in zip(lines, counts.tolist()):
        first = start
        for (t0, t1, _), n in zip(segments, line_counts):
            block = times[start : start + n]
            rng.random(out=block)
            block *= (t1 - t0) * 1e9
            block += t0 * 1e9
            start += n
        block = energies[first:start]
        rng.standard_normal(out=block)
        block *= math.hypot(line.fwhm_ev, resolution_fwhm_ev) / FWHM_OVER_SIGMA
        block += line.center_ev
    labels = [f"d{detector_id}_{line.label}" for line in lines]
    return times, energies, dict(zip(labels, counts.sum(axis=1).tolist()))


def _apply_response_batch(
    times: np.ndarray,
    energies_ev: np.ndarray,
    response: DetectorResponse,
    rng: np.random.Generator,
    smeared: int | None = None,
    end_tick: float = math.inf,
) -> np.ndarray:
    """Smear photons through the recording chain, in place; times, in ns,
    come back as clock tick indices.

    Adds Gaussian time jitter and Gaussian energy noise (sigma = fwhm /
    2.355) to the first smeared entries (all by default), quantizes every
    timestamp to its clock tick index, floor(t / tick + 0.5), and energy
    to integer eV, and drops the event if the recorded energy falls
    outside the recordable range or the tick index outside the run,
    [0, end_tick].  The float64 inputs are overwritten with the recorded
    values, and the keep mask is returned: only entries with keep True
    are valid records.  Only the mask is returned, so no caller holds
    the inputs past its last use.
    """
    n = len(times) if smeared is None else smeared
    if response.time_jitter_sigma_ns > 0:
        times[:n] += rng.normal(0.0, response.time_jitter_sigma_ns, n)
    if response.energy_resolution_fwhm_ev > 0:
        energies_ev[:n] += rng.normal(
            0.0, response.energy_resolution_fwhm_ev / FWHM_OVER_SIGMA, n
        )
    times /= response.clock_tick_ns  # floor(t / tick + 0.5), without temporaries
    times += 0.5
    np.floor(times, out=times)
    np.rint(energies_ev, out=energies_ev)
    lo, hi = response.energy_range_ev
    return (times >= 0) & (times <= end_tick) & (energies_ev >= lo) & (energies_ev <= hi)


def _sorted_members(keys: np.ndarray, member_keys: np.ndarray, kept: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Where the kept leading entries of a detector's column sit in its
    sorted keys, and which leading entry each one is, as a stable argsort
    puts them (at a tied key, leading entries first, in their own order).
    member_keys are their keys in column order, kept the response keep
    mask over the leading entries.  Slots, each key's first place in keys
    times the count plus the entry's index (int64: _MAX_EXPECTED_EVENTS
    keeps columns short), sort them by key, then index."""
    m = len(member_keys)
    slots = np.sort(np.searchsorted(keys, member_keys) * m + np.arange(m))
    first, own = np.divmod(slots, m)
    at = first + np.arange(m) - np.searchsorted(first, first)  # plus the rank among ties
    return at, np.flatnonzero(kept)[own]


def _members_recorded(
    count: int, members: tuple[np.ndarray, np.ndarray], live: np.ndarray
) -> np.ndarray:
    """Which of the count leading entries of a detector's block were
    recorded: those of its _sorted_members that live, the dead-time mask
    over the sorted stamps, keeps."""
    at, index = members
    recorded = np.zeros(count, dtype=bool)
    recorded[index[live[at]]] = True
    return recorded


def _dead_time_mask(times_ns: np.ndarray, dead_time_ns: float) -> np.ndarray:
    """Events of a time-sorted stream that a non-paralyzable dead time
    keeps: each kept event blinds the detector for dead_time_ns.

    An event at least dead_time_ns after its predecessor is kept whatever
    came before, because the last kept event is no later than that
    predecessor.  So only the events after a short gap are walked, in
    order, each measured from the last kept event.
    """
    keep = np.ones(len(times_ns), dtype=bool)
    if dead_time_ns <= 0:
        return keep
    t = times_ns.view(np.int64)  # uint64 stamps below 2**63: the same values
    short = np.flatnonzero(np.diff(t) < dead_time_ns) + 1
    last = None  # the last kept event
    for i, t_i, t_before in zip(short.tolist(), t[short], t[short - 1]):
        if keep[i - 1]:
            last = t_before
        keep[i] = t_i - last >= dead_time_ns
    return keep


def simulate_run(
    config: RunConfig, config_hash: int = 0
) -> tuple[Stream, Stream, RunManifest]:
    """Simulate one acquisition and return the two event streams.

    Each Stream is sorted by timestamp, ties within a tick by energy (one
    value sort of keys (tick index << e_bits) | energy).  The manifest
    carries ground truth: pairs generated, pairs landed/detected on both
    detectors, and background counts per component.
    """
    expected = _expected_photons(config)
    if expected > _MAX_EXPECTED_EVENTS:
        raise ConfigError(
            f"run would generate about {expected:.3g} photons, above the limit of "
            f"{_MAX_EXPECTED_EVENTS:.0e}; shorten run.duration or lower the rates"
        )
    exp = config.experiment
    duration = config.duration_s
    tick = exp.response.clock_tick_ns
    end_tick = math.floor(duration * 1e9 / tick + 0.5)  # the tick index of the run end
    e_bits = int(exp.response.energy_range_ev[1]).bit_length()
    if end_tick >= 2 ** (64 - e_bits):
        raise ConfigError(
            f"run of {end_tick:.3g} clock ticks is over the limit of 2**{64 - e_bits} that "
            f"a 64-bit sort key leaves beside {e_bits}-bit energies; shorten run.duration, "
            "lengthen response.clock_tick or lower response.energy_max"
        )
    profile = config.beam_current_profile
    master = np.random.SeedSequence(int(config.seed))
    pair_seq, bg1_seq, bg2_seq, resp_seq = master.spawn(4)

    # Down-converted pairs (only when the cone is open): the times and
    # energies of the members each detector receives.
    pairs_generated = pairs_landed_both = 0
    pair_members = np.zeros((2, 0), dtype=bool)  # pairs sending a photon to each
    member_blocks = [(np.empty(0), np.empty(0))] * 2
    if exp.crystal.detuning_rad > 0 and exp.source.true_pair_rate_per_s > 0:
        rng = np.random.default_rng(pair_seq)
        rate = exp.source.true_pair_rate_per_s * exp.crystal.effective_rate_scale
        times = _poisson_times(rng, rate, duration, profile)
        batch = _sample_pair_batch(rng, exp, times)
        pairs_generated = len(times)
        pairs_landed_both = int(np.sum(batch["signal_landed"] & batch["idler_landed"]))
        pair_members = np.stack([batch["signal_detected"], batch["idler_detected"]])
        member_blocks = [
            (times[mask], batch[energy][mask])
            for mask, energy in zip(pair_members, ("e_signal", "e_idler"))
        ]

    # One detector at a time: its columns, pair members first (the
    # background from an independent generator per detector), then the
    # members' response (one generator, detector 1 first), sort and dead
    # time, freeing each full-length array as soon as the next one is made.
    suppression = polarization_suppression(exp.theta_b(), exp.beam.polarization_angle_rad)
    resp_rng = np.random.default_rng(resp_seq)
    streams = []
    background_counts: dict[str, int] = {}
    recorded_members = np.zeros_like(pair_members)
    for det_index, seq in enumerate((bg1_seq, bg2_seq)):
        n_members = len(member_blocks[det_index][0])
        times, energies, counts = _detector_columns(
            np.random.default_rng(seq), exp.source, duration, det_index + 1, suppression,
            profile, exp.response.energy_resolution_fwhm_ev, member_blocks[det_index],
        )
        background_counts.update(counts)
        keep = _apply_response_batch(times, energies, exp.response, resp_rng, n_members, end_tick)
        if np.count_nonzero(keep) < len(keep):  # before any cast: no value out of range
            times = times[keep]
            energies = energies[keep]
        kept_members = keep[:n_members].copy()  # not a view holding keep
        del keep
        stamps = times.view(np.uint64)  # the keys, until unpacked; each entry
        np.copyto(stamps, times, casting="unsafe")  # is cast onto its own bytes
        stamps <<= np.uint64(e_bits)
        np.copyto(energies.view(np.uint64), energies, casting="unsafe")
        stamps |= energies.view(np.uint64)
        del times, energies
        member_keys = stamps[: np.count_nonzero(kept_members)].copy()
        stamps.sort()
        members = _sorted_members(stamps, member_keys, kept_members)
        energies = np.empty(len(stamps), dtype=np.uint32)
        np.bitwise_and(stamps, np.uint64(2**e_bits - 1), out=energies, casting="unsafe")
        stamps >>= np.uint64(e_bits)
        stamps *= np.uint64(tick)
        live = _dead_time_mask(stamps, exp.response.dead_time_ns)
        recorded_members[det_index, pair_members[det_index]] = _members_recorded(
            len(kept_members), members, live
        )
        if np.count_nonzero(live) < len(live):
            stamps = stamps[live]
            energies = energies[live]
        streams.append(Stream(stamps, energies))
        del stamps, energies, live

    both = recorded_members[0] & recorded_members[1]
    manifest = RunManifest(
        seed=int(config.seed),
        duration_s=duration,
        config_hash=config_hash,
        mean_current=profile.mean,
        pairs_generated=pairs_generated,
        pairs_landed_both=pairs_landed_both,
        pairs_detected_both=int(both.sum()),
        singles_detected=tuple(int(np.sum(m & ~both)) for m in recorded_members),
        background_counts=background_counts,
        events_recorded=(len(streams[0]), len(streams[1])),
    )
    return streams[0], streams[1], manifest
