"""
Monte Carlo generation of timestamped, energy-tagged photon event streams
for the two coincidence detectors: down-converted pairs, fluorescence
lines, Compton and elastic background, detector response, and
beam-current drift.

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
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .physics import (
    BeamConfig,
    ChainEfficiencyModel,
    CrystalConfig,
    DetectorGeometry,
    FWHM_OVER_SIGMA,
    bragg_angle,
    emission_angles,
    polarization_suppression,
)


@dataclass(frozen=True)
class Stream:
    """One detector's events as two aligned columns of equal length:
    timestamp_ns (uint64, non-decreasing, below 2**63) and energy_ev
    (uint32).  Construction raises ValueError for any other columns, so
    every stage may take a Stream's order as given."""

    timestamp_ns: np.ndarray
    energy_ev: np.ndarray

    def __post_init__(self):  # no copy where the dtypes already match
        object.__setattr__(self, "timestamp_ns", np.asarray(self.timestamp_ns, dtype=np.uint64))
        object.__setattr__(self, "energy_ev", np.asarray(self.energy_ev, dtype=np.uint32))
        if self.timestamp_ns.ndim != 1 or self.timestamp_ns.shape != self.energy_ev.shape:
            raise ValueError("Stream columns must be one-dimensional and of equal length")
        if not stamps_in_order(self.timestamp_ns):
            raise ValueError("Stream timestamps decrease or reach 2**63 ns")

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
    """[function(item) for item in items], on up to one thread per usable
    CPU (for numpy work, which releases the GIL); no pool for one thread."""
    workers = min(len(items), usable_cpus())
    if workers <= 1:
        return [function(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # 0.01 s, only for a pool

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(function, items))


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


@dataclass(frozen=True)
class GaussianLine:
    """One background component: Gaussian energy profile at a fixed rate."""

    label: str
    center_ev: float
    fwhm_ev: float
    rate_per_s: float
    # Polarization-sensitive components (elastic, Compton) are scaled by
    # the suppression factor; isotropic fluorescence is not.
    suppressed: bool = False

    def __post_init__(self):
        if self.rate_per_s < 0:
            raise ConfigError(f"background rate for {self.label!r} must be >= 0")
        if self.center_ev <= 0 or self.fwhm_ev < 0:
            raise ConfigError(f"bad line shape for {self.label!r}")

    def rate(self, suppression: float) -> float:
        """Rate in /s under the given polarization suppression factor."""
        return self.rate_per_s * (suppression if self.suppressed else 1.0)


@dataclass(frozen=True)
class SourceModel:
    """True pair rate plus per-detector background components.

    true_pair_rate_per_s counts pairs emitted into the full azimuthal
    ring with energy splits inside the configured split window.
    components holds one tuple of background components per detector
    (detector 1, detector 2); each component draws its own random
    numbers, in tuple order.
    """

    true_pair_rate_per_s: float = 18900.0 / 3600.0
    components: tuple[tuple[GaussianLine, ...], tuple[GaussianLine, ...]] = ((), ())

    def __post_init__(self):
        if self.true_pair_rate_per_s < 0:
            raise ConfigError("pair rate must be >= 0")


@dataclass(frozen=True)
class DetectorResponse:
    """Recording chain: energy resolution, time jitter, clock, range."""

    energy_resolution_fwhm_ev: float = 150.0
    time_jitter_sigma_ns: float = 150.0
    clock_tick_ns: int = 20
    energy_range_ev: tuple[float, float] = (1000.0, 30000.0)
    dead_time_ns: float = 0.0  # non-paralyzable; 0 disables

    def __post_init__(self):
        if self.energy_resolution_fwhm_ev < 0 or self.time_jitter_sigma_ns < 0:
            raise ConfigError("response widths must be >= 0")
        if self.clock_tick_ns <= 0:
            raise ConfigError("clock tick must be > 0")
        if self.clock_tick_ns >= 2**32:  # the list-mode header's u32 field
            raise ConfigError("clock tick must be under 2**32 ns (about 4.3 s)")
        lo, hi = self.energy_range_ev
        if not 0 < lo < hi:
            raise ConfigError("energy range must satisfy 0 < min < max")
        if self.dead_time_ns < 0:
            raise ConfigError("dead time must be >= 0")


@dataclass(frozen=True)
class BeamCurrentProfile:
    """Piecewise-constant relative beam current over the run.

    Segments of equal duration span the run; values are normalized to a
    mean of 1 at construction so configured rates refer to the mean
    current.
    """

    values: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if not self.values or any(v <= 0 for v in self.values):
            raise ConfigError("beam current values must be > 0")
        mean = sum(self.values) / len(self.values)
        values = tuple(v / mean for v in self.values)
        # Huge values overflow the mean; a spread past the float range
        # underflows a segment to 0.
        if not all(math.isfinite(v) and v > 0 for v in (mean, *values)):
            raise ConfigError("beam current values do not normalize to a finite mean of 1")
        object.__setattr__(self, "values", values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    def segments(self, duration_s: float) -> list[tuple[float, float, float]]:
        """(t_start_s, t_end_s, relative_value) covering [0, duration)."""
        n = len(self.values)
        seg = duration_s / n
        return [(i * seg, (i + 1) * seg, v) for i, v in enumerate(self.values)]


@dataclass(frozen=True)
class ExperimentModel:
    """Everything the sampler needs: crystal, beam, detectors, source,
    response and efficiency chain."""

    crystal: CrystalConfig = field(default_factory=CrystalConfig)
    beam: BeamConfig = field(default_factory=BeamConfig)
    detectors: tuple[DetectorGeometry, DetectorGeometry] = (
        DetectorGeometry(distance_mm=1351.0),
        DetectorGeometry(distance_mm=1560.0),
    )
    source: SourceModel = field(default_factory=SourceModel)
    response: DetectorResponse = field(default_factory=DetectorResponse)
    chain: ChainEfficiencyModel = field(default_factory=ChainEfficiencyModel)
    # Energy-split sampling window; None derives it from the detector
    # radial spans (see split_window()).
    split_window_x: tuple[float, float] | None = None

    def theta_b(self) -> float:
        return bragg_angle(self.beam.pump_energy_ev, self.crystal)

    def degenerate_offset(self) -> float:
        """Emission angle of the degenerate x = 0.5 split."""
        return float(emission_angles(0.5, self.crystal.detuning_rad, self.theta_b())[0])

    def positioned_detectors(self) -> tuple[DetectorGeometry, DetectorGeometry]:
        """Detectors with zero offsets replaced by the degenerate angle."""
        if self.crystal.detuning_rad <= 0:
            return self.detectors
        r0 = self.degenerate_offset()
        return tuple(
            replace(d, center_angle_offset_rad=r0)
            if d.center_angle_offset_rad == 0.0
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
        # Signal on detector 1: R(x) = r0 sqrt((1-x)/x) inside its span.
        c1, h1 = det1.center_angle_offset_rad, det1.half_extent_rad
        if c1 + h1 > 0:
            lo = max(lo, 1.0 / (1.0 + ((c1 + h1) / r0) ** 2))
        if c1 - h1 > 0:
            hi = min(hi, 1.0 / (1.0 + ((c1 - h1) / r0) ** 2))
        # Idler on detector 2: R(y) = r0 sqrt(x/(1-x)) inside its span.
        c2, h2 = det2.center_angle_offset_rad, det2.half_extent_rad
        if c2 - h2 > 0:
            q = ((c2 - h2) / r0) ** 2
            lo = max(lo, q / (1.0 + q))
        if c2 + h2 > 0:
            q = ((c2 + h2) / r0) ** 2
            hi = min(hi, q / (1.0 + q))
        if not lo < hi:
            return band
        return (lo, hi)


@dataclass(frozen=True)
class RunConfig:
    """One simulated acquisition."""

    duration_s: float = 1800.0
    seed: int = 1
    experiment: ExperimentModel = field(default_factory=ExperimentModel)
    beam_current_profile: BeamCurrentProfile = field(
        default_factory=BeamCurrentProfile
    )

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ConfigError("duration must be > 0")
        if self.duration_s * 1e9 >= 2**63:  # timestamps are analysed as int64 ns
            raise ConfigError("duration must be under 2**63 ns (about 292 years)")
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigError("seed must fit in 64 bits")


@dataclass
class RunManifest:
    """Ground-truth counters recorded alongside the event streams."""

    seed: int
    duration_s: float
    config_hash: int
    mean_current: float
    pairs_generated: int = 0
    pairs_landed_both: int = 0
    pairs_detected_both: int = 0
    singles_detected: tuple[int, int] = (0, 0)
    background_counts: dict[str, int] = field(default_factory=dict)
    events_recorded: tuple[int, int] = (0, 0)

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
# default run, about 26 GB at the ~26 B per event a simulation peaks at.
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
    chunks = []
    for t0, t1, value in profile.segments(duration_s):
        lam = rate_per_s * value * (t1 - t0)
        n = rng.poisson(lam)
        if n:
            chunks.append(rng.uniform(t0 * 1e9, t1 * 1e9, n))
    if not chunks:
        return np.empty(0, dtype=np.float64)
    times = np.concatenate(chunks)
    times.sort()
    return times


def _landing_probability_arrays(
    experiment: ExperimentModel,
    x: np.ndarray,
    phi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Geometric landing decisions for signal (detector 1) and idler
    (detector 2), given energy splits and the signal azimuth.

    The signal azimuth phi is measured from detector 1's center; the
    idler leaves back-to-back on the ring, so with the detectors on
    opposite sides of the Laue spot the same phi governs both arcs.
    Landing requires the photon's ring to cross the detector's radial
    span and the azimuth to fall on the intercepted arc.
    """
    theta_b = experiment.theta_b()
    det1, det2 = experiment.positioned_detectors()
    r_x, r_y = emission_angles(x, experiment.crystal.detuning_rad, theta_b)
    land = []
    for det, angle in ((det1, r_x), (det2, r_y)):
        radial = np.abs(angle - det.center_angle_offset_rad) <= det.half_extent_rad
        ring_radius = det.distance_mm * np.tan(angle)
        half_arc = np.where(
            ring_radius <= 0.5 * det.side_mm,
            np.pi,
            0.5 * det.side_mm / np.maximum(ring_radius, 1e-12),
        )
        land.append(radial & (np.abs(phi) <= half_arc))
    return land[0], land[1]


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
    phi = rng.uniform(-np.pi, np.pi, n)
    land1, land2 = _landing_probability_arrays(experiment, x, phi)
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


def _background_arrays(
    rng: np.random.Generator,
    source: SourceModel,
    duration_s: float,
    detector_id: int,
    suppression: float,
    profile: BeamCurrentProfile,
) -> tuple[list[np.ndarray], list[np.ndarray], dict[str, int]]:
    """Background (time blocks ns, energy blocks eV, per-component
    counts) for one detector: one block per component, in tuple order,
    each sorted in time.

    Each component is an independent Poisson process, thinned by the
    beam-current profile, with Gaussian-distributed energies.
    Components flagged as polarization-suppressed have their rates
    multiplied by the suppression factor.
    """
    times_blocks = []
    energy_blocks = []
    counts: dict[str, int] = {}
    for line in source.components[detector_id - 1]:
        times = _poisson_times(rng, line.rate(suppression), duration_s, profile)
        energies = rng.normal(
            line.center_ev, line.fwhm_ev / FWHM_OVER_SIGMA, len(times)
        )
        counts[f"d{detector_id}_{line.label}"] = len(times)
        times_blocks.append(times)
        energy_blocks.append(energies)
    return times_blocks, energy_blocks, counts


def _apply_response_batch(
    times_ns: np.ndarray,
    energies_ev: np.ndarray,
    response: DetectorResponse,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smear photons through the recording chain, in place.

    Adds Gaussian time jitter and Gaussian energy noise (sigma = fwhm /
    2.355), quantizes the timestamp to the clock tick and the energy to
    integer eV, and drops the event if the recorded energy falls outside
    the recordable range (or the jittered time precedes the run start).
    The float64 inputs are overwritten with the recorded values and
    returned with the keep mask: (timestamps, energies, keep); only
    entries with keep True are valid records.
    """
    n = len(times_ns)
    if response.time_jitter_sigma_ns > 0:
        times_ns += rng.normal(0.0, response.time_jitter_sigma_ns, n)
    if response.energy_resolution_fwhm_ev > 0:
        energies_ev += rng.normal(
            0.0, response.energy_resolution_fwhm_ev / FWHM_OVER_SIGMA, n
        )
    tick = response.clock_tick_ns
    times_ns /= tick  # floor(t / tick + 0.5) * tick, without temporaries
    times_ns += 0.5
    np.floor(times_ns, out=times_ns)
    times_ns *= tick
    np.rint(energies_ev, out=energies_ev)
    lo, hi = response.energy_range_ev
    keep = (times_ns >= 0) & (energies_ev >= lo) & (energies_ev <= hi)
    return times_ns, energies_ev, keep


def _sorted_members(kept: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the kept leading entries of a detector's block sit after the
    sort, and which leading entry each one is.

    kept is the response keep mask over those entries and order the
    stable argsort of all kept stamps.  The kept leading entries are the
    first count_nonzero(kept) of the kept ones, so they sit where order
    is below that count.  Both arrays are as long as the kept members, so
    the full-length order need not be held through the dead-time walk.
    """
    at = np.flatnonzero(order < np.count_nonzero(kept))
    return at, np.flatnonzero(kept)[order[at]]


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

    Each Stream is sorted by timestamp.  The manifest carries ground
    truth: pairs generated, pairs landed/detected on both detectors, and
    background counts per component.
    """
    expected = _expected_photons(config)
    if expected > _MAX_EXPECTED_EVENTS:
        raise ConfigError(
            f"run would generate about {expected:.3g} photons, above the limit of "
            f"{_MAX_EXPECTED_EVENTS:.0e}; shorten run.duration or lower the rates"
        )
    exp = config.experiment
    duration = config.duration_s
    profile = config.beam_current_profile
    master = np.random.SeedSequence(int(config.seed))
    pair_seq, bg1_seq, bg2_seq, resp_seq = master.spawn(4)

    manifest = RunManifest(
        seed=int(config.seed),
        duration_s=duration,
        config_hash=config_hash,
        mean_current=profile.mean,
    )

    # Down-converted pairs (only when the cone is open): the times and
    # energies of the members each detector receives.
    pair_members = np.zeros((2, 0), dtype=bool)  # pairs sending a photon to each
    member_blocks = [(np.empty(0), np.empty(0))] * 2
    if exp.crystal.detuning_rad > 0 and exp.source.true_pair_rate_per_s > 0:
        rng = np.random.default_rng(pair_seq)
        rate = exp.source.true_pair_rate_per_s * exp.crystal.effective_rate_scale
        times = _poisson_times(rng, rate, duration, profile)
        batch = _sample_pair_batch(rng, exp, times)
        manifest.pairs_generated = len(times)
        manifest.pairs_landed_both = int(
            np.sum(batch["signal_landed"] & batch["idler_landed"])
        )
        pair_members = np.stack([batch["signal_detected"], batch["idler_detected"]])
        member_blocks = [
            (times[mask], batch[energy][mask])
            for mask, energy in zip(pair_members, ("e_signal", "e_idler"))
        ]

    # One detector at a time: its background (an independent generator
    # per detector), then the response (one generator, detector 1
    # first), sort and dead time, freeing each full-length array as soon
    # as the next one is made.
    suppression = polarization_suppression(
        exp.theta_b(), exp.beam.polarization_angle_rad
    )
    resp_rng = np.random.default_rng(resp_seq)
    streams = []
    recorded_members = np.zeros_like(pair_members)
    for det_index, seq in enumerate((bg1_seq, bg2_seq)):
        bg_times, bg_energies, counts = _background_arrays(
            np.random.default_rng(seq), exp.source, duration, det_index + 1, suppression, profile
        )
        manifest.background_counts.update(counts)
        member_times, member_energies = member_blocks[det_index]
        times = np.concatenate([member_times, *bg_times])  # pair members lead
        bg_times.clear()
        energies = np.concatenate([member_energies, *bg_energies])
        bg_energies.clear()
        _, _, keep = _apply_response_batch(times, energies, exp.response, resp_rng)
        times = times[keep]
        energies = energies[keep]
        kept_members = keep[: len(member_times)].copy()  # not a view holding keep
        del keep
        stamps = times.astype(np.uint64)
        del times
        energies = energies.astype(np.uint32)
        # Stable, so that tied timestamps keep their block order.
        order = np.argsort(stamps, kind="stable")
        stamps = stamps[order]
        energies = energies[order]
        members = _sorted_members(kept_members, order)
        del order
        live = _dead_time_mask(stamps, exp.response.dead_time_ns)
        recorded_members[det_index, pair_members[det_index]] = _members_recorded(
            len(kept_members), members, live
        )
        streams.append(Stream(stamps[live], energies[live]))
        del stamps, energies, live

    both = recorded_members[0] & recorded_members[1]
    manifest.pairs_detected_both = int(both.sum())
    manifest.singles_detected = tuple(int(np.sum(m & ~both)) for m in recorded_members)
    manifest.events_recorded = (len(streams[0]), len(streams[1]))
    return streams[0], streams[1], manifest
