"""
Coincidence analysis of two-detector list-mode streams: candidate
filtering, energy-sum-constrained pairing, the (E1, dt) correlation map,
the time-profile fit and E1 centroid, background-subtracted ROI rates,
the misalignment-scan power-law fit, and the conversion-efficiency
arithmetic.

All operations are pure transformations on immutable inputs.  Streams
are events.Stream columns, which are time-ordered below 2**63 ns by
construction.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .events import AnalysisError, Stream, WindowLimitError, thread_map
from .physics import _Frozen

PAIR_DTYPE = np.dtype(
    [
        ("t1_ns", "<i8"),
        ("t2_ns", "<i8"),
        ("e1_ev", "<u4"),
        ("e2_ev", "<u4"),
        ("dt_ns", "<i8"),
    ]
)


# Most (E1, dt) bins of a correlation map: 128 MiB of int64 counts.
_MAX_MAP_BINS = 2**24

# Most time-window candidates (stream-2 events within the horizon of a
# stream-1 event) in one pairing block: its index and energy temporaries
# take about 40 B each, so a few GB.  Only an absurd horizon or a pile-up
# of events at one time reaches it.
_MAX_WINDOW_PAIRS = 2**26

# Least stream-1 events per pairing block: few enough that a block's index
# arrays stay small, enough that its work outweighs the fixed cost of its
# numpy calls.
_PAIR_BLOCK = 1 << 15


class CoincidenceCriteria(_Frozen):
    """Selection windows and binning for the coincidence search."""

    __slots__ = ("single_energy_window_ev", "sum_center_ev", "sum_half_width_ev",
                 "max_abs_dt_ns", "dt_bin_ns", "e_bin_ev")

    def __init__(
        self,
        single_energy_window_ev: tuple[float, float] = (5000.0, 17000.0),
        sum_center_ev: float = 22000.0,
        sum_half_width_ev: float = 500.0,
        max_abs_dt_ns: int = 2000,
        dt_bin_ns: int = 20,
        e_bin_ev: int = 100,
    ):
        lo, hi = single_energy_window_ev
        if not lo < hi:
            raise AnalysisError("energy window must satisfy min < max")
        if not (math.isfinite(sum_center_ev) and 0 < sum_half_width_ev < math.inf):
            raise AnalysisError("sum_center_ev must be finite, sum_half_width_ev finite and > 0")
        if max_abs_dt_ns < 5 * dt_bin_ns:
            raise AnalysisError("pairing horizon must span at least 5 dt bins")
        if max_abs_dt_ns >= 2**62:  # stamp - horizon must fit in int64
            raise AnalysisError("pairing horizon must be below 2**62 ns")
        if dt_bin_ns <= 0 or e_bin_ev <= 0:
            raise AnalysisError("bin widths must be > 0")
        self._set(single_energy_window_ev, sum_center_ev, sum_half_width_ev, max_abs_dt_ns,
                  dt_bin_ns, e_bin_ev)


class CorrelationMap(NamedTuple):
    """2D histogram of accepted pairs over (E1, t2 - t1).

    counts has shape (len(e_edges) - 1, len(dt_edges) - 1); binning is
    half-open [lo, hi) with the uppermost bin closed.  dt bin edges are
    offset half a bin so clock-tick-aligned differences sit at bin
    centers, which are symmetric about dt = 0.
    """

    e_edges_ev: np.ndarray
    dt_edges_ns: np.ndarray
    counts: np.ndarray
    duration_s: float
    mean_current: float = 1.0

    @property
    def e_centers_ev(self) -> np.ndarray:
        return 0.5 * (self.e_edges_ev[:-1] + self.e_edges_ev[1:])

    @property
    def dt_centers_ns(self) -> np.ndarray:
        return 0.5 * (self.dt_edges_ns[:-1] + self.dt_edges_ns[1:])

    @property
    def dt_marginal(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    def __add__(self, other: "CorrelationMap") -> "CorrelationMap":
        """The map of both maps' pairs: counts and durations add; the edges
        and mean current must be the same, else AnalysisError."""
        if not (np.array_equal(self.e_edges_ev, other.e_edges_ev)
                and np.array_equal(self.dt_edges_ns, other.dt_edges_ns)
                and self.mean_current == other.mean_current):
            raise AnalysisError("maps of different edges or mean current do not add")
        return self._replace(counts=self.counts + other.counts,
                             duration_s=self.duration_s + other.duration_s)


class GaussianFit(NamedTuple):
    """Gaussian-plus-constant fit of one histogram profile.  on_bound
    gives, per parameter in field order, -1 where it ended on its lower
    bound in the fit's box, 1 on its upper bound, else 0."""

    amplitude: float
    center: float
    sigma: float
    baseline: float
    amplitude_err: float
    center_err: float
    sigma_err: float
    baseline_err: float
    on_bound: tuple[int, int, int, int]


class RoiSpec(NamedTuple):
    """Region of interest and accidental sidebands on the map.

    The ROI is |E1 - e_center| <= e_half_width and |dt| <= t_half_width;
    sidebands share the energy band and take |dt| >= sideband_inner out
    to the map's dt reach on both sides.  A time fit of width sigma sets
    the time bounds to roi_sigmas and sideband_sigmas times sigma (fitted).
    """

    e_center_ev: float = 11000.0
    e_half_width_ev: float = 1000.0
    t_half_width_ns: float = 640.0
    sideband_inner_ns: float = 1100.0
    roi_sigmas: float = 3.0
    sideband_sigmas: float = 5.0

    def fitted(self, sigma_ns: float) -> "RoiSpec":
        """This ROI with its time bounds set from a fitted width sigma_ns."""
        return self._replace(t_half_width_ns=self.roi_sigmas * abs(sigma_ns),
                             sideband_inner_ns=self.sideband_sigmas * abs(sigma_ns))

    def energy_rows(self, e_centers_ev: np.ndarray) -> np.ndarray:
        """Which E1 bins, by their centers, the region of interest keeps;
        AnalysisError if it keeps none."""
        rows = np.abs(e_centers_ev - self.e_center_ev) <= self.e_half_width_ev
        if not rows.any():
            raise AnalysisError("roi.e_center_ev +/- roi.e_half_width_ev holds no E1 bin center")
        return rows


class RoiResult(NamedTuple):
    """Background-subtracted pair rate in the region of interest."""

    roi_counts: int
    sideband_counts: int
    sideband_estimate: float
    net_rate_per_hr: float
    net_rate_err_per_hr: float


class ScanResult(NamedTuple):
    """Power-law fit of pair rate versus crystal misalignment."""

    amplitude: float
    exponent: float
    exponent_err: float
    chi2_per_dof: float
    amplitude_fixed: float
    chi2_per_dof_fixed: float


class EfficiencyResult(NamedTuple):
    """Observed rate unfolded to generation rate and conversion efficiency."""

    net_rate_per_hr: float
    observable_rate_per_hr: float
    total_rate_per_hr: float
    efficiency: float
    incident_per_pair: float


class AnalysisResult(NamedTuple):
    """What analyze() produces; measure() gives it with events None.

    time_fit and the E1 centroid with its error are None when that stage
    had nothing to work on (no pairs, no coincident excess) or its fit
    failed.  roi is the region of interest roi_result was measured in,
    from the time "fit" or as "given" (roi_from).
    """

    events: tuple[int, int] | None  # events in stream 1 and stream 2
    corr_map: CorrelationMap
    time_fit: GaussianFit | None
    energy_centroid: float | None
    energy_centroid_err: float | None
    roi: RoiSpec
    roi_result: RoiResult
    roi_from: str

    def summary(self) -> dict[str, str]:
        """The analysis_report.txt entries in file order, values as written;
        no event, time-fit or centroid entries where they are None, and
        time_fit_on_bound only where the fit's center or sigma is."""
        fit, roi, corr_map = self.time_fit, self.roi_result, self.corr_map
        entries: dict[str, object] = dict(zip(("events_d1", "events_d2"), self.events or ()))
        entries.update(
            pairs_accepted=int(corr_map.counts.sum()),
            duration_s=corr_map.duration_s,
            mean_current=corr_map.mean_current,
        )
        if fit is not None:
            entries.update(
                time_sigma_ns=f"{fit.sigma:.2f}",
                time_sigma_err_ns=f"{fit.sigma_err:.2f}",
                time_center_ns=f"{fit.center:.2f}",
                time_center_err_ns=f"{fit.center_err:.2f}",
            )
            # Not the baseline: it sits on its floor whenever the sidebands are empty.
            pinned = [name for name, side in zip(("center", "sigma"), fit.on_bound[1:3]) if side]
            if pinned:
                entries["time_fit_on_bound"] = ",".join(pinned)
        if self.energy_centroid is not None:
            entries.update(
                peak_e1_centroid_ev=f"{self.energy_centroid:.1f}",
                peak_e1_centroid_err_ev=f"{self.energy_centroid_err:.1f}",
            )
        entries.update(
            roi_t_half_width_ns=f"{self.roi.t_half_width_ns:.2f}",
            roi_sideband_inner_ns=f"{self.roi.sideband_inner_ns:.2f}",
            roi_from=self.roi_from,
            roi_counts=roi.roi_counts,
            sideband_counts=roi.sideband_counts,
            sideband_estimate=f"{roi.sideband_estimate:.3f}",
            net_rate_per_hr=f"{roi.net_rate_per_hr:.3f}",
            net_rate_err_per_hr=f"{roi.net_rate_err_per_hr:.3f}",
        )
        return {key: str(value) for key, value in entries.items()}


# ---------------------------------------------------------------------------
# Stream operations


def select_candidates(stream: Stream, criteria: CoincidenceCriteria) -> Stream:
    """Keep events inside the single-photon energy window (closed on both
    ends), preserving order; stream itself when the window keeps every
    event."""
    lo, hi = criteria.single_energy_window_ev
    e = stream.energy_ev
    # The same test on integer bounds in the uint32 range, so that e is not
    # compared as float64; an empty range of them keeps nothing.
    lo = math.ceil(min(max(lo, 0.0), 2.0**32))
    hi = math.floor(min(max(hi, -1.0), 2.0**32 - 1))
    if lo > hi:
        keep = np.zeros(len(e), dtype=bool)
    else:
        keep = (e >= np.uint32(lo)) & (e <= np.uint32(hi))
    if np.count_nonzero(keep) == len(e):
        return stream
    index = np.flatnonzero(keep)
    return Stream(stream.timestamp_ns.take(index), e.take(index))


def find_coincidence_pairs(
    stream1: Stream, stream2: Stream, criteria: CoincidenceCriteria, exclusive: bool = False
) -> np.ndarray:
    """All cross-detector pairs passing the time and energy-sum windows.

    A pair qualifies when |t2 - t1| <= max_abs_dt and
    |E1 + E2 - sum_center| <= sum_half_width.  Stream 1 is cut into
    equal blocks of at least _PAIR_BLOCK events, which run on plain
    threads in fixed shares, the caller running one share (thread_map);
    each block bisects only the slice of stream 2 its windows span: once
    per event for its first candidate, and once more, for the window's
    end, only per event whose first candidate is in its window.  The
    blocks' pairs are joined in block order, so the result
    does not depend on the block size or the thread count.
    Pairs are ordered by stream-1 event, then stream-2 event.  By default
    one event may appear in several pairs; exclusive=True keeps the
    greedy smallest-|dt|-first matching instead.  A block whose windows
    hold more than _MAX_WINDOW_PAIRS candidates raises WindowLimitError
    before it builds any index array.

    Returns a PAIR_DTYPE array with dt = t2 - t1.
    """
    t1 = stream1.timestamp_ns
    t2 = stream2.timestamp_ns
    horizon = int(criteria.max_abs_dt_ns)
    if not len(t1):
        return np.empty(0, dtype=PAIR_DTYPE)

    blocks = max(len(t1) // _PAIR_BLOCK, 1)  # near-equal, of _PAIR_BLOCK keys or more

    def block_pairs(block: int) -> tuple[np.ndarray, np.ndarray]:
        start = len(t1) * block // blocks
        keys = t1[start : len(t1) * (block + 1) // blocks]
        # Lower edges in int64 can go below 0; upper edges in uint64 do
        # not wrap for stamps below 2**63.
        lows = keys.view(np.int64) - horizon
        highs = keys + np.uint64(horizon)
        first = int(np.searchsorted(t2.view(np.int64), lows[0], side="left"))
        window = t2[first : np.searchsorted(t2, highs[-1], side="right")]
        if not len(window):
            return np.empty(0, np.intp), np.empty(0, np.intp)
        lo = np.searchsorted(window.view(np.int64), lows, side="left")
        # Live keys have a partner in time; on busy streams most keys have none.
        live = np.flatnonzero((lo < len(window)) & (window.take(lo, mode="clip") <= highs))
        lo = lo[live]
        counts = np.searchsorted(window, highs[live], side="right") - lo
        candidates = int(counts.sum())
        if candidates > _MAX_WINDOW_PAIRS:
            raise WindowLimitError(
                f"a pairing block of {len(keys)} events has {candidates:.3g} time-window "
                f"candidates, over the limit of {_MAX_WINDOW_PAIRS}"
            )
        idx1 = np.repeat(start + live, counts)
        # Pair p of live key k is stream-2 event first + lo[k] + (p - pairs before k).
        idx2 = np.arange(len(idx1)) - np.repeat(np.cumsum(counts) - counts - lo - first, counts)
        e_sum = stream1.energy_ev[idx1].astype(np.int64) + stream2.energy_ev[idx2]
        in_sum = np.abs(e_sum - criteria.sum_center_ev) <= criteria.sum_half_width_ev
        return idx1[in_sum], idx2[in_sum]

    idx1, idx2 = (np.concatenate(parts) for parts in zip(*thread_map(block_pairs, range(blocks))))
    pairs = np.empty(len(idx1), dtype=PAIR_DTYPE)
    pairs["t1_ns"] = t1[idx1]
    pairs["t2_ns"] = t2[idx2]
    pairs["e1_ev"] = stream1.energy_ev[idx1]
    pairs["e2_ev"] = stream2.energy_ev[idx2]
    pairs["dt_ns"] = pairs["t2_ns"] - pairs["t1_ns"]
    if exclusive:
        pairs = _exclusive_subset(pairs, idx1, idx2)
    return pairs


def _exclusive_subset(pairs: np.ndarray, idx1: np.ndarray, idx2: np.ndarray) -> np.ndarray:
    """The pairs (events idx1[k], idx2[k]) that a greedy pass in stable |dt|
    order keeps while both events are unused, found in rounds: a live pair
    first at both its events is kept, as every earlier pair there shares an
    event with a kept pair; then each live pair at a kept event is dropped."""
    keep = np.zeros(len(pairs), dtype=bool)
    live = np.argsort(np.abs(pairs["dt_ns"]), kind="stable")  # pair numbers, in greedy order
    while len(live):
        leads = np.ones(len(live), dtype=bool)
        labels = []  # each live pair's event, numbered from 0 per stream
        for idx in (idx1, idx2):
            _, first, label = np.unique(idx[live], return_index=True, return_inverse=True)
            leads &= first[label] == np.arange(len(live))
            labels.append(label)
        keep[live[leads]] = True
        live = live[~(np.isin(labels[0], labels[0][leads]) | np.isin(labels[1], labels[1][leads]))]
    return pairs[keep]


def build_correlation_map(
    pairs: np.ndarray,
    criteria: CoincidenceCriteria,
    duration_s: float,
    mean_current: float = 1.0,
) -> CorrelationMap:
    """Histogram accepted pairs over (E1, dt).

    Energy bins are half-open [lo, hi) with the top bin closed; dt bins
    are centered on the multiples of dt_bin within the pairing horizon,
    0 among them, so quantized time differences fall at bin centers.
    Each pair is counted in the bin np.histogram2d gives it over the same
    edges, and pairs outside them are dropped.
    """
    # Rates divide by the exposure in hours, duration x mean current.
    hours = duration_s / 3600.0 * mean_current
    if not (duration_s > 0 and mean_current > 0 and 0 < hours < math.inf):
        raise AnalysisError("duration and mean current must be > 0, with a finite product")
    e_edges, dt_edges = _map_edges(criteria)
    n_e, n_dt = len(e_edges) - 1, len(dt_edges) - 1
    # Pairs outside the edges are counted in a padding row or column.
    rows = _padded_bins(pairs["e1_ev"], e_edges)
    flat = rows * (n_dt + 2) + _padded_bins(pairs["dt_ns"], dt_edges)
    padded = np.bincount(flat, minlength=(n_e + 2) * (n_dt + 2)).reshape(n_e + 2, n_dt + 2)
    return CorrelationMap(
        e_edges_ev=e_edges,
        dt_edges_ns=dt_edges,
        counts=padded[1:-1, 1:-1].astype(np.int64),
        duration_s=duration_s,
        mean_current=mean_current,
    )


def _map_edges(criteria: CoincidenceCriteria) -> tuple[np.ndarray, np.ndarray]:
    """The E1 and dt bin edges of the correlation map; a map of more than
    _MAX_MAP_BINS bins raises AnalysisError before any edge is made."""
    e_lo, e_hi = criteria.single_energy_window_ev
    # Counted in floats, so that no window is too wide to count.
    n_e = float(np.ceil((e_hi - e_lo) / criteria.e_bin_ev))
    n_half = criteria.max_abs_dt_ns // criteria.dt_bin_ns  # dt bin centers on each side of 0
    n_dt = 2.0 * n_half + 1
    if not n_e * n_dt <= _MAX_MAP_BINS:
        raise AnalysisError(f"a map of {n_e * n_dt:.3g} bins is over the limit of {_MAX_MAP_BINS}")
    e_edges = e_lo + criteria.e_bin_ev * np.arange(int(n_e) + 1, dtype=np.float64)
    half = 0.5 * criteria.dt_bin_ns
    dt_edges = -n_half * criteria.dt_bin_ns - half + criteria.dt_bin_ns * np.arange(
        int(n_dt) + 1, dtype=np.float64
    )
    return e_edges, dt_edges


def _padded_bins(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """1 + the bin k of each value with edges[k] <= value < edges[k + 1],
    the top edge closed (np.histogram2d's bin); 0 below the edges and
    len(edges) above.  The edges are evenly spaced, so a division finds
    the edge nearest each value, to well within half a bin, and one
    comparison with that float edge gives the side the value is on."""
    x = values.astype(np.float64)
    upper = np.append(edges[:-1], np.nextafter(edges[-1], np.inf))
    nearest = np.rint((x - edges[0]) / (edges[1] - edges[0]))
    nearest = np.clip(nearest, 0, len(edges) - 1).astype(np.intp)
    return nearest + (x >= upper[nearest])


# ---------------------------------------------------------------------------
# Profile fits


# A profile fit has converged when a Gauss-Newton step would lower the
# loss by less than _DECREMENT_TOL / 2 (and move each parameter by about
# 1e-5 of its error); it fails after _MAX_ITERATIONS steps.
_DECREMENT_TOL = 1e-10
_MAX_ITERATIONS = 100
# The coarse (center, sigma) grid a second start is taken from, and how
# much lower its optimum's loss must be to replace the moment start's
# (far above the loss left at convergence, under _DECREMENT_TOL / 2).
_GRID_CENTERS = 41
_GRID_SIGMAS = 11
_LOSS_MARGIN = 1e-6
# Unless both starts end on one peak, the grid start's optimum must lower
# the loss by this much: a likelihood-ratio chi^2 of 25.
_NEW_PEAK_GAIN = 12.5


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty float64 array, the same float, from a sort
    (np.median would import numpy.ma)."""
    ordered = np.sort(values)
    half = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[half])
    return float((ordered[half - 1] + ordered[half]) / 2)


def _moment_seeds(centers: np.ndarray, counts: np.ndarray):
    baseline0 = _median(counts)
    excess = np.clip(counts - baseline0, 0.0, None)
    span = centers[-1] - centers[0]
    if excess.sum() > 0:
        center0 = float(np.sum(centers * excess) / excess.sum())
        var = float(np.sum((centers - center0) ** 2 * excess) / excess.sum())
        sigma0 = math.sqrt(var) if var > 0 else span / 10.0
    else:
        center0 = float(centers[np.argmax(counts)])
        sigma0 = span / 10.0
    sigma0 = min(max(sigma0, abs(centers[1] - centers[0])), span)
    amplitude0 = max(float(counts.max() - baseline0), 1e-3)
    return amplitude0, center0, sigma0, baseline0


def fit_gaussian_profile(centers: np.ndarray, counts: np.ndarray) -> GaussianFit:
    """Gaussian-plus-constant fit of one histogram of counts by Poisson
    maximum likelihood, which stays unbiased on sparse histograms."""
    centers = np.asarray(centers, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    if len(centers) < 5:
        raise AnalysisError("profile too short to fit")
    if not np.all(counts >= 0):  # nan too
        raise AnalysisError("profile counts must be >= 0")
    if np.all(counts == counts[0]):
        raise AnalysisError("degenerate fit: profile has zero variance")
    return _fit_gaussian(centers, counts)


def _model(x: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-plus-constant mu(x) and its Jacobian in
    p = (amplitude, center, sigma, baseline)."""
    amplitude, center, sigma, baseline = p
    z = (x - center) / sigma
    g = np.exp(-0.5 * z * z)
    jac = np.column_stack(
        [g, amplitude * g * z / sigma, amplitude * g * z * z / sigma, np.ones_like(x)]
    )
    return amplitude * g + baseline, jac


def _fit_gaussian(x: np.ndarray, y: np.ndarray) -> GaussianFit:
    """Levenberg-Marquardt fit of the Gaussian-plus-constant model to the
    Poisson likelihood of the counts y (Baker & Cousins, NIM 221 (1984)
    437), with per-bin weight 1/mu on the residual y - mu.  Steps are
    projected onto the box amplitude >= 0, center inside the window,
    half a bin <= sigma <= the window span (a negative sigma is mirrored
    first: mu depends on sigma^2) and baseline > 0.  A parameter held at
    a bound by its gradient, or with no curvature, sits a step out.

    The fit starts from the profile moments and from the best point of
    a coarse (center, sigma) grid (_grid_start), and returns the moment
    start's optimum unless the grid start's has a lower loss: lower by
    more than _LOSS_MARGIN where both describe one peak (amplitudes > 0,
    each center within two sigmas of the other), otherwise by
    _NEW_PEAK_GAIN, since some noise bump, or a spike of half a bin,
    always fits a profile a little better.  Raises AnalysisError when
    neither start converges in _MAX_ITERATIONS steps with some damping
    lowering the loss.
    """
    lo = np.array([0.0, x[0], 0.5 * abs(x[1] - x[0]), 1e-9 * y.max()])
    hi = np.array([np.inf, x[-1], x[-1] - x[0], np.inf])

    def loss(mu):  # half the likelihood-ratio chi^2, per row of mu
        return np.sum(mu - y + y * np.log(np.where(y > 0, y, 1.0) / mu), axis=-1)

    fits, failures = [], []
    for start in (_moment_seeds(x, y), _grid_start(x, y, lo, hi, loss)):
        try:
            fits.append(_levenberg_marquardt(x, y, np.clip(start, lo, hi), lo, hi, loss))
        except AnalysisError as exc:
            failures.append(exc)
    if not fits:
        raise failures[0]
    (fit, value), (other, other_value) = fits[0], fits[-1]
    one_peak = min(fit.amplitude, other.amplitude) > 0 and abs(
        fit.center - other.center
    ) <= 2 * min(fit.sigma, other.sigma)
    margin = _LOSS_MARGIN if one_peak else _NEW_PEAK_GAIN
    return other if other_value < value - margin else fit


def _grid_start(x, y, lo, hi, loss) -> np.ndarray:
    """The grid point of lowest loss among _GRID_CENTERS centers across
    the window and _GRID_SIGMAS log-spaced sigmas from the least to the
    largest in the box.  Given center and sigma the model is linear in
    amplitude and baseline, so at each point they come from a linear
    least-squares fit with unit weights w, clipped to the box."""
    w = np.ones_like(y)
    sw, swy = w.sum(), w @ y
    centers = np.linspace(x[0], x[-1], _GRID_CENTERS)
    half_square = -0.5 * (x - centers[:, None]) ** 2
    best, best_loss = None, np.inf
    for sigma in np.geomspace(lo[2], hi[2], _GRID_SIGMAS):
        g = np.exp(half_square / sigma**2)
        swg, swgg, swgy = g @ w, (g * g) @ w, g @ (w * y)
        det = swgg * sw - swg * swg
        with np.errstate(divide="ignore", invalid="ignore"):  # det 0: no start there
            amplitude = (swgy * sw - swg * swy) / det
            baseline = (swgg * swy - swg * swgy) / det
            p = np.column_stack([amplitude, centers, np.full_like(centers, sigma), baseline])
            p = np.clip(p, lo, hi)
            values = loss(p[:, :1] * g + p[:, 3:])
        values = np.where(np.isfinite(values), values, np.inf)
        i = int(np.argmin(values))
        if best is None or values[i] < best_loss:
            best, best_loss = p[i], values[i]
    return best


def _levenberg_marquardt(x, y, p, lo, hi, loss) -> tuple[GaussianFit, float]:
    """The fit of _fit_gaussian from the start p inside the box [lo, hi],
    and its loss."""
    mu, jac = _model(x, p)
    current = float(loss(mu))
    damping, growth = 1e-3, 2.0  # Madsen, Nielsen & Tingleff (2004), sec. 3.2
    for _ in range(_MAX_ITERATIONS):
        weight = 1.0 / mu
        descent = jac.T @ (weight * (y - mu))  # minus the gradient of the loss
        fisher = jac.T @ (weight[:, None] * jac)
        scale = np.sqrt(np.diag(fisher))
        held = ((p <= lo) & (descent < 0)) | ((p >= hi) & (descent > 0))
        free = (scale > 0) & ~held
        g = descent[free] / scale[free]
        a = fisher[np.ix_(free, free)] / np.outer(scale[free], scale[free])
        eye = np.eye(len(g))
        if g @ np.linalg.solve(a + 1e-12 * eye, g) < _DECREMENT_TOL:
            on_bound = (p == hi).astype(int) - (p == lo)
            errs = _fit_errors(x, y, p, mu, jac, on_bound != 0)
            return GaussianFit(*p.tolist(), *errs.tolist(), tuple(on_bound.tolist())), current
        while True:
            step = np.zeros(4)
            step[free] = np.linalg.solve(a + damping * eye, g) / scale[free]
            trial = p + step
            trial[2] = abs(trial[2])
            trial = np.clip(trial, lo, hi)
            step = trial - p
            predicted = step @ descent - 0.5 * step @ fisher @ step
            trial_mu, trial_jac = _model(x, trial)
            trial_loss = float(loss(trial_mu))
            if predicted > 0 and trial_loss < current:
                gain = (current - trial_loss) / predicted
                damping *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                growth = 2.0
                p, mu, jac, current = trial, trial_mu, trial_jac, trial_loss
                break
            damping *= growth
            growth *= 2.0
            if damping > 1e12:
                raise AnalysisError("profile fit did not converge: no step lowers the loss")
    raise AnalysisError(f"profile fit did not converge in {_MAX_ITERATIONS} steps")


def _fit_errors(x, y, p, mu, jac, on_bound) -> np.ndarray:
    """Errors at the optimum p from the observed Hessian of the loss,
    J^T diag(y/mu^2) J + sum (1 - y/mu) d2mu (d2mu/dA2 = 0 and the
    baseline enters linearly).  No curvature (center and sigma at zero
    amplitude) gives an infinite error; a parameter on a bound gets
    1/sqrt(curvature), the rest the inverse of their Hessian (infinite
    errors when it is singular)."""
    amplitude, center, sigma, _ = p
    z = (x - center) / sigma
    w = (1.0 - y / mu) * np.exp(-0.5 * z * z) / sigma
    ac, as_ = w @ z, w @ z**2
    cc, cs, ss = amplitude / sigma * np.array(
        [w @ (z**2 - 1.0), w @ (z**3 - 2.0 * z), w @ (z**4 - 3.0 * z**2)]
    )
    hessian = jac.T @ ((y / mu**2)[:, None] * jac)
    hessian[:3, :3] += [[0.0, ac, as_], [ac, cc, cs], [as_, cs, ss]]
    curvature = np.diag(hessian)
    variances = np.full(4, np.inf)
    pinned = (curvature > 0) & on_bound
    variances[pinned] = 1.0 / curvature[pinned]
    off = (curvature > 0) & ~on_bound
    try:
        variances[off] = np.diag(np.linalg.inv(hessian[np.ix_(off, off)]))
    except np.linalg.LinAlgError:
        pass
    return np.sqrt(np.where(variances > 0, variances, np.inf))


def fit_time_profile(corr_map: CorrelationMap) -> GaussianFit:
    """Fit the inter-detector time-difference marginal.

    The marginal already contains only sum-window-passing pairs; the fit
    returns the coincidence peak width, center, amplitude and accidental
    baseline per dt bin.
    """
    marginal = corr_map.dt_marginal
    if marginal.sum() == 0:
        raise AnalysisError("empty dt marginal")
    return fit_gaussian_profile(corr_map.dt_centers_ns, marginal)


def _on_and_off(corr_map: CorrelationMap, roi: RoiSpec) -> tuple[np.ndarray, np.ndarray, float]:
    """For each E1 bin, the counts on time (|dt| <= t_half_width) and in the
    sidebands (|dt| >= sideband_inner), and alpha, the ratio of their dt
    column counts, which scales the sideband counts to the accidentals on
    time."""
    if roi.sideband_inner_ns <= roi.t_half_width_ns:
        raise AnalysisError("sidebands overlap the region of interest")
    abs_dt = np.abs(corr_map.dt_centers_ns)
    on_cols = abs_dt <= roi.t_half_width_ns
    off_cols = abs_dt >= roi.sideband_inner_ns
    if not on_cols.any() or not off_cols.any():
        raise AnalysisError("roi.t_half_width_ns or roi.sideband_inner_ns selects no dt bin")
    on = corr_map.counts[:, on_cols].sum(axis=1)
    off = corr_map.counts[:, off_cols].sum(axis=1)
    return on, off, on_cols.sum() / off_cols.sum()


def energy_peak_centroid(corr_map: CorrelationMap, roi: RoiSpec) -> tuple[float, float]:
    """Centroid c (first moment) of the positive coincident excess vs E1,
    which suits any shape (the down-converted pairs fill a box over the
    split window), and its error sigma_c^2 = sum (E_i - c)^2 err_i^2 / W^2
    over the bins with net_i > 0, where W = sum max(net_i, 0), in eV, plus
    each pair's place within its bin, b^2 / 12 / W for bins of width b.  The
    excess is the on-time E1 spectrum of roi less its sidebands scaled by
    alpha, over every E1 bin.  On pairs alone the pulls have unit width;
    under heavy accidentals the error is conservative (pull widths of
    0.8-0.95 in toys).
    """
    on, off, scale = _on_and_off(corr_map, roi)
    profile = on - scale * off
    errors = np.sqrt(np.maximum(on + scale * scale * off, 1.0))
    weights = np.clip(profile, 0.0, None)
    total = weights.sum()
    if total <= 0:
        raise AnalysisError("no coincident excess")
    centroid = float(np.sum(corr_map.e_centers_ev * weights) / total)
    positive = profile > 0
    spread = (corr_map.e_centers_ev[positive] - centroid) * errors[positive]
    within = weights @ np.diff(corr_map.e_edges_ev) ** 2 / 12
    return centroid, math.sqrt(float(spread @ spread + within)) / float(total)


# Looked up by the benchmark tracer (perfbench/tracing.py); analyze does not call it.
fit_energy_profile = energy_peak_centroid


# ---------------------------------------------------------------------------
# Rates


def roi_rate(corr_map: CorrelationMap, roi: RoiSpec) -> RoiResult:
    """Accidental-subtracted pair rate inside the region of interest.

    The sideband estimate uses both dt sides, scaled by the bin-count
    ratio; the net rate is normalized by run duration and mean relative
    beam current, in pairs/hour, with Poisson error propagation from
    both regions.
    """
    on, off, scale = _on_and_off(corr_map, roi)
    e_rows = roi.energy_rows(corr_map.e_centers_ev)
    roi_counts = int(on[e_rows].sum())
    sb_counts = int(off[e_rows].sum())
    net_counts = roi_counts - scale * sb_counts
    variance = roi_counts + scale * scale * sb_counts
    hours = corr_map.duration_s / 3600.0 * corr_map.mean_current
    rate, rate_err = float(net_counts) / hours, math.sqrt(variance) / hours
    if not (math.isfinite(rate) and math.isfinite(rate_err)):
        raise AnalysisError(f"an exposure of {hours:.3g} h is too short for a finite rate")
    return RoiResult(
        roi_counts=roi_counts,
        sideband_counts=sb_counts,
        sideband_estimate=scale * sb_counts,
        net_rate_per_hr=rate,
        net_rate_err_per_hr=rate_err,
    )


def fit_misalignment_scan(
    points: list[tuple[float, float, float]]
) -> ScanResult:
    """Weighted power-law fit of rate versus detuning.

    Fits log(rate) = log(A) + p * log(detuning) by weighted least
    squares, reporting the free-exponent solution and the fixed
    p = -1/2 amplitude fit with chi^2/dof for both.  Every detuning,
    rate and rate error must be > 0.  Detunings are in millidegrees; A
    is the rate at 1 mdeg.
    """
    for detuning_mdeg, rate, err in points:
        if not detuning_mdeg > 0:
            raise AnalysisError("detunings must be > 0")
        if not rate > 0:
            raise AnalysisError("rates must be > 0")
        if not err > 0:
            raise AnalysisError("rate errors must be > 0")
    if len(points) < 2:
        raise AnalysisError("need at least 2 usable points to fit")

    detunings, rates, errors = np.array(points).T
    if np.ptp(detunings) == 0:
        raise AnalysisError("degenerate scan: detunings are identical")
    u, v = np.log(detunings), np.log(rates)
    w = (rates / errors) ** 2  # 1/sigma_logr^2
    (slope, intercept), cov = np.polyfit(u, v, 1, w=np.sqrt(w), cov="unscaled")
    chi2 = float((w * (v - (intercept + slope * u)) ** 2).sum()) / max(len(points) - 2, 1)

    # Fixed-exponent fit: log(rate) + 0.5 log(detuning) = log(A)
    target = v + 0.5 * u
    a_fixed = float(np.average(target, weights=w))
    chi2_fixed = float((w * (target - a_fixed) ** 2).sum()) / max(len(points) - 1, 1)

    return ScanResult(
        amplitude=math.exp(intercept),
        exponent=float(slope),
        exponent_err=math.sqrt(cov[0, 0]),
        chi2_per_dof=chi2,
        amplitude_fixed=math.exp(a_fixed),
        chi2_per_dof_fixed=chi2_fixed,
    )


def conversion_efficiency(
    net_rate_per_hr: float,
    acceptance: float,
    chain_efficiency: float,
    incident_rate_per_s: float,
) -> EfficiencyResult:
    """Unfold an observed pair rate to the generation rate and efficiency.

    observable = net / acceptance corrects the ring coverage; total =
    observable / chain_efficiency corrects air and detector losses;
    efficiency = total / incident pump rate (per hour).
    """
    if not 0.0 < acceptance <= 1.0:
        raise AnalysisError("acceptance must be in (0, 1]")
    if not 0.0 < chain_efficiency <= 1.0:
        raise AnalysisError("chain efficiency must be in (0, 1]")
    if incident_rate_per_s <= 0:
        raise AnalysisError("incident rate must be > 0")
    observable = net_rate_per_hr / acceptance
    total = observable / chain_efficiency
    if not math.isfinite(total):
        raise AnalysisError(f"net rate {net_rate_per_hr} /hr does not unfold to a finite rate")
    incident_per_hr = incident_rate_per_s * 3600.0
    efficiency = total / incident_per_hr
    incident_per_pair = (
        incident_per_hr / net_rate_per_hr if net_rate_per_hr > 0 else math.inf
    )
    return EfficiencyResult(
        net_rate_per_hr=net_rate_per_hr,
        observable_rate_per_hr=observable,
        total_rate_per_hr=total,
        efficiency=efficiency,
        incident_per_pair=incident_per_pair,
    )


# ---------------------------------------------------------------------------
# Pipeline


def _optional(stage, *args):
    """stage(*args), or None when it raises AnalysisError."""
    try:
        return stage(*args)
    except AnalysisError:
        return None


def check_settings(criteria: CoincidenceCriteria, roi: RoiSpec) -> None:
    """Raise AnalysisError for analyze settings that no streams could
    satisfy, whichever time bounds the region of interest ends up with;
    the time bounds of a given roi are checked by measure, where it is used."""
    if not 0 < roi.roi_sigmas < roi.sideband_sigmas < math.inf:
        raise AnalysisError("roi_sigmas and sideband_sigmas need 0 < roi_sigmas < sideband_sigmas")
    if not (math.isfinite(roi.e_center_ev) and 0 < roi.e_half_width_ev < math.inf):
        raise AnalysisError("roi.e_center_ev must be finite, roi.e_half_width_ev finite and > 0")
    e_edges, _ = _map_edges(criteria)
    roi.energy_rows(0.5 * (e_edges[:-1] + e_edges[1:]))


def correlate(
    stream1: Stream, stream2: Stream, criteria: CoincidenceCriteria, duration_s: float,
    mean_current: float = 1.0, exclusive: bool = False,
) -> CorrelationMap:
    """The first half of analyze: the (E1, dt) map of the accepted pairs
    of two streams (exclusive as in find_coincidence_pairs)."""
    cand1 = select_candidates(stream1, criteria)
    cand2 = select_candidates(stream2, criteria)
    pairs = find_coincidence_pairs(cand1, cand2, criteria, exclusive=exclusive)
    return build_correlation_map(pairs, criteria, duration_s, mean_current)


def measure(corr_map: CorrelationMap, roi: RoiSpec = RoiSpec()) -> AnalysisResult:
    """The second half of analyze: the time fit, the region of interest,
    and the net rate and E1 centroid measured in it, with events None.
    The region of interest is roi.fitted(sigma) of the time fit.  roi is
    used as given instead (its defaults assume the nominal 212 ns width)
    when the time fit failed, when its amplitude is under twice its error
    (a sparse profile, whose fitted width can shut out its few pairs),
    when its center is on a bound or its sigma on the upper
    one (no peak was found; a sigma of half a dt bin, its lower bound,
    still sets +-1.5 bins at 3 sigmas), or when the fitted half-width is
    under one dt bin or the sidebands would start beyond 0.9 of the dt
    reach, both read from the map's edges.  roi is taken as check_settings
    accepts it; a given roi narrower than one dt bin raises where it would
    be used.
    """
    dt_edges = corr_map.dt_edges_ns
    dt_bin = dt_edges[1] - dt_edges[0]
    reach = dt_edges[-1] - 0.5 * dt_bin  # the largest |dt| bin center
    time_fit = _optional(fit_time_profile, corr_map)
    roi_from = "given"
    if time_fit is not None:
        fitted = roi.fitted(time_fit.sigma)
        if (
            time_fit.amplitude >= 2 * time_fit.amplitude_err
            and time_fit.on_bound[1] == 0
            and time_fit.on_bound[2] < 1
            and fitted.t_half_width_ns >= dt_bin
            and fitted.sideband_inner_ns < 0.9 * reach
        ):
            roi, roi_from = fitted, "fit"
    if roi_from == "given" and not roi.t_half_width_ns >= dt_bin:
        raise AnalysisError(
            f"the given roi.t_half_width_ns = {roi.t_half_width_ns:g} is under "
            f"criteria.dt_bin_ns = {dt_bin:g}, and no fit replaced it"
        )
    roi_result = roi_rate(corr_map, roi)
    centroid, centroid_err = _optional(energy_peak_centroid, corr_map, roi) or (None, None)
    return AnalysisResult(
        None, corr_map, time_fit, centroid, centroid_err, roi, roi_result, roi_from
    )


def analyze(
    stream1: Stream, stream2: Stream, criteria: CoincidenceCriteria, duration_s: float,
    mean_current: float = 1.0, roi: RoiSpec = RoiSpec(), exclusive: bool = False,
) -> AnalysisResult:
    """The coincidence analysis of two detector streams, end to end:
    check_settings, before the streams are used, then correlate and
    measure, with the events of each stream in the result.
    """
    check_settings(criteria, roi)
    corr_map = correlate(stream1, stream2, criteria, duration_s, mean_current, exclusive)
    return measure(corr_map, roi)._replace(events=(len(stream1), len(stream2)))
