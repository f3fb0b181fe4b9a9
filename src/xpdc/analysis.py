"""
Coincidence analysis of two-detector list-mode streams: candidate
filtering, energy-sum-constrained pairing, the (E1, dt) correlation map,
Gaussian profile fits, background-subtracted region-of-interest rates,
the misalignment-scan power-law fit, and the conversion-efficiency
arithmetic.

All operations are pure transformations on immutable inputs.  Streams
are events.Stream columns; analyze checks once that both are time-ordered
below 2**63 ns, and the stages after it rely on that.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .events import Stream, stamps_in_order

PAIR_DTYPE = np.dtype(
    [
        ("t1_ns", "<i8"),
        ("t2_ns", "<i8"),
        ("e1_ev", "<u4"),
        ("e2_ev", "<u4"),
        ("dt_ns", "<i8"),
    ]
)


class AnalysisError(ValueError):
    """Invalid input to an analysis operation."""


@dataclass(frozen=True)
class CoincidenceCriteria:
    """Selection windows and binning for the coincidence search."""

    single_energy_window_ev: tuple[float, float] = (5000.0, 17000.0)
    sum_center_ev: float = 22000.0
    sum_half_width_ev: float = 500.0
    max_abs_dt_ns: int = 2000
    dt_bin_ns: int = 20
    e_bin_ev: int = 100

    def __post_init__(self):
        lo, hi = self.single_energy_window_ev
        if not lo < hi:
            raise AnalysisError("energy window must satisfy min < max")
        if self.sum_half_width_ev <= 0:
            raise AnalysisError("sum window half-width must be > 0")
        if self.max_abs_dt_ns < 5 * self.dt_bin_ns:
            raise AnalysisError("pairing horizon must span at least 5 dt bins")
        if self.dt_bin_ns <= 0 or self.e_bin_ev <= 0:
            raise AnalysisError("bin widths must be > 0")


@dataclass
class CorrelationMap:
    """2D histogram of accepted pairs over (E1, t2 - t1).

    counts has shape (len(e_edges) - 1, len(dt_edges) - 1); binning is
    half-open [lo, hi) with the uppermost bin closed.  dt bin edges are
    offset half a bin so clock-tick-aligned differences sit at bin
    centers.
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


@dataclass(frozen=True)
class GaussianFit:
    """Gaussian-plus-constant fit of one histogram profile."""

    amplitude: float
    center: float
    sigma: float
    baseline: float
    amplitude_err: float
    center_err: float
    sigma_err: float
    baseline_err: float


@dataclass(frozen=True)
class RoiSpec:
    """Region of interest and accidental sidebands on the map.

    The ROI is |E1 - e_center| <= e_half_width and |dt| <= t_half_width;
    sidebands share the energy band and take |dt| >= sideband_inner out
    to the pairing horizon on both sides.
    """

    e_center_ev: float = 11000.0
    e_half_width_ev: float = 1000.0
    t_half_width_ns: float = 640.0
    sideband_inner_ns: float = 1100.0

    @classmethod
    def from_time_fit(
        cls,
        fit: GaussianFit,
        e_center_ev: float = 11000.0,
        e_half_width_ev: float = 1000.0,
        roi_sigmas: float = 3.0,
        sideband_sigmas: float = 5.0,
    ) -> "RoiSpec":
        return cls(
            e_center_ev=e_center_ev,
            e_half_width_ev=e_half_width_ev,
            t_half_width_ns=roi_sigmas * abs(fit.sigma),
            sideband_inner_ns=sideband_sigmas * abs(fit.sigma),
        )


@dataclass
class RoiResult:
    """Background-subtracted pair rate in the region of interest."""

    roi_counts: int
    sideband_counts: int
    sideband_estimate: float
    net_rate_per_hr: float
    net_rate_err_per_hr: float


@dataclass
class ScanResult:
    """Power-law fit of pair rate versus crystal misalignment."""

    points: list[tuple[float, float, float]]  # (detuning mdeg, rate, err)
    amplitude: float
    exponent: float
    exponent_err: float
    chi2_per_dof: float
    amplitude_fixed: float
    amplitude_fixed_err: float
    chi2_per_dof_fixed: float
    n_used: int


@dataclass
class EfficiencyResult:
    """Observed rate unfolded to generation rate and conversion efficiency."""

    net_rate_per_hr: float
    observable_rate_per_hr: float
    total_rate_per_hr: float
    efficiency: float
    incident_per_pair: float


@dataclass(frozen=True)
class AnalysisResult:
    """Everything one pass of analyze() produces.

    time_fit, energy_fit and energy_centroid are None when that stage
    had nothing to work on (no pairs, no coincident excess) or its fit
    failed.  roi is the region of interest roi_result was measured in.
    """

    pairs: np.ndarray
    corr_map: CorrelationMap
    time_fit: GaussianFit | None
    energy_fit: GaussianFit | None
    energy_centroid: float | None
    roi: RoiSpec
    roi_result: RoiResult


# ---------------------------------------------------------------------------
# Stream operations


def select_candidates(stream: Stream, criteria: CoincidenceCriteria) -> Stream:
    """Keep events inside the single-photon energy window (closed on both
    ends), preserving order; stream itself when the window keeps every
    event.  The stream must be time-ordered, as analyze checks."""
    lo, hi = criteria.single_energy_window_ev
    e = stream.energy_ev
    index = np.flatnonzero((e >= lo) & (e <= hi))
    if len(index) == len(e):
        return stream
    return Stream(stream.timestamp_ns.take(index), e.take(index))


def find_coincidence_pairs(
    stream1: Stream, stream2: Stream, criteria: CoincidenceCriteria, exclusive: bool = False
) -> np.ndarray:
    """All cross-detector pairs passing the time and energy-sum windows.

    Sort-merge sliding window over the two streams, which must be
    time-ordered with stamps below 2**63, as analyze checks; O(n + m + k):
    a pair qualifies when |t2 - t1| <= max_abs_dt and
    |E1 + E2 - sum_center| <= sum_half_width.  By default one event may
    appear in several pairs; exclusive=True keeps a greedy
    smallest-|dt|-first matching instead.

    Returns a PAIR_DTYPE array with dt = t2 - t1.
    """
    t1 = stream1.timestamp_ns.view(np.int64)
    t2 = stream2.timestamp_ns.view(np.int64)
    horizon = int(criteria.max_abs_dt_ns)
    lo = np.searchsorted(t2, t1 - horizon, side="left")
    hi = np.searchsorted(t2, t1 + horizon, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=PAIR_DTYPE)
    idx1 = np.repeat(np.arange(len(t1)), counts)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    idx2 = np.arange(total) - offsets + np.repeat(lo, counts)

    e1 = stream1.energy_ev[idx1].astype(np.int64)
    e2 = stream2.energy_ev[idx2].astype(np.int64)
    in_sum = np.abs(e1 + e2 - criteria.sum_center_ev) <= criteria.sum_half_width_ev
    idx1, idx2 = idx1[in_sum], idx2[in_sum]

    pairs = np.empty(len(idx1), dtype=PAIR_DTYPE)
    pairs["t1_ns"] = t1[idx1]
    pairs["t2_ns"] = t2[idx2]
    pairs["e1_ev"] = e1[in_sum]
    pairs["e2_ev"] = e2[in_sum]
    pairs["dt_ns"] = pairs["t2_ns"] - pairs["t1_ns"]
    if exclusive:
        pairs = _exclusive_subset(pairs, idx1, idx2)
    return pairs


def _exclusive_subset(
    pairs: np.ndarray, idx1: np.ndarray, idx2: np.ndarray
) -> np.ndarray:
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


def build_correlation_map(
    pairs: np.ndarray,
    criteria: CoincidenceCriteria,
    duration_s: float,
    mean_current: float = 1.0,
) -> CorrelationMap:
    """Histogram accepted pairs over (E1, dt).

    Energy bins are half-open [lo, hi) with the top bin closed; dt bins
    are centered on multiples of dt_bin so quantized time differences
    fall at bin centers.
    """
    # Rates divide by the exposure in hours, duration x mean current.
    hours = duration_s / 3600.0 * mean_current
    if not (duration_s > 0 and mean_current > 0 and 0 < hours < math.inf):
        raise AnalysisError("duration and mean current must be > 0, with a finite product")
    e_lo, e_hi = criteria.single_energy_window_ev
    n_e = int(math.ceil((e_hi - e_lo) / criteria.e_bin_ev))
    e_edges = e_lo + criteria.e_bin_ev * np.arange(n_e + 1, dtype=np.float64)
    half = 0.5 * criteria.dt_bin_ns
    n_dt = 2 * int(criteria.max_abs_dt_ns // criteria.dt_bin_ns) + 1
    dt_edges = -criteria.max_abs_dt_ns - half + criteria.dt_bin_ns * np.arange(
        n_dt + 1, dtype=np.float64
    )
    counts, _, _ = np.histogram2d(
        pairs["e1_ev"].astype(np.float64),
        pairs["dt_ns"].astype(np.float64),
        bins=(e_edges, dt_edges),
    )
    return CorrelationMap(
        e_edges_ev=e_edges,
        dt_edges_ns=dt_edges,
        counts=counts.astype(np.int64),
        duration_s=duration_s,
        mean_current=mean_current,
    )


# ---------------------------------------------------------------------------
# Profile fits


# A profile fit has converged when a Gauss-Newton step would lower the
# loss by less than _DECREMENT_TOL / 2 (and move each parameter by about
# 1e-5 of its error); it fails after _MAX_ITERATIONS steps.
_DECREMENT_TOL = 1e-10
_MAX_ITERATIONS = 100


def _moment_seeds(centers: np.ndarray, counts: np.ndarray):
    baseline0 = float(np.median(counts))
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


def fit_gaussian_profile(
    centers: np.ndarray,
    counts: np.ndarray,
    count_errors: np.ndarray | None = None,
) -> GaussianFit:
    """Gaussian-plus-constant fit of one histogram profile.

    Raw count profiles (non-negative, no explicit errors) are fitted by
    Poisson maximum likelihood, which stays unbiased on sparse
    histograms; profiles with explicit per-bin errors (e.g. after
    sideband subtraction) use weighted least squares.  Seeds come from
    the profile moments.
    """
    centers = np.asarray(centers, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    if len(centers) < 5:
        raise AnalysisError("profile too short to fit")
    if np.all(counts == counts[0]):
        raise AnalysisError("degenerate fit: profile has zero variance")
    if count_errors is None and np.all(counts >= 0):
        return _fit_gaussian(centers, counts, None)
    errors = np.ones_like(counts) if count_errors is None else np.asarray(count_errors)
    return _fit_gaussian(centers, counts, np.maximum(errors, 1e-9))


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


def _fit_gaussian(
    x: np.ndarray, y: np.ndarray, errors: np.ndarray | None
) -> GaussianFit:
    """Levenberg-Marquardt fit of the Gaussian-plus-constant model.

    errors None fits the Poisson likelihood of the counts y (Baker &
    Cousins, NIM 221 (1984) 437) with per-bin weight 1/mu, otherwise
    least squares with weight 1/errors^2; both take the residual y - mu.
    Steps are projected onto the box amplitude >= 0, center inside the
    window, half a bin <= sigma <= the window span (a negative sigma is
    mirrored first: mu depends on sigma^2) and, for Poisson, baseline >
    0.  A parameter held at a bound by its gradient, or with no
    curvature, sits a step out.  Raises AnalysisError when
    _MAX_ITERATIONS steps do not converge or no damping lowers the loss.
    """
    poisson = errors is None
    floor = 1e-9 * y.max() if poisson else -np.inf
    lo = np.array([0.0, x[0], 0.5 * abs(x[1] - x[0]), floor])
    hi = np.array([np.inf, x[-1], x[-1] - x[0], np.inf])

    def loss(mu):
        if poisson:  # half the likelihood-ratio chi^2
            return float(np.sum(mu - y + y * np.log(np.where(y > 0, y, 1.0) / mu)))
        return 0.5 * float(np.sum(((y - mu) / errors) ** 2))

    p = np.clip(_moment_seeds(x, y), lo, hi)
    mu, jac = _model(x, p)
    current = loss(mu)
    damping, growth = 1e-3, 2.0  # Madsen, Nielsen & Tingleff (2004), sec. 3.2
    for _ in range(_MAX_ITERATIONS):
        weight = 1.0 / mu if poisson else errors**-2.0
        descent = jac.T @ (weight * (y - mu))  # minus the gradient of the loss
        fisher = jac.T @ (weight[:, None] * jac)
        scale = np.sqrt(np.diag(fisher))
        held = ((p <= lo) & (descent < 0)) | ((p >= hi) & (descent > 0))
        free = (scale > 0) & ~held
        g = descent[free] / scale[free]
        a = fisher[np.ix_(free, free)] / np.outer(scale[free], scale[free])
        eye = np.eye(len(g))
        if g @ np.linalg.solve(a + 1e-12 * eye, g) < _DECREMENT_TOL:
            on_bound = (p == lo) | (p == hi)
            errs = _fit_errors(x, y, p, mu, jac, weight, poisson, on_bound)
            return GaussianFit(*p.tolist(), *errs.tolist())
        while True:
            step = np.zeros(4)
            step[free] = np.linalg.solve(a + damping * eye, g) / scale[free]
            trial = p + step
            trial[2] = abs(trial[2])
            trial = np.clip(trial, lo, hi)
            step = trial - p
            predicted = step @ descent - 0.5 * step @ fisher @ step
            trial_mu, trial_jac = _model(x, trial)
            trial_loss = loss(trial_mu)
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


def _fit_errors(x, y, p, mu, jac, weight, poisson, on_bound) -> np.ndarray:
    """Errors at the optimum p from the Hessian of the loss: observed for
    Poisson, J^T diag(y/mu^2) J + sum (1 - y/mu) d2mu, else J^T W J.
    No curvature (center and sigma at zero amplitude) gives an infinite
    error; a parameter on a bound gets 1/sqrt(curvature), the rest the
    inverse of their Hessian (infinite errors when it is singular)."""
    if poisson:  # d2mu/dA2 = 0 and the baseline enters linearly
        amplitude, center, sigma, _ = p
        z = (x - center) / sigma
        w = (1.0 - y / mu) * np.exp(-0.5 * z * z) / sigma
        ac, as_ = w @ z, w @ z**2
        cc, cs, ss = amplitude / sigma * np.array(
            [w @ (z**2 - 1.0), w @ (z**3 - 2.0 * z), w @ (z**4 - 3.0 * z**2)]
        )
        hessian = jac.T @ ((y / mu**2)[:, None] * jac)
        hessian[:3, :3] += [[0.0, ac, as_], [ac, cc, cs], [as_, cs, ss]]
    else:
        hessian = jac.T @ (weight[:, None] * jac)
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


def _signal_and_sidebands(
    corr_map: CorrelationMap, t_half_width_ns: float, sideband_inner_ns: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """dt columns of the signal region (|dt| <= t_half_width) and of the
    sidebands (|dt| >= sideband_inner), and the column-count ratio that
    scales the sideband counts to the accidentals under the signal."""
    abs_dt = np.abs(corr_map.dt_centers_ns)
    signal_cols = abs_dt <= t_half_width_ns
    sideband_cols = abs_dt >= sideband_inner_ns
    if not signal_cols.any() or not sideband_cols.any():
        raise AnalysisError("signal or sideband region selects no bins")
    if np.any(signal_cols & sideband_cols):
        raise AnalysisError("sidebands overlap the signal region")
    return signal_cols, sideband_cols, signal_cols.sum() / sideband_cols.sum()


def _net_energy_profile(
    corr_map: CorrelationMap, t_half_width_ns: float, sideband_inner_ns: float
) -> tuple[np.ndarray, np.ndarray]:
    """Accidental-subtracted E1 profile and its per-bin errors.

    The sideband spectrum, scaled to the signal region, is subtracted
    from the signal-region spectrum.
    """
    signal_cols, sideband_cols, scale = _signal_and_sidebands(
        corr_map, t_half_width_ns, sideband_inner_ns
    )
    signal = corr_map.counts[:, signal_cols].sum(axis=1).astype(np.float64)
    sideband = corr_map.counts[:, sideband_cols].sum(axis=1).astype(np.float64)
    profile = signal - scale * sideband
    errors = np.sqrt(np.maximum(signal + scale * scale * sideband, 1.0))
    return profile, errors


def fit_energy_profile(
    corr_map: CorrelationMap,
    t_half_width_ns: float,
    sideband_inner_ns: float,
) -> GaussianFit:
    """Fit the accidental-subtracted E1 profile of the coincidence peak."""
    profile, errors = _net_energy_profile(
        corr_map, t_half_width_ns, sideband_inner_ns
    )
    if profile.sum() <= 0:
        raise AnalysisError("no coincident excess to fit")
    return fit_gaussian_profile(corr_map.e_centers_ev, profile, errors)


def energy_peak_centroid(
    corr_map: CorrelationMap,
    t_half_width_ns: float,
    sideband_inner_ns: float,
) -> float:
    """Centroid (first moment) of the positive coincident excess vs E1.

    More robust than a shape fit for locating the down-converted peak
    when the excess is a broad plateau rather than a clean Gaussian.
    """
    profile, _ = _net_energy_profile(corr_map, t_half_width_ns, sideband_inner_ns)
    weights = np.clip(profile, 0.0, None)
    total = weights.sum()
    if total <= 0:
        raise AnalysisError("no coincident excess")
    return float(np.sum(corr_map.e_centers_ev * weights) / total)


# ---------------------------------------------------------------------------
# Rates


def roi_rate(corr_map: CorrelationMap, roi: RoiSpec) -> RoiResult:
    """Accidental-subtracted pair rate inside the region of interest.

    The sideband estimate uses both dt sides, scaled by the bin-count
    ratio; the net rate is normalized by run duration and mean relative
    beam current, in pairs/hour, with Poisson error propagation from
    both regions.
    """
    if roi.sideband_inner_ns <= roi.t_half_width_ns:
        raise AnalysisError("sidebands overlap the region of interest")
    e_rows = np.abs(corr_map.e_centers_ev - roi.e_center_ev) <= roi.e_half_width_ev
    if not e_rows.any():
        raise AnalysisError("region of interest selects no bins")
    roi_cols, sb_cols, scale = _signal_and_sidebands(
        corr_map, roi.t_half_width_ns, roi.sideband_inner_ns
    )
    sub = corr_map.counts[e_rows]
    roi_counts = int(sub[:, roi_cols].sum())
    sb_counts = int(sub[:, sb_cols].sum())
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
    p = -1/2 amplitude fit with chi^2/dof for both.  Points with
    non-positive rates are excluded with a warning.  Detunings are in
    millidegrees; A is the rate at 1 mdeg.
    """
    usable = []
    for detuning_mdeg, rate, err in points:
        if detuning_mdeg <= 0:
            raise AnalysisError("detunings must be > 0")
        if rate <= 0:
            warnings.warn(
                f"excluding non-positive rate at {detuning_mdeg} mdeg from fit",
                stacklevel=2,
            )
            continue
        if err <= 0:
            raise AnalysisError("rate errors must be > 0")
        usable.append((detuning_mdeg, rate, err))
    if len(usable) < 2:
        raise AnalysisError("need at least 2 usable points to fit")

    u = np.log([p[0] for p in usable])
    v = np.log([p[1] for p in usable])
    w = np.array([(p[1] / p[2]) ** 2 for p in usable])  # 1/sigma_logr^2

    s_w = w.sum()
    s_u = (w * u).sum()
    s_v = (w * v).sum()
    s_uu = (w * u * u).sum()
    s_uv = (w * u * v).sum()
    delta = s_w * s_uu - s_u * s_u
    if delta <= 0:
        raise AnalysisError("degenerate scan: detunings are identical")
    intercept = (s_uu * s_v - s_u * s_uv) / delta
    slope = (s_w * s_uv - s_u * s_v) / delta
    slope_err = math.sqrt(s_w / delta)
    resid = v - (intercept + slope * u)
    dof = max(len(usable) - 2, 1)
    chi2 = float((w * resid**2).sum()) / dof

    # Fixed-exponent fit: log(rate) + 0.5 log(detuning) = log(A)
    target = v + 0.5 * u
    a_fixed = (w * target).sum() / s_w
    a_fixed_err = math.sqrt(1.0 / s_w)
    resid_fixed = target - a_fixed
    dof_fixed = max(len(usable) - 1, 1)
    chi2_fixed = float((w * resid_fixed**2).sum()) / dof_fixed

    return ScanResult(
        points=list(points),
        amplitude=math.exp(intercept),
        exponent=slope,
        exponent_err=slope_err,
        chi2_per_dof=chi2,
        amplitude_fixed=math.exp(a_fixed),
        amplitude_fixed_err=a_fixed_err * math.exp(a_fixed),
        chi2_per_dof_fixed=chi2_fixed,
        n_used=len(usable),
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


def analyze(
    stream1: Stream,
    stream2: Stream,
    criteria: CoincidenceCriteria,
    duration_s: float,
    mean_current: float = 1.0,
    roi: RoiSpec = RoiSpec(),
    roi_sigmas: float = 3.0,
    sideband_sigmas: float = 5.0,
    exclusive: bool = False,
) -> AnalysisResult:
    """The coincidence analysis of two detector streams, end to end.

    Checks that both streams are time-ordered, selects candidates, pairs
    them (exclusive as in find_coincidence_pairs), builds the (E1, dt)
    map and fits its dt marginal.  The region of interest keeps the
    energy band of roi; its time half-width and sideband edge become
    roi_sigmas and sideband_sigmas times the fitted width.  roi is used
    as given instead (its defaults assume the nominal 212 ns width) when
    the time fit failed, or when the fitted half-width is under one dt
    bin or the sidebands would start beyond 0.9 of the pairing horizon.
    The net rate, the E1 fit and the E1 centroid are all measured in
    that one region.
    """
    for name, stream in (("stream1", stream1), ("stream2", stream2)):
        if not stamps_in_order(stream.timestamp_ns):
            raise AnalysisError(f"{name} is not time-ordered below 2**63 ns")
    cand1 = select_candidates(stream1, criteria)
    cand2 = select_candidates(stream2, criteria)
    pairs = find_coincidence_pairs(cand1, cand2, criteria, exclusive=exclusive)
    corr_map = build_correlation_map(pairs, criteria, duration_s, mean_current)
    time_fit = _optional(fit_time_profile, corr_map)
    if time_fit is not None:
        fitted = RoiSpec.from_time_fit(
            time_fit, roi.e_center_ev, roi.e_half_width_ev, roi_sigmas, sideband_sigmas
        )
        if (
            fitted.t_half_width_ns >= criteria.dt_bin_ns
            and fitted.sideband_inner_ns < 0.9 * criteria.max_abs_dt_ns
        ):
            roi = fitted
    roi_result = roi_rate(corr_map, roi)
    window = (corr_map, roi.t_half_width_ns, roi.sideband_inner_ns)
    energy_fit = _optional(fit_energy_profile, *window)
    energy_centroid = _optional(energy_peak_centroid, *window)
    return AnalysisResult(
        pairs=pairs,
        corr_map=corr_map,
        time_fit=time_fit,
        energy_fit=energy_fit,
        energy_centroid=energy_centroid,
        roi=roi,
        roi_result=roi_result,
    )
