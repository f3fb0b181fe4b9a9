"""
Command-line surface: plan, simulate, analyze, scan, report.

Exit codes: 0 success, 1 usage/config error, 2 runtime/data error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

# analysis is imported where it is used, so that simulate and plan never load it.
from . import config as cfg, events, listmode
from .events import AnalysisError, ConfigError, WindowLimitError
from .listmode import ListModeFormatError
from .physics import (
    DEG,
    PhysicsError,
    emission_angles,
    polarization_suppression,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1, and without
    abbreviated flags (scan's --seeds would take a --seed)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _load_settings(args) -> dict[str, str]:
    layers = []
    if args.config:
        layers.append(cfg.load_config_file(args.config))
    layers.append(cfg.env_overrides(dict(os.environ)))
    settings = cfg.merge_settings(*layers)
    if getattr(args, "seed", None) is not None:
        settings["run.seed"] = str(args.seed)
    return settings


def _analysis(args):
    """The coincidence criteria and region of interest of the analysis
    flags; settings that analysis.check_settings refuses, which no data
    could satisfy, are a usage error before any file is read or run
    simulated."""
    from . import analysis

    roi = analysis.RoiSpec(
        e_center_ev=args.roi_e_center * 1e3, e_half_width_ev=args.roi_e_half * 1e3,
        roi_sigmas=args.roi_sigmas, sideband_sigmas=args.sideband_sigmas,
    )
    try:
        criteria = analysis.CoincidenceCriteria(
            single_energy_window_ev=(args.e_min * 1e3, args.e_max * 1e3),
            sum_center_ev=args.sum_center * 1e3,
            sum_half_width_ev=args.sum_half * 1e3,
            max_abs_dt_ns=args.horizon,
            dt_bin_ns=args.dt_bin,
            e_bin_ev=args.e_bin,
        )
        analysis.check_settings(criteria, roi)
    except AnalysisError as exc:
        raise ConfigError(str(exc)) from exc
    return criteria, roi


def _comma_list(kind):
    """argparse type: a comma-separated list of kind."""

    def parse(text: str) -> list:
        return [kind(value) for value in text.split(",")]

    parse.__name__ = f"comma-separated {kind.__name__}"  # argparse's error names it
    return parse


def _add_criteria_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--e-min", type=float, default=5.0, help="keV (default 5)")
    parser.add_argument("--e-max", type=float, default=17.0, help="keV (default 17)")
    parser.add_argument("--sum-center", type=float, default=22.0, help="keV")
    parser.add_argument("--sum-half", type=float, default=0.5, help="keV")
    parser.add_argument("--horizon", type=int, default=2000, help="pairing |dt| limit, ns")
    parser.add_argument("--dt-bin", type=int, default=20, help="ns")
    parser.add_argument("--e-bin", type=int, default=100, help="eV")
    parser.add_argument("--roi-e-center", type=float, default=11.0, help="keV")
    parser.add_argument("--roi-e-half", type=float, default=1.0, help="keV")
    parser.add_argument("--roi-sigmas", type=float, default=3.0)
    parser.add_argument("--sideband-sigmas", type=float, default=5.0)
    parser.add_argument(
        "--exclusive", action="store_true", help="nearest-neighbor pairing"
    )


# ---------------------------------------------------------------------------
# Subcommands


def cmd_plan(args) -> int:
    settings = _load_settings(args)
    run = cfg.build_run_config(settings)
    exp = run.experiment
    if exp.crystal.detuning_rad <= 0:
        raise ConfigError(
            "phase matching unreachable at detuning "
            f"{exp.crystal.detuning_rad / DEG * 1e3:.1f} mdeg (need > 0)"
        )
    theta_b = exp.theta_b()
    det1, det2 = exp.positioned_detectors()
    suppression = polarization_suppression(theta_b, exp.beam.polarization_angle_rad)
    print(f"pump energy          : {exp.beam.pump_energy_ev / 1e3:.3f} keV")
    print(f"reflection           : {exp.crystal.reflection}")
    print(f"Bragg angle theta_B  : {theta_b / DEG:.3f} deg")
    print(f"2 theta_B            : {2 * theta_b / DEG:.3f} deg")
    print(f"detuning             : {exp.crystal.detuning_rad / DEG * 1e3:.2f} mdeg")
    for x in (0.25, 0.50, 0.75):
        r_x, r_y = emission_angles(x, exp.crystal.detuning_rad, theta_b)
        print(f"R(x={x:.2f})            : {r_x / DEG:.4f} deg   (idler {r_y / DEG:.4f} deg)")
    r0 = exp.degenerate_offset()
    print(
        f"detector angles      : {(2 * theta_b + r0) / DEG:.3f} / "
        f"{(2 * theta_b - r0) / DEG:.3f} deg (2 theta_B +/- R)"
    )
    *landing, pair = events.landing_acceptance(exp)
    for i, (det, acc) in enumerate(zip((det1, det2), landing), start=1):
        ring = det.distance_mm * math.tan(r0)
        note = "  [ring under-resolved]" if ring <= 0.5 * det.side_mm else ""
        print(
            f"detector {i}           : offset {det.center_angle_offset_rad / DEG:.4f} deg,"
            f" ring radius {ring:.2f} mm, acceptance {acc:.4f}{note}"
        )
    print(f"pair acceptance      : {pair:.4f}")
    print(f"polarization factor  : {suppression:.4f} (chi = "
          f"{exp.beam.polarization_angle_rad / DEG:.1f} deg)")
    window = exp.split_window()
    print(
        f"split window         : x in [{window[0]:.4f}, {window[1]:.4f}]"
        f"  (E1 {window[0] * exp.beam.pump_energy_ev / 1e3:.2f}"
        f"-{window[1] * exp.beam.pump_energy_ev / 1e3:.2f} keV)"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    settings = _load_settings(args)
    run = cfg.build_run_config(settings)
    digest = cfg.config_hash(settings)
    stream1, stream2, manifest = events.simulate_run(run, config_hash=digest)
    os.makedirs(args.out, exist_ok=True)
    event_path = os.path.join(args.out, "events.xpdc")
    header = listmode.ListModeHeader(
        clock_tick_ns=run.experiment.response.clock_tick_ns,
        detector_count=2,
        config_hash=digest,
    )
    listmode.write_listmode(
        event_path,
        (stream1, stream2),
        header,
        csv_path=os.path.join(args.out, "events.csv") if args.csv else None,
    )
    listmode.write_manifest(
        os.path.join(args.out, "manifest.txt"), manifest.as_dict()
    )
    with listmode._atomic_write(os.path.join(args.out, "config.txt")) as out:
        out.write(cfg.canonical_text(settings).encode())
    print(
        f"wrote {len(stream1) + len(stream2)} events to {event_path} "
        f"(pairs generated {manifest.pairs_generated}, "
        f"detected both {manifest.pairs_detected_both})"
    )
    return EXIT_OK


def _number(text: str) -> float:
    """float(text), or nan where text is not a number."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _duration_and_current(events_path: str) -> tuple[float, float, str | None]:
    """Run duration (s), mean beam current and config hash (None if not
    given) of a list-mode file, from the manifest.txt beside it; a value
    missing, or not finite and > 0, is a data error."""
    path = os.path.join(os.path.dirname(events_path), "manifest.txt")
    manifest = listmode.read_manifest(path)
    for key in ("duration_s", "mean_current"):
        if key not in manifest:
            raise ListModeFormatError(f"no {key} in {path}")
        if not 0 < _number(manifest[key]) < math.inf:
            raise ListModeFormatError(
                f"{key} = {manifest[key]!r} in {path} is not a finite number > 0"
            )
    duration_s, mean_current = float(manifest["duration_s"]), float(manifest["mean_current"])
    return duration_s, mean_current, manifest.get("config_hash")


def cmd_analyze(args) -> int:
    from . import analysis

    criteria, roi = _analysis(args)
    duration_s, mean_current, digest = _duration_and_current(args.events)
    (stream1, stream2), header = listmode.read_streams(args.events, detector_count=2)
    if digest not in (None, f"{header.config_hash:016x}"):  # as simulate writes it
        raise ListModeFormatError(
            f"{args.events} has config_hash {header.config_hash:016x}, its manifest {digest}"
        )
    result = analysis.analyze(
        stream1, stream2, criteria, duration_s, mean_current, roi, args.exclusive
    )
    os.makedirs(args.out, exist_ok=True)
    corr_map = result.corr_map
    rows, cols = np.nonzero(corr_map.counts)  # row-major: by E1, then dt
    e, dt = corr_map.e_edges_ev, corr_map.dt_edges_ns
    map_meta = {
        "duration_s": corr_map.duration_s,
        "mean_current": corr_map.mean_current,
        "e_edges_ev": f"{e[0]}:{e[-1]}:{e[1] - e[0]}",
        "dt_edges_ns": f"{dt[0]}:{dt[-1]}:{dt[1] - dt[0]}",
    }
    listmode.write_csv(
        os.path.join(args.out, "correlation_map.csv"), "e1_ev,dt_ns,counts", "{:.1f},{:.1f},{}",
        (corr_map.e_centers_ev[rows], corr_map.dt_centers_ns[cols], corr_map.counts[rows, cols]),
        map_meta,
    )
    report = result.summary()
    listmode.write_manifest(os.path.join(args.out, "analysis_report.txt"), report)
    for key, value in report.items():
        print(f"{key} = {value}")
    return EXIT_OK


def _scan_point(run: events.RunConfig, criteria, exclusive: bool):
    """Simulate one scan point and return its run's correlation map.  Runs
    in a scan worker process."""
    from . import analysis

    stream1, stream2, manifest = events.simulate_run(run)
    return analysis.correlate(
        stream1, stream2, criteria, manifest.duration_s, manifest.mean_current, exclusive
    )


def cmd_scan(args) -> int:
    if any(d <= 0 for d in args.detunings):
        raise ConfigError("scan detunings must be > 0 mdeg")
    for flag, values in (("--detunings", args.detunings), ("--seeds", args.seeds)):
        if len(set(values)) < len(values):  # a point counted twice
            raise ConfigError(f"{flag} repeats a value")
    from . import analysis

    criteria, roi = _analysis(args)
    settings = _load_settings(args)
    runs = []  # detuning-major, then seed; all built before any simulation starts
    for detuning in args.detunings:
        for seed in args.seeds:
            run_settings = dict(settings)
            run_settings["crystal.detuning"] = f"{detuning} mdeg"
            run_settings["detector1.offset"] = "auto"
            run_settings["detector2.offset"] = "auto"
            run_settings["run.seed"] = str(seed)
            runs.append(cfg.build_run_config(run_settings))
    os.makedirs(args.out, exist_ok=True)
    try:
        maps = events.fork_map(
            functools.partial(_scan_point, criteria=criteria, exclusive=args.exclusive), runs
        )
    except events.WorkerDied as exc:
        print(f"error: a scan worker process died: {exc}", file=sys.stderr)
        return EXIT_DATA
    points = []
    n_seeds = len(args.seeds)
    for i, detuning in enumerate(args.detunings):
        seeds = maps[i * n_seeds:(i + 1) * n_seeds]
        measured = analysis.measure(sum(seeds[1:], seeds[0]), roi).roi_result
        rate, err = measured.net_rate_per_hr, measured.net_rate_err_per_hr
        points.append((detuning, rate, err))
        print(f"detuning {detuning:6.1f} mdeg: net rate {rate:8.2f} +/- {err:.2f} /hr")
    usable = []
    for detuning, rate, err in points:
        if rate > 0:
            usable.append((detuning, rate, err))
        else:
            print(f"warning: excluding non-positive rate at {detuning} mdeg from fit",
                  file=sys.stderr)

    meta: dict[str, object] = {  # the same for every run of the scan
        "seeds": ",".join(map(str, args.seeds)),
        "duration_s": runs[-1].duration_s,
        "mean_current": runs[-1].beam_current_profile.mean,
    }
    try:
        fit = analysis.fit_misalignment_scan(usable)
    except AnalysisError as exc:
        meta["fit_error"] = str(exc)
        print(f"warning: scan fit failed: {exc}", file=sys.stderr)
    else:
        meta.update(
            exponent=f"{fit.exponent:.4f}",
            exponent_err=f"{fit.exponent_err:.4f}",
            amplitude=f"{fit.amplitude:.4f}",
            chi2_per_dof=f"{fit.chi2_per_dof:.4f}",
            amplitude_fixed=f"{fit.amplitude_fixed:.4f}",
            chi2_per_dof_fixed=f"{fit.chi2_per_dof_fixed:.4f}",
        )
        print(
            f"fit: rate = {fit.amplitude:.1f} * detuning^{fit.exponent:.3f} "
            f"(+/- {fit.exponent_err:.3f}), chi2/dof {fit.chi2_per_dof:.2f}"
        )
    listmode.write_csv(
        os.path.join(args.out, "scan_result.csv"),
        "detuning_mdeg,net_rate_per_hr,net_rate_err_per_hr", "{},{:.4f},{:.4f}",
        np.array(points).T, meta,
    )
    return EXIT_OK


def cmd_report(args) -> int:
    from . import analysis

    # A negative net rate (sidebands above the ROI) is reported as it is.
    if args.net_rate is not None and not math.isfinite(args.net_rate):
        raise ConfigError("--net-rate must be finite")
    if args.acceptance is not None and not 0 < args.acceptance <= 1:
        raise ConfigError("--acceptance must be in (0, 1]")
    settings = _load_settings(args)
    run = cfg.build_run_config(settings)
    exp = run.experiment
    net_rate = args.net_rate
    if net_rate is None:
        report_path = os.path.join(args.analysis, "analysis_report.txt")
        value = listmode.read_manifest(report_path).get("net_rate_per_hr")
        if value is None:
            raise ListModeFormatError(f"no net rate in {report_path}")
        net_rate = _number(value)
        if not math.isfinite(net_rate):
            raise ListModeFormatError(
                f"net_rate_per_hr = {value!r} in {report_path} is not a finite number"
            )
    acceptance = args.acceptance
    if acceptance is None:
        acceptance = events.landing_acceptance(exp)[2]
        if acceptance == 0:
            raise ConfigError("no split lands on both detectors (pair acceptance 0)")
    eta = exp.chain.photon_efficiency(exp.beam.pump_energy_ev / 2)
    chain_eff = eta * eta
    result = analysis.conversion_efficiency(
        net_rate, acceptance, chain_eff, exp.beam.incident_rate_per_s
    )
    print(f"net pair rate        : {result.net_rate_per_hr:.1f} /hr")
    print(f"pair acceptance      : {acceptance:.4f}")
    print(f"chain efficiency     : {chain_eff:.3f}")
    print(f"observable rate      : {result.observable_rate_per_hr:.0f} /hr")
    print(f"total generation     : {result.total_rate_per_hr:.0f} /hr")
    print(f"conversion efficiency: {result.efficiency:.3e}")
    if math.isfinite(result.incident_per_pair):
        print(f"incident per pair    : {result.incident_per_pair:.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="xpdc", description=__doc__)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="experiment config file")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="xpdc-out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("plan", parents=[config], help="print the placement report")

    p_simulate = sub.add_parser(
        "simulate", parents=[config, out], help="simulate one run to a list-mode file"
    )
    p_simulate.add_argument("--seed", type=int, help="override run.seed")
    p_simulate.add_argument("--csv", action="store_true", help="also write CSV event dump")

    p_analyze = sub.add_parser(
        "analyze", parents=[out], help="coincidence analysis of a list-mode file"
    )
    p_analyze.add_argument("events", help="list-mode event file")
    _add_criteria_args(p_analyze)

    p_scan = sub.add_parser(
        "scan", parents=[config, out], help="simulate and fit a misalignment scan"
    )
    p_scan.add_argument(
        "--detunings", type=_comma_list(float), default="5,10,20,30,50",
        help="comma list, mdeg",
    )
    p_scan.add_argument(
        "--seeds", type=_comma_list(int), default="1", help="comma list of seeds"
    )
    _add_criteria_args(p_scan)

    p_report = sub.add_parser(
        "report", parents=[config], help="conversion-efficiency summary"
    )
    p_report.add_argument("--net-rate", type=float, help="net pair rate, /hr")
    p_report.add_argument(
        "--analysis", default="xpdc-out", help="directory with analysis_report.txt"
    )
    p_report.add_argument(
        "--acceptance", type=float, help="override pair acceptance fraction"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "plan": cmd_plan,
        "simulate": cmd_simulate,
        "analyze": cmd_analyze,
        "scan": cmd_scan,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, PhysicsError, OSError, WindowLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AnalysisError, ListModeFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    """The `xpdc` command: main() on sys.argv, then flush stdout and stderr
    and leave by os._exit with its code, without interpreter teardown.  A
    stdout that the reader closed is one `error: ` line, exit 1."""
    try:
        code = main()
    except SystemExit as exc:  # argparse: --help, usage errors
        code = exc.code
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code == EXIT_OK:
            print(f"error: {exc}", file=sys.stderr)
            code = EXIT_CONFIG
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
