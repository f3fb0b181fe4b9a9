"""Command-line surface: subcommands, outputs, exit codes."""

import ast
import hashlib
import importlib
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

import xpdc
from xpdc import events, listmode
from xpdc.analysis import CoincidenceCriteria, RoiSpec, analyze, correlate, measure
from xpdc.cli import main
from xpdc.config import build_run_config, load_config_file, merge_settings
from xpdc.events import Stream, simulate_run
from xpdc.listmode import (
    HEADER_SIZE,
    ListModeHeader,
    read_listmode,
    read_manifest,
    split_streams,
    write_listmode,
)


SRC = os.path.dirname(os.path.dirname(os.path.abspath(xpdc.__file__)))


def src_env(**extra: str) -> dict[str, str]:
    """The environment with the xpdc sources on PYTHONPATH, and extra."""
    path = [SRC, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p), **extra)


def run_in_subprocess(argv, **kwargs):
    """subprocess.run of this interpreter in src_env(), output as text."""
    kwargs.setdefault("env", src_env())
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=120,
                          **kwargs)


@pytest.fixture()
def short_config(tmp_path):
    path = tmp_path / "short.cfg"
    path.write_text("run.duration = 30 s\n")
    return str(path)


def rule_cases(rows, first=0):
    """pytest params (flags, message) from rows (rule, flags, message),
    each with the id flags<n>-<rule>: its place, counted from first, and
    the rule its flags break, in the flags' own terms. The ids stay as
    they were when the CLI gave those rules as its messages."""
    return [pytest.param(flags, message, id=f"flags{n}-{rule}")
            for n, (rule, flags, message) in enumerate(rows, first)]


SIGMAS = "roi_sigmas and sideband_sigmas need 0 < roi_sigmas < sideband_sigmas"
ROI_BAND = "roi.e_center_ev must be finite, roi.e_half_width_ev finite and > 0"
SUM_WINDOW = "sum_center_ev must be finite, sum_half_width_ev finite and > 0"
NO_E1_BIN = "roi.e_center_ev +/- roi.e_half_width_ev holds no E1 bin center"
HORIZON_5_BINS = "pairing horizon must span at least 5 dt bins"
HORIZON_2_62 = "pairing horizon must be below 2**62 ns"
HUGE_MAP = "a map of 2.01e+303 bins is over the limit of 16777216"
LARGE_MAP = "a map of 4.8e+19 bins is over the limit of 16777216"

# Settings that no data could satisfy, refused in xpdc.analysis, by
# CoincidenceCriteria or check_settings.
BAD_ANALYSIS_FLAGS = rule_cases([
    ("--sideband-sigmas must exceed", ["--roi-sigmas", "5", "--sideband-sigmas", "3"], SIGMAS),
    (HORIZON_5_BINS, ["--horizon", "50"], HORIZON_5_BINS),
    ("--roi-e-half must be > 0", ["--roi-e-half", "-1"], ROI_BAND),
    ("--sum-half must be finite", ["--sum-half", "nan"], SUM_WINDOW),
    ("--sum-center must be finite", ["--sum-center", "nan"], SUM_WINDOW),
    ("--roi-sigmas must be finite", ["--roi-sigmas", "nan"], SIGMAS),
    ("--sideband-sigmas must be finite", ["--sideband-sigmas", "nan"], SIGMAS),
    ("--roi-e-center must be finite", ["--roi-e-center", "nan"], ROI_BAND),
    ("--roi-e-center must be finite", ["--roi-e-center", "inf"], ROI_BAND),
    ("--roi-sigmas must be > 0", ["--roi-sigmas", "0"], SIGMAS),
    ("--roi-sigmas must be > 0", ["--roi-sigmas", "-2", "--sideband-sigmas", "-1"], SIGMAS),
    ("--roi-e-center and --roi-e-half select no E1 bin", ["--roi-e-center", "30"], NO_E1_BIN),
    ("--roi-e-center and --roi-e-half select no E1 bin",
     ["--roi-e-center", "17.04", "--roi-e-half", "0.01"], NO_E1_BIN),
    # Maps no host could hold: refused before any bin is allocated.
    (HUGE_MAP, ["--e-max", "1e300"], HUGE_MAP),
    # A horizon that pairing could not subtract from a stamp in int64 is
    # refused before the map is counted; one below that cap, by the map.
    (HORIZON_2_62, ["--horizon", "10000000000000000000"], HORIZON_2_62),
    (LARGE_MAP, ["--horizon", "4000000000000000000"], LARGE_MAP),
    (HORIZON_2_62, ["--dt-bin", "1000000000000000000", "--horizon", "10000000000000000000"],
     HORIZON_2_62),
])

# A repeated seed would be added to itself, a repeated detuning fitted twice.
BAD_SCAN_FLAGS = rule_cases([
    ("--seeds repeats a value", ["--seeds", "1,1"], "--seeds repeats a value"),
    ("--seeds repeats a value", ["--seeds", "1,2,1"], "--seeds repeats a value"),
    ("--detunings repeats a value", ["--detunings", "10,10"], "--detunings repeats a value"),
    ("--detunings repeats a value", ["--detunings", "5,10,5.0"], "--detunings repeats a value"),
], first=len(BAD_ANALYSIS_FLAGS))

# Flags that each subcommand does not read, with a value where they take one.
DEAD_FLAGS = [
    ("plan", ["--seed", "99"]),
    ("plan", ["--out", "x"]),
    ("plan", ["--csv"]),
    ("analyze", ["--config", "x.cfg"]),
    ("analyze", ["--seed", "99"]),
    ("analyze", ["--csv"]),
    ("scan", ["--seed", "99"]),
    ("scan", ["--csv"]),
    ("report", ["--seed", "99"]),
    ("report", ["--out", "x"]),
    ("report", ["--csv"]),
]


@pytest.fixture()
def quiet_config(tmp_path):
    lines = [
        "run.duration = 1 s",
        "source.pair_rate = 0 /s",
        "source.line.fe_ka.rate = 0 /s",
        "source.line.cu_ka.rate = 0 /s",
        "source.line.sr_ka.rate = 0 /s",
        "source.line.zr_ka.rate = 0 /s",
        "source.compton.rate = 0 /s",
        "source.elastic.rate = 0 /s",
    ]
    path = tmp_path / "quiet.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestPlan:
    def test_default_setup(self, capsys):
        assert main(["plan"]) == 0
        out = capsys.readouterr().out
        assert "R(x=0.50)" in out
        r_line = next(l for l in out.splitlines() if l.startswith("R(x=0.50)"))
        r_value = float(r_line.split(":")[1].split()[0])
        assert abs(r_value - 1.07) < 0.01
        pol_line = next(l for l in out.splitlines() if "polarization" in l)
        pol = float(pol_line.split(":")[1].split()[0])
        assert abs(pol - 0.0105) < 5e-4
        assert "2 theta_B" in out

    def test_zero_detuning_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("crystal.detuning = 0 mdeg\n")
        assert main(["plan", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: phase matching unreachable at detuning 0.0 mdeg (need > 0)"
        ]

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("crystal.volume = 3\n")
        assert main(["plan", "--config", str(cfg)]) == 1

    def test_output_bytes(self, capsys):
        assert main(["plan"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "e48cf5e23fe516f41026552db6e4f77c2aaed62175d9080bfa4f0e0495b1bb5c"
        )

    def test_ring_inside_a_detector_is_noted(self, capsys, monkeypatch):
        monkeypatch.setenv("XPDC_DETECTOR1_AREA", "1e4 mm2")  # side 100 mm, ring 25 mm
        assert main(["plan"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert sum(l.endswith("[ring under-resolved]") for l in out) == 1
        assert next(l for l in out if l.startswith("detector 1 ")).endswith(
            "acceptance 1.0000  [ring under-resolved]"
        )

    def test_explicit_zero_offset_is_kept(self, capsys, monkeypatch):
        # 0 deg aims detector 1 at the Laue spot, off every ring; only
        # auto aims it at the degenerate ring.
        monkeypatch.setenv("XPDC_DETECTOR1_OFFSET", "0 deg")
        assert main(["plan"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert any(l.startswith("detector 1           : offset 0.0000 deg,") for l in out)
        assert "pair acceptance      : 0.0000" in out


class TestSimulate:
    def test_zero_rates_header_only(self, quiet_config, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", quiet_config, "--out", out]) == 0
        path = os.path.join(out, "events.xpdc")
        assert os.path.getsize(path) == HEADER_SIZE
        manifest = read_manifest(os.path.join(out, "manifest.txt"))
        assert manifest["pairs_generated"] == "0"

    def test_same_seed_identical_bytes(self, short_config, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        for out in (out_a, out_b):
            assert main(
                ["simulate", "--config", short_config, "--seed", "9", "--out", out]
            ) == 0
        bytes_a = open(os.path.join(out_a, "events.xpdc"), "rb").read()
        bytes_b = open(os.path.join(out_b, "events.xpdc"), "rb").read()
        assert bytes_a == bytes_b

    def test_csv_flag(self, quiet_config, tmp_path):
        out = str(tmp_path / "csv")
        assert main(
            ["simulate", "--config", quiet_config, "--out", out, "--csv"]
        ) == 0
        lines = open(os.path.join(out, "events.csv")).read().splitlines()
        assert lines[0] == "detector_id,timestamp_ns,energy_ev"

    def test_round_trip_readback(self, short_config, tmp_path):
        out = str(tmp_path / "rt")
        assert main(["simulate", "--config", short_config, "--out", out]) == 0
        events, header = read_listmode(os.path.join(out, "events.xpdc"))
        assert header.detector_count == 2
        assert header.clock_tick_ns == 20
        assert len(events) > 0
        assert set(np.unique(events["detector_id"])) <= {1, 2}

    def test_readback_equals_simulated_records(self, short_config, tmp_path):
        from xpdc.listmode import merge_streams

        out = str(tmp_path / "eq")
        assert main(
            ["simulate", "--config", short_config, "--seed", "6", "--out", out]
        ) == 0
        from_file, _ = read_listmode(os.path.join(out, "events.xpdc"))
        settings = merge_settings(load_config_file(short_config))
        settings["run.seed"] = "6"
        s1, s2, _ = simulate_run(build_run_config(settings))
        assert from_file.tobytes() == merge_streams(s1, s2).tobytes()

    def test_config_hash_binds_file_and_manifest(self, short_config, tmp_path):
        out = str(tmp_path / "bind")
        assert main(["simulate", "--config", short_config, "--out", out]) == 0
        _, header = read_listmode(os.path.join(out, "events.xpdc"))
        manifest = read_manifest(os.path.join(out, "manifest.txt"))
        assert manifest["config_hash"] == f"{header.config_hash:016x}"


def simulate_pinned_instrument_run(tmp_path) -> str:
    """The output directory of the 60 s, 20 ns-tick instrument run that
    test_events pins, simulated by the CLI."""
    cfg = tmp_path / "instrument.cfg"
    cfg.write_text(
        "response.dead_time = 1 us\nchain.model = table\n"
        "chain.table = 5000:0.35,11000:0.42,17000:0.5\n"
        "run.current_segments = 1.0,0.96,1.04,0.92,1.06,1.02\nrun.duration = 60 s\n"
    )
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", str(cfg), "--seed", "301", "--out", out]) == 0
    return out


WIDE_WINDOWS = ["--sum-half", "6", "--horizon", "2000000", "--dt-bin", "640"]


class TestAnalyze:
    def test_pipeline_and_outputs(self, short_config, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", short_config, "--out", out]) == 0
        assert main(
            ["analyze", os.path.join(out, "events.xpdc"), "--out", out]
        ) == 0
        report = read_manifest(os.path.join(out, "analysis_report.txt"))
        assert "net_rate_per_hr" in report
        assert float(report["duration_s"]) == 30.0
        map_lines = open(os.path.join(out, "correlation_map.csv")).read().splitlines()
        meta = [l for l in map_lines if l.startswith("#")]
        assert any("duration_s" in l for l in meta)
        header_index = next(i for i, l in enumerate(map_lines) if not l.startswith("#"))
        assert map_lines[header_index] == "e1_ev,dt_ns,counts"
        assert all(l.startswith("#") for l in map_lines[:header_index])

    def test_report_equals_library_analyze(self, tmp_path):
        cfg = tmp_path / "lib.cfg"
        cfg.write_text("run.duration = 300 s\n")
        out = str(tmp_path / "lib")
        path = os.path.join(out, "events.xpdc")
        assert main(["simulate", "--config", str(cfg), "--out", out]) == 0
        assert main(["analyze", path, "--roi-e-half", "2", "--out", out]) == 0
        report = open(os.path.join(out, "analysis_report.txt")).read()

        events, header = read_listmode(path)
        stream1, stream2 = split_streams(events, header.detector_count)
        result = analyze(
            stream1, stream2, CoincidenceCriteria(), 300.0, 1.0,
            roi=RoiSpec(e_half_width_ev=2000.0),
        )
        assert result.events == (len(stream1), len(stream2))
        # Every stage gave a value, so the summary holds every report key.
        assert result.time_fit is not None and result.energy_centroid is not None
        summary = result.summary()
        assert report == "".join(f"{key} = {value}\n" for key, value in summary.items())

    @pytest.mark.parametrize(
        "flags, report_sha, map_sha",
        [
            # The time fit's sigma is 10.00 ns, its lower bound: half a dt bin.
            ([],
             "403ea48a698d4532f9e5ec61f9949b037cd50ed450a08d666a85cf1a73c90ea3",
             "27d30c41feb2a0d8f94949cbe49b7a2011fb115336a12f0106caa7e67194533e"),
            (["--exclusive"],
             "403ea48a698d4532f9e5ec61f9949b037cd50ed450a08d666a85cf1a73c90ea3",
             "27d30c41feb2a0d8f94949cbe49b7a2011fb115336a12f0106caa7e67194533e"),
            # Windows wide enough for 141 accidental pairs, 131 of them exclusive;
            # on all 141 the fit's center and sigma end on their bounds.
            (WIDE_WINDOWS,
             "ca02a07c52bc88f91547252c36f707f36cc78f0f953c76c7cf202b6cc042ba1f",
             "422ada4bf445c70e9ad5bc3eaca7517fa495c2b62de7cef8bd0501452eb1eabd"),
            ([*WIDE_WINDOWS, "--exclusive"],
             "1fa58ad7414ec33858a1e9791eb4a37822a28d782be18e193f4901f3da93379d",
             "6150cbbe599d73a2daa9e04720883563cdc85ed76c78c9db096f1dd8b676bbc3"),
        ],
        ids=["all-pairs", "exclusive", "wide-all-pairs", "wide-exclusive"],
    )
    def test_output_bytes(self, tmp_path, flags, report_sha, map_sha):
        out = simulate_pinned_instrument_run(tmp_path)
        assert main(["analyze", os.path.join(out, "events.xpdc"), *flags, "--out", out]) == 0
        digests = [
            hashlib.sha256(open(os.path.join(out, name), "rb").read()).hexdigest()
            for name in ("analysis_report.txt", "correlation_map.csv")
        ]
        assert digests == [report_sha, map_sha]

    def test_report_gives_the_roi_it_measured_in(self, tmp_path):
        # The pinned run's time fit is too sparse to set the ROI; a 900 s
        # default run's sets it.
        out = simulate_pinned_instrument_run(tmp_path)
        assert main(["analyze", os.path.join(out, "events.xpdc"), "--out", out]) == 0
        report = read_manifest(os.path.join(out, "analysis_report.txt"))
        assert (report["roi_from"], report["roi_t_half_width_ns"]) == ("given", "640.00")
        assert report["roi_sideband_inner_ns"] == "1100.00"
        cfg = tmp_path / "default.cfg"
        cfg.write_text("run.duration = 900 s\n")
        out = str(tmp_path / "default")
        assert main(["simulate", "--config", str(cfg), "--out", out]) == 0
        assert main(["analyze", os.path.join(out, "events.xpdc"), "--out", out]) == 0
        report = read_manifest(os.path.join(out, "analysis_report.txt"))
        assert report["roi_from"] == "fit"
        sigma = float(report["time_sigma_ns"])
        assert float(report["roi_t_half_width_ns"]) == pytest.approx(3 * sigma, abs=0.01)

    def test_given_roi_time_bounds_bind_only_where_it_is_used(self, tmp_path, capsys):
        # The given ROI, +-640 ns with sidebands from 1100 ns, fails a
        # 1000 ns horizon and a 1000 ns dt bin; a 900 s default run's
        # fitted ROI replaces it and passes both.
        cfg = tmp_path / "default.cfg"
        cfg.write_text("run.duration = 900 s\n")
        out = str(tmp_path / "default")
        assert main(["simulate", "--config", str(cfg), "--out", out]) == 0
        for flags in (["--horizon", "1000"], ["--dt-bin", "1000", "--horizon", "20000"]):
            assert main(["analyze", os.path.join(out, "events.xpdc"), *flags, "--out", out]) == 0
            report = read_manifest(os.path.join(out, "analysis_report.txt"))
            assert report["roi_from"] == "fit"
        # The pinned run's time fit sets no ROI, so the given one would be
        # measured over the whole 20 us centre bin: a data error, no output.
        run = simulate_pinned_instrument_run(tmp_path)
        capsys.readouterr()
        wide = ["--sum-half", "6", "--horizon", "2000000", "--dt-bin", "20000"]
        bad_out = str(tmp_path / "wide")
        assert main(["analyze", os.path.join(run, "events.xpdc"), *wide, "--out", bad_out]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: the given roi.t_half_width_ns = 640 is under criteria.dt_bin_ns = 20000, "
            "and no fit replaced it"
        ]
        assert not os.path.exists(bad_out)

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.xpdc")]) == 1

    def test_corrupt_file_is_data_error(self, tmp_path):
        path = tmp_path / "corrupt.xpdc"
        path.write_bytes(b"XPDC" + bytes(20))
        assert main(["analyze", str(path)]) == 2

    @pytest.mark.parametrize("flags, message", BAD_ANALYSIS_FLAGS)
    def test_bad_flags_are_usage_errors_before_reading(
        self, tmp_path, capsys, flags, message
    ):
        path = tmp_path / "corrupt.xpdc"  # a data error, were it read
        path.write_bytes(b"XPDC" + bytes(20))
        assert main(["analyze", str(path), *flags, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines()[0].startswith(f"error: {message}")

    @pytest.mark.parametrize("duration", ["-5", "nan", "0", "inf"])
    def test_nonpositive_duration_is_usage_error_before_reading(
        self, tmp_path, capsys, duration
    ):
        path = tmp_path / "corrupt.xpdc"
        path.write_bytes(b"XPDC" + bytes(20))
        assert main(["analyze", str(path), "--duration", duration, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: --duration must be finite and > 0"]

    @pytest.mark.parametrize("current", ["0", "-1", "nan", "inf"])
    def test_bad_mean_current_is_usage_error_before_reading(
        self, tmp_path, capsys, current
    ):
        path = tmp_path / "corrupt.xpdc"
        path.write_bytes(b"XPDC" + bytes(20))
        argv = ["analyze", str(path), "--duration", "10", "--mean-current", current]
        assert main([*argv, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: --mean-current must be finite and > 0"
        ]

    @pytest.mark.parametrize(
        "flags, duration, current",
        [
            ([], 30.0, 1.0),  # the sibling manifest
            (["--mean-current", "0.5"], 30.0, 0.5),
            (["--manifest", "M"], 20.0, 0.8),
            (["--manifest", "M", "--duration", "10"], 10.0, 0.8),
            (["--manifest", "M", "--mean-current", "0.5"], 20.0, 0.5),
            (["--duration", "10", "--mean-current", "0.5"], 10.0, 0.5),
        ],
    )
    def test_flags_win_over_the_manifest(
        self, short_config, tmp_path, flags, duration, current
    ):
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", short_config, "--out", out]) == 0
        manifest = tmp_path / "other-manifest.txt"
        manifest.write_text("duration_s = 20.0\nmean_current = 0.8\n")
        flags = [str(manifest) if flag == "M" else flag for flag in flags]
        assert main(["analyze", os.path.join(out, "events.xpdc"), *flags, "--out", out]) == 0
        report = read_manifest(os.path.join(out, "analysis_report.txt"))
        assert (float(report["duration_s"]), float(report["mean_current"])) == (
            duration, current
        )

    def test_without_manifest_the_duration_is_the_stream_span(
        self, short_config, tmp_path, capsys
    ):
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", short_config, "--out", out]) == 0
        os.remove(os.path.join(out, "manifest.txt"))
        path = os.path.join(out, "events.xpdc")
        assert main(["analyze", path, "--out", out]) == 0
        assert "using stream span" in capsys.readouterr().err
        report = read_manifest(os.path.join(out, "analysis_report.txt"))
        span = float(read_listmode(path)[0]["timestamp_ns"].max()) / 1e9
        assert 29.9 < span < 30.0 and float(report["duration_s"]) == span

    @pytest.mark.parametrize("key", ["duration_s", "mean_current"])
    @pytest.mark.parametrize("value", ["0", "-1", "abc", "inf", "nan", ""])
    def test_bad_manifest_value_is_one_line_data_error(
        self, short_config, tmp_path, capsys, key, value
    ):
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", short_config, "--out", out]) == 0
        manifest = os.path.join(out, "manifest.txt")
        entries = {**read_manifest(manifest), key: value}
        open(manifest, "w").write("".join(f"{k} = {v}\n" for k, v in entries.items()))
        capsys.readouterr()
        assert main(["analyze", os.path.join(out, "events.xpdc"), "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key} = {value!r} in ")
        assert not os.path.exists(os.path.join(out, "analysis_report.txt"))

    def test_flag_overrides_a_bad_manifest_value(self, short_config, tmp_path):
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", short_config, "--out", out]) == 0
        manifest = tmp_path / "bad-manifest.txt"
        manifest.write_text("duration_s = 0\nmean_current = abc\n")
        argv = ["analyze", os.path.join(out, "events.xpdc"), "--manifest", str(manifest)]
        assert main([*argv, "--duration", "5", "--mean-current", "2", "--out", out]) == 0
        assert main([*argv, "--duration", "5", "--out", out]) == 2

    @pytest.mark.parametrize(
        "window", [[], ["--e-min", "0", "--e-max", "100"]], ids=["window-cuts", "window-keeps-all"]
    )
    def test_order_is_checked_once_where_each_stream_is_built(
        self, short_config, tmp_path, monkeypatch, window
    ):
        # The split checks each detector's stamps as it builds its Stream;
        # after it only a candidate Stream, which a window that drops
        # events builds anew, checks its own (shorter) column.  The split
        # builds the Streams on threads, so the checks come in any order.
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", short_config, "--out", out]) == 0
        path = os.path.join(out, "events.xpdc")
        streams, _ = listmode.read_streams(path)
        lo, hi = (5000, 17000) if not window else (0, 100000)
        kept = [np.count_nonzero((s.energy_ev >= lo) & (s.energy_ev <= hi)) for s in streams]
        checked = []
        in_order = events.stamps_in_order

        def counted(stamps):
            checked.append(len(stamps))
            return in_order(stamps)

        monkeypatch.setattr(events, "stamps_in_order", counted)
        monkeypatch.setattr(listmode, "stamps_in_order", counted)
        assert main(["analyze", path, *window, "--out", out]) == 0
        candidates = [k for k, s in zip(kept, streams) if k < len(s)]
        # split_streams builds the two Streams on threads, so their checks
        # come in either order; the candidate Streams' checks follow in turn.
        assert sorted(checked[:2]) == sorted(len(s) for s in streams)
        assert checked[2:] == candidates
        if window:
            assert len(checked) == 2

    @pytest.mark.parametrize("count", [1, 3, 255])
    def test_detector_count_other_than_two_is_data_error(
        self, short_config, tmp_path, capsys, count
    ):
        out = str(tmp_path / "run")
        assert main(["simulate", "--config", short_config, "--out", out]) == 0
        path = os.path.join(out, "events.xpdc")
        raw = bytearray(open(path, "rb").read())
        raw[9] = count  # the header's detector count
        open(path, "wb").write(bytes(raw))
        capsys.readouterr()
        # The count is checked before the records are split by detector.
        with mock.patch.object(listmode, "split_streams") as split:
            assert main(["analyze", path, "--out", out]) == 2
        split.assert_not_called()
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: header says {count} detectors, not 2"]

    def test_absurd_pairing_window_is_one_line_usage_error(self, tmp_path):
        # One pairing block of 65535 detector-1 events and 2.2 M detector-2
        # events over 1 s, all within a 10 s horizon: 1.44e11 time-window
        # candidates, whose first index array alone would take 1.15 TB.
        s1, s2 = (Stream(np.linspace(0, 1e9, n).astype(np.uint64), np.full(n, 11000))
                  for n in (65535, 2_200_000))
        path = str(tmp_path / "dense.xpdc")
        write_listmode(path, (s1, s2), ListModeHeader(20, 2, 0))
        del s1, s2
        proc = run_in_subprocess(
            ["-m", "xpdc.cli", "analyze", path, "--duration", "1", "--horizon", "10000000000",
             "--dt-bin", "1000000000", "--out", str(tmp_path / "out")]
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            "error: a pairing block of 65535 events has 1.44e+11 time-window candidates, "
            "over the limit of 67108864\n"
        )

    def test_analyze_imports_neither_numpy_ma_nor_a_thread_pool(self, tmp_path, short_config):
        # Measured against what `import numpy` loads: numpy 1.x imports numpy.ma itself.
        run = str(tmp_path / "run")
        assert main(["simulate", "--config", short_config, "--out", run]) == 0
        probe = run_in_subprocess(
            ["-c", "import sys, numpy; loaded = set(sys.modules); from xpdc.cli import main; "
                   "assert main(sys.argv[1:]) == 0; "
                   "print([m for m in ('numpy.ma', 'concurrent.futures') "
                   "if m in sys.modules and m not in loaded])",
             "analyze", os.path.join(run, "events.xpdc"), "--out", str(tmp_path / "out")],
            check=True,
        )
        assert probe.stdout.splitlines()[-1] == "[]"


class TestScan:
    def test_scan_writes_csv_with_fit(self, tmp_path):
        out = str(tmp_path / "scan")
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("run.duration = 120 s\n")
        assert main(
            [
                "scan",
                "--config",
                str(cfg),
                "--detunings",
                "5,20",
                "--seeds",
                "1",
                "--out",
                out,
                "--roi-e-half",
                "2.0",
            ]
        ) == 0
        lines = open(os.path.join(out, "scan_result.csv")).read().splitlines()
        assert any(l.startswith("# exponent") for l in lines)
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "detuning_mdeg,net_rate_per_hr,net_rate_err_per_hr"
        assert len(data) == 3

    def test_single_point_emits_points_without_fit(self, tmp_path, capsys):
        out = str(tmp_path / "single")
        cfg = tmp_path / "single.cfg"
        cfg.write_text("run.duration = 60 s\n")
        assert main(
            [
                "scan", "--config", str(cfg), "--detunings", "10",
                "--seeds", "1", "--out", out,
            ]
        ) == 0
        lines = open(os.path.join(out, "scan_result.csv")).read().splitlines()
        assert any(l.startswith("# fit_error") for l in lines)
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 2  # header + one point

    def test_excluded_points_are_warning_lines_under_warnings_as_errors(self, tmp_path):
        # At 5 s the 5 and 10 mdeg points are non-positive: the fit excludes
        # them, is left with one point and fails.
        argv = ["-m", "xpdc.cli", "scan", "--detunings", "5,10,20", "--seeds", "1,2", "--out"]
        env = src_env(XPDC_RUN_DURATION="5 s")
        plain, strict = (run_in_subprocess([*flags, *argv, str(tmp_path / name)], env=env)
                         for name, flags in (("plain", []), ("strict", ["-W", "error"])))
        assert plain.stderr.count("warning: excluding non-positive rate") == 2
        assert (strict.returncode, strict.stdout, strict.stderr) == (
            0, plain.stdout, plain.stderr
        )

    def test_a_numpy_warning_in_the_scan_fit_still_follows_the_filters(self, monkeypatch):
        from xpdc import analysis, cli

        monkeypatch.setattr(analysis, "fit_misalignment_scan", lambda points: np.log(np.float64(-1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="invalid value encountered in log"):
                cli._fit_scan([])

    def test_scan_point_equals_library_pipeline(self, tmp_path):
        cfg = tmp_path / "point.cfg"
        cfg.write_text("run.duration = 300 s\n")
        out = str(tmp_path / "point")
        assert main(
            [
                "scan", "--config", str(cfg), "--detunings", "10",
                "--seeds", "4", "--roi-e-half", "2", "--out", out,
            ]
        ) == 0
        rows = [
            l for l in open(os.path.join(out, "scan_result.csv")).read().splitlines()
            if not l.startswith("#")
        ]

        settings = merge_settings(load_config_file(str(cfg)))
        settings.update({"crystal.detuning": "10 mdeg", "run.seed": "4"})
        run = build_run_config(settings)
        stream1, stream2, _ = simulate_run(run)
        roi = analyze(
            stream1, stream2, CoincidenceCriteria(), run.duration_s,
            run.beam_current_profile.mean, roi=RoiSpec(e_half_width_ev=2000.0),
        ).roi_result
        assert rows[1:] == [f"10.0,{roi.net_rate_per_hr:.4f},{roi.net_rate_err_per_hr:.4f}"]

    def test_two_seed_point_measures_the_seeds_pooled_map(self, tmp_path):
        # At this point the mean of the two seeds' own rates, each from its
        # own time fit and ROI, is 182.0 /hr.
        cfg = tmp_path / "point.cfg"
        cfg.write_text("run.duration = 900 s\n")
        out = str(tmp_path / "point")
        assert main(
            [
                "scan", "--config", str(cfg), "--detunings", "5",
                "--seeds", "1,2", "--roi-e-half", "2", "--out", out,
            ]
        ) == 0
        rows = [
            l for l in open(os.path.join(out, "scan_result.csv")).read().splitlines()
            if not l.startswith("#")
        ]

        maps = []
        for seed in ("1", "2"):
            settings = merge_settings(load_config_file(str(cfg)))
            settings.update({"crystal.detuning": "5 mdeg", "run.seed": seed})
            run = build_run_config(settings)
            stream1, stream2, _ = simulate_run(run)
            maps.append(correlate(
                stream1, stream2, CoincidenceCriteria(), run.duration_s,
                run.beam_current_profile.mean,
            )[1])
        roi = measure(maps[0] + maps[1], RoiSpec(e_half_width_ev=2000.0)).roi_result
        assert rows[1:] == [f"5.0,{roi.net_rate_per_hr:.4f},{roi.net_rate_err_per_hr:.4f}"]
        assert roi.net_rate_per_hr == 180.0

    def test_output_bytes_do_not_depend_on_the_worker_count(self, tmp_path, capsys, monkeypatch):
        # With 3 workers each point's two seeds run on different workers.
        monkeypatch.setenv("XPDC_RUN_DURATION", "60 s")
        outputs = []
        for cpus in (1, 3):
            monkeypatch.setattr(events, "usable_cpus", lambda: cpus)
            out = tmp_path / f"scan{cpus}"
            assert main(
                [
                    "scan", "--detunings", "5,10,20", "--seeds", "1,2",
                    "--roi-e-half", "2", "--out", str(out),
                ]
            ) == 0
            outputs.append((capsys.readouterr().out, (out / "scan_result.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_output_bytes(self, tmp_path, capsys):
        # Digests from the serial scan; any reordering of points or seeds
        # between the workers and the pooled maps changes them.
        cfg = tmp_path / "pin.cfg"
        cfg.write_text("run.duration = 60 s\n")
        out = tmp_path / "scan"
        assert main(
            [
                "scan", "--config", str(cfg), "--detunings", "5,10,20",
                "--seeds", "1,2", "--roi-e-half", "2", "--out", str(out),
            ]
        ) == 0
        stdout = capsys.readouterr().out.encode()
        csv = (out / "scan_result.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == (
            "dfe81fed3eaf32f9e96fc68a1b1d82b8ef09287bc278858050eeec1a4c126418"
        )
        assert hashlib.sha256(stdout).hexdigest() == (
            "e338503fe9a066547826bef38c3e3e8ab345c2f08acfce38abd6bc58ac621c2b"
        )

    def test_error_in_a_worker_is_one_line_config_error(self, tmp_path, capsys, monkeypatch):
        parent = os.getpid()
        simulate = events.simulate_run

        def in_worker(*args, **kwargs):
            assert os.getpid() != parent, "simulated in the parent process"
            return simulate(*args, **kwargs)

        monkeypatch.setattr(events, "simulate_run", in_worker)
        monkeypatch.setenv("XPDC_RUN_DURATION", "1e8 s")  # over the photon budget
        out = tmp_path / "scan"
        assert main(["scan", "--detunings", "5,10", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "above the limit of 1e+09" in err[0]
        assert not (out / "scan_result.csv").exists()

    def test_worker_death_is_one_line_data_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(events, "simulate_run", lambda *args, **kwargs: os._exit(1))
        out = tmp_path / "scan"
        assert main(["scan", "--detunings", "5,10", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (out / "scan_result.csv").exists()

    def test_unexpected_error_in_a_worker_keeps_its_traceback(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("a bug in a scan point")

        monkeypatch.setattr(events, "simulate_run", broken)
        with pytest.raises(RuntimeError, match="a bug in a scan point") as info:
            main(["scan", "--detunings", "5,10", "--out", str(tmp_path / "scan")])
        trace = str(info.value.__cause__)
        assert "in _scan_point" in trace and "in broken" in trace

    @pytest.mark.parametrize("case", ["success", "config-error", "worker-death"])
    def test_scan_leaves_no_child_process(self, tmp_path, monkeypatch, case):
        if case == "worker-death":
            monkeypatch.setattr(events, "simulate_run", lambda *args, **kwargs: os._exit(1))
        duration = "1e8 s" if case == "config-error" else "5 s"  # 1e8 s: over the photon budget
        monkeypatch.setenv("XPDC_RUN_DURATION", duration)
        code = main(["scan", "--detunings", "5,10,20", "--out", str(tmp_path / "scan")])
        assert code == {"success": 0, "config-error": 1, "worker-death": 2}[case]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_scan_imports_no_process_pool(self, tmp_path):
        probe = run_in_subprocess(
            ["-c", "import sys; from xpdc.cli import main; main(sys.argv[1:]); "
                   "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
                   "if m in sys.modules])",
             "scan", "--detunings", "5,10", "--out", str(tmp_path / "scan")],
            env=src_env(XPDC_RUN_DURATION="5 s"), check=True,
        )
        assert probe.stdout.splitlines()[-1] == "[]"

    def test_fit_warnings_are_one_line_each(self, tmp_path):
        # 5 s runs give non-positive net rates, which the fit leaves out.
        cfg = tmp_path / "five.cfg"
        cfg.write_text("run.duration = 5 s\n")
        proc = run_in_subprocess(
            ["-m", "xpdc.cli", "scan", "--config", str(cfg), "--detunings", "5,10,20",
             "--seeds", "1,2", "--out", str(tmp_path / "scan")],
        )
        assert proc.returncode == 0
        err = proc.stderr.splitlines()
        assert "warning: excluding non-positive rate at 5.0 mdeg from fit" in err
        assert all(line.startswith(("warning: ", "error: ")) for line in err), err

    def test_nonpositive_detuning_rejected(self, tmp_path, capsys):
        out = tmp_path / "scan"
        for detunings in ("-5", "5,0"):
            assert main(["scan", "--detunings", detunings, "--out", str(out)]) == 1
            assert capsys.readouterr().err.splitlines() == [
                "error: scan detunings must be > 0 mdeg"
            ]
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", BAD_ANALYSIS_FLAGS + BAD_SCAN_FLAGS)
    def test_bad_flags_are_usage_errors_before_simulating(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before checking the flags")

        monkeypatch.setattr(events, "simulate_run", no_simulation)
        out = str(tmp_path / "scan")
        assert main(["scan", "--detunings", "10", *flags, "--out", out]) == 1
        assert capsys.readouterr().err.splitlines()[0].startswith(f"error: {message}")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flag, value", [("--seeds", "1,x"), ("--detunings", "5,x")])
    def test_malformed_list_is_usage_error_before_simulating(
        self, tmp_path, capsys, monkeypatch, flag, value
    ):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before checking the flags")

        monkeypatch.setattr(events, "simulate_run", no_simulation)
        with pytest.raises(SystemExit) as err:
            main(["scan", flag, value, "--out", str(tmp_path / "scan")])
        assert err.value.code == 1
        assert f"argument {flag}: invalid comma-separated" in capsys.readouterr().err

    def test_scan_rate_matches_individual_analyze(self, tmp_path):
        # a one-point scan and a manual simulate+analyze at the same
        # detuning and seed must report the same net rate
        cfg = tmp_path / "point.cfg"
        cfg.write_text("run.duration = 300 s\ncrystal.detuning = 10 mdeg\n")
        scan_out = str(tmp_path / "scan")
        assert main(
            [
                "scan", "--config", str(cfg), "--detunings", "10",
                "--seeds", "4", "--out", scan_out,
            ]
        ) == 0
        rows = [
            l for l in open(os.path.join(scan_out, "scan_result.csv")).read().splitlines()
            if not l.startswith("#")
        ][1:]
        scan_rate = float(rows[0].split(",")[1])

        run_out = str(tmp_path / "manual")
        assert main(
            ["simulate", "--config", str(cfg), "--seed", "4", "--out", run_out]
        ) == 0
        assert main(
            ["analyze", os.path.join(run_out, "events.xpdc"), "--out", run_out]
        ) == 0
        report = read_manifest(os.path.join(run_out, "analysis_report.txt"))
        assert float(report["net_rate_per_hr"]) == pytest.approx(scan_rate)


class TestReport:
    def test_reference_numbers(self, capsys):
        assert main(["report", "--net-rate", "130", "--acceptance", "0.0382"]) == 0
        out = capsys.readouterr().out
        total = next(l for l in out.splitlines() if "total generation" in l)
        assert abs(float(total.split(":")[1].split()[0]) - 18900) < 1900
        eff = next(l for l in out.splitlines() if "conversion efficiency" in l)
        assert float(eff.split(":")[1]) == pytest.approx(5.3e-13, rel=0.1)

    def test_output_bytes(self, capsys):
        assert main(["report", "--net-rate", "130"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "f5a61c20df6ea0576c587ce9578f793c97b2cc1d6f32886e4033ef0a63ca9b4c"
        )

    def test_geometry_that_lands_no_pair_is_config_error(self, capsys, monkeypatch):
        monkeypatch.setenv("XPDC_DETECTOR1_OFFSET", "0 deg")
        assert main(["report", "--net-rate", "130"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: no split lands on both detectors (pair acceptance 0)"
        ]

    def test_reads_analysis_directory(self, short_config, tmp_path):
        out = str(tmp_path / "full")
        assert main(["simulate", "--config", short_config, "--out", out]) == 0
        assert main(["analyze", os.path.join(out, "events.xpdc"), "--out", out]) == 0
        assert main(["report", "--analysis", out]) == 0

    def test_missing_analysis_is_error(self, tmp_path):
        assert main(["report", "--analysis", str(tmp_path / "none")]) == 1

    @pytest.mark.parametrize("detuning", ["0 mdeg", "-10 mdeg"])
    def test_closed_cone_is_config_error(self, tmp_path, capsys, detuning):
        cfg = tmp_path / "closed.cfg"
        cfg.write_text(f"crystal.detuning = {detuning}\n")
        assert main(["report", "--config", str(cfg), "--net-rate", "130"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: detuning must be > 0 for a real emission cone"
        ]
        # A given acceptance needs no cone.
        flags = ["--net-rate", "130", "--acceptance", "0.0382"]
        assert main(["report", "--config", str(cfg), *flags]) == 0

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--net-rate", "nan"], "--net-rate must be finite"),
            (["--net-rate", "inf"], "--net-rate must be finite"),
            (["--net-rate=-inf"], "--net-rate must be finite"),
            (["--acceptance", "0"], "--acceptance must be in (0, 1]"),
            (["--acceptance", "-1"], "--acceptance must be in (0, 1]"),
            (["--acceptance", "1.5"], "--acceptance must be in (0, 1]"),
            (["--acceptance", "nan"], "--acceptance must be in (0, 1]"),
        ],
    )
    def test_bad_flag_is_usage_error_before_config(self, monkeypatch, capsys, flags, message):
        monkeypatch.setenv("XPDC_RUN_SEED", "abc")  # a config error, were it read
        assert main(["report", "--net-rate", "130", *flags]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-inf", ""])
    def test_bad_report_value_is_one_line_data_error(self, tmp_path, capsys, value):
        (tmp_path / "analysis_report.txt").write_text(f"net_rate_per_hr = {value}\n")
        assert main(["report", "--analysis", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: net_rate_per_hr = {value!r} in "
            f"{tmp_path / 'analysis_report.txt'} is not a finite number"
        ]

    def test_net_rate_that_overflows_is_one_line_data_error(self, capsys):
        assert main(["report", "--net-rate", "1e308", "--acceptance", "0.5"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: net rate 1e+308 /hr does not unfold to a finite rate"
        ]

    def test_negative_net_rate_and_given_acceptance_are_reported(self, tmp_path, capsys):
        (tmp_path / "analysis_report.txt").write_text("net_rate_per_hr = -12.5\n")
        assert main(["report", "--analysis", str(tmp_path), "--acceptance", "1"]) == 0
        out = capsys.readouterr().out
        assert "net pair rate        : -12.5 /hr" in out
        assert "pair acceptance      : 1.0000" in out


class TestEnvironmentOverrides:
    def test_env_sets_duration(self, quiet_config, tmp_path, monkeypatch):
        monkeypatch.setenv("XPDC_RUN_DURATION", "2 s")
        out = str(tmp_path / "env")
        assert main(["simulate", "--config", quiet_config, "--out", out]) == 0
        manifest = read_manifest(os.path.join(out, "manifest.txt"))
        assert float(manifest["duration_s"]) == 2.0

    @pytest.mark.parametrize(
        "name, value",
        [
            ("XPDC_RUN_SEED", "abc"),
            ("XPDC_CRYSTAL_REFLECTION", "1,x,0"),
            ("XPDC_CHAIN_TABLE", "5000"),
            ("XPDC_SOURCE_SPLIT_WINDOW", "0.2"),
            ("XPDC_RUN_CURRENT_SEGMENTS", "1,,2"),
        ],
    )
    def test_malformed_value_is_one_line_config_error(
        self, monkeypatch, capsys, name, value
    ):
        monkeypatch.setenv(name, value)
        assert main(["plan"]) == 1
        key = name[len("XPDC_"):].lower().replace("_", ".", 1)
        assert capsys.readouterr().err.splitlines() == [
            f"error: {key}: cannot parse {value!r}"
        ]

    @pytest.mark.parametrize("tick", ["5 s", "4294967296 ns"])
    def test_clock_tick_past_the_header_field_is_config_error_before_sampling(
        self, monkeypatch, capsys, tmp_path, tick
    ):
        # The list-mode header stores the tick as u32: a longer tick is
        # refused with the config, before the run is sampled.
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a run whose tick cannot be written")

        monkeypatch.setattr(events, "_poisson_times", no_sampling)
        monkeypatch.setenv("XPDC_RESPONSE__CLOCK_TICK", tick)
        monkeypatch.setenv("XPDC_RUN_DURATION", "60 s")
        assert main(["simulate", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: clock tick must be under 2**32 ns (about 4.3 s)"
        ]
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("tick, ns", [("0.000065 s", 65000), ("0.000123 s", 123000)])
    def test_whole_ns_tick_written_in_seconds_is_written(
        self, quiet_config, monkeypatch, tmp_path, tick, ns
    ):
        # One float multiply reads 0.000065 s as 64999.99999999999 ns.
        monkeypatch.setenv("XPDC_RESPONSE__CLOCK_TICK", tick)
        out = str(tmp_path / "o")
        assert main(["simulate", "--config", quiet_config, "--out", out]) == 0
        assert read_listmode(os.path.join(out, "events.xpdc"))[1].clock_tick_ns == ns
        config_txt = load_config_file(os.path.join(out, "config.txt"))
        assert config_txt["response.clock_tick"] == f"{ns}.0 ns"
        assert build_run_config(config_txt).experiment.response.clock_tick_ns == ns

    def test_largest_clock_tick_is_written(self, quiet_config, monkeypatch, tmp_path):
        monkeypatch.setenv("XPDC_RESPONSE__CLOCK_TICK", "4294967295 ns")
        out = str(tmp_path / "o")
        assert main(["simulate", "--config", quiet_config, "--out", out]) == 0
        assert read_listmode(os.path.join(out, "events.xpdc"))[1].clock_tick_ns == 2**32 - 1

    @pytest.mark.parametrize(
        "name, value, message",
        [
            # A line needs an energy: the rate alone simulated no photon.
            ("XPDC_SOURCE__LINE__MN_KA__RATE", "500 /s", "source.line.mn_ka has no energy"),
            # The list-mode header holds whole ns: 1.5 ns was written as 2.
            ("XPDC_RESPONSE_CLOCK_TICK", "1.5 ns", "clock tick must be a whole number of ns"),
            # The default constant model ran on its flat 0.18.
            (
                "XPDC_CHAIN_TABLE",
                "5000:0.3,17000:0.5",
                "an efficiency table needs the table model, not 'constant'",
            ),
        ],
        ids=["line-without-energy", "fractional-tick", "table-without-table-model"],
    )
    def test_setting_the_run_would_ignore_is_one_line_config_error(
        self, monkeypatch, capsys, tmp_path, name, value, message
    ):
        monkeypatch.setenv(name, value)
        assert main(["simulate", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize(
        "name, value",
        [
            ("XPDC_RUN_DURATION", "nan s"),
            ("XPDC_RUN_DURATION", "inf s"),
            ("XPDC_SOURCE__PAIR_RATE", "inf /s"),
            ("XPDC_BEAM_ENERGY", "nan keV"),
            ("XPDC_CRYSTAL_DETUNING", "nan mdeg"),
        ],
    )
    def test_non_finite_value_is_one_line_config_error(
        self, monkeypatch, capsys, tmp_path, name, value
    ):
        monkeypatch.setenv(name, value)
        assert main(["simulate", "--out", str(tmp_path)]) == 1
        key = name[len("XPDC_"):].lower()
        key = key.replace("__", ".") if "__" in key else key.replace("_", ".", 1)
        assert capsys.readouterr().err.splitlines() == [
            f"error: {key}: {value!r} is not a finite number"
        ]
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("segments", ["1e308,1e308", "1e-300,1e300"])
    def test_current_segments_that_do_not_normalize_are_config_error(
        self, monkeypatch, capsys, tmp_path, segments
    ):
        monkeypatch.setenv("XPDC_RUN_CURRENT_SEGMENTS", segments)
        monkeypatch.setenv("XPDC_RUN_DURATION", "10 s")
        assert main(["simulate", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: beam current values do not normalize to a finite mean of 1"
        ]
        assert os.listdir(tmp_path) == []

    def test_over_budget_run_is_config_error_before_sampling(
        self, monkeypatch, capsys, tmp_path
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled an over-budget run")

        monkeypatch.setattr(events, "_poisson_times", no_sampling)
        # about 8e10 photons, in a duration whose timestamps fit in int64
        monkeypatch.setenv("XPDC_RUN_DURATION", "1e8 s")
        assert main(["simulate", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "above the limit of 1e+09" in err[0]
        assert os.listdir(tmp_path) == []

    def test_run_past_the_sort_key_is_config_error_before_sampling(
        self, monkeypatch, capsys, tmp_path
    ):
        # Sorting packs each tick index above a 15-bit energy (30 keV) in
        # 64 bits: at a 1 ns tick a run may end at tick 2**49 - 1 (6.5 days).
        class Sampled(Exception):
            pass

        def no_sampling(*args, **kwargs):
            raise Sampled

        monkeypatch.setattr(events, "_poisson_times", no_sampling)
        monkeypatch.setenv("XPDC_RESPONSE_CLOCK_TICK", "1 ns")
        monkeypatch.setenv("XPDC_RUN_DURATION", "562949.953421311 s")  # 2**49 - 1 ns
        with pytest.raises(Sampled):
            main(["simulate", "--out", str(tmp_path / "o")])
        monkeypatch.setenv("XPDC_RUN_DURATION", "562949.953421312 s")  # 2**49 ns
        assert main(["simulate", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: run of 5.63e+14 clock ticks is over the limit of 2**49 that a 64-bit sort "
            "key leaves beside 15-bit energies; shorten run.duration, lengthen "
            "response.clock_tick or lower response.energy_max"
        ]
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["simulate", "plan"])
    @pytest.mark.parametrize("energy_max", ["4294967296 eV", "5000000 keV"])
    def test_energy_max_past_the_record_field_is_config_error(
        self, monkeypatch, capsys, tmp_path, command, energy_max
    ):
        # The list-mode record stores energy as u32: energies past it were
        # written as 0, below the energy minimum.
        monkeypatch.setenv("XPDC_RESPONSE_ENERGY_MAX", energy_max)
        monkeypatch.setenv("XPDC_RUN_DURATION", "10 s")
        argv = [command] + (["--out", str(tmp_path / "o")] if command == "simulate" else [])
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: energy max must be under 2**32 eV (about 4.3 GeV)"
        ]
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("duration", ["2e10 s", "9223372037 s", "1e30 s"])
    def test_duration_past_int64_stamps_is_config_error(
        self, quiet_config, monkeypatch, capsys, tmp_path, duration
    ):
        # Under the photon budget (no sources): such a run wrote every
        # stamp as 0 once the float -> uint64 cast overflowed.
        monkeypatch.setenv("XPDC_RUN_DURATION", duration)
        assert main(["simulate", "--config", quiet_config, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: duration must be under 2**63 ns (about 292 years)"
        ]
        assert not os.path.exists(tmp_path / "o")

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1


@pytest.mark.parametrize(
    "command, flags", DEAD_FLAGS, ids=[f"{command}{flags[0]}" for command, flags in DEAD_FLAGS]
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(
    tmp_path, monkeypatch, command, flags
):
    monkeypatch.chdir(tmp_path)  # so that a run the parser let through writes here
    argv = [command, *flags]
    if command == "analyze":
        argv.insert(1, str(tmp_path / "events.xpdc"))
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{dir}"],
        ["plan", "--config", "{dir}"],
        ["simulate", "--out", "{file}"],
    ],
    ids=["analyze-directory", "config-directory", "out-file"],
)
def test_os_error_is_one_line_exit_1(tmp_path, capsys, argv):
    directory = tmp_path / "dir"
    directory.mkdir()
    existing = tmp_path / "file"
    existing.write_text("")
    argv = [arg.format(dir=directory, file=existing) for arg in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "argv, path, code",
    [
        (["plan", "--config", "{text}"], "{text}", 1),
        (["analyze", "{events}", "--manifest", "{events}"], "{events}", 2),
        (["report", "--analysis", "{dir}"], "{text}", 2),
    ],
    ids=["config", "manifest", "analysis-report"],
)
def test_undecodable_text_is_one_line_naming_the_file(tmp_path, capsys, argv, path, code):
    # A 0xff byte is never UTF-8; the list-mode header holds eight of them.
    paths = {"dir": tmp_path, "text": tmp_path / "analysis_report.txt",
             "events": tmp_path / "events.xpdc"}
    paths["text"].write_bytes(b"net_rate_per_hr = 1\xff\n")
    write_listmode(str(paths["events"]), (Stream([0], [11000]), Stream([5], [11000])),
                   ListModeHeader(20, 2, 2**64 - 1))
    assert main([arg.format(**paths) for arg in argv]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot read {path.format(**paths)}: ")


@pytest.mark.parametrize("indices", ["6,6", "6,6,0,1"])
def test_reflection_of_other_than_three_indices_is_one_line_exit_1(monkeypatch, capsys, indices):
    monkeypatch.setenv("XPDC_CRYSTAL_REFLECTION", indices)
    assert main(["plan"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: reflection ({indices.replace(',', ', ')}) is not three Miller indices"
    ]


class TestMainModule:
    """`python -m xpdc.cli`, which leaves by os._exit after main()."""

    def test_analyze_writes_what_main_writes(self, tmp_path, short_config, capsys):
        run = str(tmp_path / "run")
        assert main(["simulate", "--config", short_config, "--out", run]) == 0
        events_path = os.path.join(run, "events.xpdc")
        capsys.readouterr()
        assert main(["analyze", events_path, "--out", str(tmp_path / "main")]) == 0
        stdout = capsys.readouterr().out
        proc = run_in_subprocess(
            ["-m", "xpdc.cli", "analyze", events_path, "--out", str(tmp_path / "module")]
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, "")
        names = sorted(os.listdir(tmp_path / "main"))
        assert sorted(os.listdir(tmp_path / "module")) == names
        for name in names:
            assert (tmp_path / "module" / name).read_bytes() == (
                tmp_path / "main" / name).read_bytes()

    def test_errors_are_one_line_with_their_exit_code(self, tmp_path, short_config):
        run = str(tmp_path / "run")
        assert main(["simulate", "--config", short_config, "--out", run]) == 0
        events_path = os.path.join(run, "events.xpdc")
        with open(events_path, "r+b") as handle:
            handle.truncate(os.path.getsize(events_path) - 3)
        for argv, code in (
            (["analyze", events_path, "--roi-sigmas", "0"], 1),
            (["analyze", events_path], 2),
        ):
            proc = run_in_subprocess(["-m", "xpdc.cli", *argv, "--out", str(tmp_path / "a")])
            assert proc.returncode == code
            assert len(proc.stderr.splitlines()) == 1
            assert proc.stderr.startswith("error: ")
        proc = run_in_subprocess(["-m", "xpdc.cli", "analyze", "--no-such-flag"])
        assert proc.returncode == 1 and proc.stderr.splitlines()[-1].startswith("error: ")

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_stdout_closed_by_the_reader_is_one_line(self, unbuffered):
        # Buffered, plan's report fails to be written at the flush after
        # main(); unbuffered, at its first print, inside main().
        proc = subprocess.Popen(
            [sys.executable, "-m", "xpdc.cli", "plan"], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=src_env(PYTHONUNBUFFERED=unbuffered),
        )
        proc.stdout.close()  # before plan prints its report
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_cli_import_leaves_scipy_out():
    probe = run_in_subprocess(
        ["-c", "import sys, xpdc.cli; print('scipy' in sys.modules)"], check=True
    )
    assert probe.stdout.strip() == "False"


def test_package_version_has_one_source():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as handle:
        pyproject = tomllib.load(handle)
    assert "version" not in pyproject["project"]
    assert pyproject["project"]["dynamic"] == ["version"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "xpdc.__version__"}
    assert isinstance(xpdc.__version__, str) and xpdc.__version__


def test_every_traced_name_exists():
    # The benchmark tracer (perfbench/tracing.py) wraps each name of LAYERS
    # with getattr on its xpdc module; read the table without importing it.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "tracing.py")) as handle:
        tree = ast.parse(handle.read())
    layers = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["LAYERS"]
    )
    missing = [
        f"xpdc.{layer}.{name}" for layer, names in layers.items() for name in names
        if not hasattr(importlib.import_module(f"xpdc.{layer}"), name)
    ]
    assert layers and missing == []


def test_simulate_loads_neither_analysis_nor_dataclasses(tmp_path, short_config):
    # Measured against what `import numpy` loads; each xpdc process would
    # otherwise compile analysis and pay for generating dataclasses.
    probe = ("import sys, numpy; loaded = set(sys.modules); {}; "
             "print([m for m in ('xpdc.analysis', 'dataclasses') "
             "if m in sys.modules and m not in loaded])")
    imported = run_in_subprocess(["-c", probe.format("import xpdc.cli")], check=True)
    assert imported.stdout.splitlines()[-1] == "[]"
    simulated = run_in_subprocess(
        ["-c", probe.format("from xpdc.cli import main; assert main(sys.argv[1:]) == 0"),
         "simulate", "--config", short_config, "--out", str(tmp_path / "run")],
        check=True,
    )
    assert simulated.stdout.splitlines()[-1] == "[]"


# Every name `xpdc` exported when it imported the analysis module eagerly.
PACKAGE_NAMES = [
    "BeamConfig", "ChainEfficiencyModel", "CrystalConfig", "DetectorGeometry",
    "PhaseMatchingError", "PhysicsError", "ReflectionUnreachableError", "bragg_angle",
    "detection_chain_efficiency", "emission_angles", "polarization_suppression",
    "BeamCurrentProfile", "ConfigError", "DetectorResponse", "ExperimentModel",
    "GaussianLine", "RunConfig", "RunManifest", "SourceModel", "Stream",
    "landing_acceptance", "simulate_run",
    "AnalysisError", "AnalysisResult", "CoincidenceCriteria", "CorrelationMap",
    "EfficiencyResult", "GaussianFit", "PAIR_DTYPE", "RoiResult", "RoiSpec", "ScanResult",
    "analyze", "build_correlation_map", "check_settings", "conversion_efficiency", "correlate",
    "energy_peak_centroid",
    "find_coincidence_pairs", "fit_misalignment_scan", "fit_time_profile", "measure", "roi_rate",
    "select_candidates",
    "EVENT_DTYPE", "ListModeFormatError", "ListModeHeader", "merge_streams", "read_listmode",
    "read_manifest", "read_streams", "split_streams", "write_listmode", "write_manifest",
    "__version__",
]


@pytest.mark.parametrize("name", PACKAGE_NAMES)
def test_package_name_resolves_and_is_listed(name):
    assert getattr(xpdc, name) is not None
    assert name in dir(xpdc)


def test_analysis_errors_are_one_class_everywhere():
    from xpdc import analysis

    assert xpdc.AnalysisError is analysis.AnalysisError is events.AnalysisError
    assert analysis.WindowLimitError is events.WindowLimitError


def _analysis_result():
    stream = Stream([0, 20], [11000, 11000])
    return analyze(stream, stream, CoincidenceCriteria(), duration_s=1.0)


# Each type that was a frozen dataclass, an instance of it, and one field.
FROZEN_TYPES = {
    "CrystalConfig": (lambda: xpdc.CrystalConfig(), "detuning_rad"),
    "BeamConfig": (lambda: xpdc.BeamConfig(), "pump_energy_ev"),
    "DetectorGeometry": (lambda: xpdc.DetectorGeometry(1351.0), "center_angle_offset_rad"),
    "ChainEfficiencyModel": (lambda: xpdc.ChainEfficiencyModel(), "pair_efficiency"),
    "Stream": (lambda: Stream([0], [11000]), "timestamp_ns"),
    "GaussianLine": (lambda: xpdc.GaussianLine("fe_ka", 6400.0, 10.0, 20.0), "rate_per_s"),
    "SourceModel": (lambda: xpdc.SourceModel(), "true_pair_rate_per_s"),
    "DetectorResponse": (lambda: xpdc.DetectorResponse(), "clock_tick_ns"),
    "BeamCurrentProfile": (lambda: xpdc.BeamCurrentProfile(), "values"),
    "ExperimentModel": (lambda: xpdc.ExperimentModel(), "crystal"),
    "RunConfig": (lambda: xpdc.RunConfig(), "seed"),
    "CoincidenceCriteria": (lambda: CoincidenceCriteria(), "dt_bin_ns"),
    "GaussianFit": (lambda: xpdc.GaussianFit(*range(8), (0, 0, 0, 0)), "sigma"),
    "RoiSpec": (lambda: RoiSpec(), "e_center_ev"),
    "AnalysisResult": (_analysis_result, "roi"),
    "ListModeHeader": (lambda: ListModeHeader(20, 2, 0), "config_hash"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_TYPES))
def test_formerly_frozen_type_refuses_assignment(name):
    make, field = FROZEN_TYPES[name]
    value = make()
    assert type(value) is getattr(xpdc, name)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))


def test_checked_types_compare_print_and_pickle_by_fields():
    import copy
    import pickle

    run = build_run_config(merge_settings())
    assert pickle.loads(pickle.dumps(run)) == run == copy.deepcopy(run)
    assert hash(run.experiment.crystal) == hash(xpdc.CrystalConfig())
    assert repr(xpdc.DetectorGeometry(1351.0)) == (
        "DetectorGeometry(distance_mm=1351.0, active_area_mm2=50.0, center_angle_offset_rad=None)"
    )
    assert xpdc.BeamConfig() != xpdc.BeamConfig(pump_energy_ev=20000.0)
