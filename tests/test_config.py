"""Configuration parsing, units, overrides, canonical hash."""

import math

import pytest

from xpdc.config import (
    build_run_config,
    canonical_text,
    config_hash,
    default_settings,
    env_overrides,
    load_config_file,
    merge_settings,
    parse_config_text,
)
from xpdc.events import ConfigError
from xpdc.physics import DEG, MDEG


class TestParsing:
    def test_defaults_build(self):
        run = build_run_config(default_settings())
        exp = run.experiment
        assert exp.beam.pump_energy_ev == 22000.0
        assert exp.crystal.detuning_rad == pytest.approx(10 * MDEG)
        assert exp.detectors[0].distance_mm == 1351.0
        assert exp.detectors[1].distance_mm == 1560.0
        assert exp.source.true_pair_rate_per_s == pytest.approx(18900.0 / 3600.0)
        assert run.duration_s == 1800.0

    def test_units(self):
        settings = default_settings()
        settings["crystal.detuning"] = "0.01 deg"
        settings["beam.energy"] = "22000 eV"
        settings["run.duration"] = "0.5 hr"
        settings["response.dead_time"] = "1 us"
        run = build_run_config(settings)
        assert run.experiment.crystal.detuning_rad == pytest.approx(0.01 * DEG)
        assert run.duration_s == 1800.0
        assert run.experiment.response.dead_time_ns == 1000.0

    def test_comments_and_blank_lines(self):
        text = """
        # a comment
        crystal.detuning = 25 mdeg   # trailing comment

        run.seed = 42
        """
        parsed = parse_config_text(text)
        assert parsed == {"crystal.detuning": "25 mdeg", "run.seed": "42"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("crystal.color = blue\n")
        with pytest.raises(ConfigError):
            merge_settings({"nope.nope": "1"})

    @pytest.mark.parametrize("build", [build_run_config, canonical_text])
    def test_unknown_key_in_settings_rejected(self, build):
        settings = default_settings()
        settings["crystal.detunning"] = "20 mdeg"
        with pytest.raises(ConfigError, match="crystal.detunning"):
            build(settings)

    def test_bad_unit_rejected(self):
        settings = default_settings()
        settings["crystal.detuning"] = "10 mm"
        with pytest.raises(ConfigError):
            build_run_config(settings)

    def test_missing_unit_rejected(self):
        settings = default_settings()
        settings["crystal.detuning"] = "10"
        with pytest.raises(ConfigError):
            build_run_config(settings)

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just words\n")

    def test_split_window_literal(self):
        settings = default_settings()
        settings["source.split_window"] = "0.227,0.773"
        run = build_run_config(settings)
        assert run.experiment.split_window() == (0.227, 0.773)

    def test_split_window_auto_tracks_detectors(self):
        run = build_run_config(default_settings())
        lo, hi = run.experiment.split_window()
        assert 0.40 < lo < 0.47 < 0.53 < hi < 0.60

    def test_detector_offset_auto_positions_at_degenerate_angle(self):
        run = build_run_config(default_settings())
        det1, det2 = run.experiment.positioned_detectors()
        r0 = run.experiment.degenerate_offset()
        assert det1.center_angle_offset_rad == pytest.approx(r0)
        assert det2.center_angle_offset_rad == pytest.approx(r0)
        assert r0 / DEG == pytest.approx(1.07, abs=0.01)

    def test_explicit_offset_respected(self):
        settings = default_settings()
        settings["detector1.offset"] = "2 deg"
        run = build_run_config(settings)
        det1, _ = run.experiment.positioned_detectors()
        assert det1.center_angle_offset_rad == pytest.approx(2 * DEG)

    def test_explicit_zero_offset_respected(self):
        # Only auto aims a detector at the degenerate ring.
        settings = default_settings()
        settings["detector1.offset"] = "0 deg"
        run = build_run_config(settings)
        det1, _ = run.experiment.positioned_detectors()
        assert det1.center_angle_offset_rad == 0.0

    def test_background_component_overrides(self):
        settings = default_settings()
        settings["source.line.fe_ka.rate_d2"] = "7 /s"
        run = build_run_config(settings)
        lines1, lines2 = run.experiment.source.components
        fe1 = next(l for l in lines1 if l.label == "fe_ka")
        fe2 = next(l for l in lines2 if l.label == "fe_ka")
        assert fe1.rate_per_s == 20.0
        assert fe2.rate_per_s == 7.0

    def test_chain_table(self):
        settings = default_settings()
        settings["chain.model"] = "table"
        settings["chain.table"] = "5000:0.3, 11000:0.42, 17000:0.5"
        run = build_run_config(settings)
        assert run.experiment.chain.photon_efficiency(11000.0) == pytest.approx(0.42)


class TestEnvOverrides:
    def test_simple_key(self):
        overrides = env_overrides({"XPDC_CRYSTAL_DETUNING": "20 mdeg"})
        assert overrides == {"crystal.detuning": "20 mdeg"}

    def test_double_underscore_for_dotted_keys(self):
        overrides = env_overrides({"XPDC_SOURCE__LINE__FE_KA__RATE": "5 /s"})
        assert overrides == {"source.line.fe_ka.rate": "5 /s"}

    def test_unknown_env_key_rejected(self):
        with pytest.raises(ConfigError):
            env_overrides({"XPDC_NOT_A_KEY": "1"})

    def test_other_variables_ignored(self):
        assert env_overrides({"PATH": "/bin", "HOME": "/root"}) == {}


class TestCanonicalHash:
    def test_stable_across_formatting(self):
        a = default_settings()
        b = dict(a)
        b["crystal.detuning"] = "0.010 deg"  # same value, different unit
        assert config_hash(a) == config_hash(b)

    def test_changes_with_value(self):
        a = default_settings()
        b = dict(a)
        b["crystal.detuning"] = "20 mdeg"
        assert config_hash(a) != config_hash(b)

    def test_canonical_text_sorted(self):
        text = canonical_text(default_settings())
        keys = [line.split(" = ")[0] for line in text.strip().splitlines()]
        assert keys == sorted(keys)

    def test_canonical_text_reparses_to_same_hash(self):
        settings = default_settings()
        settings["crystal.detuning"] = "17 mdeg"
        reparsed = merge_settings(parse_config_text(canonical_text(settings)))
        assert config_hash(reparsed) == config_hash(settings)


class TestDefaultConfigText:
    def test_round_trips_through_parser(self, tmp_path):
        path = tmp_path / "default.cfg"
        path.write_text(canonical_text(default_settings()))
        parsed = load_config_file(str(path))
        assert config_hash(merge_settings(parsed)) == config_hash(default_settings())
