"""
Flat key-value experiment configuration: parsing, defaults, unit
handling, environment overrides and the canonical config hash.

Config files hold one ``key = value`` per line with ``#`` comments.
Keys are dotted (section first); physical values carry unit suffixes,
e.g. ``crystal.detuning = 10 mdeg``.  Unknown keys are rejected.
Environment variables prefixed ``XPDC_`` override file values:
``XPDC_CRYSTAL_DETUNING`` maps to ``crystal.detuning`` (use double
underscores for dotted sub-keys: ``XPDC_SOURCE__PAIR_RATE``).
"""

from __future__ import annotations

import math
import re

from .events import (
    BeamCurrentProfile,
    ConfigError,
    DetectorResponse,
    ExperimentModel,
    GaussianLine,
    RunConfig,
    SourceModel,
)
from .listmode import fnv1a64
from .physics import (
    BeamConfig,
    ChainEfficiencyModel,
    CrystalConfig,
    DetectorGeometry,
    DEG,
    MDEG,
)

# Unit factors to the canonical unit of each dimension.  Dimensioned
# values must carry a unit suffix; the first unit listed is canonical.
_UNITS: dict[str, dict[str, float]] = {
    "energy_ev": {"ev": 1.0, "kev": 1e3, "mev": 1e6},
    "angle_rad": {"rad": 1.0, "mrad": 1e-3, "deg": DEG, "mdeg": MDEG},
    "length_mm": {"mm": 1.0, "cm": 10.0, "m": 1000.0},
    "length_angstrom": {"a": 1.0, "angstrom": 1.0, "nm": 10.0},
    "area_mm2": {"mm2": 1.0, "cm2": 100.0},
    "time_ns": {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9},
    "time_s": {"s": 1.0, "ms": 1e-3, "min": 60.0, "hr": 3600.0, "h": 3600.0},
    "rate_per_s": {"/s": 1.0, "hz": 1.0, "/min": 1 / 60.0, "/hr": 1 / 3600.0, "/h": 1 / 3600.0},
    "plain": {},
}

_CANONICAL_UNIT = {
    "energy_ev": "eV",
    "angle_rad": "rad",
    "length_mm": "mm",
    "length_angstrom": "A",
    "area_mm2": "mm2",
    "time_ns": "ns",
    "time_s": "s",
    "rate_per_s": "/s",
}

# key -> (dimension, default).  Dimensions "int"/"str"/"list" are
# parsed specially; "auto" is accepted where noted.
_SCHEMA: dict[str, tuple[str, str]] = {
    "crystal.lattice_constant": ("length_angstrom", "3.5668 A"),
    "crystal.reflection": ("intlist", "6,6,0"),
    "crystal.detuning": ("angle_rad", "10 mdeg"),  # signed
    "crystal.rate_scale": ("plain", "1.0"),
    "beam.energy": ("energy_ev", "22 keV"),
    "beam.bandwidth_fwhm": ("energy_ev", "2.9 eV"),
    "beam.incident_rate": ("rate_per_s", "9.8e12 /s"),
    "beam.polarization_angle": ("angle_rad", "0 deg"),
    "detector1.distance": ("length_mm", "1351 mm"),
    "detector1.area": ("area_mm2", "50 mm2"),
    "detector1.offset": ("angle_or_auto", "auto"),
    "detector2.distance": ("length_mm", "1560 mm"),
    "detector2.area": ("area_mm2", "50 mm2"),
    "detector2.offset": ("angle_or_auto", "auto"),
    "source.pair_rate": ("rate_per_s", "18900 /hr"),
    "source.split_window": ("window_or_auto", "auto"),
    "response.energy_resolution_fwhm": ("energy_ev", "150 eV"),
    "response.time_jitter_sigma": ("time_ns", "150 ns"),
    "response.clock_tick": ("time_ns", "20 ns"),
    "response.energy_min": ("energy_ev", "1 keV"),
    "response.energy_max": ("energy_ev", "30 keV"),
    "response.dead_time": ("time_ns", "0 ns"),
    "chain.model": ("str", "constant"),
    "chain.pair_efficiency": ("plain", "0.18"),
    "chain.table": ("efftable", ""),
    "run.duration": ("time_s", "1800 s"),
    "run.seed": ("int", "1"),
    "run.current_segments": ("floatlist", "1.0"),
}

# Background components: fixed slots plus named fluorescence lines.
# Fields per component: energy, fwhm, rate (both detectors) and optional
# rate_d1 / rate_d2 overrides.
_COMPONENT_FIELDS = {
    "energy": "energy_ev",
    "fwhm": "energy_ev",
    "rate": "rate_per_s",
    "rate_d1": "rate_per_s",
    "rate_d2": "rate_per_s",
}
_LINE_KEY = re.compile(r"^source\.line\.([a-z0-9_]+)\.(energy|fwhm|rate|rate_d1|rate_d2)$")
_FIXED_COMPONENTS = ("compton", "elastic")

# Default background model: iron and copper K-alpha fluorescence, two
# weak higher lines whose sums with them reach the pump energy, and the
# polarization-suppressed Compton hump and elastic line (rates below are
# before suppression).
_DEFAULT_COMPONENTS: dict[str, dict[str, str]] = {
    "line.fe_ka": {"energy": "6.4 keV", "fwhm": "10 eV", "rate": "20 /s"},
    "line.cu_ka": {"energy": "8.0 keV", "fwhm": "10 eV", "rate": "15 /s"},
    "line.sr_ka": {"energy": "14.165 keV", "fwhm": "10 eV", "rate": "4 /s"},
    "line.zr_ka": {"energy": "15.775 keV", "fwhm": "10 eV", "rate": "3 /s"},
    "compton": {"energy": "21.2 keV", "fwhm": "2.5 keV", "rate": "15000 /s"},
    "elastic": {"energy": "22 keV", "fwhm": "60 eV", "rate": "20000 /s"},
}

ENV_PREFIX = "XPDC_"


def _dimension_of(key: str) -> str | None:
    """The dimension of a config key's value; None for an unknown key."""
    if key in _SCHEMA:
        return _SCHEMA[key][0]
    parts = key.split(".")
    if _LINE_KEY.match(key) or (
        len(parts) == 3 and parts[0] == "source" and parts[1] in _FIXED_COMPONENTS
    ):
        return _COMPONENT_FIELDS.get(parts[-1])
    return None


def default_settings() -> dict[str, str]:
    """Raw default key/value strings for the reference experiment."""
    settings = {key: default for key, (_, default) in _SCHEMA.items()}
    for component, fields in _DEFAULT_COMPONENTS.items():
        for name, value in fields.items():
            settings[f"source.{component}.{name}"] = value
    return settings


def parse_config_text(text: str) -> dict[str, str]:
    """Parse config-file text into raw key/value strings."""
    settings: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if _dimension_of(key) is None:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        settings[key] = value
    return settings


def load_config_file(path: str) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read())


def env_overrides(environ: dict[str, str]) -> dict[str, str]:
    """Config overrides from XPDC_* environment variables."""
    overrides: dict[str, str] = {}
    for name, value in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        stem = name[len(ENV_PREFIX):].lower()
        key = stem.replace("__", ".") if "__" in stem else stem.replace("_", ".", 1)
        if _dimension_of(key) is None:
            raise ConfigError(f"environment variable {name} maps to unknown key {key!r}")
        overrides[key] = value
    return overrides


def merge_settings(*layers: dict[str, str]) -> dict[str, str]:
    """Later layers override earlier ones; starts from the defaults."""
    merged = default_settings()
    for layer in layers:
        for key, value in layer.items():
            if _dimension_of(key) is None:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = value
    return merged


# ---------------------------------------------------------------------------
# Value parsing


def _parse_quantity(key: str, value: str, dimension: str) -> float:
    units = _UNITS[dimension]
    parts = value.split()
    if dimension == "plain":
        if len(parts) != 1:
            raise ConfigError(f"{key}: expected a bare number, got {value!r}")
        return float(parts[0])
    if len(parts) != 2:
        raise ConfigError(
            f"{key}: physical values need a unit suffix "
            f"(one of {', '.join(sorted(units))}), got {value!r}"
        )
    factor = units.get(parts[1].lower())
    if factor is None:
        raise ConfigError(f"{key}: unit {parts[1]!r} not valid for {dimension}")
    return float(parts[0]) * factor


def _parse_value(key: str, value: str, dimension: str):
    if dimension in _UNITS:
        return _parse_quantity(key, value, dimension)
    if dimension == "int":
        return int(value, 0)
    if dimension == "str":
        return value
    if dimension == "intlist":
        return tuple(int(p) for p in value.split(","))
    if dimension == "floatlist":
        return tuple(float(p) for p in value.split(","))
    if dimension.endswith("_or_auto") and value.lower() == "auto":
        return None
    if dimension == "angle_or_auto":
        return _parse_quantity(key, value, "angle_rad")
    if dimension == "window_or_auto":
        lo, hi = (float(p) for p in value.split(","))
        if not 0.0 < lo < hi < 1.0:
            raise ConfigError(f"{key}: window must satisfy 0 < lo < hi < 1")
        return (lo, hi)
    if dimension == "efftable":
        points = (item.split(":") for item in value.split(",")) if value else ()
        return tuple((float(energy), float(eff)) for energy, eff in points)
    raise AssertionError(f"unhandled dimension {dimension}")


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    return not isinstance(value, tuple) or all(map(_finite, value))


def resolve_settings(settings: dict[str, str]) -> dict[str, object]:
    """Parse every raw value into canonical units / native types."""
    resolved = {}
    for key, value in settings.items():
        dimension = _dimension_of(key)
        if dimension is None:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            resolved[key] = _parse_value(key, value.strip(), dimension)
        except ConfigError:
            raise
        except ValueError as exc:  # a number, list or pair that does not parse
            raise ConfigError(f"{key}: cannot parse {value!r}") from exc
        if not _finite(resolved[key]):
            raise ConfigError(f"{key}: {value!r} is not a finite number")
    return resolved


# ---------------------------------------------------------------------------
# Canonical form and hash


def canonical_text(settings: dict[str, str]) -> str:
    """Canonical config rendering: sorted keys, values in canonical units.

    The output is itself a valid config file, so it doubles as a
    provenance record that can be fed back in.
    """
    resolved = resolve_settings(settings)
    lines = []
    for key in sorted(resolved):
        value = resolved[key]
        dimension = _dimension_of(key)
        if dimension == "efftable":
            rendered = ",".join(f"{e!r}:{v!r}" for e, v in value)
        elif isinstance(value, tuple):
            rendered = ",".join(repr(v) for v in value)
        elif value is None:
            rendered = "auto"
        elif isinstance(value, float):
            unit = _CANONICAL_UNIT.get(dimension)
            if dimension == "angle_or_auto":
                unit = "rad"
            rendered = f"{value!r} {unit}" if unit else repr(value)
        else:
            rendered = str(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def config_hash(settings: dict[str, str]) -> int:
    """FNV-1a 64 over the canonicalized config text."""
    return fnv1a64(canonical_text(settings).encode("utf-8"))


# ---------------------------------------------------------------------------
# Model construction


def _component_lines(
    resolved: dict[str, object], prefix: str, label: str, suppressed: bool
) -> list[tuple[GaussianLine, GaussianLine]]:
    """The component at prefix as (detector 1, detector 2) lines; empty
    when it has no energy."""
    energy = resolved.get(f"{prefix}.energy")
    if energy is None:
        return []
    fwhm = float(resolved.get(f"{prefix}.fwhm", 0.0))
    base_rate = float(resolved.get(f"{prefix}.rate", 0.0))
    return [
        tuple(
            GaussianLine(
                label=label,
                center_ev=float(energy),
                fwhm_ev=fwhm,
                rate_per_s=float(resolved.get(f"{prefix}.rate_d{det}", base_rate)),
                suppressed=suppressed,
            )
            for det in (1, 2)
        )
    ]


def build_run_config(settings: dict[str, str]) -> RunConfig:
    """Construct the full run configuration from raw settings."""
    r = resolve_settings(settings)

    crystal = CrystalConfig(
        lattice_constant_angstrom=float(r["crystal.lattice_constant"]),
        reflection=tuple(int(v) for v in r["crystal.reflection"]),
        detuning_rad=float(r["crystal.detuning"]),
        effective_rate_scale=float(r["crystal.rate_scale"]),
    )
    beam = BeamConfig(
        pump_energy_ev=float(r["beam.energy"]),
        bandwidth_fwhm_ev=float(r["beam.bandwidth_fwhm"]),
        incident_rate_per_s=float(r["beam.incident_rate"]),
        polarization_angle_rad=float(r["beam.polarization_angle"]),
    )
    detectors = tuple(
        DetectorGeometry(
            distance_mm=float(r[f"detector{i}.distance"]),
            active_area_mm2=float(r[f"detector{i}.area"]),
            center_angle_offset_rad=(
                0.0 if r[f"detector{i}.offset"] is None else float(r[f"detector{i}.offset"])
            ),
        )
        for i in (1, 2)
    )

    line_names = sorted(
        {
            match.group(1)
            for key in r
            if (match := _LINE_KEY.match(key)) is not None
        }
    )
    # Named lines in sorted order, then the polarization-suppressed
    # Compton hump and elastic line; the order fixes the random draws.
    components = [
        pair
        for name in line_names
        for pair in _component_lines(r, f"source.line.{name}", name, suppressed=False)
    ]
    for name in _FIXED_COMPONENTS:
        components += _component_lines(r, f"source.{name}", name, suppressed=True)
    source = SourceModel(
        true_pair_rate_per_s=float(r["source.pair_rate"]),
        components=tuple(zip(*components)) or ((), ()),
    )
    response = DetectorResponse(
        energy_resolution_fwhm_ev=float(r["response.energy_resolution_fwhm"]),
        time_jitter_sigma_ns=float(r["response.time_jitter_sigma"]),
        clock_tick_ns=int(round(float(r["response.clock_tick"]))),
        energy_range_ev=(float(r["response.energy_min"]), float(r["response.energy_max"])),
        dead_time_ns=float(r["response.dead_time"]),
    )
    chain = ChainEfficiencyModel(
        model=str(r["chain.model"]),
        pair_efficiency=float(r["chain.pair_efficiency"]),
        table=tuple(r["chain.table"]),
    )
    experiment = ExperimentModel(
        crystal=crystal,
        beam=beam,
        detectors=detectors,
        source=source,
        response=response,
        chain=chain,
        split_window_x=r["source.split_window"],
    )
    profile = BeamCurrentProfile(values=tuple(r["run.current_segments"]))
    return RunConfig(
        duration_s=float(r["run.duration"]),
        seed=int(r["run.seed"]),
        experiment=experiment,
        beam_current_profile=profile,
    )


def default_config_text() -> str:
    """A commented config file with every key at its default."""
    lines = [
        "# xpdc experiment configuration (defaults)",
        "# Physical values carry unit suffixes: eV/keV, deg/mdeg/rad,",
        "# mm, mm2, ns/us/s, /s or /hr.  'auto' derives geometry values",
        "# from the rest of the configuration.",
        "",
    ]
    settings = default_settings()
    for key in sorted(settings):
        lines.append(f"{key} = {settings[key]}")
    return "\n".join(lines) + "\n"
