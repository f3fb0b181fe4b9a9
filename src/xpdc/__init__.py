"""Desk-scale X-ray parametric down-conversion simulator and
coincidence-analysis toolkit.

The analysis names are loaded with the analysis module on first use
(PEP 562), so that a process that only simulates never compiles it.
"""

from .physics import (
    BeamConfig,
    ChainEfficiencyModel,
    CrystalConfig,
    DetectorGeometry,
    PhaseMatchingError,
    PhysicsError,
    ReflectionUnreachableError,
    bragg_angle,
    detection_chain_efficiency,
    emission_angles,
    polarization_suppression,
)
from .events import (
    AnalysisError,
    BeamCurrentProfile,
    ConfigError,
    DetectorResponse,
    ExperimentModel,
    GaussianLine,
    RunConfig,
    RunManifest,
    SourceModel,
    Stream,
    landing_acceptance,
    simulate_run,
)
from .listmode import (
    EVENT_DTYPE,
    ListModeFormatError,
    ListModeHeader,
    merge_streams,
    read_listmode,
    read_manifest,
    read_streams,
    split_streams,
    write_listmode,
    write_manifest,
)

__version__ = "0.1.0"

_ANALYSIS_NAMES = frozenset({
    "AnalysisResult",
    "CoincidenceCriteria",
    "CorrelationMap",
    "EfficiencyResult",
    "GaussianFit",
    "PAIR_DTYPE",
    "RoiResult",
    "RoiSpec",
    "ScanResult",
    "analyze",
    "build_correlation_map",
    "check_settings",
    "conversion_efficiency",
    "correlate",
    "energy_peak_centroid",
    "find_coincidence_pairs",
    "fit_misalignment_scan",
    "fit_time_profile",
    "measure",
    "roi_rate",
    "select_candidates",
})


def __getattr__(name: str):
    if name in _ANALYSIS_NAMES:
        from . import analysis

        return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _ANALYSIS_NAMES)
