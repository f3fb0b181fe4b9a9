"""Desk-scale X-ray parametric down-conversion simulator and
coincidence-analysis toolkit."""

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
    emission_angle_approx,
    emission_angles,
    polarization_suppression,
)
from .events import (
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
from .analysis import (
    AnalysisError,
    AnalysisResult,
    CoincidenceCriteria,
    CorrelationMap,
    EfficiencyResult,
    GaussianFit,
    PAIR_DTYPE,
    RoiResult,
    RoiSpec,
    ScanResult,
    analyze,
    build_correlation_map,
    conversion_efficiency,
    energy_peak_centroid,
    find_coincidence_pairs,
    fit_misalignment_scan,
    fit_time_profile,
    roi_rate,
    select_candidates,
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
