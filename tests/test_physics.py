"""Physics-core: Bragg geometry, emission angles, suppression, acceptance."""

import math

import numpy as np
import pytest
from scipy.optimize import fsolve
from test_acceptance import emission_angle_approx  # the paper's small-angle formula

from xpdc.physics import (
    ChainEfficiencyModel,
    CrystalConfig,
    DEG,
    HC_EV_ANGSTROM,
    MDEG,
    PhaseMatchingError,
    PhysicsError,
    ReflectionUnreachableError,
    bragg_angle,
    detection_chain_efficiency,
    emission_angles,
    polarization_suppression,
)

THETA_B_REF = math.radians(84.1) / 2  # the reference setup angle


class TestBraggAngle:
    def test_reference_point_diamond_660(self):
        # 22 keV on diamond (660); the published setup quotes 84.1 deg,
        # which the tabulated lattice constant reproduces to 0.1 deg.
        theta = bragg_angle(22000.0, CrystalConfig())
        assert abs(2 * theta / DEG - 84.1) < 0.1

    def test_edge_wavelength_equals_2d(self):
        crystal = CrystalConfig()
        energy = HC_EV_ANGSTROM / (2 * crystal.d_spacing_angstrom)
        assert bragg_angle(energy, crystal) == pytest.approx(math.pi / 2)

    def test_unreachable_reflection_raises(self):
        # 11 keV: lambda = 1.127 A exceeds 2d = 0.841 A for diamond (660)
        crystal = CrystalConfig()
        assert HC_EV_ANGSTROM / 11000.0 > 2 * crystal.d_spacing_angstrom
        with pytest.raises(ReflectionUnreachableError):
            bragg_angle(11000.0, crystal)

    def test_monotone_decreasing_in_energy(self):
        crystal = CrystalConfig()
        energies = np.linspace(16000.0, 40000.0, 25)
        angles = [bragg_angle(e, crystal) for e in energies]
        assert all(b < a for a, b in zip(angles, angles[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(PhysicsError):
            bragg_angle(-1.0, CrystalConfig())
        with pytest.raises(PhysicsError):
            CrystalConfig(lattice_constant_angstrom=-1.0)
        with pytest.raises(PhysicsError):
            CrystalConfig(reflection=(0, 0, 0))
        with pytest.raises(PhysicsError):
            CrystalConfig(effective_rate_scale=0.0)


class TestEmissionAngleApprox:
    def test_reference_point(self):
        # R(x=0.5) at 10 mdeg detuning and 2 theta_B = 84.1 deg
        r = emission_angle_approx(0.5, 10 * MDEG, THETA_B_REF)
        assert abs(r / DEG - 1.07) < 0.01

    def test_limit_x_to_one(self):
        r = emission_angle_approx(1.0 - 1e-9, 10 * MDEG, THETA_B_REF)
        assert r < 1e-4

    def test_quarter_split_closed_form_ratio(self):
        # sqrt((1-x)/x) at x = 0.25 is sqrt(3) times the x = 0.5 value
        r_half = emission_angle_approx(0.5, 10 * MDEG, THETA_B_REF)
        r_quarter = emission_angle_approx(0.25, 10 * MDEG, THETA_B_REF)
        assert r_quarter == pytest.approx(math.sqrt(3.0) * r_half, rel=1e-12)
        assert r_quarter / DEG == pytest.approx(1.849, abs=2e-3)

    def test_separability_in_x(self):
        # R(x) * sqrt(x/(1-x)) must not depend on x
        values = [
            emission_angle_approx(x, 10 * MDEG, THETA_B_REF)
            * math.sqrt(x / (1.0 - x))
            for x in np.linspace(0.05, 0.95, 37)
        ]
        assert max(values) - min(values) < 1e-14


def transverse_residual(x, r_x, r_y):
    """The transverse momentum-closure defect |x sin r_x - (1 - x) sin r_y|."""
    return abs(x * math.sin(r_x) - (1.0 - x) * math.sin(r_y))


class TestEmissionAnglesExact:
    def test_degenerate_symmetry(self):
        r_x, r_y = emission_angles(0.5, 10 * MDEG, THETA_B_REF)
        assert r_x == pytest.approx(r_y, rel=1e-14)

    def test_close_to_approx_at_reference_point(self):
        r_x, _ = emission_angles(0.5, 10 * MDEG, THETA_B_REF)
        approx = emission_angle_approx(0.5, 10 * MDEG, THETA_B_REF)
        assert abs(approx - r_x) / r_x < 0.005

    def test_transverse_residual_restated(self):
        r_x, r_y = emission_angles(0.37, 25 * MDEG, THETA_B_REF)
        assert transverse_residual(0.37, r_x, r_y) <= 1e-12

    def test_residual_bound_on_grid(self):
        xs = np.linspace(0.23, 0.77, 9)
        for detuning in np.linspace(1, 50, 8) * MDEG:
            r_x, r_y = emission_angles(xs, float(detuning), THETA_B_REF)
            for x, rx, ry in zip(xs, r_x, r_y):
                assert transverse_residual(float(x), rx, ry) <= 1e-12
                assert rx >= 0 and ry >= 0

    def test_against_independent_two_equation_solver(self):
        # Solve the raw system (transverse + longitudinal) directly with
        # a generic 2D root finder and compare.
        for x, detuning in ((0.3, 5 * MDEG), (0.5, 10 * MDEG), (0.7, 40 * MDEG)):
            y = 1.0 - x
            closure = 1.0 - detuning * math.sin(2 * THETA_B_REF)

            def system(angles):
                rx, ry = angles
                return (
                    x * math.sin(rx) - y * math.sin(ry),
                    x * math.cos(rx) + y * math.cos(ry) - closure,
                )

            guess = emission_angle_approx(x, detuning, THETA_B_REF)
            rx_ref, ry_ref = fsolve(system, (guess, guess), full_output=False)
            r_x, r_y = emission_angles(x, detuning, THETA_B_REF)
            assert r_x == pytest.approx(abs(rx_ref), rel=1e-9)
            assert r_y == pytest.approx(abs(ry_ref), rel=1e-9)

    def test_unreachable_raises(self):
        with pytest.raises(PhaseMatchingError):
            emission_angles(0.5, -10 * MDEG, THETA_B_REF)
        with pytest.raises(PhaseMatchingError):
            emission_angles([0.5], math.nan, THETA_B_REF)
        # Extreme detuning with an asymmetric split: closure too short.
        with pytest.raises(PhaseMatchingError):
            emission_angles(0.95, 0.9, THETA_B_REF)
        with pytest.raises(PhaseMatchingError):
            emission_angles(np.array([0.5, 0.95]), 0.9, THETA_B_REF)

    def test_array_form_matches_scalar_form(self):
        xs = np.linspace(0.02, 0.98, 49)
        for detuning in (1 * MDEG, 10 * MDEG, 50 * MDEG):
            r_x, r_y = emission_angles(xs, detuning, THETA_B_REF)
            for x, rx, ry in zip(xs, r_x, r_y):
                scalar_rx, scalar_ry = emission_angles(float(x), detuning, THETA_B_REF)
                assert rx == pytest.approx(scalar_rx, rel=1e-12)
                assert ry == pytest.approx(scalar_ry, rel=1e-12)

    def test_bad_split_in_array_raises(self):
        with pytest.raises(PhysicsError):
            emission_angles(np.array([0.5, 1.0]), 10 * MDEG, THETA_B_REF)

    def test_unreachable_scalar_split_raises(self):
        # A 0-d split must reach the phase-matching message, not fail in it.
        with pytest.raises(PhaseMatchingError, match="for x = 0.95"):
            emission_angles(0.95, 0.9, THETA_B_REF)

    def test_small_detuning_limit(self):
        # At vanishing detuning the exact angles tend to the small-angle
        # formula; the closed form keeps their full precision there.
        detuning = 1e-6 * MDEG
        xs = np.linspace(0.05, 0.95, 19)
        r_x, r_y = emission_angles(xs, detuning, THETA_B_REF)
        for x, rx, ry in zip(xs, r_x, r_y):
            x = float(x)
            assert rx == pytest.approx(
                emission_angle_approx(x, detuning, THETA_B_REF), rel=1e-9
            )
            assert ry == pytest.approx(
                emission_angle_approx(1.0 - x, detuning, THETA_B_REF), rel=1e-9
            )

    def test_angle_past_ninety_degrees_raises(self):
        # The triangle closes, but the softer photon would leave at more
        # than 90 degrees from the Laue direction.
        for x in (0.9, 0.1):
            with pytest.raises(PhaseMatchingError, match="no real emission angle"):
                emission_angles(x, 0.15, THETA_B_REF)
        _, r_y = emission_angles(0.9, 0.10, THETA_B_REF)
        assert r_y == pytest.approx(1.5099, abs=1e-4)
        assert r_y < 0.5 * math.pi


class TestPolarizationSuppression:
    def test_full_suppression_at_right_angle(self):
        assert polarization_suppression(math.pi / 4, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_no_suppression_out_of_plane(self):
        assert polarization_suppression(THETA_B_REF, math.pi / 2) == pytest.approx(1.0)

    def test_reference_geometry(self):
        value = polarization_suppression(THETA_B_REF, 0.0)
        assert value == pytest.approx(1.0 - math.sin(math.radians(84.1)) ** 2, rel=1e-12)
        assert abs(value - 0.0105) < 5e-4

    def test_periodic_in_chi_with_minimum_at_zero(self):
        chis = np.linspace(-math.pi, math.pi, 101)
        values = [polarization_suppression(THETA_B_REF, c) for c in chis]
        shifted = [polarization_suppression(THETA_B_REF, c + math.pi) for c in chis]
        assert np.allclose(values, shifted, atol=1e-12)
        assert min(values) == pytest.approx(
            polarization_suppression(THETA_B_REF, 0.0), abs=1e-12
        )


class TestDetectionChain:
    def test_default_pair_survival(self):
        chain = ChainEfficiencyModel()
        assert detection_chain_efficiency(11000.0, 11000.0, chain) == pytest.approx(0.18)

    def test_ideal(self):
        chain = ChainEfficiencyModel(model="ideal")
        assert detection_chain_efficiency(6000.0, 16000.0, chain) == 1.0

    def test_table_interpolation_and_monotonicity(self):
        table = ((5000.0, 0.30), (11000.0, 0.42), (17000.0, 0.50))
        chain = ChainEfficiencyModel(model="table", table=table)
        assert chain.photon_efficiency(5000.0) == pytest.approx(0.30)
        assert chain.photon_efficiency(8000.0) == pytest.approx(0.36)
        assert chain.photon_efficiency(20000.0) == pytest.approx(0.50)
        energies = np.linspace(5000.0, 17000.0, 49)
        effs = [chain.photon_efficiency(e) for e in energies]
        assert all(b >= a for a, b in zip(effs, effs[1:]))
        assert np.array_equal(chain.photon_efficiency(energies), effs)
        pair = detection_chain_efficiency(8000.0, 14000.0, chain)
        assert pair == pytest.approx(0.36 * chain.photon_efficiency(14000.0))

    def test_decreasing_table_rejected(self):
        with pytest.raises(PhysicsError):
            ChainEfficiencyModel(
                model="table", table=((5000.0, 0.5), (17000.0, 0.3))
            )

    def test_energy_bounds(self):
        chain = ChainEfficiencyModel()
        with pytest.raises(PhysicsError):
            detection_chain_efficiency(0.0, 11000.0, chain)
        with pytest.raises(PhysicsError):
            detection_chain_efficiency(11000.0, 23000.0, chain)


class TestApproxVsExactProperty:
    def test_one_percent_band_coarse_grid(self):
        # The full 50x50 grid runs in the acceptance suite; keep a
        # coarser sweep here for fast feedback.
        worst = 0.0
        for detuning in np.linspace(1, 50, 15) * MDEG:
            for x in np.linspace(0.23, 0.77, 15):
                approx = emission_angle_approx(float(x), float(detuning), THETA_B_REF)
                exact = emission_angles(float(x), float(detuning), THETA_B_REF)[0]
                worst = max(worst, abs(approx - exact) / exact)
        assert worst < 0.01
