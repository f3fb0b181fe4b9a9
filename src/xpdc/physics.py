"""
Closed-form geometry of near-Bragg parametric down-conversion: Bragg
angles, exact pair emission angles, detector geometry, polarization
suppression of elastic and Compton background, and the detection-chain
efficiency model.  Where a photon lands on a detector, and the
acceptance that follows, is events' landing model.

Conventions: energies in eV, angles in radians, lengths in mm (lattice
constants in Angstrom), rates per second.  All functions here are pure
and safe to call concurrently.
"""

from __future__ import annotations

import math

import numpy as np

# hc in eV*Angstrom (CODATA 2018)
HC_EV_ANGSTROM = 12398.419843320026

DEG = math.pi / 180.0
MDEG = 1e-3 * DEG
FWHM_OVER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


class PhysicsError(ValueError):
    """Invalid physical input (violated precondition)."""


class ReflectionUnreachableError(PhysicsError):
    """Bragg condition cannot be met: wavelength exceeds 2d."""


class PhaseMatchingError(PhysicsError):
    """No real emission-angle solution for the requested split/detuning."""


class _Frozen:
    """Base of the value types that check their fields.  Each sets its
    __slots__, in order, once, by _set at the end of its __init__; any
    later assignment or deletion raises AttributeError.  Instances
    compare, hash, print and pickle by their fields, as frozen dataclasses
    do, without generating code for each class at import."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # pickle and copy give (None, {slot: value})
        self._set(*(state[1][name] for name in self.__slots__))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class CrystalConfig(_Frozen):
    """Crystal, reflection and detuning state.

    detuning_rad is signed: positive opens the down-conversion cone,
    negative (or zero) makes pair emission impossible.
    effective_rate_scale is a stand-in for crystal-quality effects that
    reduce the usable thickness; it multiplies the configured pair rate.
    """

    __slots__ = ("lattice_constant_angstrom", "reflection", "detuning_rad",
                 "effective_rate_scale")

    def __init__(
        self,
        lattice_constant_angstrom: float = 3.5668,  # diamond, cubic
        reflection: tuple[int, int, int] = (6, 6, 0),
        detuning_rad: float = 10e-3 * DEG,
        effective_rate_scale: float = 1.0,
    ):
        if lattice_constant_angstrom <= 0:
            raise PhysicsError("lattice constant must be > 0")
        if len(reflection) != 3:
            raise PhysicsError(f"reflection {tuple(reflection)} is not three Miller indices")
        if tuple(reflection) == (0, 0, 0):
            raise PhysicsError("reflection (0,0,0) has no lattice vector")
        if not 0.0 < effective_rate_scale <= 1.0:
            raise PhysicsError("effective_rate_scale must be in (0, 1]")
        self._set(lattice_constant_angstrom, reflection, detuning_rad, effective_rate_scale)

    @property
    def d_spacing_angstrom(self) -> float:
        h, k, l = self.reflection
        return self.lattice_constant_angstrom / math.sqrt(h * h + k * k + l * l)


class BeamConfig(_Frozen):
    """Pump beam: energy, bandwidth, flux and polarization plane angle.

    polarization_angle_rad is the angle chi between the scattering plane
    and the pump polarization; chi = 0 puts the detectors in the
    polarization plane (maximum background suppression).
    """

    __slots__ = ("pump_energy_ev", "bandwidth_fwhm_ev", "incident_rate_per_s",
                 "polarization_angle_rad")

    def __init__(
        self,
        pump_energy_ev: float = 22000.0,
        bandwidth_fwhm_ev: float = 2.9,
        incident_rate_per_s: float = 0.98e13,
        polarization_angle_rad: float = 0.0,
    ):
        if pump_energy_ev <= 0:
            raise PhysicsError("pump energy must be > 0")
        if incident_rate_per_s <= 0:
            raise PhysicsError("incident rate must be > 0")
        if bandwidth_fwhm_ev < 0:
            raise PhysicsError("bandwidth must be >= 0")
        self._set(pump_energy_ev, bandwidth_fwhm_ev, incident_rate_per_s, polarization_angle_rad)


class DetectorGeometry(_Frozen):
    """One energy-resolving detector: distance, area and angular position.

    center_angle_offset_rad is the detector center's angle from the Laue
    (diffracted-beam) direction, i.e. the ring radius it is aimed at;
    None (auto) aims it at the degenerate x = 0.5 ring.
    """

    __slots__ = ("distance_mm", "active_area_mm2", "center_angle_offset_rad")

    def __init__(
        self,
        distance_mm: float,
        active_area_mm2: float = 50.0,
        center_angle_offset_rad: float | None = None,
    ):
        if distance_mm <= 0:
            raise PhysicsError("detector distance must be > 0")
        if active_area_mm2 <= 0:
            raise PhysicsError("detector active area must be > 0")
        self._set(distance_mm, active_area_mm2, center_angle_offset_rad)

    @property
    def side_mm(self) -> float:
        """Linear extent w = sqrt(area) used by the landing model."""
        return math.sqrt(self.active_area_mm2)

    @property
    def half_extent_rad(self) -> float:
        """Angular half-extent of the detector seen from the crystal."""
        return 0.5 * self.side_mm / self.distance_mm


def bragg_angle(pump_energy_ev: float, crystal: CrystalConfig) -> float:
    """Bragg angle theta_B for the crystal's reflection at a pump energy.

    Parameters
    ----------
    pump_energy_ev : float
        Photon energy in eV.
    crystal : CrystalConfig

    Returns
    -------
    float
        theta_B in radians, with sin(theta_B) = lambda / (2 d_hkl).

    Raises
    ------
    ReflectionUnreachableError
        If lambda > 2 d_hkl, i.e. the photon energy is too low for this
        reflection.
    """
    if pump_energy_ev <= 0:
        raise PhysicsError("pump energy must be > 0")
    wavelength = HC_EV_ANGSTROM / pump_energy_ev
    two_d = 2.0 * crystal.d_spacing_angstrom
    if wavelength > two_d:
        raise ReflectionUnreachableError(
            f"reflection {crystal.reflection} unreachable: lambda = "
            f"{wavelength:.4f} A > 2d = {two_d:.4f} A"
        )
    return math.asin(wavelength / two_d)


def emission_angles(
    x, detuning_rad: float, theta_b_rad: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact pair emission angles for every split in the array x.

    With y = 1 - x and dk = detuning * sin(2 theta_B), momentum closure

        x sin(r_x) = y sin(r_y)                          (transverse)
        x cos(r_x) + y cos(r_y) = 1 - dk                 (longitudinal)

    makes the momenta x, y and the pump-side length 1 - dk a triangle.
    Its law of cosines gives 1 - cos(r_x) = dk (y - dk/2) / (x (1 - dk)),
    and r_y with x and y swapped.  Each angle is evaluated as
    2 asin(sqrt((1 - cos r) / 2)), exact to rounding at small angles.

    Returns
    -------
    (r_x, r_y) : tuple[np.ndarray, np.ndarray]
        Signal and idler offsets from the Laue direction, in radians.

    Raises
    ------
    PhaseMatchingError
        If detuning is not > 0, or for some split the triangle does not close
        (1 - dk <= |x - y|) or one angle would pass 90 degrees
        ((1 - dk)^2 < |x - y|).
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all((0.0 < x) & (x < 1.0)):
        raise PhysicsError(f"energy fraction x must be in (0, 1), got {x}")
    if not detuning_rad > 0:  # nan too
        raise PhaseMatchingError("detuning must be > 0 for a real emission cone")
    y = 1.0 - x
    dk = detuning_rad * math.sin(2.0 * theta_b_rad)
    closure = 1.0 - dk
    gap = np.abs(x - y)
    if np.any(closure <= gap):
        raise PhaseMatchingError(
            "phase-matching unreachable: longitudinal closure "
            f"{closure:.6g} below the minimum {gap.max():.6g} "
            f"for x = {x.flat[gap.argmax()]:.4g}"
        )
    if np.any(closure * closure < gap):
        raise PhaseMatchingError("phase-matching unreachable: no real emission angle")
    r_x = 2.0 * np.arcsin(np.sqrt(dk * (y - 0.5 * dk) / (2.0 * x * closure)))
    r_y = 2.0 * np.arcsin(np.sqrt(dk * (x - 0.5 * dk) / (2.0 * y * closure)))
    return r_x, r_y


def polarization_suppression(theta_b_rad: float, chi_rad: float) -> float:
    """Elastic/Compton intensity ratio I/I0 = 1 - sin^2(2 theta_B) cos^2(chi).

    Returns the surviving fraction of polarization-sensitive scattering
    toward a detector at scattering angle 2 theta_B when the pump
    polarization makes angle chi with the scattering plane.
    """
    value = 1.0 - (math.sin(2.0 * theta_b_rad) ** 2) * (math.cos(chi_rad) ** 2)
    return min(1.0, max(0.0, value))


class ChainEfficiencyModel(_Frozen):
    """Survival probability of down-converted photons on the way to a count.

    Covers everything between emission and a recorded event: air path,
    window transmission and detector quantum efficiency.  Models:

    - "constant": a flat pair survival probability (default 0.18); the
      per-photon probability is its square root.
    - "table": per-photon survival vs energy, linearly interpolated
      between (energy_ev, efficiency) points supplied by the user; must
      be non-decreasing over 5-17 keV where attenuation falls with
      energy.  The constant model takes no table.
    """

    __slots__ = ("model", "pair_efficiency", "table")

    def __init__(
        self,
        model: str = "constant",
        pair_efficiency: float = 0.18,
        table: tuple[tuple[float, float], ...] = (),
    ):
        if model not in ("constant", "table"):
            raise PhysicsError(f"unknown chain-efficiency model {model!r}")
        if table and model != "table":
            raise PhysicsError(f"an efficiency table needs the table model, not {model!r}")
        if model == "constant" and not 0.0 < pair_efficiency <= 1.0:
            raise PhysicsError("pair efficiency must be in (0, 1]")
        if model == "table":
            if len(table) < 2:
                raise PhysicsError("table model needs at least two points")
            energies = [e for e, _ in table]
            effs = [v for _, v in table]
            if sorted(energies) != energies:
                raise PhysicsError("table energies must be ascending")
            if any(not 0.0 < v <= 1.0 for v in effs):
                raise PhysicsError("table efficiencies must be in (0, 1]")
            in_band = [v for e, v in table if 5000.0 <= e <= 17000.0]
            if any(b < a for a, b in zip(in_band, in_band[1:])):
                raise PhysicsError(
                    "table efficiency must be non-decreasing over 5-17 keV"
                )
        self._set(model, pair_efficiency, table)

    def photon_efficiency(self, energy_ev):
        """Survival probability for photons of the given energy (a number
        or an array of them)."""
        if self.model == "table":
            energies, effs = zip(*self.table)
            return np.interp(energy_ev, energies, effs)
        return np.full(np.shape(energy_ev), math.sqrt(self.pair_efficiency))[()]
