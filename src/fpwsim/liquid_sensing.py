"""Density calibration, inversion, and viscosity-coupling analysis.

Builds on the loading model: predicted resonant frequencies for candidate
liquids, an ordinary least-squares density calibration line (frequency
regressed on density, matching how such sensors are characterized), its
inversion back to density, and a report on when viscous entrained mass
makes a frequency reading ambiguous between density and viscosity.

Published characterization data for the sol-gel PZT on silicon nitride
device are embedded for side-by-side comparison; they are reference data,
not model outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Iterable

import numpy as np

from .config import finite_float, read_rows
from .fpw_dispersion import LoadingState, _phase_velocity, loaded_velocity
from .plate_materials import CompositePlate

# Fraction of the total added liquid mass the viscous part may reach before
# a frequency reading stops identifying density alone.
COUPLING_THRESHOLD = 0.05


class DegenerateFitError(ValueError):
    """Calibration points do not determine a line."""


@dataclass(frozen=True)
class LiquidSample:
    """A candidate liquid: density in kg/m^3, shear viscosity in Pa*s.

    Also a valid liquid load of a ``LoadingState``, its density being > 0.
    Built per op, so ``__init__`` fills ``__dict__`` directly; still frozen.
    """

    name: str
    density: float
    viscosity: float

    def __init__(self, name, density, viscosity):
        if not 0 < density < math.inf:
            raise ValueError("liquid density must be finite and > 0")
        if not 0 <= viscosity < math.inf:
            raise ValueError("liquid viscosity must be finite and >= 0")
        attrs = self.__dict__
        attrs["name"], attrs["density"], attrs["viscosity"] = name, density, viscosity


@dataclass(frozen=True)
class CalibrationFit:
    """Least-squares line frequency = slope * density + intercept.

    slope in Hz/(kg/m^3), intercept in Hz. ``points`` keeps the fitted
    (density, frequency) pairs so range checks and residuals stay
    reproducible.
    """

    slope: float
    intercept: float
    r_squared: float
    points: tuple[tuple[float, float], ...]

    @property
    def slope_mhz_per_gcm3(self) -> float:
        """Slope converted to MHz per g/cm^3 for reporting."""
        return self.slope * 1.0e-3

    @cached_property
    def frequency_range(self) -> tuple[float, float]:
        """(min, max) of the fitted frequencies, found once per fit."""
        freqs = [f for _, f in self.points]
        return min(freqs), max(freqs)


@dataclass(frozen=True)
class CouplingReport:
    """Relative weight of viscous vs density-entrained liquid mass.

    Stored: viscous_mass and entrained_mass in kg/m^2 at the loaded
    operating point. Derived on read: ``ratio``, the viscous share of their
    sum (0 with no viscous mass); ``density_sensing_valid``, whether it
    stays at or below COUPLING_THRESHOLD; and the ``verdict`` text.
    Built per op, so ``__init__`` fills ``__dict__`` directly; still frozen.
    """

    viscous_mass: float
    entrained_mass: float

    def __init__(self, viscous_mass, entrained_mass):
        attrs = self.__dict__
        attrs["viscous_mass"], attrs["entrained_mass"] = viscous_mass, entrained_mass

    @property
    def ratio(self) -> float:
        viscous = self.viscous_mass
        return viscous / (viscous + self.entrained_mass) if viscous else 0.0

    @property
    def density_sensing_valid(self) -> bool:
        return self.ratio <= COUPLING_THRESHOLD

    @property
    def verdict(self) -> str:
        return ("density sensing valid" if self.density_sensing_valid
                else "coupled; density not invertible from frequency alone")


def fit_density_sensitivity(
    points: Iterable[tuple[float, float]]
) -> CalibrationFit:
    """Ordinary least squares of frequency (Hz) on density (kg/m^3).

    Needs at least two points with distinct densities; identical densities
    raise DegenerateFitError.
    """
    pts = tuple((float(d), float(f)) for d, f in points)
    if len(pts) < 2:
        raise DegenerateFitError("need at least two calibration points")
    densities = np.array([d for d, _ in pts])
    freqs = np.array([f for _, f in pts])
    with np.errstate(all="ignore"):  # an overflow is refused just below
        if np.ptp(densities) == 0.0:
            raise DegenerateFitError("calibration densities are all identical")
        dmean = densities.mean()
        fmean = freqs.mean()
        sxx = float(np.sum((densities - dmean) ** 2))
        if not 0 < sxx < math.inf:  # the slope would read 0 or nan
            raise DegenerateFitError("calibration points overflow the fit")
        slope = float(np.sum((densities - dmean) * (freqs - fmean)) / sxx)
        intercept = float(fmean - slope * dmean)
        residuals = freqs - (slope * densities + intercept)
        ss_res = float(np.sum(residuals**2))
        ss_tot = float(np.sum((freqs - fmean) ** 2))
        r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    if not np.isfinite([slope, intercept, r_squared]).all():
        raise DegenerateFitError("calibration points overflow the fit")
    return CalibrationFit(slope=slope, intercept=intercept,
                          r_squared=r_squared, points=pts)


def predict_frequency(
    plate: CompositePlate,
    wavelength: float,
    liquid: LiquidSample | None = None,
    tension: float = 0.0,
) -> float:
    """Model resonant frequency (Hz), the value ``loaded_velocity`` gives."""
    if not 0 <= tension < math.inf:
        raise ValueError("tension must be finite and >= 0")
    rho, eta = (0.0, 0.0) if liquid is None else (liquid.density, liquid.viscosity)
    return _phase_velocity(plate, wavelength, tension, rho, eta)[0] / wavelength


def invert_density_calibrated(
    frequency: float, fit: CalibrationFit
) -> tuple[float, bool]:
    """Density (kg/m^3) from a measured frequency via the calibration line.

    Returns (density, extrapolated); ``extrapolated`` is True when the
    frequency lies outside the calibrated range. The frequency must be
    finite and > 0.
    """
    if not 0 < frequency < math.inf:
        raise ValueError("measured frequency must be finite and > 0")
    if fit.slope == 0.0:
        raise DegenerateFitError("calibration slope is zero; cannot invert")
    density = (frequency - fit.intercept) / fit.slope
    lo, hi = fit.frequency_range
    return density, not lo <= frequency <= hi


def viscosity_coupling_report(
    liquid: LiquidSample, plate: CompositePlate, wavelength: float
) -> CouplingReport:
    """Judge whether a frequency reading identifies density for this liquid.

    Solves the loaded operating point once, with ``loaded_velocity`` and
    the sample itself as the load, and keeps the viscous mass and the
    entrained mass rho delta_E, delta_E read from the plate's wavelength
    constants; the report weighs them on read. Above COUPLING_THRESHOLD the
    density and viscosity contributions are entangled and a frequency shift
    alone cannot be attributed to density.
    """
    solution = loaded_velocity(plate, LoadingState(0.0, liquid), wavelength)
    delta_e = plate.wave_constants(wavelength).decay_length
    return CouplingReport(solution.viscous_mass, liquid.density * delta_e)


@dataclass(frozen=True)
class LoadedCaseRecord:
    """Published model operating point for one low-viscosity liquid."""

    liquid_name: str
    density: float
    viscosity: float
    phase_velocity: float
    frequency: float


@dataclass(frozen=True)
class ViscosityCaseRecord:
    """Published predicted vs measured operating point for one liquid."""

    liquid_name: str
    predicted_frequency: float
    measured_frequency: float
    measured_insertion_loss_db: float


@dataclass(frozen=True)
class ReferenceDatasets:
    """Published characterization numbers for the reference device.

    These are embedded verbatim for regression display and comparison
    plots. The low-viscosity operating points are not reproducible from
    the loading relations with the stated decay length, so they are kept
    as reference data rather than asserted as model outputs.
    """

    low_viscosity_cases: tuple[LoadedCaseRecord, ...]
    viscosity_cases: tuple[ViscosityCaseRecord, ...]
    unloaded_measured_frequency: float
    unloaded_predicted_frequency: float

    def calibration_points(self) -> tuple[tuple[float, float], ...]:
        """(density, frequency) pairs of the published low-viscosity set."""
        return tuple(
            (case.density, case.frequency) for case in self.low_viscosity_cases
        )


_REFERENCE = ReferenceDatasets(
    low_viscosity_cases=(
        LoadedCaseRecord("ipa", 787.0, 0.0025, 197.48, 4.94e6),
        LoadedCaseRecord("water", 1000.0, 0.001, 190.05, 4.75e6),
        LoadedCaseRecord("saline", 1200.0, 0.0015, 183.77, 4.59e6),
    ),
    viscosity_cases=(
        ViscosityCaseRecord("saline", 4.59e6, 4.98e6, -33.38),
        ViscosityCaseRecord("glycerol", 4.49e6, 4.73e6, -37.04),
    ),
    unloaded_measured_frequency=5.53e6,
    unloaded_predicted_frequency=5.88e6,
)


def load_reference_datasets() -> ReferenceDatasets:
    """Embedded published operating points of the reference device."""
    return _REFERENCE


def load_liquid_library(text: str) -> dict[str, LiquidSample]:
    """``read_rows`` of a liquid library: one ``name density viscosity`` per
    line, in kg/m^3 and Pa*s; ``#`` starts a comment. Names are
    case-insensitive. A repeated name, or an out-of-range density or
    viscosity, is refused at its line like a malformed one.
    """
    first_lines: dict[str, int] = {}

    def row(lineno: int, name: str, density: str, viscosity: str):
        key = name.lower()
        first = first_lines.setdefault(key, lineno)
        if first != lineno:
            raise ValueError(f"duplicate liquid name {name!r}, first on line {first}")
        return LiquidSample(key, finite_float(density), finite_float(viscosity))

    rows = read_rows(text, "liquid library", "name density viscosity", row)
    return {liquid.name: liquid for liquid in rows}


# Liquids the device was characterized with: the bundled library.
PRESET_LIQUIDS: dict[str, LiquidSample] = load_liquid_library(
    resources.files("fpwsim").joinpath("data", "liquids.txt").read_text(
        encoding="utf-8"
    )
)
