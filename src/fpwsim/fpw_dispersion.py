"""Flexural plate wave phase velocity under tension and liquid loading.

The lowest antisymmetric plate mode on a membrane much thinner than the
wavelength has phase velocity sqrt(B/M), with B the wavelength-referred
bending stiffness (N/m) and M the mass per unit area (kg/m^2). A contacting
liquid adds an entrained mass rho_F * delta_E over the evanescent decay
length delta_E = wavelength / 2 pi, plus a viscous mass M_eta =
rho_F * delta_v / 2 with delta_v = sqrt(2 eta / (omega rho_F)). In-plane
tension T_x adds to the stiffness. The loaded velocity solves

    v_p = sqrt((T_x + B) / (M + rho_F delta_E + M_eta(omega)))

in closed form. The viscous mass depends on the operating angular frequency
omega = 2 pi v_p / wavelength as M_eta = sqrt(rho_F eta wavelength / (4 pi
v_p)), so the relation is a depressed quartic in v_p^(-1/2) whose one
positive root follows from Ferrari's resolvent cubic. The inverse is a
quadratic in sqrt(rho_F) with one positive root.

The low-velocity approximation for delta_E requires v_p to stay well below
the sound speed of the liquid; the solver reports the ratio against a
water-like 1482 m/s as a warning indicator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from .plate_materials import CompositePlate, evanescent_decay_length

if TYPE_CHECKING:
    from .liquid_sensing import LiquidSample

# Sound speed used for the v_p << c_liquid validity ratio (water at ~20 C).
WATER_SOUND_SPEED = 1482.0


class ConvergenceError(RuntimeError):
    """Raised nowhere in fpwsim; kept because perfbench/workloads.py catches it."""


class NoSolutionError(ValueError):
    """The requested inversion has no physically meaningful solution."""


@dataclass(frozen=True)
class LiquidLoad:
    """Liquid contacting one face of the membrane, deeper than the
    evanescent decay length, so the full entrained mass loads the plate.

    density in kg/m^3, viscosity (shear) in Pa*s. A zero density stands for
    the no-liquid limit and requires zero viscosity.
    """

    density: float
    viscosity: float = 0.0

    def __post_init__(self):
        if not 0 <= self.density < math.inf:
            raise ValueError("liquid density must be finite and >= 0")
        if not 0 <= self.viscosity < math.inf:
            raise ValueError("liquid viscosity must be finite and >= 0")
        if self.density == 0 and self.viscosity > 0:
            raise ValueError("viscous liquid requires a positive density")


@dataclass(frozen=True)
class LoadingState:
    """In-plane tension (N/m, tensile only) plus optional liquid load.

    The liquid is a ``LiquidLoad`` or a ``LiquidSample``, held as given: the
    solver reads only its density and viscosity, so a sample needs no copy.
    Built per op, so ``__init__`` fills ``__dict__`` directly; still frozen.
    """

    tension: float = 0.0
    liquid: LiquidLoad | LiquidSample | None = None

    def __init__(self, tension=0.0, liquid=None):
        if not 0 <= tension < math.inf:
            raise ValueError("tension must be finite and >= 0")
        attrs = self.__dict__
        attrs["tension"], attrs["liquid"] = tension, liquid


@dataclass(frozen=True)
class VelocitySolution:
    """Closed-form loading solution.

    Stores what the solve produced, phase_velocity (m/s) and viscous_mass
    (kg/m^2), and the wavelength (m) and liquid the rest is derived from on
    read. The liquid is the loading's own record, a ``LiquidLoad`` or a
    ``LiquidSample``, or None when dry. Derived: resonant_frequency (Hz),
    evanescent_length and viscous_length (m), sound_speed_ratio (v_p over
    the water sound speed; small means the decay-length approximation is
    safe) and the non-fatal precondition ``warnings``. ``iterations`` (0)
    and ``converged`` (True) are class constants: every solve is closed
    form.
    Built per op, so ``__init__`` fills ``__dict__`` directly; still frozen.
    """

    phase_velocity: float
    viscous_mass: float
    wavelength: float
    liquid: LiquidLoad | LiquidSample | None
    iterations: ClassVar[int] = 0
    converged: ClassVar[bool] = True

    def __init__(self, phase_velocity, viscous_mass, wavelength, liquid):
        attrs = self.__dict__
        attrs["phase_velocity"], attrs["viscous_mass"] = phase_velocity, viscous_mass
        attrs["wavelength"], attrs["liquid"] = wavelength, liquid

    @property
    def resonant_frequency(self) -> float:
        return self.phase_velocity / self.wavelength

    @property
    def evanescent_length(self) -> float:
        return evanescent_decay_length(self.wavelength)

    @property
    def viscous_length(self) -> float:
        liquid = self.liquid  # delta_v = 2 M_eta / rho_F
        viscous = liquid is not None and liquid.viscosity
        return 2.0 * self.viscous_mass / liquid.density if viscous else 0.0

    @property
    def sound_speed_ratio(self) -> float:
        return self.phase_velocity / WATER_SOUND_SPEED

    @property
    def warnings(self) -> tuple[str, ...]:
        if self.liquid is None or not (ratio := self.sound_speed_ratio) > 0.3:
            return ()
        return (
            f"phase velocity is {ratio:.2f} of the liquid sound speed; the "
            "evanescent decay-length approximation degrades",
        )


def _phase_velocity(
    plate: CompositePlate, wavelength: float, tension: float, rho, eta: float,
    sqrt=math.sqrt,
) -> tuple[float, float]:
    """Loaded operating point: (phase velocity in m/s, viscous mass in kg/m^2).

    With v0 the inviscid velocity, m0 = M_eta(v0) and eps = m0 / (M + rho
    delta_E), x = sqrt(v0 / v) solves x^4 - eps x - 1 = 0. y = 2h / d is the
    root a - 1/(3a) of Ferrari's resolvent cubic y^3 + y = eps^2 / 8, free
    of cancellation at small eps. M_eta scales as v^(-1/2), so the viscous
    mass at the root is m0 x; it is 0 for an inviscid liquid. ``rho`` may be
    an array of densities when ``sqrt`` is an array square root. NaN, inf
    and 0.0 come back unchecked: densities that overflow h * h give NaN (on
    the bundled plate above about 3e211 kg/m^3 at 10 Pa*s, 1.5e214 at 1e-3
    Pa*s), a tension that overflows v0 gives inf, and a velocity that
    underflows gives 0.0, as does a viscous solve whose v0 underflowed (NaN
    on the array path). ``loaded_velocity`` and ``predict_frequency`` refuse
    each of them with ``_refuse_operating_point``."""
    bending, delta_e = plate.wave_constants(wavelength)
    stiffness = tension + bending
    base_mass = plate.mass_per_area + rho * delta_e
    v0 = sqrt(stiffness / base_mass)
    if eta == 0:
        return v0, 0.0
    s = 2.0**100 if eta < 1e-200 else 1.0  # exact; keeps a tiny radicand normal
    try:
        m0 = sqrt(rho * (eta * s * s) * wavelength / (4.0 * math.pi * v0)) / s
    except ZeroDivisionError:  # a float v0 of 0.0
        return 0.0, 0.0
    eps = m0 / base_mass
    h = eps * eps / 16.0
    a = (h + sqrt(h * h + 1.0 / 27.0)) ** (1.0 / 3.0)
    b = 1.0 / (3.0 * a)
    d = a * a + 1.0 / 3.0 + b * b
    m = 2.0 * h / d
    x = (sqrt(2.0 * m) + sqrt(4.0 * sqrt(d) - 2.0 * m)) / 2.0
    return v0 / (x * x), m0 * x


def loaded_velocity(
    plate: CompositePlate, loading: LoadingState, wavelength: float
) -> VelocitySolution:
    """Solve the loaded phase velocity.

    Closed form: sqrt((T + B) / (M + rho_F delta_E)) with no liquid or an
    inviscid one, else the positive root of the quartic in v^(-1/2) from
    Ferrari's resolvent cubic. The record keeps that velocity, the viscous
    mass at the root, the wavelength and the liquid, and derives the rest.
    Refuses, with ``_refuse_operating_point``, a resonant frequency
    v / wavelength that is not finite and > 0.
    """
    liquid = loading.liquid
    rho, eta = (0.0, 0.0) if liquid is None else (liquid.density, liquid.viscosity)
    v, m_eta = _phase_velocity(plate, wavelength, loading.tension, rho, eta)
    if not 0.0 < v / wavelength < math.inf:
        _refuse_operating_point(plate, wavelength, loading.tension, rho, v / wavelength)
    return VelocitySolution(v, m_eta, wavelength, liquid)


def _refuse_operating_point(plate, wavelength, tension, density, frequency):
    """Raise for a loaded resonant ``frequency`` that is not finite and > 0.

    A frequency of 0 underflowed: FloatingPointError. Otherwise the velocity
    is inf or NaN (on a validated plate a finite velocity has a finite
    frequency). If the inviscid velocity overflows as well, the tension is
    too high for the plate: ValueError, with no density named, since the
    liquid only slows the wave. Else the liquid's loading is not finite:
    FloatingPointError naming the density.
    """
    if frequency == 0.0:
        raise FloatingPointError(
            "loaded resonant frequency underflows to 0 at liquid density "
            f"{density:.6g} kg/m^3"
        )
    if not _phase_velocity(plate, wavelength, tension, density, 0.0)[0] < math.inf:
        raise ValueError(
            "the loaded velocity sqrt((T + B) / (M + rho delta_E)) overflows"
        )
    raise FloatingPointError(
        f"loaded velocity is not finite at liquid density {density:.6g} kg/m^3"
    )


def tension_sensitivity(tension: float, bending: float) -> float:
    """Relative velocity change per unit in-plane tension (m/N)."""
    return 1.0 / (2.0 * (tension + bending))


def sensitivities(
    plate: CompositePlate, loading: LoadingState, wavelength: float
) -> tuple[float, float]:
    """First-order (s_m, s_T) at the given loading state.

    s_m is the relative velocity perturbation per unit liquid density
    (m^3/kg, negative), s_T per unit tension (m/N). Both are evaluated at
    the current density and tension, inviscid limit.
    """
    bending, delta_e = plate.wave_constants(wavelength)
    rho = loading.liquid.density if loading.liquid is not None else 0.0
    s_m = -delta_e / (2.0 * (plate.mass_per_area + rho * delta_e))
    return s_m, tension_sensitivity(loading.tension, bending)


def density_from_frequency(
    measured_frequency: float,
    plate: CompositePlate,
    wavelength: float,
    assumed_viscosity: float = 0.0,
    tension: float = 0.0,
) -> float:
    """Invert the loading relation for the liquid density (kg/m^3).

    At the measured frequency f the added mass dm = rho delta_E + M_eta is
    known, and M_eta = b sqrt(rho) with b = sqrt(eta / (4 pi f)), so
    s = sqrt(rho) is the positive root of delta_E s^2 + b s - dm = 0, taken
    in the cancellation-free form

        s = 2 dm / (b + sqrt(b^2 + 4 delta_E dm)),

    which reduces to rho = dm / delta_E for zero viscosity. No iteration is
    needed. Frequencies at or above the liquid-free resonance imply a
    non-positive density and raise NoSolutionError, as does a frequency so
    low, or a tension so high, that the implied density is not finite.
    """
    if not 0 < measured_frequency < math.inf:
        raise ValueError("measured frequency must be finite and > 0")
    if not 0 <= assumed_viscosity < math.inf:
        raise ValueError("assumed viscosity must be finite and >= 0")
    if not 0 <= tension < math.inf:
        raise ValueError("tension must be finite and >= 0")
    bending, delta_e = plate.wave_constants(wavelength)
    stiffness = tension + bending
    areal_mass = plate.mass_per_area
    unloaded_f = math.sqrt(stiffness / areal_mass) / wavelength
    if measured_frequency >= unloaded_f:
        raise NoSolutionError(
            f"measured frequency {measured_frequency:.6g} Hz is not below the "
            f"liquid-free resonance {unloaded_f:.6g} Hz; implied density "
            "would be non-positive"
        )

    v = measured_frequency * wavelength
    try:
        added_mass = stiffness / v**2 - areal_mass  # rho delta_E + M_eta
    except ZeroDivisionError:  # v**2 underflows to 0
        added_mass = math.inf
    b = math.sqrt(assumed_viscosity / (4.0 * math.pi * measured_frequency))
    s = 2.0 * added_mass / (b + math.sqrt(b * b + 4.0 * delta_e * added_mass))
    density = s * s
    if not density < math.inf:
        raise NoSolutionError(
            f"measured frequency {measured_frequency:.6g} Hz implies a liquid "
            "density that is not finite"
        )
    return density
