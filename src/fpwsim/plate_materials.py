"""Effective elastic and inertial parameters of a multilayer membrane.

A thin composite membrane (e.g. piezoelectric film on a nitride support) is
reduced to a homogeneous plate description: thickness-weighted Young's
modulus and Poisson ratio, plate modulus E/(1 - nu^2), mass per unit area,
and the wavelength-referred bending term used by the flexural wave model.

All quantities are SI: thickness in m, moduli in N/m^2, density in kg/m^3,
mass per area in kg/m^2, bending term in N/m.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import math

# Effective parameters that may be pinned to externally published values
# instead of the values derived from the layer stack.
OVERRIDABLE_PARAMETERS = (
    "young_modulus",
    "poisson_ratio",
    "plate_modulus",
    "mass_per_area",
    "total_thickness",
)


def evanescent_decay_length(wavelength: float) -> float:
    """Penetration depth wavelength / 2 pi of plate motion into the liquid (m)."""
    if not 0 < wavelength < math.inf:
        raise ValueError("wavelength must be finite and > 0")
    return wavelength / (2.0 * math.pi)


def unloaded_velocity(bending: float, areal_mass: float) -> float:
    """Phase velocity sqrt(B/M) of the bare plate (m/s); a ValueError where
    B/M overflows or underflows."""
    if not (0 < bending < math.inf and 0 < areal_mass < math.inf):
        raise ValueError("bending term and areal mass must be finite and > 0")
    velocity = math.sqrt(bending / areal_mass)
    if not 0 < velocity < math.inf:
        raise ValueError(
            "unloaded velocity sqrt(bending_term / mass_per_area) must be "
            "finite and > 0"
        )
    return velocity


class WaveConstants(NamedTuple):
    """What a plate fixes at one wavelength: the bending term B (N/m), the
    evanescent decay length delta_E (m) and the unloaded phase velocity
    sqrt(B / M) (m/s)."""

    bending: float
    decay_length: float
    unloaded_velocity: float


@dataclass(frozen=True)
class MaterialLayer:
    """One layer of the membrane stack.

    thickness in m, young_modulus in N/m^2, density in kg/m^3.
    """

    name: str
    thickness: float
    young_modulus: float
    poisson_ratio: float
    density: float

    def __post_init__(self):
        for name in ("thickness", "young_modulus", "density"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"layer {self.name!r}: {name} must be > 0")
        if not 0 <= self.poisson_ratio < 0.5:
            raise ValueError(
                f"layer {self.name!r}: poisson_ratio must lie in [0, 0.5)"
            )

    @property
    def mass_per_area(self) -> float:
        """Areal mass density of this single layer (kg/m^2)."""
        return self.density * self.thickness


def _effective(
    stack: Sequence[MaterialLayer], overrides: Mapping[str, float]
) -> dict[str, float]:
    """The five effective parameters of ``stack``: thickness-weighted E and
    nu, the plate modulus E / (1 - nu^2), the summed thickness and areal
    mass. Pinned values win, and a pinned E or nu feeds E / (1 - nu^2)."""
    if not stack:
        raise ValueError("layer stack is empty")
    h = sum(layer.thickness for layer in stack)
    e_eff = sum(l.young_modulus * l.thickness for l in stack) / h
    nu_eff = sum(l.poisson_ratio * l.thickness for l in stack) / h
    e_eff = overrides.get("young_modulus", e_eff)
    nu_eff = overrides.get("poisson_ratio", nu_eff)
    if not 0 <= nu_eff < 0.5:  # before 1 - nu^2 can divide by 0 or overflow
        raise ValueError("poisson_ratio must lie in [0, 0.5)")
    return {
        "total_thickness": overrides.get("total_thickness", h),
        "young_modulus": e_eff,
        "poisson_ratio": nu_eff,
        "plate_modulus": overrides.get("plate_modulus", e_eff / (1.0 - nu_eff**2)),
        "mass_per_area": overrides.get(
            "mass_per_area", sum(layer.mass_per_area for layer in stack)
        ),
    }


@dataclass(frozen=True)
class CompositePlate:
    """Homogenized description of a layered membrane.

    Built from the layer stack and ``overrides``, which maps parameter
    names (see OVERRIDABLE_PARAMETERS) to pinned values, for example
    published ones where the derived values disagree; the plate keeps a
    tuple of the layers and a copy of the pins. The five effective
    fields are derived from the two on construction: everything not pinned
    comes from the layers, and a pinned Young's modulus or Poisson ratio
    feeds the plate modulus unless that is itself pinned. ``computed()``
    always returns the stack-derived values.
    """

    layers: tuple[MaterialLayer, ...]
    overrides: Mapping[str, float] = field(default_factory=dict)
    total_thickness: float = field(init=False)
    young_modulus: float = field(init=False)
    poisson_ratio: float = field(init=False)
    plate_modulus: float = field(init=False)
    mass_per_area: float = field(init=False)

    def __post_init__(self):
        # Own copies, so that the caller's later edits cannot reach the plate.
        self.__dict__.update(layers=tuple(self.layers),
                             overrides=dict(self.overrides))
        self.__dict__.update(_effective(self.layers, self.overrides))
        for key in self.overrides:
            if key not in OVERRIDABLE_PARAMETERS:
                raise ValueError(f"unknown override parameter {key!r}")
        for name in ("young_modulus", "plate_modulus", "mass_per_area",
                     "total_thickness"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        try:  # h**3 raises OverflowError where E'h**3 would be inf
            rigidity = self.flexural_rigidity()
        except OverflowError:
            rigidity = math.inf
        if not 0 < rigidity < math.inf:
            raise ValueError("flexural_rigidity must be finite and > 0")

    @classmethod
    def from_layers(
        cls,
        layers: Iterable[MaterialLayer],
        overrides: Mapping[str, float] | None = None,
    ) -> "CompositePlate":
        """The plate of any iterable of layers and optional pins."""
        return cls(layers, overrides or {})

    def computed(self) -> dict[str, float]:
        """Stack-derived effective parameters, ignoring any overrides."""
        return _effective(self.layers, {})

    def flexural_rigidity(self) -> float:
        """Raw flexural rigidity E' h^3 / 12 (N*m)."""
        return self.plate_modulus * self.total_thickness**3 / 12.0

    def bending_term(self, wavelength: float) -> float:
        """Wavelength-referred bending stiffness (N/m).

        The flexural rigidity E' h^3 / 12 times the squared wavenumber
        (2 pi / wavelength)^2: the stiffness that enters the flexural wave
        velocity together with the mass per unit area. Read from
        ``wave_constants``, so it is derived once per plate and wavelength;
        a wavelength at which it, or the unloaded velocity sqrt(B / M), is
        not finite and > 0, or at which the unloaded frequency
        sqrt(B / M) / wavelength underflows to 0, is refused with a ValueError.
        """
        return self.wave_constants(wavelength).bending

    def wave_constants(self, wavelength: float) -> WaveConstants:
        """B, delta_E and sqrt(B / M) at ``wavelength``, derived and validated
        on first use and then kept by this plate (see ``bending_term``)."""
        cache = self._wave_constants
        constants = cache.get(wavelength)
        if constants is None:
            constants = cache[wavelength] = self._derive_wave_constants(wavelength)
        return constants

    @cached_property
    def _wave_constants(self) -> dict[float, WaveConstants]:
        # Per instance and outside the fields: equality, repr and
        # dataclasses.replace see none of it.
        return {}

    def _derive_wave_constants(self, wavelength: float) -> WaveConstants:
        if not 0 < wavelength < math.inf:
            raise ValueError("wavelength must be > 0")
        try:  # k**2 raises OverflowError where the product would be inf
            term = self.flexural_rigidity() * (2.0 * math.pi / wavelength) ** 2
        except OverflowError:
            term = math.inf
        if not 0 < term < math.inf:
            raise ValueError("bending_term must be finite and > 0")
        velocity = unloaded_velocity(term, self.mass_per_area)
        if not velocity / wavelength > 0:  # v0 finite: f0 can only underflow
            raise ValueError(
                "unloaded frequency sqrt(bending_term / mass_per_area) / "
                "wavelength must be > 0"
            )
        return WaveConstants(term, evanescent_decay_length(wavelength), velocity)
