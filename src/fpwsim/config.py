"""Line-oriented device configuration files.

The format is deliberately minimal and diff-friendly: ``key = value``
lines grouped under ``[layer]`` (repeatable, stacking in order),
``[geometry]``, ``[com]`` and ``[override]`` sections. ``#`` starts a
comment. Unknown sections or keys are hard errors so unit mistakes
surface immediately. All values are SI.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Iterable, Iterator, get_type_hints

from .com_resonator import ComParameters, DeviceGeometry, design_spacing
from .plate_materials import OVERRIDABLE_PARAMETERS, CompositePlate, MaterialLayer


class ConfigError(ValueError):
    """Malformed device configuration; carries the offending line number."""

    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


def finite_float(text: str) -> float:
    """``float(text)``, refusing nan and infinities with a ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return value


def _value_types(cls) -> dict[str, Callable[[str], object]]:
    """Field name -> value parser (int, str or finite_float) of a dataclass."""
    hints, kinds = get_type_hints(cls), {int: int, str: str}
    return {f.name: kinds.get(hints[f.name], finite_float) for f in fields(cls)}


# Section -> key -> value parser. The dataclasses are the schema; the only
# extras are the geometry's spacing_index and the com velocity's name.
_SCHEMA: dict[str, dict[str, Callable[[str], object]]] = {
    "layer": _value_types(MaterialLayer),
    "geometry": {**_value_types(DeviceGeometry), "spacing_index": int},
    "com": {
        "velocity" if key == "free_velocity" else key: kind
        for key, kind in _value_types(ComParameters).items()
    },
    "override": dict.fromkeys(OVERRIDABLE_PARAMETERS, finite_float),
}
_LAYER_REQUIRED = {f.name for f in fields(MaterialLayer) if f.default is MISSING}


def content_lines(text: str) -> Iterator[tuple[int, str, str]]:
    """Yield ``(lineno, raw, line)`` for each line with content: its 1-based
    number, the line as written and its stripped text before any ``#``."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, raw, line


@dataclass(frozen=True)
class DeviceConfig:
    """Parsed device description: layer stack, geometry, model parameters."""

    layers: tuple[MaterialLayer, ...]
    geometry: DeviceGeometry
    com_velocity: float | None
    com_settings: dict[str, float] = field(default_factory=dict)
    overrides: dict[str, float] = field(default_factory=dict)

    def plate(self) -> CompositePlate:
        """Effective composite plate, overrides applied."""
        if not self.layers:
            raise ConfigError("configuration defines no layers")
        return CompositePlate.from_layers(self.layers, self.overrides)

    def com_parameters(self, free_velocity: float | None = None) -> ComParameters:
        """COM parameter set at the given (or configured) free velocity."""
        velocity = free_velocity if free_velocity is not None else self.com_velocity
        if velocity is None:
            raise ConfigError(
                "no free velocity: configure [com] velocity or supply one"
            )
        return ComParameters(free_velocity=velocity, **self.com_settings)


def _add_layer(layers: dict[int, MaterialLayer], entries: dict, lineno: int) -> None:
    """Validate one ``[layer]`` into ``layers[lineno]``, ``layer<n>`` if unnamed."""
    entries.setdefault("name", f"layer{len(layers) + 1}")
    missing = _LAYER_REQUIRED - entries.keys()
    if missing:
        raise ConfigError(f"[layer] section is missing {sorted(missing)}", lineno)
    try:
        layers[lineno] = MaterialLayer(**entries)  # type: ignore[arg-type]
    except ValueError as exc:
        raise ConfigError(str(exc), lineno) from None


def _fails(layers: Iterable[MaterialLayer], overrides: dict, wavelength: float) -> bool:
    """Whether the stack makes no valid plate or bending term at wavelength."""
    try:
        CompositePlate.from_layers(layers, overrides).bending_term(wavelength)
    except ValueError:
        return True
    return False


def parse_device_config(text: str) -> DeviceConfig:
    """Parse and validate a device configuration."""
    sections: dict[str, dict[str, object]] = {name: {} for name in _SCHEMA}
    layers: dict[int, MaterialLayer] = {}  # by the line of their [layer]
    section: str | None = None
    section_lineno = 0
    entries: dict[str, object] = {}
    key_lines: dict[tuple[str, str], int] = {}

    for lineno, raw, line in content_lines(text):
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SCHEMA:
                raise ConfigError(f"unknown section [{name}]", lineno)
            # A layer is built, and its errors reported, when it closes.
            if section == "layer":
                _add_layer(layers, entries, section_lineno)
            section, section_lineno = name, lineno
            entries = {} if name == "layer" else sections[name]
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        if section is None:
            raise ConfigError("key outside of any section", lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not value:
            raise ConfigError(f"empty value for key {key!r}", lineno)
        kind = _SCHEMA[section].get(key)
        if kind is None:
            raise ConfigError(f"unknown [{section}] key {key!r}", lineno)
        if key in entries:
            raise ConfigError(f"duplicate [{section}] key {key!r}", lineno)
        key_lines[section, key] = lineno
        try:
            entries[key] = kind(value)
        except ValueError:
            number = "integer" if kind is int else "number"
            raise ConfigError(
                f"malformed {number} {value!r} for key {key!r}", lineno
            ) from None
    if section == "layer":
        _add_layer(layers, entries, section_lineno)

    geometry, com = sections["geometry"], sections["com"]
    if "wavelength" not in geometry:
        raise ConfigError("missing required [geometry] key 'wavelength'")
    if "spacing_index" in geometry and "grating_gap" in geometry:
        raise ConfigError(
            "specify either [geometry] spacing_index or grating_gap, not both"
        )
    if "grating_gap" not in geometry:
        index = geometry.pop("spacing_index", 0)
        try:
            geometry["grating_gap"] = design_spacing(index, geometry["wavelength"])
        except ValueError as exc:
            key = "spacing_index" if index < 0 else "wavelength"
            raise ConfigError(str(exc), key_lines["geometry", key]) from None

    com_velocity = com.pop("velocity", None)
    try:
        device_geometry = DeviceGeometry(**geometry)  # type: ignore[arg-type]
        # Validate the COM settings eagerly, at a stand-in velocity if none.
        ComParameters(
            free_velocity=1.0 if com_velocity is None else com_velocity, **com
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None

    overrides, wavelength = sections["override"], device_geometry.wavelength
    plate = None
    try:  # validate the plate and its bending term eagerly, overrides applied
        if layers:
            plate = CompositePlate.from_layers(layers.values(), overrides)
            plate.bending_term(wavelength)
    except ValueError as exc:
        # The line of a pinned key the message names, else of a layer that
        # fails alone. Else the pinned key at which a stack that passes
        # unpinned first fails, pinning in line order, or else the wavelength.
        stack, pins = layers.values(), list(overrides.items())
        lines = [key_lines["override", key] for key in overrides if key in str(exc)]
        lines += [n for n, one in layers.items() if _fails([one], {}, wavelength)]
        if not lines and not _fails(stack, {}, wavelength):
            lines = [key_lines["override", key] for n, (key, _) in enumerate(pins)
                     if _fails(stack, dict(pins[: n + 1]), wavelength)]
        elif not lines and plate is not None:
            lines = [key_lines["geometry", "wavelength"]]
        raise ConfigError(str(exc), lines[0] if lines else None) from None

    return DeviceConfig(
        layers=tuple(layers.values()),
        geometry=device_geometry,
        com_velocity=com_velocity,
        com_settings=com,
        overrides=overrides,
    )


def parse_density(token: str) -> float:
    """Density token in kg/m^3, accepting a ``g/cm3`` suffix."""
    text = token.strip()
    for suffix, factor in (("g/cm3", 1000.0), ("kg/m3", 1.0)):
        if text.lower().endswith(suffix):
            return finite_float(text[: -len(suffix)]) * factor
    return finite_float(text)


def parse_calibration_points(text: str) -> list[tuple[float, float]]:
    """Parse ``density frequency`` calibration lines.

    Frequencies in Hz; densities in kg/m^3 unless suffixed ``g/cm3``.
    ``#`` starts a comment.
    """
    points: list[tuple[float, float]] = []
    for lineno, raw, line in content_lines(text):
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(
                f"points file line {lineno}: expected 'density frequency', "
                f"got {raw!r}"
            )
        try:
            points.append((parse_density(tokens[0]), finite_float(tokens[1])))
        except ValueError as exc:
            raise ValueError(f"points file line {lineno}: {exc}") from None
    return points
