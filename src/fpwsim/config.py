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
from functools import partial
from typing import Callable, Iterator, NoReturn, get_type_hints

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
_SPACING = {"spacing_index", "grating_gap"}  # either one, not both


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


def _key_check(section: str, key: str, entries: dict) -> Callable[[], object]:
    """Check of one [geometry]/[com] value alone, stand-ins (wavelength and
    velocity 1.0) filling the rest. The later of two gap keys conflicts."""
    value = entries[key]
    if key in _SPACING and _SPACING <= entries.keys():
        return _spacing_conflict
    if key == "spacing_index":
        return partial(design_spacing, value, 1.0)
    if section == "geometry":
        return partial(DeviceGeometry, **{"wavelength": 1.0, key: value})
    key = "free_velocity" if key == "velocity" else key
    return partial(ComParameters, **{"free_velocity": 1.0, key: value})


def _spacing_conflict():
    raise ValueError(
        "specify either [geometry] spacing_index or grating_gap, not both"
    )


def _designed_geometry(entries: dict, index: int) -> DeviceGeometry:
    """DeviceGeometry of the [geometry] entries, the grating gap designed
    from ``index`` at the wavelength unless given."""
    if "grating_gap" not in entries:
        gap = design_spacing(index, entries["wavelength"])
        entries = {**entries, "grating_gap": gap}
    return DeviceGeometry(**entries)


def _wave_constants(stack, pins: dict, wavelength: float):
    return CompositePlate.from_layers(stack, pins).wave_constants(wavelength)


def _blame(error: ValueError, steps: list[tuple]) -> NoReturn:
    """Raise, as a ConfigError at its line, the ValueError of the first of
    ``steps`` (``(line, check)`` pairs) whose check fails; ``error`` with no
    line if none does."""
    for lineno, check in steps:
        try:
            check()
        except ValueError as exc:
            raise ConfigError(str(exc), lineno) from None
    raise ConfigError(str(error))


def parse_device_config(text: str) -> DeviceConfig:
    """Parse and validate a device configuration.

    A malformed line is refused at its line. A refused value is reported
    with the line and the message of the first failing step: each
    [geometry]/[com] key alone in line order (the later of spacing_index and
    grating_gap conflicts), the grating gap designed from spacing_index, each
    [layer] alone at the wavelength, the stack grown a [layer] at a time,
    the unpinned stack at the wavelength (its line), then the [override]
    pins added in line order.
    """
    sections: dict[str, dict[str, object]] = {name: {} for name in _SCHEMA}
    layers: dict[int, MaterialLayer] = {}  # by the line of their [layer]
    section: str | None = None
    section_lineno = 0
    entries: dict[str, object] = {}
    key_lines: dict[tuple[str, str], int] = {}
    steps: list[tuple[int | None, Callable]] = []  # [geometry]/[com] keys

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
        key, value = key.strip().lower(), value.strip()
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
        if section in ("geometry", "com"):
            steps.append((lineno, _key_check(section, key, entries)))
    if section == "layer":
        _add_layer(layers, entries, section_lineno)

    geometry, overrides = sections["geometry"], sections["override"]
    if "wavelength" not in geometry:
        raise ConfigError("missing required [geometry] key 'wavelength'")
    wavelength, stack = geometry["wavelength"], [*layers.values()]
    index = geometry.pop("spacing_index", 0)
    design = partial(_designed_geometry, geometry, index)
    try:
        for _, check in steps:
            check()
        device_geometry = design()
        if layers:
            _wave_constants(stack, overrides, wavelength)
    except ValueError as exc:
        pin_lines = [key_lines["geometry", "wavelength"]]
        pin_lines += [key_lines["override", key] for key in overrides]
        pins = [*overrides.items()]
        _blame(exc, [
            *steps,
            (key_lines.get(("geometry", "spacing_index")), design),
            *[(n, partial(_wave_constants, [layer], {}, wavelength))
              for n, layer in layers.items()],
            *[(n, partial(CompositePlate.from_layers, stack[: i + 1]))
              for i, n in enumerate(layers)],
            *[(n, partial(_wave_constants, stack, dict(pins[:i]), wavelength))
              for i, n in enumerate(pin_lines)],
        ])

    com = sections["com"]
    velocity = com.pop("velocity", None)
    return DeviceConfig(tuple(stack), device_geometry, velocity, com, overrides)


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
        try:
            if len(tokens) != 2:
                raise ValueError(f"expected 'density frequency', got {raw!r}")
            points.append((parse_density(tokens[0]), finite_float(tokens[1])))
        except ValueError as exc:
            raise ValueError(f"points file line {lineno}: {exc}") from None
    return points
