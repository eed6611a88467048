import math

import pytest

from fpwsim import (
    ComParameters,
    CompositePlate,
    DeviceGeometry,
    MaterialLayer,
    design_spacing,
)

WAVELENGTH = 40e-6

# Published table values for the reference device, used as regression anchors.
PUBLISHED = {
    "young_modulus": 2.42e11,
    "poisson_ratio": 0.26,
    "plate_modulus": 2.6e11,
    "bending_term": 6497.93,
    "mass_per_area_override": 0.1176,
    "unloaded_velocity": 235.06,
    "unloaded_frequency": 5.876e6,
    "tension_sensitivity": 7.69e-5,
    "fit_slope_mhz_gcm3": -0.848,
}


def range_cases(name, low, high, refusal, closed=False):
    """``(name, value, refusal)`` at the edges of the range ``(low, high)``
    of a field, or ``[low, high)`` when ``closed``: each finite bound itself,
    the lower one accepted (refusal None) when closed, the nearest floats
    outside the bounds, nan and both infinities."""
    cases = {low: None if closed else refusal, high: refusal}
    for bound, outward in ((low, -math.inf), (high, math.inf)):
        if math.isfinite(bound):
            cases[math.nextafter(bound, outward)] = refusal
    cases.update(dict.fromkeys((math.nan, math.inf, -math.inf), refusal))
    return [(name, value, message) for value, message in cases.items()]


def assert_refusal(build, refusal):
    """``build()`` succeeds when ``refusal`` is None, else raises a
    ValueError whose text is exactly ``refusal``."""
    if refusal is None:
        build()
        return
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == refusal


@pytest.fixture
def reference_layers():
    return (
        MaterialLayer("SiNx", 1.2e-6, 3.85e11, 0.27, 3100.0),
        MaterialLayer("PZT+LSMO", 1.1e-6, 8.6e10, 0.25, 7600.0),
    )


@pytest.fixture
def plate(reference_layers):
    return CompositePlate.from_layers(reference_layers)


@pytest.fixture
def pinned_plate(reference_layers):
    """Reference stack with the published effective areal mass pinned."""
    return CompositePlate.from_layers(
        reference_layers, {"mass_per_area": PUBLISHED["mass_per_area_override"]}
    )


@pytest.fixture
def bulk_geometry():
    return DeviceGeometry(
        wavelength=WAVELENGTH,
        idt_pairs=20,
        grating_strips=40,
        overlap=50.0,
        idt_separation=10.0,
        grating_gap=design_spacing(0, WAVELENGTH),
    )


@pytest.fixture
def bulk_params():
    return ComParameters(free_velocity=2400.0)
