import math

import numpy as np
import pytest

from fpwsim import (
    CompositePlate,
    MaterialLayer,
    bending_term,
    effective_poisson,
    effective_young_modulus,
    flexural_rigidity,
    mass_per_area,
    plate_modulus,
    total_thickness,
)
from fpwsim.plate_materials import OVERRIDABLE_PARAMETERS
from conftest import PUBLISHED, WAVELENGTH


def random_stack(rng, layer_count):
    return [
        MaterialLayer(
            name=f"l{i}",
            thickness=rng.uniform(0.1e-6, 5e-6),
            young_modulus=rng.uniform(1e10, 5e11),
            poisson_ratio=rng.uniform(0.0, 0.49),
            density=rng.uniform(1000, 20000),
        )
        for i in range(layer_count)
    ]


class TestEffectiveYoungModulus:
    def test_reference_stack(self, reference_layers):
        value = effective_young_modulus(reference_layers)
        assert value == pytest.approx(PUBLISHED["young_modulus"], rel=5e-3)

    def test_single_layer_identity(self):
        layer = MaterialLayer("x", 1e-6, 1.23e11, 0.3, 2000.0)
        assert effective_young_modulus([layer]) == 1.23e11

    def test_equal_thickness_symmetry(self):
        a = MaterialLayer("a", 1e-6, 1e11, 0.3, 2000.0)
        b = MaterialLayer("b", 1e-6, 3e11, 0.3, 2000.0)
        assert effective_young_modulus([a, b]) == pytest.approx(2e11, rel=1e-12)

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            effective_young_modulus([])


class TestEffectivePoisson:
    def test_reference_stack(self, reference_layers):
        assert effective_poisson(reference_layers) == pytest.approx(
            PUBLISHED["poisson_ratio"], rel=5e-3
        )

    def test_single_layer_identity(self):
        layer = MaterialLayer("x", 1e-6, 1e11, 0.31, 2000.0)
        assert effective_poisson([layer]) == 0.31

    def test_equal_thickness_symmetry(self):
        a = MaterialLayer("a", 1e-6, 1e11, 0.2, 2000.0)
        b = MaterialLayer("b", 1e-6, 1e11, 0.3, 2000.0)
        assert effective_poisson([a, b]) == pytest.approx(0.25, rel=1e-12)

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            effective_poisson([])


class TestMassPerArea:
    def test_nitride_layer(self, reference_layers):
        assert reference_layers[0].mass_per_area == pytest.approx(0.00372)

    def test_piezo_layer(self, reference_layers):
        assert reference_layers[1].mass_per_area == pytest.approx(0.00836)

    def test_full_stack(self, reference_layers):
        # Hand sum of the two layer contributions.
        assert mass_per_area(reference_layers) == pytest.approx(0.01208)

    def test_additive_over_concatenation(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            a = random_stack(rng, int(rng.integers(1, 4)))
            b = random_stack(rng, int(rng.integers(1, 4)))
            assert mass_per_area(a + b) == pytest.approx(
                mass_per_area(a) + mass_per_area(b), rel=1e-12, abs=0.0
            )

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            mass_per_area([])


class TestPlateModulus:
    def test_reference_values(self):
        assert plate_modulus(2.42e11, 0.26) == pytest.approx(
            PUBLISHED["plate_modulus"], rel=5e-3
        )

    def test_zero_poisson_is_identity(self):
        assert plate_modulus(3.1e10, 0.0) == 3.1e10

    def test_direct_evaluation(self):
        assert plate_modulus(1.0, 0.5) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_poisson_of_one_rejected(self):
        with pytest.raises(ValueError):
            plate_modulus(1e11, 1.0)


class TestBendingTerm:
    def test_reference_value(self):
        value = bending_term(2.596e11, 2.3e-6, WAVELENGTH)
        assert value == pytest.approx(PUBLISHED["bending_term"], rel=3e-3)

    def test_wavelength_scaling(self):
        base = bending_term(2.6e11, 2.3e-6, WAVELENGTH)
        assert bending_term(2.6e11, 2.3e-6, 2 * WAVELENGTH) == pytest.approx(
            base / 4.0, rel=1e-12
        )

    def test_thickness_scaling(self):
        base = bending_term(2.6e11, 2.3e-6, WAVELENGTH)
        assert bending_term(2.6e11, 4.6e-6, WAVELENGTH) == pytest.approx(
            8.0 * base, rel=1e-12
        )

    def test_modulus_homogeneity(self):
        base = bending_term(1e11, 2e-6, WAVELENGTH)
        assert bending_term(3e11, 2e-6, WAVELENGTH) == pytest.approx(
            3.0 * base, rel=1e-12
        )

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            bending_term(1e11, 0.0, WAVELENGTH)
        with pytest.raises(ValueError):
            bending_term(1e11, 1e-6, -1.0)

    def test_matches_rigidity_times_wavenumber(self):
        rigidity = flexural_rigidity(2.6e11, 2.3e-6)
        k = 2 * math.pi / WAVELENGTH
        assert bending_term(2.6e11, 2.3e-6, WAVELENGTH) == pytest.approx(
            rigidity * k**2, rel=1e-14
        )


class TestBracketingProperties:
    def test_effective_values_bracketed_by_layers(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            stack = random_stack(rng, int(rng.integers(1, 6)))
            e_values = [l.young_modulus for l in stack]
            nu_values = [l.poisson_ratio for l in stack]
            e_eff = effective_young_modulus(stack)
            nu_eff = effective_poisson(stack)
            assert min(e_values) <= e_eff <= max(e_values)
            assert min(nu_values) <= nu_eff <= max(nu_values)


class TestCompositePlate:
    def test_thickness_is_layer_sum(self, plate, reference_layers):
        assert plate.total_thickness == pytest.approx(
            total_thickness(reference_layers), rel=1e-15, abs=0.0
        )

    def test_override_pins_value_and_keeps_computed(self, reference_layers):
        pinned = CompositePlate.from_layers(
            reference_layers, {"mass_per_area": 0.1176}
        )
        assert pinned.mass_per_area == 0.1176
        assert pinned.computed()["mass_per_area"] == pytest.approx(0.01208)

    def test_override_propagates_into_plate_modulus(self, reference_layers):
        pinned = CompositePlate.from_layers(
            reference_layers, {"young_modulus": 2.0e11}
        )
        nu = effective_poisson(reference_layers)
        assert pinned.plate_modulus == pytest.approx(2.0e11 / (1 - nu**2))

    def test_unknown_override_rejected(self, reference_layers):
        with pytest.raises(ValueError):
            CompositePlate.from_layers(reference_layers, {"stiffness": 1.0})

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            CompositePlate.from_layers([])

    @pytest.mark.parametrize(
        "overrides",
        [
            {"mass_per_area": -1.0},
            {"mass_per_area": math.nan},
            {"total_thickness": math.inf},
            {"young_modulus": 0.0},
            {"plate_modulus": -1e11},
            {"plate_modulus": math.nan},
            {"poisson_ratio": 2.0},
            {"poisson_ratio": 0.7, "plate_modulus": 3e11},
            {"poisson_ratio": -0.5},
            {"poisson_ratio": math.nan},
        ],
    )
    def test_invalid_effective_values_rejected(self, reference_layers, overrides):
        with pytest.raises(ValueError, match=next(iter(overrides))):
            CompositePlate.from_layers(reference_layers, overrides)

    def test_computed_is_the_unpinned_plate(self, plate, reference_layers):
        pinned = CompositePlate.from_layers(
            reference_layers, {"young_modulus": 2e11, "mass_per_area": 0.1}
        )
        assert pinned.computed() == {
            name: getattr(plate, name) for name in OVERRIDABLE_PARAMETERS
        }

    def test_bending_term_uses_effective_parameters(self, plate):
        expected = bending_term(
            plate.plate_modulus, plate.total_thickness, WAVELENGTH
        )
        assert plate.bending_term(WAVELENGTH) == expected


class TestMaterialLayerValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"thickness": 0.0},
            {"thickness": -1e-6},
            {"young_modulus": 0.0},
            {"density": -1.0},
            {"poisson_ratio": 0.5},
            {"poisson_ratio": -0.1},
            {"thickness": math.nan},
            {"thickness": math.inf},
            {"young_modulus": math.inf},
            {"density": math.nan},
            {"poisson_ratio": math.nan},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        fields = dict(
            name="x",
            thickness=1e-6,
            young_modulus=1e11,
            poisson_ratio=0.3,
            density=1000.0,
        )
        fields.update(kwargs)
        with pytest.raises(ValueError):
            MaterialLayer(**fields)
