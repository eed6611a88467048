import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fpwsim import CompositePlate, MaterialLayer
from fpwsim.plate_materials import OVERRIDABLE_PARAMETERS
from conftest import PUBLISHED, WAVELENGTH, assert_refusal, range_cases

LAYER = MaterialLayer("x", 1e-6, 1e11, 0.3, 2000.0)


def pinned(**pins):
    """A one-layer plate with the given effective parameters pinned."""
    return CompositePlate.from_layers([LAYER], pins)


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
    def test_reference_stack(self, plate):
        assert plate.young_modulus == pytest.approx(
            PUBLISHED["young_modulus"], rel=5e-3
        )

    def test_single_layer_identity(self):
        layer = MaterialLayer("x", 1e-6, 1.23e11, 0.3, 2000.0)
        assert CompositePlate.from_layers([layer]).young_modulus == 1.23e11

    def test_equal_thickness_symmetry(self):
        a = MaterialLayer("a", 1e-6, 1e11, 0.3, 2000.0)
        b = MaterialLayer("b", 1e-6, 3e11, 0.3, 2000.0)
        plate = CompositePlate.from_layers([a, b])
        assert plate.young_modulus == pytest.approx(2e11, rel=1e-12)


class TestEffectivePoisson:
    def test_reference_stack(self, plate):
        assert plate.poisson_ratio == pytest.approx(
            PUBLISHED["poisson_ratio"], rel=5e-3
        )

    def test_single_layer_identity(self):
        layer = MaterialLayer("x", 1e-6, 1e11, 0.31, 2000.0)
        assert CompositePlate.from_layers([layer]).poisson_ratio == 0.31

    def test_equal_thickness_symmetry(self):
        a = MaterialLayer("a", 1e-6, 1e11, 0.2, 2000.0)
        b = MaterialLayer("b", 1e-6, 1e11, 0.3, 2000.0)
        plate = CompositePlate.from_layers([a, b])
        assert plate.poisson_ratio == pytest.approx(0.25, rel=1e-12)


class TestMassPerArea:
    def test_nitride_layer(self, reference_layers):
        assert reference_layers[0].mass_per_area == pytest.approx(0.00372)

    def test_piezo_layer(self, reference_layers):
        assert reference_layers[1].mass_per_area == pytest.approx(0.00836)

    def test_full_stack(self, plate):
        # Hand sum of the two layer contributions.
        assert plate.mass_per_area == pytest.approx(0.01208)

    def test_additive_over_concatenation(self):
        rng = np.random.default_rng(42)
        mass = lambda stack: CompositePlate.from_layers(stack).mass_per_area
        for _ in range(20):
            a = random_stack(rng, int(rng.integers(1, 4)))
            b = random_stack(rng, int(rng.integers(1, 4)))
            assert mass(a + b) == pytest.approx(
                mass(a) + mass(b), rel=1e-12, abs=0.0
            )


class TestPlateModulus:
    def test_reference_values(self):
        plate = pinned(young_modulus=2.42e11, poisson_ratio=0.26)
        assert plate.plate_modulus == pytest.approx(
            PUBLISHED["plate_modulus"], rel=5e-3
        )

    def test_zero_poisson_is_identity(self):
        plate = pinned(young_modulus=3.1e10, poisson_ratio=0.0)
        assert plate.plate_modulus == 3.1e10

    def test_direct_evaluation(self):
        plate = pinned(young_modulus=1.0, poisson_ratio=0.25)
        assert plate.plate_modulus == pytest.approx(16.0 / 15.0, rel=1e-12)

    def test_poisson_of_one_rejected(self):
        with pytest.raises(ValueError, match="poisson_ratio"):
            pinned(poisson_ratio=1.0)


class TestBendingTerm:
    def test_reference_value(self):
        plate = pinned(plate_modulus=2.596e11, total_thickness=2.3e-6)
        assert plate.bending_term(WAVELENGTH) == pytest.approx(
            PUBLISHED["bending_term"], rel=3e-3
        )

    def test_wavelength_scaling(self):
        plate = pinned(plate_modulus=2.6e11, total_thickness=2.3e-6)
        assert plate.bending_term(2 * WAVELENGTH) == pytest.approx(
            plate.bending_term(WAVELENGTH) / 4.0, rel=1e-12
        )

    def test_thickness_scaling(self):
        base = pinned(plate_modulus=2.6e11, total_thickness=2.3e-6)
        thick = pinned(plate_modulus=2.6e11, total_thickness=4.6e-6)
        assert thick.bending_term(WAVELENGTH) == pytest.approx(
            8.0 * base.bending_term(WAVELENGTH), rel=1e-12
        )

    def test_modulus_homogeneity(self):
        base = pinned(plate_modulus=1e11, total_thickness=2e-6)
        stiff = pinned(plate_modulus=3e11, total_thickness=2e-6)
        assert stiff.bending_term(WAVELENGTH) == pytest.approx(
            3.0 * base.bending_term(WAVELENGTH), rel=1e-12
        )

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="total_thickness"):
            pinned(plate_modulus=1e11, total_thickness=0.0)
        # inf is named as the wavelength, as DeviceGeometry names it, not
        # as the bending term it would zero.
        plate = pinned(plate_modulus=1e11)
        for wavelength in (-1.0, 0.0, math.nan, math.inf):
            assert_refusal(lambda: plate.bending_term(wavelength),
                           "wavelength must be > 0")

    @pytest.mark.parametrize(
        "thickness, wavelength",
        # E' h^3 k^2 overflows, k**2 overflows, k**2 underflows to 0.
        [(1e97, WAVELENGTH), (1e-6, 1e-200), (1e-6, 1e200)],
        ids=["rigidity-times-k2", "k2-overflow", "k2-underflow"],
    )
    def test_non_finite_or_zero_result_rejected(self, thickness, wavelength):
        plate = pinned(plate_modulus=1e11, total_thickness=thickness)
        with pytest.raises(ValueError, match="bending_term must be finite"):
            plate.bending_term(wavelength)

    def test_matches_rigidity_times_wavenumber(self):
        plate = pinned(plate_modulus=2.6e11, total_thickness=2.3e-6)
        rigidity = 2.6e11 * 2.3e-6**3 / 12
        k = 2 * math.pi / WAVELENGTH
        assert plate.flexural_rigidity() == pytest.approx(
            rigidity, rel=1e-15, abs=0.0
        )
        assert plate.bending_term(WAVELENGTH) == pytest.approx(
            rigidity * k**2, rel=1e-14, abs=0.0
        )


def former_wave_constants(plate, wavelength):
    """B, delta_E and sqrt(B / M) by the expressions each caller evaluated
    before the plate kept them."""
    rigidity = plate.plate_modulus * plate.total_thickness**3 / 12.0
    bending = rigidity * (2.0 * math.pi / wavelength) ** 2
    velocity = math.sqrt(bending / plate.mass_per_area)
    return bending, wavelength / (2.0 * math.pi), velocity


LAYERS = st.lists(
    st.builds(
        MaterialLayer,
        st.just("l"),
        st.floats(0.1e-6, 5e-6),
        st.floats(1e10, 5e11),
        st.floats(0.0, 0.49),
        st.floats(1000.0, 20000.0),
    ),
    min_size=1,
    max_size=4,
)


class TestWaveConstants:
    """Each plate derives its constants at a wavelength once and keeps them
    outside its fields."""

    @settings(max_examples=300, deadline=None)
    @given(
        layers=LAYERS,
        pinned_mass=st.one_of(st.none(), st.floats(1e-3, 1.0)),
        wavelengths=st.lists(st.floats(1e-6, 1e-3), min_size=2, max_size=2,
                             unique=True),
        thickness_scale=st.floats(0.5, 2.0),
    )
    def test_bit_identical_to_former_expressions(
        self, layers, pinned_mass, wavelengths, thickness_scale
    ):
        pins = {} if pinned_mass is None else {"mass_per_area": pinned_mass}
        plate = CompositePlate.from_layers(layers, pins)
        for wavelength in wavelengths * 2:  # derived, then read back
            expected = former_wave_constants(plate, wavelength)
            assert plate.wave_constants(wavelength) == expected
            assert plate.bending_term(wavelength) == expected[0]
        assert plate.wave_constants(wavelengths[0]) is plate.wave_constants(
            wavelengths[0]
        )

        # A replaced plate derives from its own fields into its own cache.
        thicker = replace(plate, overrides={
            **pins, "total_thickness": plate.total_thickness * thickness_scale
        })
        assert "_wave_constants" not in vars(thicker)
        assert thicker.wave_constants(wavelengths[0]) == former_wave_constants(
            thicker, wavelengths[0]
        )
        assert thicker._wave_constants.keys() == {wavelengths[0]}

        # Equality sees the fields, not what the cache holds.
        twin = replace(plate)
        assert "_wave_constants" not in vars(twin)
        assert twin == plate
        twin.wave_constants(2e-3)  # outside the drawn wavelengths
        assert twin == plate
        assert 2e-3 not in plate._wave_constants

    def test_subnormal_areal_mass_refused_naming_it(self):
        plate = pinned(mass_per_area=1e-310)
        for _ in range(2):  # a refusal is not kept
            with pytest.raises(ValueError, match="mass_per_area"):
                plate.bending_term(WAVELENGTH)
        assert not plate._wave_constants


class TestBracketingProperties:
    def test_effective_values_bracketed_by_layers(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            stack = random_stack(rng, int(rng.integers(1, 6)))
            e_values = [l.young_modulus for l in stack]
            nu_values = [l.poisson_ratio for l in stack]
            plate = CompositePlate.from_layers(stack)
            assert min(e_values) <= plate.young_modulus <= max(e_values)
            assert min(nu_values) <= plate.poisson_ratio <= max(nu_values)


class TestCompositePlate:
    def test_thickness_is_layer_sum(self, plate, reference_layers):
        assert plate.total_thickness == pytest.approx(
            math.fsum(layer.thickness for layer in reference_layers),
            rel=1e-15, abs=0.0,
        )

    def test_override_pins_value_and_keeps_computed(self, reference_layers):
        pinned = CompositePlate.from_layers(
            reference_layers, {"mass_per_area": 0.1176}
        )
        assert pinned.mass_per_area == 0.1176
        assert pinned.computed()["mass_per_area"] == pytest.approx(0.01208)

    def test_override_propagates_into_plate_modulus(self, plate, reference_layers):
        pinned = CompositePlate.from_layers(
            reference_layers, {"young_modulus": 2.0e11}
        )
        nu = plate.poisson_ratio
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
            {"poisson_ratio": -1e200},  # 1 - nu^2 would overflow
            {"poisson_ratio": math.nan},
        ],
    )
    def test_invalid_effective_values_rejected(self, reference_layers, overrides):
        with pytest.raises(ValueError, match=next(iter(overrides))):
            CompositePlate.from_layers(reference_layers, overrides)

    @pytest.mark.parametrize("name, value, refusal", [
        *range_cases("poisson_ratio", 0.0, 0.5,
                     "poisson_ratio must lie in [0, 0.5)", True),
        *[case for name in ("total_thickness", "young_modulus", "plate_modulus",
                            "mass_per_area")
          for case in range_cases(name, 0.0, math.inf,
                                  f"{name} must be finite and > 0")],
    ])
    def test_direct_construction_field_ranges(
        self, reference_layers, name, value, refusal
    ):
        build = lambda: CompositePlate(reference_layers, {name: value})
        assert_refusal(build, refusal)

    @pytest.mark.parametrize(
        "name, value, refusal",
        range_cases("poisson_ratio", 0.0, 0.5,
                    "poisson_ratio must lie in [0, 0.5)", True),
    )
    def test_pinned_poisson_ratio_range(self, reference_layers, name, value, refusal):
        # nu is checked even where a pinned E' leaves 1 - nu^2 unused.
        pins = {name: value, "plate_modulus": 1.1e11}
        build = lambda: CompositePlate.from_layers(list(reference_layers), pins)
        assert_refusal(build, refusal)

    def test_poisson_ratio_checked_before_the_positive_fields(
        self, reference_layers
    ):
        pins = {"total_thickness": -1.0, "young_modulus": -1.0,
                "poisson_ratio": 0.7}
        with pytest.raises(ValueError) as caught:
            CompositePlate(reference_layers, pins)
        assert str(caught.value) == "poisson_ratio must lie in [0, 0.5)"

    def test_direct_construction_refuses_poisson_ratio_of_half(self, plate):
        with pytest.raises(ValueError, match="poisson_ratio"):
            replace(plate, overrides={"poisson_ratio": 0.5})

    def test_layers_and_pins_are_the_only_inputs(self, plate, reference_layers):
        assert [f.name for f in fields(CompositePlate) if f.init] == [
            "layers", "overrides"
        ]
        pins = {"young_modulus": 2e11, "mass_per_area": 0.1}
        built = CompositePlate(reference_layers, pins)
        assert built == CompositePlate.from_layers(list(reference_layers), pins)
        assert CompositePlate(reference_layers) == plate

        # Replacing the pins derives all five values again.
        repinned = replace(built, overrides={"poisson_ratio": 0.3})
        unpinned = plate.computed()
        e = unpinned["young_modulus"]
        assert {name: getattr(repinned, name) for name in OVERRIDABLE_PARAMETERS} == {
            **unpinned, "poisson_ratio": 0.3, "plate_modulus": e / (1.0 - 0.3**2)
        }
        with pytest.raises(ValueError, match="init=False"):
            replace(plate, total_thickness=1e-6)

        assert_refusal(lambda: CompositePlate((), {}), "layer stack is empty")

    def test_plate_keeps_its_own_layers_and_pins(self, reference_layers):
        layers, pins = list(reference_layers), {"young_modulus": 2e11}
        plate = CompositePlate(layers, pins)
        pins["young_modulus"] = 3e11
        layers.pop()
        assert plate.layers == tuple(reference_layers)
        assert plate.overrides == {"young_modulus": 2e11}
        assert plate == CompositePlate(reference_layers, {"young_modulus": 2e11})
        assert plate.young_modulus == 2e11

    def test_computed_is_the_unpinned_plate(self, plate, reference_layers):
        pinned = CompositePlate.from_layers(
            reference_layers, {"young_modulus": 2e11, "mass_per_area": 0.1}
        )
        assert pinned.computed() == {
            name: getattr(plate, name) for name in OVERRIDABLE_PARAMETERS
        }

    def test_bending_term_uses_effective_parameters(self, reference_layers):
        plate = CompositePlate.from_layers(
            reference_layers, {"plate_modulus": 2.0e11, "total_thickness": 3e-6}
        )
        expected = pinned(plate_modulus=2.0e11, total_thickness=3e-6)
        assert plate.bending_term(WAVELENGTH) == expected.bending_term(WAVELENGTH)


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

    @pytest.mark.parametrize("name, value, refusal", [
        *[case for name in ("thickness", "young_modulus", "density")
          for case in range_cases(name, 0.0, math.inf,
                                  f"layer 'x': {name} must be > 0")],
        *range_cases("poisson_ratio", 0.0, 0.5,
                     "layer 'x': poisson_ratio must lie in [0, 0.5)", True),
    ])
    def test_field_ranges(self, name, value, refusal):
        fields = dict(name="x", thickness=1e-6, young_modulus=1e11,
                      poisson_ratio=0.3, density=1000.0)
        assert_refusal(lambda: MaterialLayer(**{**fields, name: value}), refusal)

    def test_poisson_ratio_checked_last(self):
        with pytest.raises(ValueError) as caught:
            MaterialLayer("x", 1e-6, 1e11, 0.7, -1.0)
        assert str(caught.value) == "layer 'x': density must be > 0"
