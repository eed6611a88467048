import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from fpwsim import (
    CompositePlate,
    LiquidLoad,
    LoadingState,
    MaterialLayer,
    NoSolutionError,
    density_from_frequency,
    evanescent_decay_length,
    loaded_velocity,
    predict_frequency,
    sensitivities,
    unloaded_velocity,
)
from fpwsim.fpw_dispersion import _phase_velocity, tension_sensitivity
from conftest import PUBLISHED, WAVELENGTH, assert_refusal, range_cases
from oracles import bisect_density, bisect_loaded_velocity, closed_form_density

DELTA_E = WAVELENGTH / (2 * math.pi)  # 6.366197723e-06 m

# A valid one-layer plate so light that at 1e-3 m and above about 1e299
# kg/m^3 of liquid its velocity sqrt(B / (M + rho delta_E)) underflows to 0.
LIGHT_PLATE = CompositePlate.from_layers(
    [MaterialLayer("x", 1e-100, 1.092e10, 0.3, 1000.0)]
)


def _refusal(solve, *args):
    """(type, text) of the refusal ``solve(*args)`` raises, else None."""
    try:
        solve(*args)
    except (FloatingPointError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def _refusals(density):
    """The three ways the loaded solve refuses an operating point."""
    return (
        (FloatingPointError, "loaded resonant frequency underflows to 0 at "
         f"liquid density {density:.6g} kg/m^3"),
        (ValueError,
         "the loaded velocity sqrt((T + B) / (M + rho delta_E)) overflows"),
        (FloatingPointError,
         f"loaded velocity is not finite at liquid density {density:.6g} kg/m^3"),
    )


class TestUnloadedVelocity:
    def test_published_operating_point(self):
        v = unloaded_velocity(6497.93, 0.1176)
        assert v == pytest.approx(PUBLISHED["unloaded_velocity"], rel=1e-3)

    def test_unit_inputs(self):
        assert unloaded_velocity(1.0, 1.0) == 1.0

    def test_quadrupled_mass_halves_velocity(self):
        assert unloaded_velocity(6497.93, 4 * 0.1176) == pytest.approx(
            unloaded_velocity(6497.93, 0.1176) / 2.0, rel=1e-12
        )

    @pytest.mark.parametrize(
        "bending, areal_mass",
        [(0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan),
         (math.inf, 1.0), (1.0, math.inf),
         # B / M overflows to inf or underflows to 0.
         (1e300, 1e-300), (1e-300, 1e300)],
    )
    def test_invalid_inputs_rejected(self, bending, areal_mass):
        with pytest.raises(ValueError, match="finite and > 0"):
            unloaded_velocity(bending, areal_mass)


class TestEvanescentDecayLength:
    def test_design_wavelength(self):
        # Direct evaluation: 40e-6 / (2 pi).
        assert evanescent_decay_length(WAVELENGTH) == pytest.approx(
            6.366197723675814e-06, rel=1e-12, abs=0.0
        )

    def test_two_pi_wavelength_gives_unity(self):
        assert evanescent_decay_length(2 * math.pi) == pytest.approx(1.0)

    @pytest.mark.parametrize("wavelength", [0.0, -1.0, math.nan, math.inf])
    def test_degenerate_input_rejected(self, wavelength):
        with pytest.raises(ValueError, match="finite and > 0"):
            evanescent_decay_length(wavelength)


def _checked_operating_point(plate, density, viscosity, tension=0.0):
    """Loaded solution whose viscous terms and balance are checked at rel
    1e-13, with no absolute floor (the lengths and masses are far below
    approx's default 1e-12)."""
    solution = loaded_velocity(
        plate, LoadingState(tension, LiquidLoad(density, viscosity)), WAVELENGTH
    )
    omega = 2 * math.pi * solution.resonant_frequency
    # sqrt(2 eta / (omega rho)), with sqrt(eta) apart so that a subnormal
    # viscosity keeps its digits.
    expected_length = math.sqrt(2.0 / (omega * density)) * math.sqrt(viscosity)
    assert solution.viscous_length == pytest.approx(
        expected_length, rel=1e-13, abs=0.0
    )
    assert solution.viscous_mass == pytest.approx(
        density * solution.viscous_length / 2, rel=1e-13, abs=0.0
    )
    loaded_mass = (
        plate.mass_per_area
        + density * solution.evanescent_length
        + solution.viscous_mass
    )
    assert solution.phase_velocity**2 * loaded_mass == pytest.approx(
        tension + plate.bending_term(WAVELENGTH), rel=1e-13, abs=0.0
    )
    return solution


class TestViscousMass:
    """The viscous decay length and mass at the loaded operating point."""

    def test_water_at_design_frequency(self, pinned_plate):
        solution = _checked_operating_point(pinned_plate, 1000.0, 0.001)
        # Frozen from the separate sqrt(2 eta / (omega rho)) evaluation that
        # this operating point replaced.
        assert solution.viscous_length == pytest.approx(
            2.35908727155e-07, rel=1e-9, abs=0.0
        )
        assert solution.viscous_mass == pytest.approx(
            1.17954363578e-04, rel=1e-9, abs=0.0
        )

    def test_glycerol(self, pinned_plate):
        solution = _checked_operating_point(pinned_plate, 1200.0, 0.934)
        assert solution.viscous_length == pytest.approx(
            6.64871101221e-06, rel=1e-9, abs=0.0
        )
        assert solution.viscous_mass == pytest.approx(3.98922660733e-03, rel=1e-9)

    def test_inviscid_is_zero(self, pinned_plate):
        solution = loaded_velocity(
            pinned_plate, LoadingState(0.0, LiquidLoad(1000.0, 0.0)), WAVELENGTH
        )
        assert (solution.viscous_length, solution.viscous_mass) == (0.0, 0.0)

    @settings(
        max_examples=500,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        density=st.floats(1e-3, 2e4),
        viscosity=st.one_of(
            st.floats(0.0, 10.0),
            st.floats(0.0, sys.float_info.min, exclude_max=True),
        ),
        tension=st.floats(0.0, 100.0),
    )
    def test_operating_point_over_validated_inputs(
        self, pinned_plate, density, viscosity, tension
    ):
        _checked_operating_point(pinned_plate, density, viscosity, tension)


class TestLoadedVelocity:
    def test_no_liquid_reduces_to_unloaded(self, pinned_plate):
        solution = loaded_velocity(pinned_plate, LoadingState(), WAVELENGTH)
        expected = unloaded_velocity(
            pinned_plate.bending_term(WAVELENGTH), pinned_plate.mass_per_area
        )
        assert solution.phase_velocity == expected
        assert solution.converged

    def test_water_matches_bisection_oracle(self, pinned_plate):
        solution = loaded_velocity(
            pinned_plate, LoadingState(0.0, LiquidLoad(1000.0, 0.001)), WAVELENGTH
        )
        oracle = bisect_loaded_velocity(
            pinned_plate.bending_term(WAVELENGTH),
            pinned_plate.mass_per_area,
            0.0,
            1000.0,
            0.001,
            WAVELENGTH,
        )
        assert solution.phase_velocity == pytest.approx(oracle, rel=1e-9)
        # Frozen oracle output for the reference stack.
        assert solution.phase_velocity == pytest.approx(228.782132555, rel=1e-8)

    def test_saline_slower_than_water(self, pinned_plate):
        water = loaded_velocity(
            pinned_plate, LoadingState(0.0, LiquidLoad(1000.0, 0.001)), WAVELENGTH
        )
        saline = loaded_velocity(
            pinned_plate, LoadingState(0.0, LiquidLoad(1200.0, 0.0015)), WAVELENGTH
        )
        assert saline.phase_velocity < water.phase_velocity

    def test_zero_density_load_is_bitwise_unloaded(self, pinned_plate):
        bare = loaded_velocity(pinned_plate, LoadingState(), WAVELENGTH)
        degenerate = loaded_velocity(
            pinned_plate, LoadingState(0.0, LiquidLoad(0.0, 0.0)), WAVELENGTH
        )
        assert degenerate.phase_velocity == bare.phase_velocity

    @settings(
        max_examples=500,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        density=st.floats(1e-3, 2e4),
        viscosity=st.one_of(
            st.floats(0.0, 10.0),
            st.floats(0.0, sys.float_info.min, exclude_max=True),
        ),
        tension=st.floats(0.0, 100.0),
    )
    def test_matches_bisection_oracle_over_validated_inputs(
        self, pinned_plate, density, viscosity, tension
    ):
        solution = loaded_velocity(
            pinned_plate,
            LoadingState(tension, LiquidLoad(density, viscosity)),
            WAVELENGTH,
        )
        oracle = bisect_loaded_velocity(
            pinned_plate.bending_term(WAVELENGTH),
            pinned_plate.mass_per_area,
            tension,
            density,
            viscosity,
            WAVELENGTH,
        )
        assert solution.phase_velocity == pytest.approx(oracle, rel=1e-13)

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        densities=st.lists(
            st.one_of(
                st.floats(1e-3, 2e4),
                st.floats(0.0, 1.7e308, exclude_min=True),
                st.floats(-3.0, 308.0).map(lambda e: 10.0**e),
            ),
            min_size=1,
            max_size=40,
        ),
        viscosity=st.one_of(
            st.just(0.0),
            st.floats(0.0, 1e3),
            st.floats(-300.0, 3.0).map(lambda e: 10.0**e),
        ),
        tension=st.one_of(
            st.floats(0.0, 100.0),
            st.floats(0.0, 1.7e308),
            st.floats(-3.0, 308.0).map(lambda e: 10.0**e),
        ),
        light=st.booleans(),
    )
    # The density sweep 1e299:1e300:3 of a viscous liquid on the light
    # plate: v0 underflows, so the array form gives NaN, the scalar form 0.
    @example(densities=[1e299, 5.5e299, 1e300], viscosity=1.0, tension=0.0,
             light=True)
    @example(densities=[1e250], viscosity=1.0, tension=0.0, light=False)
    @example(densities=[500.0, 1000.0], viscosity=0.0, tension=1.7e308,
             light=False)
    def test_array_form_matches_scalar_form(
        self, pinned_plate, densities, viscosity, tension, light
    ):
        # The density sweep evaluates the kernel once over an array. Only the
        # cube root differs (numpy's power against libm's pow), by a few ulp.
        # A row the array form leaves not finite and > 0 is one that the
        # scalar solve refuses, with the text loaded_velocity gives the CLI.
        plate, wavelength = (LIGHT_PLATE, 1e-3) if light else (pinned_plate, WAVELENGTH)
        with np.errstate(all="ignore"):
            v, m = _phase_velocity(
                plate, wavelength, tension, np.array(densities), viscosity,
                np.sqrt,
            )
        m = np.broadcast_to(m, v.shape)  # a scalar 0.0 when inviscid
        usable = (v / wavelength > 0) & (v / wavelength < np.inf)
        accepted = []
        for row, rho in enumerate(densities):
            load = LiquidLoad(rho, viscosity)
            refusal = _refusal(predict_frequency, plate, wavelength, load, tension)
            assert refusal == _refusal(
                loaded_velocity, plate, LoadingState(tension, load), wavelength
            )
            assert (refusal is None) == usable[row]
            if refusal is None:
                accepted.append(row)
            else:
                assert refusal in _refusals(rho)
        scalar = [
            _phase_velocity(plate, wavelength, tension, densities[row], viscosity)
            for row in accepted
        ]
        np.testing.assert_allclose(
            v[accepted], [p[0] for p in scalar], rtol=1e-14, atol=0
        )
        np.testing.assert_allclose(
            m[accepted], [p[1] for p in scalar], rtol=1e-14, atol=0
        )

    def test_inviscid_liquid_is_closed_form(self, pinned_plate):
        tension, density = 10.0, 1000.0
        solution = loaded_velocity(
            pinned_plate, LoadingState(tension, LiquidLoad(density)), WAVELENGTH
        )
        stiffness = tension + pinned_plate.bending_term(WAVELENGTH)
        mass = pinned_plate.mass_per_area + density * DELTA_E
        assert solution.iterations == 0
        assert solution.phase_velocity == math.sqrt(stiffness / mass)

    def test_tension_increases_velocity(self, pinned_plate):
        load = LiquidLoad(1000.0, 0.001)
        slack = loaded_velocity(
            pinned_plate, LoadingState(0.0, load), WAVELENGTH
        )
        taut = loaded_velocity(
            pinned_plate, LoadingState(100.0, load), WAVELENGTH
        )
        assert taut.phase_velocity > slack.phase_velocity

    def test_converges_over_density_viscosity_envelope(self, pinned_plate):
        for density in (500.0, 875.0, 1250.0, 1625.0, 2000.0):
            for viscosity in (0.0, 0.01, 0.1, 1.0):
                solution = loaded_velocity(
                    pinned_plate,
                    LoadingState(0.0, LiquidLoad(density, viscosity)),
                    WAVELENGTH,
                )
                assert solution.converged
                assert solution.iterations <= 100

    def test_monotonic_in_density_viscosity_tension(self, pinned_plate):
        rng = np.random.default_rng(11)
        for _ in range(25):
            rho = rng.uniform(500, 2000)
            eta = rng.uniform(0.0, 0.5)
            tension = rng.uniform(0.0, 50.0)

            def velocity(r=rho, e=eta, t=tension):
                return loaded_velocity(
                    pinned_plate, LoadingState(t, LiquidLoad(r, e)), WAVELENGTH
                ).phase_velocity

            base = velocity()
            assert velocity(r=rho * 1.05) < base
            assert velocity(e=eta + 0.05) < base
            assert velocity(t=tension + 5.0) > base


class TestSensitivities:
    def test_tension_sensitivity_published_value(self):
        assert tension_sensitivity(0.0, 6497.93) == pytest.approx(
            PUBLISHED["tension_sensitivity"], rel=5e-3
        )

    def test_mass_sensitivity_water_loaded(self, pinned_plate):
        # Frozen hand evaluation at the pinned areal mass.
        loading = LoadingState(0.0, LiquidLoad(1000.0))
        assert sensitivities(pinned_plate, loading, WAVELENGTH)[0] == pytest.approx(
            -2.56771516775e-05, rel=1e-9, abs=0.0
        )

    def test_dry_limit(self, pinned_plate):
        assert sensitivities(pinned_plate, LoadingState(), WAVELENGTH)[0] == (
            pytest.approx(-DELTA_E / (2 * 0.1176), rel=1e-12, abs=0.0)
        )

    def test_matches_finite_differences(self, pinned_plate):
        rho, tension = 1000.0, 10.0
        loading = LoadingState(tension, LiquidLoad(rho, 0.0))
        s_m, s_t = sensitivities(pinned_plate, loading, WAVELENGTH)

        def velocity(r, t):
            return loaded_velocity(
                pinned_plate, LoadingState(t, LiquidLoad(r, 0.0)), WAVELENGTH
            ).phase_velocity

        v0 = velocity(rho, tension)
        h_rho = 1e-6 * rho
        fd_m = (velocity(rho + h_rho, tension) - velocity(rho - h_rho, tension)) / (
            2 * h_rho * v0
        )
        h_t = 1e-6 * tension
        fd_t = (velocity(rho, tension + h_t) - velocity(rho, tension - h_t)) / (
            2 * h_t * v0
        )
        assert s_m == pytest.approx(fd_m, rel=1e-4)
        assert s_t == pytest.approx(fd_t, rel=1e-4)


def _round_trip(plate, density, viscosity, tension=0.0):
    """Density recovered from the frequency the loading model predicts."""
    solution = loaded_velocity(
        plate, LoadingState(tension, LiquidLoad(density, viscosity)), WAVELENGTH
    )
    return density_from_frequency(
        solution.resonant_frequency,
        plate,
        WAVELENGTH,
        assumed_viscosity=viscosity,
        tension=tension,
    )


class TestDensityFromFrequency:
    def test_round_trip_inviscid(self, pinned_plate):
        solution = loaded_velocity(
            pinned_plate, LoadingState(0.0, LiquidLoad(1000.0, 0.0)), WAVELENGTH
        )
        recovered = density_from_frequency(
            solution.resonant_frequency, pinned_plate, WAVELENGTH
        )
        assert recovered == pytest.approx(1000.0, rel=1e-9)

    def test_round_trip_viscous(self, pinned_plate):
        solution = loaded_velocity(
            pinned_plate, LoadingState(0.0, LiquidLoad(1200.0, 0.0015)), WAVELENGTH
        )
        recovered = density_from_frequency(
            solution.resonant_frequency,
            pinned_plate,
            WAVELENGTH,
            assumed_viscosity=0.0015,
        )
        assert recovered == pytest.approx(1200.0, rel=1e-8)

    def test_closed_form_value(self, pinned_plate):
        expected = closed_form_density(
            4.75e6,
            pinned_plate.bending_term(WAVELENGTH),
            pinned_plate.mass_per_area,
            0.0,
            WAVELENGTH,
        )
        value = density_from_frequency(4.75e6, pinned_plate, WAVELENGTH)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(9787.50304822, rel=1e-8)

    def test_frequency_above_unloaded_rejected(self, pinned_plate):
        with pytest.raises(NoSolutionError):
            density_from_frequency(5.9e6, pinned_plate, WAVELENGTH)

    @pytest.mark.parametrize(
        "frequency, tension",
        [(1e-150, 0.0), (1e-160, 0.0), (1e-300, 0.0), (1e6, 1.7e308)],
        ids=["nan-density", "v2-underflows", "v2-underflows-far",
             "tension-overflows-density"],
    )
    def test_non_finite_implied_density_refused(
        self, pinned_plate, frequency, tension
    ):
        with pytest.raises(NoSolutionError, match="not finite"):
            density_from_frequency(
                frequency, pinned_plate, WAVELENGTH, tension=tension
            )

    @pytest.mark.parametrize(
        "density, viscosity",
        [(10.0, 1.0), (100.0, 1.0), (120.0, 1.0), (50.0, 0.5), (60.0, 0.5)],
    )
    def test_round_trip_low_density_viscous(
        self, pinned_plate, density, viscosity
    ):
        recovered = _round_trip(pinned_plate, density, viscosity)
        assert recovered == pytest.approx(density, rel=1e-8)

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        density=st.floats(1.0, 2000.0),
        viscosity=st.floats(0.0, 1.0),
        tension=st.floats(0.0, 50.0),
    )
    def test_round_trip_over_validated_inputs(
        self, pinned_plate, density, viscosity, tension
    ):
        recovered = _round_trip(pinned_plate, density, viscosity, tension)
        assert recovered == pytest.approx(density, rel=1e-8)

    @pytest.mark.parametrize(
        "argument, value",
        [
            ("measured_frequency", math.nan),
            ("measured_frequency", math.inf),
            ("assumed_viscosity", math.nan),
            ("assumed_viscosity", math.inf),
            ("tension", math.nan),
            ("tension", math.inf),
            ("tension", -1.0),
        ],
    )
    def test_non_finite_or_negative_inputs_rejected(
        self, pinned_plate, argument, value
    ):
        arguments = {
            "measured_frequency": 4.75e6,
            "plate": pinned_plate,
            "wavelength": WAVELENGTH,
            argument: value,
        }
        with pytest.raises(ValueError, match="finite"):
            density_from_frequency(**arguments)

    @pytest.mark.parametrize(
        "name, value, refusal",
        range_cases("tension", 0.0, math.inf,
                    "tension must be finite and >= 0", True),
    )
    def test_tension_range(self, pinned_plate, name, value, refusal):
        invert = lambda: density_from_frequency(
            4.75e6, pinned_plate, WAVELENGTH, **{name: value}
        )
        assert_refusal(invert, refusal)

    def test_matches_bisection_oracle(self, pinned_plate):
        bending = pinned_plate.bending_term(WAVELENGTH)
        areal_mass = pinned_plate.mass_per_area
        rng = np.random.default_rng(23)
        for _ in range(200):
            tension = float(rng.uniform(0.0, 50.0))
            viscosity = float(rng.uniform(0.0, 1.0))
            unloaded_f = math.sqrt((tension + bending) / areal_mass) / WAVELENGTH
            # Log-spaced shifts below the liquid-free resonance reach
            # densities under 1 kg/m^3.
            shift = 10.0 ** float(rng.uniform(-4.0, -0.5))
            frequency = (1.0 - shift) * unloaded_f
            value = density_from_frequency(
                frequency,
                pinned_plate,
                WAVELENGTH,
                assumed_viscosity=viscosity,
                tension=tension,
            )
            oracle = bisect_density(
                frequency, bending, areal_mass, tension, viscosity, WAVELENGTH
            )
            assert value == pytest.approx(oracle, rel=1e-9)


class TestLoadTypes:
    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            LiquidLoad(-1.0, 0.0)

    def test_negative_viscosity_rejected(self):
        with pytest.raises(ValueError):
            LiquidLoad(1000.0, -0.1)

    @pytest.mark.parametrize("name, value, refusal", [
        *range_cases("density", 0.0, math.inf,
                     "liquid density must be finite and >= 0", True),
        *range_cases("viscosity", 0.0, math.inf,
                     "liquid viscosity must be finite and >= 0", True),
    ])
    def test_liquid_load_field_ranges(self, name, value, refusal):
        fields = {"density": 1000.0, "viscosity": 0.0, name: value}
        assert_refusal(lambda: LiquidLoad(**fields), refusal)

    def test_viscous_vacuum_rejected(self):
        with pytest.raises(ValueError):
            LiquidLoad(0.0, 0.1)

    def test_compressive_tension_rejected(self):
        with pytest.raises(ValueError):
            LoadingState(tension=-1.0)

    @pytest.mark.parametrize(
        "name, value, refusal",
        range_cases("tension", 0.0, math.inf,
                    "tension must be finite and >= 0", True),
    )
    def test_tension_range(self, name, value, refusal):
        assert_refusal(lambda: LoadingState(**{name: value}), refusal)
