import copy
import inspect
import math
import pickle
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from fpwsim import (
    ComParameters,
    CompositePlate,
    CouplingReport,
    DegenerateFitError,
    DeviceGeometry,
    LiquidLoad,
    LiquidSample,
    LoadingState,
    MaterialLayer,
    PRESET_LIQUIDS,
    VelocitySolution,
    fit_density_sensitivity,
    fpw_device_response,
    invert_density_calibrated,
    load_liquid_library,
    load_reference_datasets,
    loaded_velocity,
    predict_frequency,
    sensitivities,
    viscosity_coupling_report,
)
from fpwsim import liquid_sensing
from fpwsim.fpw_dispersion import tension_sensitivity
from conftest import PUBLISHED, WAVELENGTH, assert_refusal, range_cases
from oracles import bisect_loaded_velocity, former_report_values, former_solution_values

# Published calibration set in SI units (kg/m^3, Hz).
CALIBRATION_POINTS = ((787.0, 4.94e6), (1000.0, 4.75e6), (1200.0, 4.59e6))


class TestFitDensitySensitivity:
    def test_published_slope(self):
        fit = fit_density_sensitivity(CALIBRATION_POINTS)
        assert fit.slope_mhz_per_gcm3 == pytest.approx(
            PUBLISHED["fit_slope_mhz_gcm3"], abs=0.002
        )

    def test_two_points_interpolate_exactly(self):
        fit = fit_density_sensitivity([(800.0, 5e6), (1200.0, 4e6)])
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.slope * 800.0 + fit.intercept == pytest.approx(5e6, rel=1e-12)
        assert fit.slope * 1200.0 + fit.intercept == pytest.approx(4e6, rel=1e-12)

    def test_collinear_points_have_unit_r_squared(self):
        points = [(d, 6e6 - 900.0 * d) for d in (700.0, 1000.0, 1300.0)]
        fit = fit_density_sensitivity(points)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_identical_densities_rejected(self):
        with pytest.raises(DegenerateFitError):
            fit_density_sensitivity([(1000.0, 4.7e6), (1000.0, 4.8e6)])

    def test_overflowing_points_rejected(self):
        with pytest.raises(DegenerateFitError, match="overflow"):
            fit_density_sensitivity([(1e308, 4.75e6), (-1e308, 4.9e6)])

    @pytest.mark.parametrize("points", [
        [(1e300, 5e6), (1.5e300, 4e6)],  # sum of squared spreads is inf
        [(1e-300, 5e6), (2e-300, 4e6)],  # ... and here underflows to 0
    ])
    def test_spread_whose_square_leaves_the_floats_refused(self, points):
        assert_refusal(lambda: fit_density_sensitivity(points),
                       "calibration points overflow the fit")

    def test_reference_fit_bits(self):
        fit = fit_density_sensitivity(CALIBRATION_POINTS)
        assert (fit.slope, fit.intercept, fit.r_squared) == (
            -847.9397354046685, 5604265.329884581, 0.9990221573155327
        )

    def test_single_point_rejected(self):
        with pytest.raises(DegenerateFitError):
            fit_density_sensitivity([(1000.0, 4.75e6)])

    def test_affine_equivariance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            densities = rng.uniform(600, 1800, size=5)
            freqs = rng.uniform(4e6, 6e6, size=5)
            base = fit_density_sensitivity(zip(densities, freqs))
            shifted = fit_density_sensitivity(zip(densities, freqs + 1e5))
            assert shifted.slope == pytest.approx(base.slope, rel=1e-9)
            assert shifted.intercept == pytest.approx(
                base.intercept + 1e5, rel=1e-9
            )
            scale = 2.5
            scaled = fit_density_sensitivity(zip(densities * scale, freqs))
            assert scaled.slope == pytest.approx(base.slope / scale, rel=1e-9)


class TestPredictFrequency:
    def test_unloaded_reference_plate(self, pinned_plate):
        value = predict_frequency(pinned_plate, WAVELENGTH)
        assert value == pytest.approx(PUBLISHED["unloaded_frequency"], rel=1e-3)

    def test_water_matches_oracle(self, pinned_plate):
        value = predict_frequency(
            pinned_plate, WAVELENGTH, PRESET_LIQUIDS["water"]
        )
        oracle_v = bisect_loaded_velocity(
            pinned_plate.bending_term(WAVELENGTH),
            pinned_plate.mass_per_area,
            0.0,
            1000.0,
            0.001,
            WAVELENGTH,
        )
        assert value == pytest.approx(oracle_v / WAVELENGTH, rel=1e-9)

    @pytest.mark.parametrize(
        "liquid, tension",
        [
            (None, 0.0),
            (None, 25.0),
            (LiquidSample("inviscid", 1000.0, 0.0), 10.0),
            (PRESET_LIQUIDS["water"], 0.0),
            (PRESET_LIQUIDS["glycerol"], 50.0),
            (LiquidSample("thin", 1e-3, 10.0), 100.0),
        ],
    )
    def test_equals_loaded_velocity_exactly(self, pinned_plate, liquid, tension):
        load = None if liquid is None else LiquidLoad(liquid.density, liquid.viscosity)
        solution = loaded_velocity(
            pinned_plate, LoadingState(tension, load), WAVELENGTH
        )
        value = predict_frequency(pinned_plate, WAVELENGTH, liquid, tension)
        assert value == solution.resonant_frequency

    def test_negative_tension_rejected(self, pinned_plate):
        with pytest.raises(ValueError):
            predict_frequency(pinned_plate, WAVELENGTH, tension=-1.0)

    @pytest.mark.parametrize(
        "name, value, refusal",
        range_cases("tension", 0.0, math.inf,
                    "tension must be finite and >= 0", True),
    )
    def test_tension_range(self, pinned_plate, name, value, refusal):
        predict = lambda: predict_frequency(pinned_plate, WAVELENGTH, **{name: value})
        assert_refusal(predict, refusal)

    def test_density_ordering(self, pinned_plate):
        f_water = predict_frequency(
            pinned_plate, WAVELENGTH, PRESET_LIQUIDS["water"]
        )
        f_saline = predict_frequency(
            pinned_plate, WAVELENGTH, PRESET_LIQUIDS["saline"]
        )
        assert f_saline < f_water

    def test_viscosity_ordering_at_equal_density(self, pinned_plate):
        f_saline = predict_frequency(
            pinned_plate, WAVELENGTH, PRESET_LIQUIDS["saline"]
        )
        f_glycerol = predict_frequency(
            pinned_plate, WAVELENGTH, PRESET_LIQUIDS["glycerol"]
        )
        assert f_glycerol < f_saline


class TestInvertDensityCalibrated:
    def test_round_trip_on_fit_points(self):
        fit = fit_density_sensitivity([(800.0, 5e6), (1200.0, 4e6)])
        for density, frequency in fit.points:
            value, extrapolated = invert_density_calibrated(frequency, fit)
            assert value == pytest.approx(density, rel=1e-12)
            assert not extrapolated

    def test_reference_inversion_near_unit_density(self):
        fit = fit_density_sensitivity(CALIBRATION_POINTS)
        value, extrapolated = invert_density_calibrated(4.75e6, fit)
        assert value / 1000.0 == pytest.approx(1.0, abs=0.01)
        assert not extrapolated

    def test_range_kept_once_without_changing_equality(self):
        fit = fit_density_sensitivity(CALIBRATION_POINTS)
        fresh = fit_density_sensitivity(CALIBRATION_POINTS)
        text = repr(fit)
        assert fit.frequency_range == (4.59e6, 4.94e6)
        assert fit.frequency_range is fit.frequency_range
        assert fit == fresh
        assert hash(fit) == hash(fresh)
        assert repr(fit) == text

    def test_out_of_range_flagged(self):
        fit = fit_density_sensitivity(CALIBRATION_POINTS)
        _, extrapolated = invert_density_calibrated(6.0e6, fit)
        assert extrapolated

    def test_zero_slope_rejected(self):
        fit = fit_density_sensitivity([(800.0, 5e6), (1200.0, 5e6)])
        assert fit.slope == 0.0
        with pytest.raises(ValueError):
            invert_density_calibrated(5e6, fit)

    @pytest.mark.parametrize(
        "frequency", [math.nan, math.inf, -math.inf, 0.0, -5e6]
    )
    def test_refuses_non_finite_and_non_positive_frequency(self, frequency):
        fit = fit_density_sensitivity(CALIBRATION_POINTS)
        with pytest.raises(
            ValueError, match="measured frequency must be finite and > 0"
        ):
            invert_density_calibrated(frequency, fit)

    def test_line_evaluation_round_trip(self):
        fit = fit_density_sensitivity(CALIBRATION_POINTS)
        for density in (700.0, 950.0, 1333.0):
            frequency = fit.slope * density + fit.intercept
            value, _ = invert_density_calibrated(frequency, fit)
            assert value == pytest.approx(density, rel=1e-12)


class TestViscosityCouplingReport:
    # At 5e-324, the least density validation takes, both masses are 0.
    @pytest.mark.parametrize("density", [1000.0, 5e-324])
    def test_inviscid_liquid_is_valid(self, pinned_plate, density):
        report = viscosity_coupling_report(
            LiquidSample("ideal", density, 0.0), pinned_plate, WAVELENGTH
        )
        assert report.ratio == 0.0
        assert report.density_sensing_valid
        assert report.verdict == "density sensing valid"

    def test_glycerol_flagged_coupled(self, pinned_plate):
        report = viscosity_coupling_report(
            PRESET_LIQUIDS["glycerol"], pinned_plate, WAVELENGTH
        )
        assert not report.density_sensing_valid
        assert "not invertible" in report.verdict

    @pytest.mark.parametrize("name", ["water", "ipa", "saline"])
    def test_low_viscosity_liquids_pass(self, pinned_plate, name):
        report = viscosity_coupling_report(
            PRESET_LIQUIDS[name], pinned_plate, WAVELENGTH
        )
        assert report.density_sensing_valid

    def test_verdict_monotone_in_viscosity(self, pinned_plate):
        flipped = False
        for viscosity in np.geomspace(1e-4, 1.0, 25):
            report = viscosity_coupling_report(
                LiquidSample("x", 1200.0, float(viscosity)),
                pinned_plate,
                WAVELENGTH,
            )
            if not report.density_sensing_valid:
                flipped = True
            elif flipped:
                pytest.fail("verdict flipped back to valid at higher viscosity")

    def test_masses_reported(self, pinned_plate):
        report = viscosity_coupling_report(
            PRESET_LIQUIDS["water"], pinned_plate, WAVELENGTH
        )
        assert report.entrained_mass == pytest.approx(
            1000.0 * WAVELENGTH / (2 * np.pi), rel=1e-12, abs=0.0
        )
        assert report.ratio == pytest.approx(
            report.viscous_mass / (report.viscous_mass + report.entrained_mass),
            rel=1e-12,
            abs=0.0,
        )

    def test_solves_through_module_level_loaded_velocity_once(
        self, pinned_plate, monkeypatch
    ):
        # The benchmark's tracer times the loading solve by wrapping this
        # module-level name; a report that solved some other way would drop
        # the loaded_velocity layer from the traced density_roundtrip run.
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return loaded_velocity(*args, **kwargs)

        monkeypatch.setattr(liquid_sensing, "loaded_velocity", counting)
        report = viscosity_coupling_report(
            PRESET_LIQUIDS["glycerol"], pinned_plate, WAVELENGTH
        )
        assert len(calls) == 1
        assert report.viscous_mass == loaded_velocity(*calls[0]).viscous_mass


# Each library entry that solves a loaded operating point, as
# entry(plate, wavelength, liquid, tension); the coupling report takes no
# tension.
SOLVES = {
    "loaded_velocity": lambda plate, wavelength, liquid, tension: loaded_velocity(
        plate, LoadingState(tension, liquid), wavelength
    ),
    "predict_frequency": lambda plate, wavelength, liquid, tension: (
        predict_frequency(plate, wavelength, liquid, tension)
    ),
    "coupling_report": lambda plate, wavelength, liquid, tension: (
        viscosity_coupling_report(liquid, plate, wavelength)
    ),
    "fpw_device_response": lambda plate, wavelength, liquid, tension: (
        fpw_device_response(plate, LoadingState(tension, liquid),
                            DeviceGeometry(wavelength),
                            ComParameters(free_velocity=1.0))
    ),
}
TENSIONED = {k: v for k, v in SOLVES.items() if k != "coupling_report"}


@pytest.mark.parametrize("viscosity", [0.0, 1.0])
@pytest.mark.parametrize("entry", SOLVES.values(), ids=SOLVES.keys())
def test_underflowing_velocity_refused(entry, viscosity):
    # A valid plate and liquid whose inviscid velocity sqrt(B / (M + rho
    # delta_E)) underflows to 0; the viscous solve would divide by it.
    plate = CompositePlate.from_layers(
        [MaterialLayer("x", 1e-100, 1.092e10, 0.3, 1000.0)]
    )
    with pytest.raises(FloatingPointError) as caught:
        entry(plate, 1e-3, LiquidSample("heavy", 1e300, viscosity), 0.0)
    assert str(caught.value) == (
        "loaded resonant frequency underflows to 0 at liquid density "
        "1e+300 kg/m^3"
    )


@pytest.mark.parametrize("entry", SOLVES.values(), ids=SOLVES.keys())
def test_non_finite_viscous_velocity_refused(entry, pinned_plate):
    # A valid, finite density whose viscous loading overflows h * h to NaN.
    with pytest.raises(FloatingPointError) as caught:
        entry(pinned_plate, WAVELENGTH, LiquidSample("goo", 1e250, 1.0), 0.0)
    assert str(caught.value) == (
        "loaded velocity is not finite at liquid density 1e+250 kg/m^3"
    )


@pytest.mark.parametrize("entry", TENSIONED.values(), ids=TENSIONED.keys())
def test_overflowing_tension_refused(entry, pinned_plate):
    # Finite and >= 0, so LoadingState accepts it, but (T + B) / M overflows.
    with pytest.raises(ValueError) as caught:
        entry(pinned_plate, WAVELENGTH, None, 1.7e308)
    assert str(caught.value) == (
        "the loaded velocity sqrt((T + B) / (M + rho delta_E)) overflows"
    )


def _nitride_plate(thickness):
    """One silicon nitride layer: at 10 um every drawn liquid sees a phase
    velocity above 0.3 of the water sound speed, at 1.352 um water sees
    0.3005 of it."""
    return CompositePlate.from_layers(
        [MaterialLayer("SiNx", thickness, 3.85e11, 0.27, 3100.0)]
    )


LIQUIDS = st.one_of(
    st.none(),
    st.builds(
        LiquidLoad,
        st.floats(1e-3, 2e4),
        st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(0.0, 1e-200)),
    ),
)


class TestRecordsDeriveTheRest:
    """The loading records store what the solve produced and derive the rest
    on read, with the bits of the formulas that used to fill stored fields."""

    def test_stored_fields(self):
        assert [f.name for f in fields(VelocitySolution)] == [
            "phase_velocity", "viscous_mass", "wavelength", "liquid"
        ]
        assert [f.name for f in fields(CouplingReport)] == [
            "viscous_mass", "entrained_mass"
        ]

    @settings(
        max_examples=500,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        liquid=LIQUIDS,
        tension=st.floats(0.0, 100.0),
        thickness=st.one_of(st.none(), st.floats(0.5e-6, 10e-6)),
    )
    @example(liquid=LiquidLoad(1000.0, 0.001), tension=0.0, thickness=10e-6)
    @example(liquid=LiquidLoad(1000.0, 0.001), tension=0.0, thickness=1.352e-6)
    @example(liquid=LiquidLoad(1e-3, 1e-300), tension=100.0, thickness=None)
    @example(liquid=LiquidLoad(2e4, 0.0), tension=0.0, thickness=10e-6)
    def test_bit_identical_to_former_stored_formulas(
        self, pinned_plate, liquid, tension, thickness
    ):
        # No thickness: the pinned reference plate.
        plate = pinned_plate if thickness is None else _nitride_plate(thickness)
        solution = loaded_velocity(plate, LoadingState(tension, liquid), WAVELENGTH)
        expected = former_solution_values(
            solution.phase_velocity,
            solution.viscous_mass,
            WAVELENGTH,
            None if liquid is None else (liquid.density, liquid.viscosity),
        )
        assert {name: getattr(solution, name) for name in expected} == expected
        if liquid is None:
            return

        report = viscosity_coupling_report(
            LiquidSample("x", liquid.density, liquid.viscosity), plate, WAVELENGTH
        )
        tension_free = loaded_velocity(
            plate,
            LoadingState(0.0, LiquidLoad(liquid.density, liquid.viscosity)),
            WAVELENGTH,
        )
        expected = former_report_values(
            tension_free.viscous_mass, liquid.density, WAVELENGTH
        )
        assert {name: getattr(report, name) for name in expected} == expected

    def test_records_are_immutable(self, pinned_plate):
        solution = loaded_velocity(
            pinned_plate, LoadingState(0.0, LiquidLoad(1000.0, 0.001)), WAVELENGTH
        )
        report = viscosity_coupling_report(
            PRESET_LIQUIDS["water"], pinned_plate, WAVELENGTH
        )
        derived = {
            solution: ("resonant_frequency", "evanescent_length",
                       "viscous_length", "sound_speed_ratio", "warnings"),
            report: ("ratio", "density_sensing_valid", "verdict"),
        }
        for record, names in derived.items():
            for name in [f.name for f in fields(record)] + list(names):
                with pytest.raises(FrozenInstanceError):
                    setattr(record, name, getattr(record, name))

    def test_equal_inputs_give_equal_records(self, pinned_plate, reference_layers):
        twin = CompositePlate.from_layers(
            reference_layers, {"mass_per_area": pinned_plate.mass_per_area}
        )
        records = [
            (
                loaded_velocity(
                    plate, LoadingState(2.74, LiquidLoad(1200.0, 0.934)), WAVELENGTH
                ),
                viscosity_coupling_report(
                    LiquidSample("glycerol", 1200.0, 0.934), plate, WAVELENGTH
                ),
            )
            for plate in (pinned_plate, twin)
        ]
        for first, second in zip(*records):
            assert first is not second
            assert first == second
            assert hash(first) == hash(second)


# The records every density op builds, with a hand-written __init__ that
# fills __dict__ directly, each with positional arguments that it accepts.
_HAND_BUILT = {
    LiquidSample: ("glycerol", 1260.0, 0.934),
    LoadingState: (2.74, LiquidSample("water", 1000.0, 0.001)),
    VelocitySolution: (190.05, 1.5e-4, 40e-6, LiquidLoad(1000.0, 0.001)),
    CouplingReport: (1.5e-4, 6.4e-3),
}


@pytest.mark.parametrize("cls", list(_HAND_BUILT), ids=lambda c: c.__name__)
class TestHandWrittenInit:
    """A hand-written __init__ keeps the generated one's contract: the same
    parameters as the init fields, and the dataclass's frozen semantics."""

    def test_signature_matches_fields(self, cls):
        params = inspect.signature(cls).parameters.values()
        empty = inspect.Parameter.empty
        assert [(p.name, p.kind, p.default) for p in params] == [
            (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
             empty if f.default is MISSING else f.default)
            for f in fields(cls) if f.init
        ]

    def test_keyword_built_equals_positional(self, cls):
        args = _HAND_BUILT[cls]
        record = cls(*args)
        names = [f.name for f in fields(cls)]
        assert cls(**dict(zip(names, args))) == record
        assert vars(record) == dict(zip(names, args))
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, args))
        assert repr(record) == f"{cls.__name__}({shown})"

    def test_copies_are_equal(self, cls):
        record = cls(*_HAND_BUILT[cls])
        for twin in (replace(record), copy.copy(record),
                     pickle.loads(pickle.dumps(record))):
            assert twin is not record
            assert twin == record
            assert hash(twin) == hash(record)

    def test_frozen(self, cls):
        record = cls(*_HAND_BUILT[cls])
        for f in fields(cls):
            with pytest.raises(FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))
            with pytest.raises(FrozenInstanceError):
                delattr(record, f.name)


def test_replace_runs_the_range_checks():
    sample = LiquidSample("water", 1000.0, 0.001)
    assert_refusal(lambda: replace(sample, density=-1.0),
                   "liquid density must be finite and > 0")
    assert_refusal(lambda: replace(sample, viscosity=math.nan),
                   "liquid viscosity must be finite and >= 0")
    assert_refusal(lambda: replace(LoadingState(), tension=math.inf),
                   "tension must be finite and >= 0")


class TestLiquidSampleIsALoad:
    """A LiquidSample goes into a LoadingState as it is and gives every
    result a LiquidLoad of the same density and viscosity gives."""

    def test_sample_fields_unchanged(self):
        assert [f.name for f in fields(LiquidSample)] == [
            "name", "density", "viscosity"
        ]

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        density=st.floats(1e-3, 2e4),
        viscosity=st.one_of(st.just(0.0), st.floats(0.0, 10.0),
                            st.floats(0.0, 1e-200)),
        tension=st.floats(0.0, 100.0),
        thickness=st.one_of(st.none(), st.floats(0.5e-6, 10e-6)),
    )
    @example(density=1000.0, viscosity=0.001, tension=0.0, thickness=10e-6)
    def test_same_results_as_liquid_load(
        self, pinned_plate, bulk_geometry, bulk_params, density, viscosity,
        tension, thickness,
    ):
        plate = pinned_plate if thickness is None else _nitride_plate(thickness)
        sample = LiquidSample("x", density, viscosity)
        loads = [LoadingState(tension, sample),
                 LoadingState(tension, LiquidLoad(density, viscosity))]

        by_sample, by_load = (loaded_velocity(plate, load, WAVELENGTH)
                              for load in loads)
        assert by_sample.liquid is sample
        names = {f.name for f in fields(VelocitySolution)} | {
            n for n in dir(VelocitySolution) if not n.startswith("_")
        }
        names.remove("liquid")
        assert {"phase_velocity", "warnings"} <= names
        assert ({n: getattr(by_sample, n) for n in names}
                == {n: getattr(by_load, n) for n in names})
        assert (sensitivities(plate, loads[0], WAVELENGTH)
                == sensitivities(plate, loads[1], WAVELENGTH))

        sweeps = [
            fpw_device_response(plate, load, bulk_geometry, bulk_params,
                                points=101, include_viscous_loss=True)
            for load in loads
        ]
        for name in ("frequencies", "s21", "gap_indices"):
            np.testing.assert_array_equal(
                getattr(sweeps[0], name), getattr(sweeps[1], name)
            )

        # The report as it was, when it copied the sample into a LiquidLoad.
        former = loaded_velocity(plate, LoadingState(0.0, loads[1].liquid),
                                 WAVELENGTH)
        expected = former_report_values(former.viscous_mass, density, WAVELENGTH)
        report = viscosity_coupling_report(sample, plate, WAVELENGTH)
        assert {name: getattr(report, name) for name in expected} == expected

    def test_report_loads_the_sample_itself(self, pinned_plate, monkeypatch):
        loadings = []

        def recording(plate, loading, wavelength):
            loadings.append(loading)
            return loaded_velocity(plate, loading, wavelength)

        monkeypatch.setattr(liquid_sensing, "loaded_velocity", recording)
        sample = PRESET_LIQUIDS["glycerol"]
        viscosity_coupling_report(sample, pinned_plate, WAVELENGTH)
        assert len(loadings) == 1
        assert loadings[0].liquid is sample


class TestTensionEffect:
    """First-order tension shift f0 * s_T * T, from ``tension_sensitivity``."""

    def test_back_solved_tension_reproduces_published_shift(self):
        f0 = 5.876e6
        s_t = tension_sensitivity(0.0, 6497.93)
        tension = 1.24e3 / (f0 * s_t)
        assert tension == pytest.approx(2.74, abs=0.01)
        assert f0 * s_t * tension == pytest.approx(1.24e3, rel=1e-9)

    def test_tension_shift_negligible_next_to_water_loading(self, pinned_plate):
        f_air = predict_frequency(pinned_plate, WAVELENGTH)
        f_water = predict_frequency(
            pinned_plate, WAVELENGTH, PRESET_LIQUIDS["water"]
        )
        s_t = tension_sensitivity(0.0, pinned_plate.bending_term(WAVELENGTH))
        tension = 1.24e3 / (f_air * s_t)
        shift = f_air * s_t * tension
        assert abs(shift) / abs(f_water - f_air) < 0.01


class TestReferenceDatasets:
    def test_low_viscosity_cases(self):
        data = load_reference_datasets()
        by_name = {c.liquid_name: c for c in data.low_viscosity_cases}
        assert by_name["ipa"].frequency == pytest.approx(4.94e6)
        assert by_name["water"].frequency == pytest.approx(4.75e6)
        assert by_name["saline"].frequency == pytest.approx(4.59e6)
        assert by_name["water"].phase_velocity == pytest.approx(190.05)

    def test_viscosity_comparison_cases(self):
        data = load_reference_datasets()
        by_name = {c.liquid_name: c for c in data.viscosity_cases}
        assert by_name["saline"].measured_frequency == pytest.approx(4.98e6)
        assert by_name["saline"].measured_insertion_loss_db == pytest.approx(-33.38)
        assert by_name["glycerol"].measured_frequency == pytest.approx(4.73e6)
        assert by_name["glycerol"].measured_insertion_loss_db == pytest.approx(-37.04)
        # Reported ordering: the viscous liquid sits below at equal density.
        assert (
            by_name["glycerol"].predicted_frequency
            < by_name["saline"].predicted_frequency
        )

    def test_unloaded_measurement(self):
        data = load_reference_datasets()
        assert data.unloaded_measured_frequency == pytest.approx(5.53e6)
        assert data.unloaded_predicted_frequency == pytest.approx(5.88e6)

    def test_calibration_points_match_cases(self):
        data = load_reference_datasets()
        assert data.calibration_points() == CALIBRATION_POINTS


class TestLiquidLibrary:
    def test_parses_presets(self):
        text = (
            "# comment line\n"
            "water 1000 0.001\n"
            "glycerol 1200 0.934  # viscous\n"
        )
        library = load_liquid_library(text)
        assert set(library) == {"water", "glycerol"}
        assert library["glycerol"].viscosity == 0.934

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            load_liquid_library("water 1000 0.001\nbroken 1 2 3 4\n")

    def test_bad_number_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            load_liquid_library("water thick 0.001\n")

    @pytest.mark.parametrize(
        "bad_line",
        ["broken 1", "water thick 0.001", "water nan 0.001", "water 1000 inf",
         "water -5 0.001", "water 0 0.001", "water 1000 -1"],
    )
    def test_bad_line_after_comments_names_its_line(self, bad_line):
        text = f"# liquids\n\n   \n  # note\nsaline 1200 0.0015\n{bad_line}\n"
        with pytest.raises(ValueError, match="^liquid library line 6: "):
            load_liquid_library(text)


    def test_repeated_name_rejected_naming_the_first(self):
        text = "water 1000 0.001\n# tap water\nWater 2000 0.5\n"
        with pytest.raises(ValueError, match=(
            "^liquid library line 3: duplicate liquid name 'Water', "
            "first on line 1$"
        )):
            load_liquid_library(text)


class TestDomainTypes:
    def test_liquid_sample_validation(self):
        with pytest.raises(ValueError):
            LiquidSample("x", 0.0, 0.0)
        with pytest.raises(ValueError):
            LiquidSample("x", 1000.0, -1.0)

    @pytest.mark.parametrize("name, value, refusal", [
        *range_cases("density", 0.0, math.inf,
                     "liquid density must be finite and > 0"),
        *range_cases("viscosity", 0.0, math.inf,
                     "liquid viscosity must be finite and >= 0", True),
    ])
    def test_liquid_sample_field_ranges(self, name, value, refusal):
        # A NaN here used to reach predict_frequency and
        # viscosity_coupling_report and come back as a NaN frequency or ratio.
        fields = {"name": "x", "density": 1000.0, "viscosity": 0.001, name: value}
        assert_refusal(lambda: LiquidSample(**fields), refusal)
