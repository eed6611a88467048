import errno
import hashlib
import itertools
import os
import platform
import re
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fpwsim
from fpwsim import (
    ComParameters,
    ConfigError,
    DeviceGeometry,
    LiquidLoad,
    LoadingState,
    MaterialLayer,
    PRESET_LIQUIDS,
    loaded_velocity,
    parse_device_config,
    s21_sweep,
)
from fpwsim.cli import _bundled, main, run
from fpwsim.config import parse_calibration_points, parse_density
from conftest import WAVELENGTH
from oracles import reference_csv

MINIMAL_CONFIG = """
[layer]
thickness = 1e-6
young_modulus = 1e11
poisson_ratio = 0.3
density = 3000

[geometry]
wavelength = 40e-6
"""

CALIBRATION_FILE = """\
# density frequency
0.787g/cm3 4.94e6
1.0g/cm3   4.75e6
1.2g/cm3   4.59e6
"""


@pytest.fixture
def points_file(tmp_path):
    path = tmp_path / "points.txt"
    path.write_text(CALIBRATION_FILE)
    return str(path)


# Faults the bundled config refuses at one line, in file order: (id, text,
# faulty text, line named). A [layer] is named at its header; None appends.
_LINE_FAULTS = [
    ("layer-field", "poisson_ratio = 0.27", "poisson_ratio = 0.7", 4),
    ("layer-malformed", "density = 7600", "density = 76OO", 16),
    ("geometry-value", "idt_pairs = 20", "idt_pairs = 0", 20),
    ("geometry-empty-value", "grating_strips = 40", "grating_strips =", 21),
    ("geometry-unknown-key", "idt_separation = 10", "idt_seperation = 10", 23),
    ("com-value", "transduction_strength = 0.4", "transduction_strength = 2", 30),
    ("com-malformed", "attenuation = 0.0", "attenuation = none", 32),
    ("override-unknown-key", "mass_per_area = ", "mass_per_aera = ", 35),
    ("appended-layer-field", None, "[layer]\nthickness = -1\n"
     "young_modulus = 1e11\npoisson_ratio = 0.3\ndensity = 3000\n", 36),
]


def _with_faults(*faults) -> str:
    text = _bundled("reference_device.cfg")
    for _, old, new, _ in faults:
        text = text + new if old is None else text.replace(old, new, 1)
    return text


class TestParseDeviceConfig:
    def test_bundled_reference_device(self):
        result = run(["plate"])
        assert result.exit_status == 0

    def test_bundled_values(self):
        from fpwsim.cli import _bundled

        cfg = parse_device_config(_bundled("reference_device.cfg"))
        assert cfg.geometry.wavelength == pytest.approx(WAVELENGTH)
        assert cfg.geometry.idt_pairs == 20
        assert cfg.geometry.grating_strips == 40
        assert cfg.geometry.overlap == 50.0
        assert cfg.geometry.idt_separation == 10.0
        assert cfg.geometry.grating_gap == pytest.approx(5e-6)
        assert cfg.com_velocity == 2400.0
        assert cfg.overrides == {"mass_per_area": 0.1176}
        assert len(cfg.layers) == 2

    def test_minimal_config_applies_defaults(self):
        cfg = parse_device_config(MINIMAL_CONFIG)
        assert cfg.geometry.idt_pairs == 20
        assert cfg.geometry.grating_gap == pytest.approx(5e-6)
        params = cfg.com_parameters(free_velocity=2400.0)
        assert params.strip_reflectivity == 0.02
        assert params.attenuation == 0.0

    def test_com_parameters_need_a_velocity(self):
        cfg = parse_device_config(MINIMAL_CONFIG)
        with pytest.raises(ConfigError, match="no free velocity"):
            cfg.com_parameters()

    def test_config_may_end_in_a_layer(self):
        text = _bundled("reference_device.cfg")
        layers, rest = text.split("[geometry]")
        moved = parse_device_config("[geometry]" + rest + layers)
        assert moved == parse_device_config(text)

    def test_typo_key_names_line(self):
        text = "[geometry]\nwavelenght = 40e-6\n"
        with pytest.raises(ConfigError, match="line 2"):
            parse_device_config(text)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"line 1.*\[idt\]"):
            parse_device_config("[idt]\npairs = 20\n")

    def test_malformed_number_names_line(self):
        text = "[geometry]\nwavelength = forty\n"
        with pytest.raises(ConfigError, match="line 2"):
            parse_device_config(text)

    def test_missing_wavelength_rejected(self):
        with pytest.raises(ConfigError, match="wavelength"):
            parse_device_config("[geometry]\nidt_pairs = 20\n")

    def test_duplicate_key_rejected(self):
        text = "[geometry]\nwavelength = 40e-6\nwavelength = 30e-6\n"
        with pytest.raises(ConfigError, match="line 3"):
            parse_device_config(text)

    def test_spacing_index_and_gap_conflict(self):
        text = (
            "[geometry]\nwavelength = 40e-6\nspacing_index = 0\n"
            "grating_gap = 5e-6\n"
        )
        with pytest.raises(ConfigError, match="not both"):
            parse_device_config(text)

    def test_incomplete_layer_rejected(self):
        text = "[layer]\nthickness = 1e-6\n[geometry]\nwavelength = 40e-6\n"
        with pytest.raises(ConfigError, match="missing"):
            parse_device_config(text)

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_device_config("wavelength = 40e-6\n")

    def test_layers_stack_in_order(self):
        from fpwsim.cli import _bundled

        cfg = parse_device_config(_bundled("reference_device.cfg"))
        assert [l.name for l in cfg.layers] == ["SiNx", "PZT+LSMO"]

    @pytest.mark.parametrize(
        "text, first_error",
        [
            (
                "[layer]\nthickness = 1e-6\n[geometry]\nwavelenght = 40e-6\n",
                r"^line 1: \[layer\] section is missing",
            ),
            (
                "[layer]\nthickness = 1e-6\nyoung_modulus = 1e11\n"
                "poisson_ratio = 0.3\ndensity = -1\n[geometry]\nwavelength = x\n",
                r"^line 1: layer 'layer1': density must be > 0$",
            ),
        ],
    )
    def test_layer_error_reported_before_later_lines(self, text, first_error):
        with pytest.raises(ConfigError, match=first_error):
            parse_device_config(text)

    @pytest.mark.parametrize(
        "first, second",
        [pytest.param(a, b, id=f"{a[0]}+{b[0]}")
         for a, b in itertools.combinations(_LINE_FAULTS, 2)],
    )
    def test_earlier_of_two_line_faults_is_named(self, first, second):
        with pytest.raises(ConfigError) as alone:
            parse_device_config(_with_faults(first))
        assert alone.value.lineno == first[3]
        with pytest.raises(ConfigError) as both:
            parse_device_config(_with_faults(first, second))
        assert str(both.value) == str(alone.value)

    def test_every_dataclass_field_is_a_key(self):
        # Distinct values, so one landing in the wrong field shows; the
        # Python type of each value is the type the field must come back as.
        layer = dict(
            name="film", thickness=1.5e-6, young_modulus=2e11,
            poisson_ratio=0.21, density=2500.0,
        )
        geometry = dict(
            wavelength=3e-5, idt_pairs=7, grating_strips=12, overlap=33.0,
            idt_separation=4.5, grating_gap=2e-6,
        )
        com = dict(
            free_velocity=2100.0, strip_reflectivity=0.03, reflection_phase=0.1,
            transduction_strength=0.2, static_capacitance_per_pair=2e-12,
            attenuation=3.0,
        )
        sections = [
            ("layer", MaterialLayer, layer),
            ("geometry", DeviceGeometry, geometry),
            ("com", ComParameters, com),
        ]
        text = ""
        for section, cls, values in sections:
            assert set(values) == {f.name for f in fields(cls)}
            text += f"[{section}]\n"
            for name, value in values.items():
                key = "velocity" if name == "free_velocity" else name
                text += f"{key} = {value}\n"
        cfg = parse_device_config(text)
        built = [cfg.layers[0], cfg.geometry, cfg.com_parameters()]
        for (_, _, values), obj in zip(sections, built):
            for name, value in values.items():
                got = getattr(obj, name)
                assert (name, got, type(got)) == (name, value, type(value))


def _bundled_with(replacement: str) -> str:
    """The bundled config with the line of ``replacement``'s key replaced."""
    key = replacement.split("=", 1)[0].strip()
    text = _bundled("reference_device.cfg")
    return re.sub(rf"(?m)^{key} = .*$", replacement, text, count=1)


_HEAVY_LAYER = (
    "[layer]\nthickness = 1e8\nyoung_modulus = 1e11\npoisson_ratio = 0.3\n"
    "density = 1e300\n"
)
_GAP_MESSAGE = (
    "designed grating gap (1/8 + spacing index/2) * wavelength must be finite"
)
_NUMBER = re.compile(r"\s*[-+]?\.?\d")
_VALUE_MENU = ["0", "-1", "1e-310", "1e-120", "1e97", "1e300", "1.7e308"]
# The only config refusals that have no line to name.
_LINELESS_REFUSALS = {
    "missing required [geometry] key 'wavelength'",
    "configuration defines no layers",
}


def _run_plate(config: str):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "device.cfg"
        path.write_text(config)
        return run(["--config", str(path), "plate"])


class TestDensityParsing:
    def test_si_plain(self):
        assert parse_density("1000") == 1000.0

    def test_gcm3_suffix(self):
        assert parse_density("1.2g/cm3") == pytest.approx(1200.0)

    def test_points_file(self):
        points = parse_calibration_points(CALIBRATION_FILE)
        assert points[0] == (pytest.approx(787.0), 4.94e6)
        assert len(points) == 3

    def test_points_file_bad_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_calibration_points("only_one_field\n")

    @pytest.mark.parametrize(
        "bad_line", ["only_one_field", "dense 4.75e6", "1.0g/cm3 nan", "inf 4.75e6"]
    )
    def test_bad_line_after_comments_names_its_line(self, bad_line):
        text = f"# density frequency\n\n   \n  # note\n1.0g/cm3 4.75e6\n{bad_line}\n"
        with pytest.raises(ValueError, match="^points file line 6: "):
            parse_calibration_points(text)


class TestPlateCommand:
    def test_reference_values_printed(self):
        result = run(["plate"])
        assert result.exit_status == 0
        text = "\n".join(result.summary)
        assert "young_modulus_n_m2: 2.420000000e+11" in text
        assert "poisson_ratio: 2.604347826e-01" in text
        assert "override; computed 1.208000000e-02" in text
        assert "bending_term_n_m: 6.494721385e+03" in text

    def test_single_layer_config(self, tmp_path):
        path = tmp_path / "one.cfg"
        path.write_text(MINIMAL_CONFIG)
        result = run(["--config", str(path), "plate"])
        assert result.exit_status == 0
        text = "\n".join(result.summary)
        assert "young_modulus_n_m2: 1.000000000e+11" in text

    def test_empty_stack_exits_2(self, tmp_path):
        path = tmp_path / "nolayers.cfg"
        path.write_text("[geometry]\nwavelength = 40e-6\n")
        result = run(["--config", str(path), "plate"])
        assert result.exit_status == 2
        assert result.errors

    @pytest.mark.parametrize(
        "geometry, line",
        [
            ("wavelength = 40e-6\nspacing_index = -1\n", "line 10"),
            ("wavelength = -40e-6\n", "line 9"),
        ],
    )
    def test_invalid_spacing_rule_exits_2_naming_line(
        self, tmp_path, geometry, line
    ):
        path = tmp_path / "bad.cfg"
        path.write_text(MINIMAL_CONFIG.replace("wavelength = 40e-6\n", geometry))
        result = run(["--config", str(path), "plate"])
        assert result.exit_status == 2
        assert line in result.errors[0]

    @pytest.mark.parametrize("command", ["plate", "dispersion"])
    @pytest.mark.parametrize(
        "override",
        ["mass_per_area = -1", "poisson_ratio = 2", "plate_modulus = -1e11",
         "poisson_ratio = -0.5"],
    )
    def test_bad_override_exits_2_naming_its_line(
        self, tmp_path, capsys, command, override
    ):
        path = tmp_path / "pinned.cfg"
        path.write_text(
            MINIMAL_CONFIG + f"[override]\ntotal_thickness = 2e-6\n{override}\n"
        )
        status = main(["--config", str(path), command])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        key = override.split()[0]
        assert captured.err.startswith(f"error: line 12: {key} must ")

    @pytest.mark.parametrize("command", ["plate", "dispersion", "s21"])
    @pytest.mark.parametrize(
        "pinned, line, message",
        [
            # The stack passes unpinned, so the pinned value that alone
            # overflows a derived one is blamed, not the wavelength (line 19).
            ("total_thickness = 1e97", 36, "bending_term"),
            ("young_modulus = 1.7e308", 36, "plate_modulus"),
            ("poisson_ratio = 0.3\ntotal_thickness = 1e97", 37, "bending_term"),
            # Each pin passes alone; pinned in line order, the second fails.
            ("young_modulus = 1e290\ntotal_thickness = 1e4", 37, "bending_term"),
        ],
        ids=["thickness-bending", "modulus-plate-modulus", "second-pin",
             "combined-pins"],
    )
    def test_override_overflowing_a_derived_value_names_its_line(
        self, tmp_path, capsys, command, pinned, line, message
    ):
        path = tmp_path / "pinned.cfg"
        path.write_text(_bundled("reference_device.cfg") + pinned + "\n")
        argv = ["--config", str(path), command]
        if command == "s21":
            argv += ["--out", str(tmp_path / "x.csv")]
        status = main(argv)
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == f"error: line {line}: {message} must be finite and > 0\n"

    @pytest.mark.parametrize("command", ["plate", "dispersion", "s21"])
    def test_subnormal_pinned_mass_names_its_line(self, tmp_path, capsys, command):
        # A valid plate whose unloaded velocity sqrt(B / M) overflows.
        text = _bundled("reference_device.cfg")
        path = tmp_path / "light.cfg"
        path.write_text(re.sub(r"(?m)^mass_per_area = .*$",
                               "mass_per_area = 1e-310", text))
        argv = ["--config", str(path), command]
        if command == "s21":
            argv += ["--fpw", "--out", str(tmp_path / "x.csv")]
        status = main(argv)
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == (
            "error: line 35: unloaded velocity sqrt(bending_term / "
            "mass_per_area) must be finite and > 0\n"
        )

    @pytest.mark.parametrize("command", ["plate", "dispersion", "s21"])
    @pytest.mark.parametrize(
        "replaced, thickness, line",
        [
            # E h overflows, h**3 overflows twice, E' h^3 is inf, h^3 is 0.
            # Where both layers change, the first one fails on its own.
            (["1.1e-6"], "1e300", 11),
            (["1.1e-6"], "1e200", 11),
            (["1.1e-6"], "1e150", 11),
            (["1.2e-6", "1.1e-6"], "1e100", 4),
            (["1.2e-6", "1.1e-6"], "1e-120", 4),
            # E' h^3 / 12 is finite but its bending term at the configured
            # wavelength is inf: for the first layer on its own, else only
            # for the stack, which names the wavelength.
            (["1.2e-6"], "1e97", 4),
            (["1.2e-6"], "1e98", 4),
            (["1.2e-6", "1.1e-6"], "5e95", 19),
        ],
        ids=["1e300", "1e200", "1e150", "1e100", "1e-120", "bending-1e97",
             "bending-1e98", "bending-stack-5e95"],
    )
    def test_unphysical_layer_exits_2_naming_its_line(
        self, tmp_path, capsys, command, replaced, thickness, line
    ):
        text = _bundled("reference_device.cfg")
        for value in replaced:
            text = text.replace(f"thickness = {value}", f"thickness = {thickness}")
        path = tmp_path / "layers.cfg"
        path.write_text(text)
        argv = ["--config", str(path), command]
        if command == "s21":
            argv += ["--out", str(tmp_path / "x.csv")]
        status = main(argv)
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: line {line}: ")

    @pytest.mark.parametrize("command", ["plate", "dispersion", "s21"])
    @pytest.mark.parametrize(
        "config, line, message",
        [
            # Each [geometry]/[com] key is checked on its own.
            (_bundled_with("idt_pairs = 0"), 20, "idt_pairs must be >= 1"),
            (_bundled_with("overlap = -1"), 22, "overlap must be > 0"),
            (_bundled_with("velocity = -1"), 27, "free_velocity must be > 0"),
            (_bundled_with("strip_reflectivity = 0.5"), 28,
             "strip_reflectivity magnitude must lie in [0, 0.2)"),
            (_bundled_with("transduction_strength = 1.5"), 30,
             "normalized transduction_strength magnitude must be < 1"),
            # The later of spacing_index (line 24) and grating_gap conflicts.
            (_bundled_with("spacing_index = 0\ngrating_gap = 5e-6"), 25,
             "specify either [geometry] spacing_index or grating_gap, not both"),
            # Each layer is valid; their areal masses sum past 1.8e308, so
            # the [layer] that completes the stack is blamed.
            (2 * _HEAVY_LAYER + "[geometry]\nwavelength = 40e-6\n", 6,
             "mass_per_area must be finite and > 0"),
            # B = 4.9e-324 and v0 = 2.2e-162 pass, but v0 / wavelength is 0.
            ("[layer]\nthickness = 1e-3\nyoung_modulus = 1.092e10\n"
             "poisson_ratio = 0.3\ndensity = 1000\n"
             "[geometry]\nwavelength = 2.8e162\n", 1,
             "unloaded frequency sqrt(bending_term / mass_per_area) / "
             "wavelength must be > 0"),
            # Two faults: the first [layer] fails alone, with its own text.
            (_bundled_with("thickness = 1e-310").replace(
                "mass_per_area = 0.1176", "mass_per_area = 0"), 4,
             "flexural_rigidity must be finite and > 0"),
            # 0.5 * index overflows; the designed gap overflows at 4 m.
            (_bundled_with("spacing_index = " + "1" * 401), 24, _GAP_MESSAGE),
            (_bundled_with("spacing_index = " + "1" * 309).replace(
                "wavelength = 40e-6", "wavelength = 4"), 24, _GAP_MESSAGE),
        ],
        ids=["idt-pairs", "overlap", "velocity", "strip-reflectivity",
             "transduction", "spacing-conflict", "summed-mass", "f0-underflow",
             "two-faults", "index-overflow", "gap-overflow"],
    )
    def test_refused_value_names_its_line(
        self, tmp_path, capsys, command, config, line, message
    ):
        path = tmp_path / "device.cfg"
        path.write_text(config)
        argv = ["--config", str(path), command]
        if command == "s21":
            argv += ["--out", str(tmp_path / "x.csv")]
        status = main(argv)
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == f"error: line {line}: {message}\n"

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_refused_value_names_a_line(self, data):
        text = _bundled("reference_device.cfg")
        lines = text.splitlines()
        numeric = [
            n for n, raw in enumerate(lines)
            if "=" in raw and _NUMBER.match(raw.split("=", 1)[1].split("#")[0])
        ]
        chosen = data.draw(st.lists(st.sampled_from(numeric), min_size=1,
                                    max_size=2, unique=True))
        for n in chosen:
            key = lines[n].split("=", 1)[0]
            lines[n] = f"{key}= {data.draw(st.sampled_from(_VALUE_MENU))}"
        config = "\n".join(lines) + "\n"
        result = _run_plate(config)
        if result.exit_status != 2 or result.errors[0] in _LINELESS_REFUSALS:
            return
        found = re.match(r"line (\d+): ", result.errors[0])
        assert found, result.errors[0]
        blamed = lines[int(found[1]) - 1].split("#", 1)[0].strip()
        assert blamed == "[layer]" or "=" in blamed, (blamed, result.errors[0])

    def test_missing_config_file_exits_2(self):
        result = run(["--config", "/nonexistent.cfg", "plate"])
        assert result.exit_status == 2


class TestDispersionCommand:
    def test_unloaded_reference_frequency(self):
        result = run(["dispersion"])
        assert result.exit_status == 0
        line = next(
            l for l in result.summary if l.startswith("resonant_frequency_hz")
        )
        value = float(line.split(":")[1])
        assert value == pytest.approx(5.876e6, rel=1e-3)

    @pytest.mark.parametrize(
        "liquid, velocity", [("water", 228.782132555), ("glycerol", 224.1820497)]
    )
    def test_liquid_loading(self, liquid, velocity):
        result = run(["dispersion", "--liquid", liquid])
        assert result.exit_status == 0
        line = next(
            l for l in result.summary if l.startswith("phase_velocity_m_s")
        )
        assert float(line.split(":")[1]) == pytest.approx(velocity, rel=1e-8)

    def test_unknown_liquid_lists_available(self):
        result = run(["dispersion", "--liquid", "oil"])
        assert result.exit_status == 2
        assert "glycerol" in result.errors[0]
        assert "water" in result.errors[0]

    def test_density_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        result = run(
            [
                "dispersion",
                "--sweep-out",
                str(out),
                "--sweep-densities",
                "800:1200:5",
            ]
        )
        assert result.exit_status == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "density_kg_m3,frequency_hz"
        assert len(lines) == 6

    @pytest.mark.parametrize("tension", [0.0, 2.74])
    @pytest.mark.parametrize("liquid", [None, "water", "glycerol"])
    def test_density_sweep_csv_matches_row_oracle(self, tmp_path, liquid, tension):
        out = tmp_path / "sweep.csv"
        # More rows than one block of the CSV writer.
        argv = ["dispersion", "--tension", str(tension), "--sweep-out", str(out),
                "--sweep-densities", "10:3000:4500"]
        result = run(argv + (["--liquid", liquid] if liquid else []))
        assert result.exit_status == 0
        cfg = parse_device_config(_bundled("reference_device.cfg"))
        viscosity = PRESET_LIQUIDS[liquid].viscosity if liquid else 0.0
        rows = [
            (float(density), loaded_velocity(
                cfg.plate(),
                LoadingState(tension, LiquidLoad(float(density), viscosity)),
                cfg.geometry.wavelength,
            ).resonant_frequency)
            for density in np.linspace(10.0, 3000.0, 4500)
        ]
        reference_csv(
            tmp_path / "oracle.csv", "density_kg_m3,frequency_hz", rows
        )
        assert out.read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @pytest.mark.parametrize(
        "argv, density",
        [
            (["--liquids", "{goo}", "dispersion", "--liquid", "goo"], "1e+250"),
            (["dispersion", "--liquid", "glycerol", "--sweep-out", "{out}",
              "--sweep-densities", "1:1.7e308:3"], "8.5e+307"),
            (["--liquids", "{goo}", "s21", "--liquid", "goo", "--out", "{out}"],
             "1e+250"),
        ],
        ids=["summary", "sweep", "s21"],
    )
    def test_overflowing_density_exits_1_naming_it(
        self, tmp_path, capsys, argv, density
    ):
        # Valid, finite densities whose viscous loading overflows to NaN.
        goo, out = tmp_path / "goo.txt", tmp_path / "sweep.csv"
        goo.write_text("goo 1e250 1.0\n")
        status = main([a.format(goo=goo, out=out) for a in argv])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert f"liquid density {density} kg/m^3" in captured.err
        assert not out.exists()


class TestS21Command:
    def test_bulk_sweep_csv_contract(self, tmp_path):
        out = tmp_path / "bulk.csv"
        result = run(["s21", "--bulk", "--out", str(out), "--points", "201"])
        assert result.exit_status == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "f_hz,s21_re,s21_im,s21_db"
        assert len(lines) == 202
        # Every data field in %.9e formatting.
        assert all(len(line.split(",")) == 4 for line in lines[1:])
        peak = next(
            l for l in result.summary if l.startswith("peak_frequency_hz")
        )
        assert float(peak.split(":")[1]) == pytest.approx(60e6, rel=2e-3)

    def test_fpw_sweep_peaks_at_plate_frequency(self, tmp_path):
        out = tmp_path / "fpw.csv"
        result = run(["s21", "--fpw", "--out", str(out), "--points", "801"])
        peak = next(
            l for l in result.summary if l.startswith("peak_frequency_hz")
        )
        assert float(peak.split(":")[1]) == pytest.approx(5.875e6, rel=1e-3)

    def test_fpw_prints_the_loading_warning_last(self, tmp_path):
        # At 2e4 N/m, v_p over the water sound speed is 0.31; dispersion
        # prints the same line for the same operating point.
        loading = ["--liquid", "water", "--tension", "2e4"]
        warning = ("warning: phase velocity is 0.31 of the liquid sound speed; "
                   "the evanescent decay-length approximation degrades")
        assert run(["dispersion", *loading]).summary[-1] == warning
        result = run(["s21", "--fpw", *loading, "--out", str(tmp_path / "t.csv")])
        assert result.exit_status == 0
        assert result.summary[-2].startswith("quality_factor: ")
        assert result.summary[-1] == warning
        assert sum(line.startswith("warning:") for line in result.summary) == 1

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        run(["s21", "--bulk", "--out", str(out1), "--points", "101"])
        run(["s21", "--bulk", "--out", str(out2), "--points", "101"])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("mode", ["--bulk", "--fpw"])
    def test_reference_device_prints_no_passivity_warning(self, tmp_path, mode):
        result = run(["s21", mode, "--out", str(tmp_path / "x.csv")])
        assert result.exit_status == 0
        assert not any(l.startswith("warning:") for l in result.summary)

    def test_gain_above_unity_warns_not_passive(self, tmp_path):
        cfg = tmp_path / "strong.cfg"
        cfg.write_text(_bundled("reference_device.cfg").replace(
            "strip_reflectivity = 0.02", "strip_reflectivity = 0.05"
        ))
        out = tmp_path / "strong.csv"
        result = run(["--config", str(cfg), "s21", "--bulk", "--out", str(out),
                      "--points", "20001"])
        assert result.exit_status == 0
        peak = next(l for l in result.summary if l.startswith("peak_magnitude"))
        assert float(peak.split(":")[1]) == pytest.approx(1.730, abs=1e-3)
        assert result.summary[-1] == (
            "warning: peak |S21| > 1; the transversal IDT model is not passive here"
        )
        assert sum(l.startswith("warning:") for l in result.summary) == 1

    def test_bulk_without_velocity_exits_2(self, tmp_path):
        cfg = tmp_path / "novel.cfg"
        cfg.write_text(MINIMAL_CONFIG)
        out = tmp_path / "x.csv"
        result = run(
            ["--config", str(cfg), "s21", "--bulk", "--out", str(out)]
        )
        assert result.exit_status == 2

    def test_monotone_window_exits_1(self, tmp_path):
        # A window far below the stopband rises monotonically, so no
        # interior peak exists.
        out = tmp_path / "flat.csv"
        result = run(
            [
                "s21",
                "--bulk",
                "--out",
                str(out),
                "--points",
                "51",
                "--f-start",
                "54e6",
                "--f-stop",
                "55e6",
            ]
        )
        assert result.exit_status == 1
        assert out.exists()

    def test_overflowing_attenuation_exits_1(self, tmp_path, capsys):
        # A valid but extreme attenuation overflows every sweep point.
        from fpwsim.cli import _bundled

        cfg = tmp_path / "lossy.cfg"
        cfg.write_text(
            _bundled("reference_device.cfg").replace(
                "attenuation = 0.0", "attenuation = 1e6"
            )
        )
        out = tmp_path / "lossy.csv"
        status = main(
            ["--config", str(cfg), "s21", "--bulk", "--out", str(out),
             "--points", "51"]
        )
        captured = capsys.readouterr()
        assert status == 1
        assert "error: response contains no finite points" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["s21", "--bulk", "--f-start", "54e6", "--f-stop", "55e6"],
            ["--config", "{lossy}", "s21", "--bulk"],
        ],
        ids=["monotone-window", "overflowing-attenuation"],
    )
    def test_no_resonance_error_names_the_csv(self, tmp_path, capsys, argv):
        lossy, out = tmp_path / "lossy.cfg", tmp_path / "sweep.csv"
        lossy.write_text(
            _bundled("reference_device.cfg").replace(
                "attenuation = 0.0", "attenuation = 1e6"
            )
        )
        argv = [a.format(lossy=lossy) for a in argv]
        status = main([*argv, "--points", "51", "--out", str(out)])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.endswith(f"; 51 sweep points written to {out}\n")
        assert len(out.read_text().splitlines()) == 52

    def test_gap_at_crossing_never_prints_nan(
        self, tmp_path, capsys, monkeypatch
    ):
        # A singular point exactly where |S21| first drops below -3 dB
        # right of the peak; the summary must interpolate across it.
        def gapped_sweep(*args, **kwargs):
            response = s21_sweep(*args, **kwargs)
            mags = np.abs(response.s21)
            peak = int(np.argmax(mags))
            below = np.flatnonzero(mags <= mags[peak] / np.sqrt(2.0))
            gap = int(below[below > peak][0])
            s21 = response.s21.copy()
            s21[gap] = complex(np.nan, np.nan)
            return replace(response, s21=s21, gap_indices=(gap,))

        monkeypatch.setattr("fpwsim.cli.s21_sweep", gapped_sweep)
        status = main(["s21", "--bulk", "--out", str(tmp_path / "gap.csv")])
        captured = capsys.readouterr()
        assert status == 0
        assert "1 singular sweep points recorded as gaps" in captured.out
        assert "nan" not in captured.out
        assert captured.err == ""


class TestFitInvertCommands:
    def test_fit_reference_slope(self, points_file):
        result = run(["fit", "--points", points_file])
        assert result.exit_status == 0
        line = next(
            l for l in result.summary if l.startswith("slope_mhz_per_g_cm3")
        )
        assert float(line.split(":")[1]) == pytest.approx(-0.848, abs=0.002)

    def test_fit_single_point_exits_2(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("1.0g/cm3 4.75e6\n")
        result = run(["fit", "--points", str(path)])
        assert result.exit_status == 2

    def test_invert_at_fit_point(self, points_file):
        result = run(["invert", "--freq", "4.75e6", "--points", points_file])
        assert result.exit_status == 0
        line = next(l for l in result.summary if l.startswith("density_g_cm3"))
        assert float(line.split(":")[1]) == pytest.approx(1.0, abs=0.01)

    def test_invert_zero_slope_exits_2(self, tmp_path):
        path = tmp_path / "flat.txt"
        path.write_text("1000 5e6\n1200 5e6\n")
        assert run(["fit", "--points", str(path)]).exit_status == 0
        result = run(["invert", "--freq", "5e6", "--points", str(path)])
        assert result.exit_status == 2
        assert "slope is zero" in result.errors[0]

    def test_spread_whose_square_overflows_exits_2(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("1e300 5e6\n1.5e300 4e6\n")
        for command in (["fit"], ["invert", "--freq", "4.5e6"]):
            result = run([*command, "--points", str(path)])
            assert (result.exit_status, result.summary, result.errors) == (
                2, (), ("calibration points overflow the fit",)
            )

    def test_slope_that_overflows_exits_2(self, tmp_path):
        # Sxx is finite, but the frequency spread over it is not.
        path = tmp_path / "steep.txt"
        path.write_text("0 1e308\n1000 -1e308\n")
        for command in (["fit"], ["invert", "--freq", "4.5e6"]):
            result = run([*command, "--points", str(path)])
            assert (result.exit_status, result.summary, result.errors) == (
                2, (), ("calibration points overflow the fit",)
            )

    def test_invert_out_of_range_warns(self, points_file):
        result = run(["invert", "--freq", "6.5e6", "--points", points_file])
        assert result.exit_status == 0
        assert any("outside the calibrated range" in l for l in result.summary)


class TestMainEntryPoint:
    def test_prints_summary_and_returns_zero(self, capsys):
        status = main(["plate"])
        captured = capsys.readouterr()
        assert status == 0
        assert "young_modulus_n_m2" in captured.out
        assert captured.err == ""

    def test_prints_errors_to_stderr(self, capsys):
        status = main(["dispersion", "--liquid", "oil"])
        captured = capsys.readouterr()
        assert status == 2
        assert "unknown liquid" in captured.err


_UNDECODABLE = (
    "bin.txt: 'utf-8' codec can't decode byte 0xff in position 17: "
    "invalid start byte"
)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fit", "--points", "{bad}"], "line 1"),
        (["invert", "--freq", "4.75e6", "--points", "{bad}"], "line 1"),
        (["--liquids", "{bad}", "dispersion", "--liquid", "water"], "line 1"),
        (["--liquids", "{neg}", "dispersion", "--liquid", "water"], "line 1"),
        (["s21", "--bulk", "--points", "1", "--out", "{out}"], "points"),
        (
            ["s21", "--bulk", "--f-start", "61e6", "--f-stop", "60e6",
             "--out", "{out}"],
            "f_start < f_stop",
        ),
        (["dispersion", "--tension", "-1"], "--tension"),
        (["s21", "--tension", "-1", "--out", "{out}"], "--tension"),
        (["dispersion", "--tension", "nan"], "finite"),
        (["dispersion", "--liquid", "water", "--tension", "inf"], "finite"),
        (["s21", "--tension", "inf", "--out", "{out}"], "finite"),
        (["invert", "--freq", "nan", "--points", "{bad}"], "--freq"),
        (["invert", "--freq", "inf", "--points", "{bad}"], "--freq"),
        (["invert", "--freq", "0", "--points", "{bad}"], "--freq"),
        (["invert", "--freq", "-1", "--points", "{bad}"], "--freq"),
        (["dispersion", "--sweep-out", "{out}", "--sweep-densities", "1:inf:3"],
         "finite"),
        (["dispersion", "--sweep-out", "{out}", "--sweep-densities", "nan:1:3"],
         "finite"),
        (["s21", "--bulk", "--liquid", "water", "--out", "{out}"], "--liquid"),
        (["s21", "--bulk", "--tension", "5", "--out", "{out}"], "--tension"),
        (["s21", "--bulk", "--viscous-loss", "--out", "{out}"], "--viscous-loss"),
        (["--config", "{novel}", "s21", "--bulk", "--out", "{out}"],
         "--bulk requires a [com] velocity in the config"),
        (["dispersion", "--sweep-out", "{out}", "--sweep-densities", "1:2"],
         "sweep range must be 'lo:hi:count', got '1:2'"),
        (["dispersion", "--sweep-out", "{out}", "--sweep-densities", "2:1:5"],
         "sweep range needs 0 < lo < hi and count >= 2"),
        (["--config", "{binary}", "plate"], _UNDECODABLE),
        (["fit", "--points", "{binary}"], _UNDECODABLE),
        (["--liquids", "{binary}", "dispersion", "--liquid", "water"],
         _UNDECODABLE),
        # 2^58 points of 8 bytes: 2^61 bytes, more than any address space.
        (["s21", "--bulk", "--points", str(2**58), "--out", "{out}"],
         "Unable to allocate"),
        (["dispersion", "--sweep-out", "{out}",
          "--sweep-densities", f"1:2:{2**58}"], "Unable to allocate"),
    ],
    ids=["fit-bad-points", "invert-bad-points", "bad-liquids",
         "negative-density-liquids", "one-point",
         "reversed-window", "dispersion-negative-tension",
         "s21-negative-tension", "nan-tension", "inf-tension",
         "s21-inf-tension", "nan-freq", "inf-freq", "zero-freq",
         "negative-freq", "inf-sweep-bound",
         "nan-sweep-bound", "bulk-liquid", "bulk-tension", "bulk-viscous-loss",
         "bulk-without-velocity", "two-field-sweep-range",
         "reversed-sweep-range", "undecodable-config", "undecodable-points",
         "undecodable-liquids", "unallocatable-s21", "unallocatable-density-sweep"],
)
def test_usage_errors_exit_2(tmp_path, capsys, argv, message):
    # Two fields: a bad density for a points file, one short for a library.
    bad = tmp_path / "bad.txt"
    bad.write_text("water 1000\n")
    neg = tmp_path / "neg.txt"
    neg.write_text("water -5 0.001\n")
    binary = tmp_path / "bin.txt"  # byte 17 is not UTF-8
    binary.write_bytes(b"water 1000 0.001\n\xff 1 1\n")
    novel = tmp_path / "novel.cfg"  # the bundled device, no [com] velocity
    bundled = _bundled("reference_device.cfg")
    novel.write_text(re.sub(r"(?m)^velocity = .*$", "", bundled))
    out = tmp_path / "out.csv"
    argv = [a.format(bad=bad, neg=neg, binary=binary, novel=novel, out=out)
            for a in argv]
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 2
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert not out.exists()


def test_repeated_liquid_name_exits_2(tmp_path, capsys):
    library = tmp_path / "liquids.txt"
    library.write_text("water 1000 0.001\nWater 2000 0.5\n")
    status = main(["--liquids", str(library), "dispersion", "--liquid", "water"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: {library}: liquid library line 2: duplicate "
        "liquid name 'Water', first on line 1\n"
    )


def test_inputs_are_read_as_utf8_whatever_the_locale(tmp_path, points_file):
    # Under warn_default_encoding an open() that falls back to the locale's
    # encoding warns; here that warning is an error.
    config = tmp_path / "device.cfg"
    config.write_text(_bundled("reference_device.cfg"))
    library = tmp_path / "liquids.txt"
    library.write_text("water 1000 0.001\n")
    commands = [
        ["plate"],
        ["--config", str(config), "plate"],
        ["fit", "--points", points_file],
        ["--liquids", str(library), "dispersion", "--liquid", "water"],
        ["s21", "--bulk", "--out", str(tmp_path / "bulk.csv")],
        ["dispersion", "--sweep-out", str(tmp_path / "sweep.csv")],
    ]
    script = (
        "from fpwsim.cli import main\n"
        f"print([main(argv) for argv in {commands!r}])\n"
    )
    package = Path(fpwsim.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding",
         "-W", "error::EncodingWarning", "-c", script],
        env={**os.environ, "PYTHONPATH": str(package)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == str([0] * len(commands))
    assert done.stderr == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["s21", "--bulk", "--f-stop", "inf", "--out", "{out}"],
        ["s21", "--fpw", "--f-stop", "inf", "--out", "{out}"],
        ["s21", "--bulk", "--f-start", "6e7", "--f-stop", "inf",
         "--out", "{out}"],
    ],
    ids=["bulk-default-start", "fpw-default-start", "bulk-given-start"],
)
def test_non_finite_sweep_window_exits_2_without_csv(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    status = main([a.format(out=out) for a in argv])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.err == "error: f_stop must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["dispersion", "--tension", "1.7e308"],
        ["dispersion", "--liquid", "glycerol", "--tension", "1.7e308"],
        ["s21", "--fpw", "--tension", "1.7e308", "--out", "{out}"],
    ],
    ids=["dispersion-dry", "dispersion-glycerol", "s21-fpw"],
)
def test_overflowing_tension_exits_2_naming_the_option(tmp_path, capsys, argv):
    # Finite and >= 0, so LoadingState accepts it, but (T + B) / M overflows.
    out = tmp_path / "out.csv"
    status = main([a.format(out=out) for a in argv])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --tension 1.7e+308: ")
    assert "overflows" in captured.err
    assert not out.exists()


def test_large_finite_tension_still_solves(capsys):
    # A huge tension whose (T + B) / M stays finite is not refused.
    assert main(["dispersion", "--tension", "1e300"]) == 0
    assert "phase_velocity_m_s: 2.9" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["--config", "{path}", "plate"],
         MINIMAL_CONFIG.replace("40e-6", "nan"), "line 9"),
        (["--config", "{path}", "dispersion"],
         MINIMAL_CONFIG.replace("3000", "inf"), "line 6"),
        (["--config", "{path}", "plate"],
         MINIMAL_CONFIG + "[override]\nmass_per_area = -inf\n", "line 11"),
        (["--liquids", "{path}", "dispersion", "--liquid", "water"],
         "water nan 0.001\n", "line 1"),
        (["fit", "--points", "{path}"], "1000 4.75e6\n1000 nan\n", "line 2"),
        (["invert", "--freq", "4.75e6", "--points", "{path}"],
         "0.8g/cm3 4.9e6\ninf 4.75e6\n", "line 2"),
    ],
    ids=["config-nan", "config-inf", "override-inf", "liquids-nan",
         "points-nan", "points-inf"],
)
def test_non_finite_text_input_exits_2(tmp_path, capsys, argv, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    status = main([a.format(path=path) for a in argv])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--config", "{dir}", "plate"], errno.EISDIR),
        (["--liquids", "{dir}", "dispersion", "--liquid", "water"],
         errno.EISDIR),
        (["fit", "--points", "{dir}"], errno.EISDIR),
        (["dispersion", "--sweep-out", "{dir}/missing/d.csv"], errno.ENOENT),
        (["s21", "--bulk", "--out", "{dir}/missing/s21.csv"], errno.ENOENT),
    ],
    ids=["config-dir", "liquids-dir", "points-dir", "sweep-out-missing-dir",
         "s21-out-missing-dir"],
)
def test_os_errors_exit_2_naming_path_and_reason(tmp_path, capsys, argv, code):
    argv = [a.format(dir=tmp_path) for a in argv]
    path = next(a for a in argv if a.startswith(str(tmp_path)))
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 2
    assert captured.err.startswith("error: ")
    assert path in captured.err
    assert os.strerror(code) in captured.err


# Lines the robustness test splices into the bundled inputs: valid and
# broken section headers, keys and numbers, and short free text.
_SPLICED_LINES = st.one_of(
    st.sampled_from([
        "", "# note", "[layer]", "[geometry]", "[com]", "[override]", "[bogus]",
        "thickness = 1e-6", "thickness = 0", "thickness = 1e200",
        "young_modulus = -1", "poisson_ratio = 0.5", "density = 1e-300",
        "wavelength = nan", "wavelength = 1e300", "spacing_index = -3",
        "idt_pairs = 0", "grating_strips = 10000", "velocity = 0",
        "attenuation = 1e308", "strip_reflectivity = 0.9",
        "mass_per_area = 1e-300", "flexural_rigidity = 0", "name = x",
        "water 1e308 1e308", "water 1000", "oil 1e-300 0", "x 1 -1",
        "1000 nan", "1e308g/cm3 4.75e6", "1000 4.75e6", "1000 4.75e6 1",
        "0 0", "-5 1e9", "=", "key = ", "inf inf",
    ]),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=24),
)


@st.composite
def _mutated(draw, text):
    """``text`` with a few lines inserted, deleted or replaced."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            lines.insert(draw(st.integers(0, len(lines))), draw(_SPLICED_LINES))
        elif lines:
            index = draw(st.integers(0, len(lines) - 1))
            if edit == "delete":
                del lines[index]
            else:
                lines[index] = draw(_SPLICED_LINES)
    return "\n".join(lines) + "\n"


_NUMBERS = st.sampled_from(
    ["0", "1", "-1", "10", "4.75e6", "5e6", "1e300", "nan", "inf", "x"]
)

_ARGV_MENU = [
    ["plate"],
    ["dispersion", "--liquid", "{liquid}", "--tension", "{number}"],
    ["dispersion", "--liquid", "{liquid}", "--sweep-out", "{out}",
     "--sweep-densities", "{number}:2000:{points}"],
    ["s21", "--bulk", "--out", "{out}", "--points", "{points}"],
    ["s21", "--fpw", "--liquid", "{liquid}", "--viscous-loss",
     "--tension", "{number}", "--out", "{out}", "--points", "{points}"],
    ["s21", "--bulk", "--out", "{out}", "--points", "{points}",
     "--f-start", "{number}", "--f-stop", "6e7"],
    ["fit", "--points", "{calibration}"],
    ["invert", "--freq", "{number}", "--points", "{calibration}"],
]


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    config=_mutated(_bundled("reference_device.cfg")),
    liquids=_mutated(_bundled("liquids.txt")),
    calibration=_mutated(CALIBRATION_FILE),
    argv=st.sampled_from(_ARGV_MENU),
    liquid=st.sampled_from(["water", "glycerol", "oil"]),
    number=_NUMBERS,
    points=st.integers(-1, 2001),
)
def test_mutated_inputs_exit_0_1_or_2_without_silent_nan(
    tmp_path, capsys, config, liquids, calibration, argv, liquid, number, points
):
    paths = {}
    for name, text in (("config", config), ("liquids", liquids),
                       ("calibration", calibration)):
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    argv = [
        "--config", str(paths["config"]), "--liquids", str(paths["liquids"]),
        *(a.format(liquid=liquid, number=number, points=points,
                   out=tmp_path / "out.csv", calibration=paths["calibration"])
          for a in argv),
    ]
    try:
        status = main(argv)
    except SystemExit as exc:  # argparse rejects a malformed option value
        status = exc.code
        assert status == 2
    out = capsys.readouterr().out
    assert status in (0, 1, 2)
    if status == 0:
        assert not re.search(r":\s*[-+]?(nan|inf)\b", out), out


# The four bundled runs, their stdout ({csv} stands for the CSV path) and
# the sha256 of the CSV each writes, as produced with Python 3.11.7 and
# numpy 2.4.6 on x86_64. Another libm or numpy may move a last digit.
_PINNED_RUNS = {
    "s21-bulk-2001": (
        ["s21", "--bulk", "--points", "2001", "--out"],
        "mode: bulk\npoints: 2001\ncsv: {csv}\n"
        "peak_frequency_hz: 6.000000000e+07\n"
        "peak_magnitude: 7.450035490e-01\n"
        "insertion_loss_db: -2.556833168e+00\n"
        "bandwidth_3db_hz: 1.994983803e+05\n"
        "quality_factor: 3.007543215e+02\n",
        "ddb26c65f2706578557bd651ac796a28d10b4281bbd96e5be48161fea3210b34",
    ),
    "s21-bulk-20001": (
        ["s21", "--bulk", "--points", "20001", "--out"],
        "mode: bulk\npoints: 20001\ncsv: {csv}\n"
        "peak_frequency_hz: 6.000000000e+07\n"
        "peak_magnitude: 7.450035490e-01\n"
        "insertion_loss_db: -2.556833168e+00\n"
        "bandwidth_3db_hz: 1.994377996e+05\n"
        "quality_factor: 3.008456778e+02\n",
        "5ad4bca7905f6ff11867867843a34444b6bcaba7cb189e7a516d2eaf4a0cabdf",
    ),
    "dispersion-glycerol-sweep": (
        ["dispersion", "--liquid", "glycerol", "--sweep-out"],
        "liquid: glycerol\ntension_n_m: 0.000000000e+00\n"
        "phase_velocity_m_s: 2.241820497e+02\n"
        "resonant_frequency_hz: 5.604551241e+06\n"
        "evanescent_length_m: 6.366197724e-06\n"
        "viscous_length_m: 6.648711012e-06\n"
        "viscous_mass_kg_m2: 3.989226607e-03\n"
        "mass_sensitivity_m3_kg: -2.541610639e-05\n"
        "tension_sensitivity_m_n: 7.698559652e-05\n"
        "iterations: 0\n"
        "sound_speed_ratio: 1.512699390e-01\n"
        "sweep_csv: {csv} (16 rows)\n",
        "c12e7d56d79e17a165c3f79bb9f9a1b301bc9852fb6b1e856a44aa20948c77d9",
    ),
    "s21-fpw-water-viscous": (
        ["s21", "--fpw", "--liquid", "water", "--viscous-loss", "--out"],
        "mode: fpw (water)\npoints: 2001\ncsv: {csv}\n"
        "peak_frequency_hz: 5.719553314e+06\n"
        "peak_magnitude: 6.058087642e-01\n"
        "insertion_loss_db: -4.353288961e+00\n"
        "bandwidth_3db_hz: 2.731854433e+04\n"
        "quality_factor: 2.093652299e+02\n",
        "09c6d2c0110b2e2406adad5222f8f4789a2ca91d3ed50d70c1c08c929935e9ff",
    ),
}


_PINNED_PLATFORM = pytest.mark.skipif(
    (sys.version.split()[0], np.__version__, platform.machine())
    != ("3.11.7", "2.4.6", "x86_64"),
    reason="outputs pinned with Python 3.11.7 and numpy 2.4.6 on x86_64; "
    "another libm or numpy may move a last digit",
)


@_PINNED_PLATFORM
@pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
def test_bundled_outputs_pinned(tmp_path, name):
    argv, stdout, digest = _PINNED_RUNS[name]
    csv = tmp_path / "out.csv"
    result = run([*argv, str(csv)])
    assert (result.exit_status, result.errors) == (0, ())
    assert "".join(line + "\n" for line in result.summary) == stdout.format(
        csv=csv
    )
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == digest


@_PINNED_PLATFORM
def test_bundled_sweep_bits_pinned():
    # The CSV prints ten digits, so it misses a change of a few ulp; the
    # sweep's own doubles do not.
    cfg = parse_device_config(_bundled("reference_device.cfg"))
    s21 = s21_sweep(cfg.geometry, cfg.com_parameters(), points=2001).s21
    assert hashlib.sha256(s21.tobytes()).hexdigest() == (
        "65646fa687172b646ae6a30e8de78584f042951a730e6e4f8bc3114d482c7732"
    )
