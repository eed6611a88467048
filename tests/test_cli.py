import errno
import os
import re
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
        ],
        ids=["summary", "sweep"],
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fit", "--points", "{bad}"], "line 1"),
        (["invert", "--freq", "4.75e6", "--points", "{bad}"], "line 1"),
        (["--liquids", "{bad}", "dispersion", "--liquid", "water"], "line 1"),
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
        (["dispersion", "--sweep-out", "{out}", "--sweep-densities", "1:inf:3"],
         "finite"),
        (["dispersion", "--sweep-out", "{out}", "--sweep-densities", "nan:1:3"],
         "finite"),
    ],
    ids=["fit-bad-points", "invert-bad-points", "bad-liquids", "one-point",
         "reversed-window", "dispersion-negative-tension",
         "s21-negative-tension", "nan-tension", "inf-tension",
         "s21-inf-tension", "nan-freq", "inf-freq", "inf-sweep-bound",
         "nan-sweep-bound"],
)
def test_usage_errors_exit_2(tmp_path, capsys, argv, message):
    # Two fields: a bad density for a points file, one short for a library.
    bad = tmp_path / "bad.txt"
    bad.write_text("water 1000\n")
    out = tmp_path / "out.csv"
    argv = [a.format(bad=bad, out=out) for a in argv]
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 2
    assert captured.err.startswith("error: ")
    assert message in captured.err


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
