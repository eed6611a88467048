"""Batch workbench: simulate and analyze devices described by config files.

Subcommands: ``plate`` (effective membrane parameters), ``dispersion``
(loaded velocity, frequency and sensitivities), ``s21`` (two-port sweep to
CSV plus resonance summary), ``fit`` and ``invert`` (density calibration
workflow). Exit status 0 on success, 1 on numerical failure, 2 on usage or
configuration errors. Outputs are deterministic: identical inputs produce
byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np

from .com_resonator import (
    DEFAULT_SWEEP_POINTS,
    NoResonanceError,
    find_resonance,
    fpw_device_response,
    s21_sweep,
    write_csv,
    write_sweep_csv,
)
from .config import (
    ConfigError,
    DeviceConfig,
    finite_float,
    parse_calibration_points,
    parse_device_config,
)
from .fpw_dispersion import (
    LoadingState,
    NoSolutionError,
    _phase_velocity,
    loaded_velocity,
    sensitivities,
)
from .liquid_sensing import (
    CalibrationFit,
    DegenerateFitError,
    LiquidSample,
    PRESET_LIQUIDS,
    fit_density_sensitivity,
    invert_density_calibrated,
    load_liquid_library,
)

_NUM = "%.9e"


class UsageError(ValueError):
    """Bad command-line input (maps to exit status 2)."""


@dataclass
class RunResult:
    """Outcome of one CLI invocation."""

    command: str
    summary: tuple[str, ...] = field(default_factory=tuple)
    errors: tuple[str, ...] = field(default_factory=tuple)
    exit_status: int = 0


def _bundled(name: str) -> str:
    return resources.files("fpwsim").joinpath("data", name).read_text()


def _load_config(args) -> DeviceConfig:
    path = args.config
    text = _bundled("reference_device.cfg") if path is None else Path(path).read_text()
    return parse_device_config(text)


def _read(path: str, parse):
    """``parse`` of the text of the file at ``path``; a ValueError, a
    refused row included, is raised as a UsageError naming the path."""
    try:
        return parse(Path(path).read_text())
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _calibration(args) -> CalibrationFit:
    return fit_density_sensitivity(_read(args.points, parse_calibration_points))


def _pick_liquid(args) -> LiquidSample | None:
    if args.liquid is None:
        return None
    library = PRESET_LIQUIDS
    if args.liquids is not None:
        library = _read(args.liquids, load_liquid_library)
    name = args.liquid.lower()
    if name not in library:
        raise UsageError(
            f"unknown liquid {args.liquid!r}; available: "
            + ", ".join(sorted(library))
        )
    return library[name]


def _loading(args, liquid: LiquidSample | None, plate, wavelength):
    """``(loading, solution)`` at --tension and the liquid. A non-finite
    velocity names --tension if the inviscid one overflows too (the viscous
    term only slows the wave), else the liquid density."""
    try:
        loading = LoadingState(tension=args.tension, liquid=liquid)
    except ValueError as exc:
        raise UsageError(f"--tension {args.tension}: {exc}") from None
    solution = loaded_velocity(plate, loading, wavelength)
    if not math.isfinite(solution.phase_velocity):
        density = liquid.density if liquid is not None else 0.0
        inviscid, _ = _phase_velocity(plate, wavelength, args.tension, density, 0.0)
        if not math.isfinite(inviscid):
            raise UsageError(
                f"--tension {args.tension}: the loaded velocity "
                "sqrt((T + B) / (M + rho delta_E)) overflows"
            )
        _refuse_non_finite(density)
    return loading, solution


def _cmd_plate(args) -> RunResult:
    cfg = _load_config(args)
    plate = cfg.plate()
    computed = plate.computed()
    wavelength = cfg.geometry.wavelength
    lines = [f"layers: {len(plate.layers)}"]
    for key, unit in (("total_thickness", "_m"), ("young_modulus", "_n_m2"),
                      ("poisson_ratio", ""), ("plate_modulus", "_n_m2"),
                      ("mass_per_area", "_kg_m2")):
        lines.append(f"{key}{unit}: {_NUM % getattr(plate, key)}")
        if key in plate.overrides:
            lines[-1] += f" (override; computed {_NUM % computed[key]})"
    lines += [
        f"flexural_rigidity_n_m: {_NUM % plate.flexural_rigidity()}",
        f"bending_term_n_m: {_NUM % plate.bending_term(wavelength)}"
        f" (wavelength_m {_NUM % wavelength})",
    ]
    return RunResult(command="plate", summary=tuple(lines))


def _cmd_dispersion(args) -> RunResult:
    cfg = _load_config(args)
    plate = cfg.plate()
    liquid = _pick_liquid(args)
    wavelength = cfg.geometry.wavelength
    loading, solution = _loading(args, liquid, plate, wavelength)
    s_m, s_t = sensitivities(plate, loading, wavelength)
    lines = [
        f"liquid: {liquid.name if liquid else 'none'}",
        f"tension_n_m: {_NUM % args.tension}",
        f"phase_velocity_m_s: {_NUM % solution.phase_velocity}",
        f"resonant_frequency_hz: {_NUM % solution.resonant_frequency}",
        f"evanescent_length_m: {_NUM % solution.evanescent_length}",
        f"viscous_length_m: {_NUM % solution.viscous_length}",
        f"viscous_mass_kg_m2: {_NUM % solution.viscous_mass}",
        f"mass_sensitivity_m3_kg: {_NUM % s_m}",
        f"tension_sensitivity_m_n: {_NUM % s_t}",
        f"iterations: {solution.iterations}",
        f"sound_speed_ratio: {_NUM % solution.sound_speed_ratio}",
    ]
    lines += [f"warning: {w}" for w in solution.warnings]

    if args.sweep_out is not None:
        lo, hi, count = _parse_sweep_range(args.sweep_densities)
        eta = liquid.viscosity if liquid is not None else 0.0
        densities = np.linspace(lo, hi, count)
        with np.errstate(all="ignore"):  # a non-finite row is refused below
            frequencies = _phase_velocity(
                plate, wavelength, args.tension, densities, eta, np.sqrt
            )[0] / wavelength
        if not (finite := np.isfinite(frequencies)).all():
            _refuse_non_finite(densities[~finite][0])
        write_csv(
            args.sweep_out, "density_kg_m3,frequency_hz", (densities, frequencies)
        )
        lines.append(f"sweep_csv: {args.sweep_out} ({count} rows)")
    return RunResult(command="dispersion", summary=tuple(lines))


def _refuse_non_finite(density: float):
    raise FloatingPointError(
        f"loaded velocity is not finite at liquid density {density:.6g} kg/m^3"
    )


def _parse_sweep_range(text: str) -> tuple[float, float, int]:
    fields = text.split(":")
    if len(fields) != 3:
        raise UsageError(f"sweep range must be 'lo:hi:count', got {text!r}")
    try:
        lo, hi = finite_float(fields[0]), finite_float(fields[1])
        count = int(fields[2])
    except ValueError as exc:
        raise UsageError(f"bad sweep range {text!r}: {exc}") from None
    if not (0 < lo < hi and count >= 2):
        raise UsageError("sweep range needs 0 < lo < hi and count >= 2")
    return lo, hi, count


def _cmd_s21(args) -> RunResult:
    cfg = _load_config(args)
    geometry = cfg.geometry
    window = (args.f_start, args.f_stop, args.points)
    if args.bulk:
        for option, given in (("--liquid", args.liquid is not None),
                              ("--tension", args.tension != 0),
                              ("--viscous-loss", args.viscous_loss)):
            if given:
                raise UsageError(f"{option} applies only to fpw sweeps, not --bulk")
        if cfg.com_velocity is None:
            raise UsageError("--bulk requires a [com] velocity in the config")
        sweep = partial(s21_sweep, geometry, cfg.com_parameters(), *window)
        mode = "bulk"
    else:
        plate = cfg.plate()
        liquid = _pick_liquid(args)
        sweep = partial(
            fpw_device_response,
            plate,
            _loading(args, liquid, plate, geometry.wavelength)[0],
            geometry,
            cfg.com_parameters(free_velocity=1.0),
            *window,
            include_viscous_loss=args.viscous_loss,
        )
        mode = f"fpw ({liquid.name if liquid else 'unloaded'})"
    try:
        response = sweep()
    except ValueError as exc:
        # The sweep rejects --points < 2 and a window outside 0 < start < stop.
        raise UsageError(str(exc)) from None

    write_sweep_csv(response, args.out)
    points = len(response.frequencies)
    lines = [f"mode: {mode}", f"points: {points}", f"csv: {args.out}"]
    if response.gap_indices:
        lines.append(
            f"warning: {len(response.gap_indices)} singular sweep points "
            "recorded as gaps"
        )
    try:
        summary = find_resonance(response)
    except NoResonanceError as exc:
        written = f"{points} sweep points written to {args.out}"
        raise NoResonanceError(f"{exc}; {written}") from None
    lines += [
        f"peak_frequency_hz: {_NUM % summary.peak_frequency}",
        f"peak_magnitude: {_NUM % summary.peak_magnitude}",
        f"insertion_loss_db: {_NUM % summary.insertion_loss_db}",
        f"bandwidth_3db_hz: {_NUM % summary.bandwidth_3db}",
        f"quality_factor: {_NUM % summary.quality_factor}",
    ]
    if summary.peak_magnitude > 1.0 + 1e-12:
        lines.append("warning: peak |S21| > 1; the transversal IDT model is not "
                     "passive here")
    return RunResult(command="s21", summary=tuple(lines))


def _cmd_fit(args) -> RunResult:
    fit = _calibration(args)
    lines = [
        f"points: {len(fit.points)}",
        f"slope_hz_per_kg_m3: {_NUM % fit.slope}",
        f"slope_mhz_per_g_cm3: {_NUM % fit.slope_mhz_per_gcm3}",
        f"intercept_hz: {_NUM % fit.intercept}",
        f"r_squared: {fit.r_squared:.9f}",
    ]
    return RunResult(command="fit", summary=tuple(lines))


def _cmd_invert(args) -> RunResult:
    if not math.isfinite(args.freq):
        raise UsageError(f"--freq must be a finite number, got {args.freq}")
    if args.freq <= 0:
        raise UsageError(f"--freq must be > 0, got {args.freq}")
    fit = _calibration(args)
    density, extrapolated = invert_density_calibrated(args.freq, fit)
    lines = [
        f"frequency_hz: {_NUM % args.freq}",
        f"density_kg_m3: {_NUM % density}",
        f"density_g_cm3: {_NUM % (density / 1000.0)}",
    ]
    if extrapolated:
        lines.append("warning: frequency outside the calibrated range; extrapolating")
    return RunResult(command="invert", summary=tuple(lines))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpwsim",
        description="Flexural plate wave resonator simulation workbench",
    )
    parser.add_argument(
        "--config",
        help="device config file (default: bundled reference device)",
    )
    parser.add_argument(
        "--liquids",
        help="liquid library file (default: bundled library)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plate = sub.add_parser("plate", help="print composite plate parameters")
    p_plate.set_defaults(func=_cmd_plate)

    p_disp = sub.add_parser(
        "dispersion", help="loaded velocity, frequency and sensitivities"
    )
    p_disp.add_argument("--liquid", help="liquid name from the library")
    p_disp.add_argument(
        "--tension", type=float, default=0.0, help="in-plane tension (N/m)"
    )
    p_disp.add_argument("--sweep-out", help="write a density sweep CSV to this path")
    p_disp.add_argument(
        "--sweep-densities",
        default="500:2000:16",
        help="density sweep as lo:hi:count (kg/m^3)",
    )
    p_disp.set_defaults(func=_cmd_dispersion)

    p_s21 = sub.add_parser("s21", help="two-port S21 sweep to CSV")
    mode = p_s21.add_mutually_exclusive_group()
    mode.add_argument(
        "--bulk", action="store_true",
        help="sweep at the configured [com] velocity",
    )
    mode.add_argument(
        "--fpw", action="store_true",
        help="sweep at the flexural-plate-wave velocity (default)",
    )
    p_s21.add_argument("--liquid", help="liquid name (fpw mode)")
    p_s21.add_argument(
        "--tension", type=float, default=0.0, help="in-plane tension (N/m)"
    )
    p_s21.add_argument(
        "--viscous-loss", action="store_true",
        help="add viscous propagation loss (fpw mode)",
    )
    p_s21.add_argument("--out", required=True, help="output CSV path")
    p_s21.add_argument("--points", type=int, default=DEFAULT_SWEEP_POINTS)
    p_s21.add_argument("--f-start", type=float, default=None)
    p_s21.add_argument("--f-stop", type=float, default=None)
    p_s21.set_defaults(func=_cmd_s21)

    p_fit = sub.add_parser("fit", help="density calibration least squares")
    p_fit.add_argument(
        "--points", required=True, help="file of 'density frequency' lines"
    )
    p_fit.set_defaults(func=_cmd_fit)

    p_inv = sub.add_parser("invert", help="density from a measured frequency")
    p_inv.add_argument("--freq", type=float, required=True, help="frequency (Hz)")
    p_inv.add_argument(
        "--points", required=True, help="file of 'density frequency' lines"
    )
    p_inv.set_defaults(func=_cmd_invert)
    return parser


def run(argv=None) -> RunResult:
    """Parse arguments and execute; errors are folded into the result."""
    args = build_parser().parse_args(argv)
    command = args.command
    try:
        return args.func(args)
    except (ConfigError, UsageError, DegenerateFitError, OSError) as exc:
        # An OSError's text names the path and the operating system's reason.
        return RunResult(command=command, errors=(str(exc),), exit_status=2)
    except (NoResonanceError, NoSolutionError) as exc:
        return RunResult(command=command, errors=(str(exc),), exit_status=1)
    except ArithmeticError as exc:  # e.g. a float power out of range
        error = f"{type(exc).__name__}: {exc}"
        return RunResult(command=command, errors=(error,), exit_status=1)


def main(argv=None) -> int:
    result = run(argv)
    for line in result.summary:
        print(line)
    for line in result.errors:
        print(f"error: {line}", file=sys.stderr)
    return result.exit_status


if __name__ == "__main__":
    sys.exit(main())
