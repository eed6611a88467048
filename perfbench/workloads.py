"""The benchmark's workloads: seeded inputs, one op, and its correctness gates.

Each workload draws all of its inputs from the seed in ``setup`` and hands the
program only those inputs. ``op(i)`` is the timed call into the program;
``check(i, output)`` runs outside the timed region, applies the gates and
folds the output into the workload's digest. Gates use no stored golden
values: they test invariants (finiteness, reciprocity, round trips, exit
status, row counts), so physics changes do not trip them.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

import fpwsim as fp

from tracing import CENSUS_OP_BASE, PASSIVITY_LIMIT, Tracer, load_child_spans

TRACE_CHILD = Path(__file__).resolve().parent / "trace_child.py"
SRC = Path(fp.__file__).resolve().parent.parent

RECIPROCITY_TOL = 1e-9  # |S21(port 1) - S21(port 2)| relative to the peak
ROUNDTRIP_TOL = 1e-8  # relative density error of the round trip


def bundled(name: str) -> str:
    return resources.files("fpwsim").joinpath("data", name).read_text()


def child_env() -> dict:
    """Environment of a child interpreter that imports fpwsim from SRC."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def _fmt(*values) -> bytes:
    return (",".join("%.9e" % v for v in values) + "\n").encode()


class Workload:
    """One closed-loop, single-client workload."""

    name = ""
    group = 1  # ops that belong together; a run stops only between groups
    max_ops = 4096  # size of the latency buffer; a run stops when it is full
    trace_ops = 0  # fixed op count of a traced run, so its counts repeat
    census_ops = 0  # ops run when another workload's traced run covers this one
    digest_ops = 0  # the digest covers ops [0, digest_ops)

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.tracer: Tracer | None = None
        self._digest = hashlib.sha256()
        self.digested = 0

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, output) -> str | None:
        """Return why the output is wrong, or None."""
        raise NotImplementedError

    def is_refusal(self, output) -> bool:
        """Whether a correct output is a documented refusal. Its time counts
        in ``ops_per_s`` but it is left out of the latency percentiles."""
        return False

    def reset(self) -> None:
        """Forget per-run state before the same ops are run again."""
        self._digest = hashlib.sha256()
        self.digested = 0

    def sizes(self) -> dict:
        return {}

    def observations(self) -> dict:
        """Ungated properties of the outputs, reported with the run."""
        return {}

    def digest(self) -> str:
        return self._digest.hexdigest()

    def _fold(self, i: int, *chunks: bytes) -> None:
        if i < self.digest_ops:
            for chunk in chunks:
                self._digest.update(chunk)
            self.digested += 1

    def _note_max(self, name: str, value: float) -> None:
        if self.tracer is not None:
            self.tracer.note_max(name, value)


@dataclass(frozen=True)
class Variant:
    geometry: fp.DeviceGeometry
    params: fp.ComParameters


class S21DesignSweep(Workload):
    """20001-point S21 sweeps of seeded variants of the reference device.

    Ops come in pairs: port 1, then port 2 of the same variant, so the pair
    can be checked for reciprocity. The draws span the whole validated
    design range, including strong gratings outside the model's passivity
    envelope; about 45% of the sweeps peak above |S21| = 1 (a known defect,
    reported as com_resonator.nonpassive_ratio).
    """

    name = "s21_design_sweep"
    group = 2
    trace_ops = 6
    census_ops = 2
    digest_ops = 4
    variants = 512
    strips = (0, *range(20, 201))

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.points = 201 if tiny else 20001
        self.warmup_points = 51 if tiny else 201
        self._port1 = None
        self.sweeps = 0
        self.nonpassive = 0

    def sizes(self):
        return {"points_per_sweep": self.points, "variants": self.variants}

    def observations(self):
        return {"sweeps": self.sweeps, "nonpassive_sweeps": self.nonpassive,
                "nonpassive_ratio": self.nonpassive / max(self.sweeps, 1)}

    def setup(self):
        config = fp.parse_device_config(bundled("reference_device.cfg"))
        base_geometry = config.geometry
        base_params = config.com_parameters()
        rng = np.random.default_rng(self.seed)
        self._variants = [
            self._draw(rng, base_geometry, base_params)
            for _ in range(self.variants)
        ]
        first = self._variants[0]
        for port in (1, 2):
            response = fp.s21_sweep(
                first.geometry, first.params, points=self.warmup_points,
                drive_port=port,
            )
            fp.find_resonance(response)
            fp.write_sweep_csv(response, self.workdir / f"s21_port{port}.csv")
        self._port1 = None

    @staticmethod
    def _draw(rng, geometry, params) -> Variant:
        return Variant(
            geometry=replace(
                geometry,
                grating_strips=int(rng.choice(S21DesignSweep.strips)),
                idt_pairs=int(rng.integers(5, 41)),
                grating_gap=fp.design_spacing(
                    int(rng.integers(0, 4)), geometry.wavelength),
            ),
            params=replace(
                params,
                strip_reflectivity=float(rng.uniform(0.0, 0.05)),
                transduction_strength=float(rng.uniform(0.1, 0.6)),
                attenuation=float(rng.uniform(0.0, 50.0)),
            ),
        )

    def reset(self):
        super().reset()
        self._port1 = None
        self.sweeps = 0
        self.nonpassive = 0

    def op(self, i):
        variant = self._variants[(i // 2) % len(self._variants)]
        port = i % 2 + 1
        response = fp.s21_sweep(
            variant.geometry, variant.params, points=self.points,
            drive_port=port,
        )
        summary = fp.find_resonance(response)
        path = self.workdir / f"s21_port{port}.csv"
        fp.write_sweep_csv(response, path)
        return response, summary, path

    def check(self, i, output):
        response, summary, path = output
        s21 = response.s21
        solved = np.ones(len(s21), dtype=bool)
        solved[list(response.gap_indices)] = False
        if not np.all(np.isfinite(s21[solved])):
            return "S21 is not finite outside gap_indices"
        self.sweeps += 1
        if np.max(np.abs(s21[solved])) > PASSIVITY_LIMIT:
            self.nonpassive += 1
        if not (math.isfinite(summary.quality_factor)
                and summary.quality_factor > 0):
            return f"resonance has quality factor {summary.quality_factor}"
        if i % 2 == 0:
            self._port1 = (s21, solved)
        elif self._port1 is not None:
            s21_1, solved_1 = self._port1
            both = solved & solved_1
            peak = max(np.max(np.abs(s21[both])), np.max(np.abs(s21_1[both])))
            residual = float(np.max(np.abs(s21[both] - s21_1[both])) / peak)
            self._note_max("com_resonator.reciprocity_max_residual", residual)
            self._port1 = None
            if not residual <= RECIPROCITY_TOL:
                return f"port-1/port-2 reciprocity residual {residual:.3e} of peak"
        if i < self.digest_ops:
            self._fold(
                i, path.read_bytes(),
                _fmt(summary.peak_frequency, summary.peak_magnitude,
                     summary.bandwidth_3db, summary.quality_factor),
            )
        return None


class DensityRoundtrip(Workload):
    """Liquid density round trips through the loading model.

    Each op draws one liquid, density uniform in [10, 2000] kg/m^3 and
    viscosity uniform in [0, 1] Pa*s, and runs predict_frequency ->
    density_from_frequency (viscosity assumed known) ->
    viscosity_coupling_report -> invert_density_calibrated, the last
    against a fit of the embedded reference calibration points. The range
    includes the low-density, high-viscosity corner where the viscous
    density inversion wrongly refuses valid liquids (about 3% of draws).
    A refusal is an outcome of the op, not a failure of it: the op goes on
    with the coupling report and the calibrated inversion, and the refusals
    are counted and reported (``observations.refused_ratio`` in the run
    record, ``fpw_dispersion.invert_failures`` in the trace). Refused ops
    are left out of the latency percentiles and counted out of
    ``ops_per_s``, though their time is counted in it.
    """

    name = "density_roundtrip"
    max_ops = 2_000_000
    trace_ops = 100_000
    census_ops = 2_000
    digest_ops = 4_096
    liquids = 1 << 17

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        if tiny:
            self.max_ops = 4096
            self.trace_ops = 400
            self.census_ops = 100
        self.checked = 0
        self.refused = 0
        self.refusals: list[str] = []

    def sizes(self):
        return {"distinct_liquids": self.liquids}

    def observations(self):
        return {"liquids": self.checked, "refused": self.refused,
                "refused_ratio": self.refused / max(self.checked, 1),
                "refusals": self.refusals}

    def reset(self):
        super().reset()
        self.checked = 0
        self.refused = 0
        self.refusals = []

    def setup(self):
        config = fp.parse_device_config(bundled("reference_device.cfg"))
        self.plate = config.plate()
        self.wavelength = config.geometry.wavelength
        self.fit = fp.fit_density_sensitivity(
            fp.load_reference_datasets().calibration_points())
        rng = np.random.default_rng(self.seed)
        self.density = rng.uniform(10.0, 2000.0, self.liquids).tolist()
        self.viscosity = rng.uniform(0.0, 1.0, self.liquids).tolist()
        self.op(0)

    def op(self, i):
        j = i % self.liquids
        liquid = fp.LiquidSample("liquid", self.density[j], self.viscosity[j])
        frequency = fp.predict_frequency(self.plate, self.wavelength, liquid)
        refusal = None
        try:
            recovered = fp.density_from_frequency(
                frequency, self.plate, self.wavelength,
                assumed_viscosity=liquid.viscosity,
            )
        except (fp.NoSolutionError, fp.ConvergenceError) as exc:
            # ROADMAP open item 4(b): the fixed-point inversion refuses
            # valid low-density, high-viscosity liquids.
            recovered, refusal = math.nan, type(exc).__name__
        report = fp.viscosity_coupling_report(liquid, self.plate, self.wavelength)
        calibrated, extrapolated = fp.invert_density_calibrated(frequency, self.fit)
        return (liquid, frequency, recovered, refusal, report, calibrated,
                extrapolated)

    def is_refusal(self, output):
        return output[3] is not None

    def check(self, i, output):
        (liquid, frequency, recovered, refusal, report, calibrated,
         extrapolated) = output
        self.checked += 1
        if refusal is not None:
            self.refused += 1
            if len(self.refusals) < 3:
                self.refusals.append(
                    f"op {i}: density_from_frequency refused a valid liquid "
                    f"(rho={liquid.density:.6g}, eta={liquid.viscosity:.6g}): "
                    f"{refusal}")
            self._fold(i, _fmt(i, liquid.density, liquid.viscosity, frequency,
                               report.ratio, calibrated, extrapolated))
            return None
        error = abs(recovered - liquid.density) / liquid.density
        self._note_max("fpw_dispersion.roundtrip_max_rel_err", error)
        if not error <= ROUNDTRIP_TOL:
            return (f"round trip recovered {recovered!r} kg/m^3 for "
                    f"{liquid.density!r} (relative error {error:.3e})")
        self._fold(
            i, _fmt(i, liquid.density, liquid.viscosity, frequency, recovered,
                    report.ratio, calibrated, extrapolated),
        )
        return None


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    csv: str | None = None
    rows: int = 0


class CliBatch(Workload):
    """One ``python -m fpwsim.cli`` process per op, over a seeded command mix.

    Ops cycle through the six command kinds below, each cycle in a seeded
    order and with seeded arguments, against the bundled device config,
    the bundled liquid library and the embedded reference calibration
    points. Every op pays interpreter start, the numpy import, config
    parsing and (for most kinds) a CSV write.
    """

    name = "cli_batch"
    kinds = ("plate", "dispersion", "s21_bulk", "s21_fpw", "fit", "invert")
    cycles = 64
    trace_ops = 36
    census_ops = 6
    digest_ops = 12
    sweep_densities = "500:2000:16"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.points = 201 if tiny else 2001
        if tiny:
            self.trace_ops = 6
        self.env = child_env()

    def sizes(self):
        return {"points_per_sweep": self.points, "kinds": list(self.kinds)}

    def setup(self):
        points = fp.load_reference_datasets().calibration_points()
        (self.workdir / "points.txt").write_text(
            "".join(f"{d!r} {f!r}\n" for d, f in points))
        liquids = sorted(fp.load_liquid_library(bundled("liquids.txt")))
        rng = np.random.default_rng(self.seed)
        self.commands = [
            self._command(str(kind), rng, liquids)
            for _ in range(self.cycles)
            for kind in rng.permutation(self.kinds)
        ]
        warmup = self._spawn(("plate",))
        if warmup.returncode != 0:
            raise RuntimeError(f"fpwsim.cli plate exited {warmup.returncode}: "
                               f"{warmup.stderr.decode()[-500:]}")

    def _command(self, kind, rng, liquids) -> Command:
        liquid = str(rng.choice(liquids))
        if kind == "plate":
            return Command(("plate",))
        if kind == "dispersion":
            count = int(self.sweep_densities.rsplit(":", 1)[1])
            return Command(
                ("dispersion", "--liquid", liquid, "--sweep-out",
                 "dispersion.csv", "--sweep-densities", self.sweep_densities),
                "dispersion.csv", count)
        if kind == "s21_bulk":
            return Command(
                ("s21", "--bulk", "--points", str(self.points),
                 "--out", "s21_bulk.csv"),
                "s21_bulk.csv", self.points)
        if kind == "s21_fpw":
            loss = ("--viscous-loss",) if rng.random() < 0.5 else ()
            return Command(
                ("s21", "--fpw", "--liquid", liquid, *loss,
                 "--points", str(self.points), "--out", "s21_fpw.csv"),
                "s21_fpw.csv", self.points)
        if kind == "fit":
            return Command(("fit", "--points", "points.txt"))
        frequency = float(rng.uniform(4.4e6, 5.2e6))
        return Command(
            ("invert", "--freq", f"{frequency:.6e}", "--points", "points.txt"))

    def _spawn(self, argv, traced_op=None):
        if traced_op is None:
            cmd = [sys.executable, "-m", "fpwsim.cli", *argv]
        else:
            cmd = [sys.executable, str(TRACE_CHILD), "spans.json",
                   str(traced_op), *argv]
        return subprocess.run(
            cmd, cwd=self.workdir, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, timeout=120,
        )

    def op(self, i):
        command = self.commands[i % len(self.commands)]
        if self.tracer is None:
            return command, self._spawn(command.argv)
        process = self._spawn(command.argv, traced_op=self.tracer.op_id)
        spans = self.workdir / "spans.json"
        if spans.exists():
            self.tracer.merge(load_child_spans(spans))
            spans.unlink()
        return command, process

    def check(self, i, output):
        command, process = output
        csv_bytes = b""
        if command.csv is not None:
            path = self.workdir / command.csv
            if path.exists():
                csv_bytes = path.read_bytes()
                path.unlink()
        if process.returncode != 0:
            return (f"fpwsim {' '.join(command.argv)} exited "
                    f"{process.returncode}: {process.stderr.decode()[-300:]}")
        if command.csv is not None:
            rows = csv_bytes.count(b"\n") - 1
            if rows != command.rows:
                return (f"fpwsim {' '.join(command.argv)} wrote {rows} CSV "
                        f"rows, expected {command.rows}")
        self._fold(i, " ".join(command.argv).encode(), process.stdout, csv_bytes)
        return None


WORKLOADS = {w.name: w for w in (S21DesignSweep, DensityRoundtrip, CliBatch)}


def process_census(tracer: Tracer, workdir: Path, repeats: int) -> None:
    """Time a bare interpreter and an interpreter that imports fpwsim.cli."""
    env = child_env()
    for name, code in (("cli.process_start", "pass"),
                       ("cli.import_process", "import fpwsim.cli")):
        for k in range(repeats):
            tracer.op_id = CENSUS_OP_BASE + k
            start = time.perf_counter_ns()
            subprocess.run([sys.executable, "-c", code], cwd=workdir, env=env,
                           check=True, timeout=120)
            tracer.add_span(name, start, time.perf_counter_ns())
