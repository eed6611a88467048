"""In-memory span tracer around fpwsim's public functions.

The tracer wraps each bound public function listed in ``TRACED`` with a
timing wrapper, wherever an fpwsim module (or the package itself) holds a
reference to it, so calls made by the benchmark and calls one layer makes
into another are both recorded. Nothing in the program changes; uninstall
restores the original functions.

A span is (name, start ns, end ns, parent span, op id). Spans are kept in
flat arrays while the run lasts and written out once, when it ends. Times
come from ``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux), so spans a
child process records line up with the parent's.

Counters are recorded at the same boundaries as the spans: points swept,
solver iterations, bytes written, refusals, and so on.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from array import array

# Span name -> (module, attribute path). Only functions the ROADMAP keeps.
TRACED = {
    "config.parse": ("fpwsim.config", "parse_device_config"),
    "config.com_parameters": ("fpwsim.config", "DeviceConfig.com_parameters"),
    "plate_materials.plate": ("fpwsim.config", "DeviceConfig.plate"),
    "com_resonator.s21_sweep": ("fpwsim.com_resonator", "s21_sweep"),
    "com_resonator.fpw_device_response": (
        "fpwsim.com_resonator", "fpw_device_response"),
    "com_resonator.find_resonance": ("fpwsim.com_resonator", "find_resonance"),
    "com_resonator.write_sweep_csv": ("fpwsim.com_resonator", "write_sweep_csv"),
    "fpw_dispersion.loaded_velocity": ("fpwsim.fpw_dispersion", "loaded_velocity"),
    "fpw_dispersion.density_from_frequency": (
        "fpwsim.fpw_dispersion", "density_from_frequency"),
    "liquid_sensing.predict_frequency": (
        "fpwsim.liquid_sensing", "predict_frequency"),
    "liquid_sensing.viscosity_coupling_report": (
        "fpwsim.liquid_sensing", "viscosity_coupling_report"),
    "liquid_sensing.fit_density_sensitivity": (
        "fpwsim.liquid_sensing", "fit_density_sensitivity"),
    "liquid_sensing.invert_density_calibrated": (
        "fpwsim.liquid_sensing", "invert_density_calibrated"),
    "cli.run": ("fpwsim.cli", "run"),
}

# A sweep whose largest |S21| exceeds this is not passive.
PASSIVITY_LIMIT = 1.0 + 1e-12

CENSUS_OP_BASE = 1_000_000


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.source_id = array("B")
        self.sources: list[str] = []
        self._source_ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        # The part of the run now recording: "setup", "workload" (the traced
        # workload's ops) or "census.<workload>" (ops of another workload).
        self.source = "setup"
        self.op_id = -1  # census op ids start at CENSUS_OP_BASE
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans and counters -------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _append_source(self) -> None:
        if self.source not in self._source_ids:
            self._source_ids[self.source] = len(self.sources)
            self.sources.append(self.source)
        self.source_id.append(self._source_ids[self.source])

    def begin(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._intern(name))
        self._append_source()
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def rename(self, index: int, name: str) -> None:
        self.name_id[index] = self._intern(name)

    def add_span(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a span timed elsewhere (for example a whole child process)."""
        self.name_id.append(self._intern(name))
        self._append_source()
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.start.append(start_ns)
        self.end.append(end_ns)

    def count(self, name: str, amount: float = 1.0) -> None:
        key = f"{self.source}:{name}"
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def note_max(self, name: str, value: float) -> None:
        key = f"{self.source}:{name}"
        self.maxima[key] = max(self.maxima.get(key, -math.inf), value)

    def durations_ns(self, name: str, source: str | None = None) -> list[int]:
        """Durations of the spans called ``name``, from one source or all."""
        import numpy as np

        wanted = self._name_ids.get(name)
        if wanted is None:
            return []
        mask = np.frombuffer(self.name_id, dtype=np.uint16) == wanted
        if source is not None:
            if source not in self._source_ids:
                return []
            sources = np.frombuffer(self.source_id, dtype=np.uint8)
            mask &= sources == self._source_ids[source]
        start = np.frombuffer(self.start, dtype=np.int64)[mask]
        end = np.frombuffer(self.end, dtype=np.int64)[mask]
        return (end - start).tolist()

    # -- wrapping the program ----------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever an fpwsim module binds it."""
        import fpwsim  # noqa: F401  (loads every module listed in TRACED)
        import fpwsim.cli  # noqa: F401

        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "fpwsim" or name.startswith("fpwsim."))
        ]
        for span_name, (module_name, path) in TRACED.items():
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name, original)
            if "." in path:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, span_name, original):
        observe = _OBSERVERS.get(span_name)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.begin(span_name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer.finish(index)
                tracer.count(f"{span_name}.errors")
                tracer.count(f"{span_name}.errors.{type(exc).__name__}")
                raise
            tracer.finish(index)
            if observe is not None:
                observe(tracer, index, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", span_name)
        return traced

    # -- persistence ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "spans": [
                [self.name_id[i], self.start[i], self.end[i], self.parent[i],
                 self.op[i]]
                for i in range(len(self.start))
            ],
            "counts": self.counts,
            "maxima": self.maxima,
        }

    def merge(self, data: dict) -> None:
        """Add a child process's spans under the currently open span."""
        offset = len(self.start)
        outer = self._stack[-1] if self._stack else -1
        for name_id, start, end, parent, op in data["spans"]:
            self.name_id.append(self._intern(data["names"][name_id]))
            self._append_source()
            self.start.append(start)
            self.end.append(end)
            self.parent.append(outer if parent < 0 else parent + offset)
            self.op.append(op)
        # The child counted under its own source; re-key under ours.
        for key, value in data["counts"].items():
            self.count(key.split(":", 1)[1], value)
        for key, value in data["maxima"].items():
            self.note_max(key.split(":", 1)[1], value)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            handle.write("name,start_ns,end_ns,parent,op,source\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{self.names[self.name_id[i]]},{self.start[i]},"
                    f"{self.end[i]},{self.parent[i]},{self.op[i]},"
                    f"{self.sources[self.source_id[i]]}\n"
                )


# -- counters recorded at each traced boundary --------------------------------

def _observe_sweep(tracer, index, args, kwargs, response):
    import numpy as np

    magnitude = np.abs(response.s21)
    tracer.count("com_resonator.sweeps")
    tracer.count("com_resonator.sweep_points", len(response.frequencies))
    tracer.count("com_resonator.gap_points", len(response.gap_indices))
    if np.nanmax(magnitude) > PASSIVITY_LIMIT:
        tracer.count("com_resonator.nonpassive_sweeps")


def _observe_csv(tracer, index, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    tracer.count("com_resonator.csv_bytes", os.path.getsize(path))


def _observe_solve(tracer, index, args, kwargs, solution):
    tracer.count("fpw_dispersion.solve_iterations", solution.iterations)


def _observe_coupling(tracer, index, args, kwargs, report):
    tracer.count("liquid_sensing.coupling_reports")
    if not report.density_sensing_valid:
        tracer.count("liquid_sensing.coupled")


def _observe_calibrated(tracer, index, args, kwargs, result):
    tracer.count("liquid_sensing.calibrated_inversions")
    if result[1]:
        tracer.count("liquid_sensing.extrapolated")


def _observe_cli(tracer, index, args, kwargs, result):
    tracer.rename(index, f"cli.run.{result.command}")
    if result.exit_status != 0:
        tracer.count("cli.nonzero_exits")


_OBSERVERS = {
    "com_resonator.s21_sweep": _observe_sweep,
    "com_resonator.write_sweep_csv": _observe_csv,
    "fpw_dispersion.loaded_velocity": _observe_solve,
    "liquid_sensing.viscosity_coupling_report": _observe_coupling,
    "liquid_sensing.invert_density_calibrated": _observe_calibrated,
    "cli.run": _observe_cli,
}


def load_child_spans(path) -> dict:
    with open(path) as handle:
        return json.load(handle)
