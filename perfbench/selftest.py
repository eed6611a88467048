"""Self-test of the benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/selftest.py

Checks, at tiny sizes (about a minute in all):

* a run of each workload, untraced and traced, emits exactly the metrics
  BENCHMARK.json names, each with its unit;
* every correctness gate trips on a deliberately corrupted result: a
  non-finite S21 point, a perturbed port-2 S21 (reciprocity), a response
  with no resonance, a wrong density, a nonzero CLI exit and a short CSV;
* a documented refusal (the false NoSolutionError of the viscous density
  inversion) is counted in the run record, without failing the op;
* run.py exits nonzero without a result when the fpwsim sources are missing.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run

SEED = 1
SECONDS = 1.0

failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        failures.append(what)


@contextlib.contextmanager
def patched(owner, name, replacement):
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield original
    finally:
        setattr(owner, name, original)


def tiny_run(workload, trace=0):
    return run.run_one(workload, SEED, SECONDS, trace, tiny=True)


def check_metric_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOAD_NAMES:
            result, record = tiny_run(workload, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(result["correct"], f"{workload} trace={trace} is correct "
                   f"{record['failures']}")
            expect(got == wanted,
                   f"{workload} trace={trace} emits the {key} metrics of "
                   f"BENCHMARK.json with their units "
                   f"(missing {sorted(set(wanted) - set(got))}, "
                   f"extra {sorted(set(got) - set(wanted))})")


def corrupted(workload, what, owner, name, make):
    """Run a workload with ``owner.name`` replaced; the run must fail a gate."""
    with patched(owner, name, make(getattr(owner, name))):
        result, record = tiny_run(workload)
    expect(not result["correct"] and result["failed"] > 0,
           f"{workload}: gate trips on {what} ({record['failures'][:1]})")


def check_gates() -> None:
    import numpy as np

    import fpwsim as fp
    import workloads

    op_points = workloads.S21DesignSweep(SEED, run.WORK, tiny=True).points

    def in_op(kwargs):
        # Corrupt only the ops' sweeps; set-up warm-up sweeps are shorter.
        return kwargs.get("points") == op_points

    def nan_point(sweep):
        def corrupt(*args, **kwargs):
            response = sweep(*args, **kwargs)
            if not in_op(kwargs):
                return response
            s21 = response.s21.copy()
            s21[len(s21) // 3] = np.nan
            return replace(response, s21=s21)
        return corrupt

    def perturb_port2(sweep):
        def corrupt(*args, **kwargs):
            response = sweep(*args, **kwargs)
            if not in_op(kwargs) or kwargs.get("drive_port") != 2:
                return response
            s21 = response.s21.copy()
            s21[len(s21) // 2] += 1e-6 * np.max(np.abs(s21))
            return replace(response, s21=s21)
        return corrupt

    def flat(sweep):
        def corrupt(*args, **kwargs):
            response = sweep(*args, **kwargs)
            if not in_op(kwargs):
                return response
            return replace(response, s21=np.full_like(response.s21, 0.5))
        return corrupt

    def wrong_density(invert):
        def corrupt(*args, **kwargs):
            return invert(*args, **kwargs) * (1.0 + 1e-6)
        return corrupt

    def failing_command(make_command):
        def corrupt(self, kind, rng, liquids):
            make_command(self, kind, rng, liquids)
            return workloads.Command(("s21", "--liquid", "mercury", "--out",
                                      "s21_fpw.csv"), "s21_fpw.csv", 1)
        return corrupt

    def short_csv(op):
        def corrupt(self, i):
            command, process = op(self, i)
            if command.csv is not None:
                path = self.workdir / command.csv
                lines = path.read_bytes().splitlines(keepends=True)
                path.write_bytes(b"".join(lines[:-1]))
            return command, process
        return corrupt

    corrupted("s21_design_sweep", "a non-finite S21 point",
              fp, "s21_sweep", nan_point)
    corrupted("s21_design_sweep", "a perturbed port-2 S21 (reciprocity)",
              fp, "s21_sweep", perturb_port2)
    corrupted("s21_design_sweep", "a response with no resonance",
              fp, "s21_sweep", flat)
    corrupted("density_roundtrip", "a wrong density",
              fp, "density_from_frequency", wrong_density)
    corrupted("cli_batch", "a nonzero exit",
              workloads.CliBatch, "_command", failing_command)
    corrupted("cli_batch", "a CSV one row short",
              workloads.CliBatch, "op", short_csv)

    result, record = tiny_run("density_roundtrip")
    refused = record["observations"]["refused"]
    expect(result["correct"] and result["failed"] == 0 and refused > 0,
           "density_roundtrip: the documented false NoSolutionError is "
           f"counted, not failed ({refused} refused, {record['ops']})")

    with patched(fp, "density_from_frequency",
                 wrong_density(fp.density_from_frequency)):
        status = run.main(["--workload", "density_roundtrip", "--seed",
                           str(SEED), "--seconds", str(SECONDS)])
    expect(status == 1, f"run.py exits 1 when a gate fails (got {status})")


def check_missing_sources() -> None:
    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / run.BENCH.name,
                        ignore=shutil.ignore_patterns("_work", "_out",
                                                      "__pycache__"))
        process = subprocess.run(
            [sys.executable, f"{run.BENCH.name}/run.py", "--workload",
             "cli_batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(process.returncode != 0 and not process.stdout.strip(),
           "run.py exits nonzero without a result when src/ is missing "
           f"(exit {process.returncode})")


def main() -> int:
    error = run.prepare()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    check_metric_names()
    check_gates()
    check_missing_sources()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
