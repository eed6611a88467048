"""Paired A/B runs of the fpwsim benchmark: a base commit against this checkout.

Usage, from the root of a source checkout:

    python3 tools/paired_bench.py --base REF --workload W [--workload W2 ...] \\
        --pairs N --seconds S --label L
    python3 tools/paired_bench.py --self-test

REF is exported with ``git archive`` into a temporary directory, which is
removed when the script ends. For each workload in turn, pair i (from 1)
runs the unchanged
``perfbench/run.py --workload W --seed i --seconds S --trace 0`` once in the
base tree and once in this checkout, with PYTHONDONTWRITEBYTECODE=1 and the
base running first in odd pairs, the change in even ones. The result is
written afresh to ``BENCH_<L>.json`` at the root of this checkout.

The file records Python, numpy and nproc, both commit SHAs and whether this
checkout differs from its HEAD (BENCH files aside); for each pair the seed,
the side that ran first, each side's end-to-end metrics, digest,
``correct`` flag and failed op count; and, per end-to-end metric of
BENCHMARK.json, both medians, the base's quartiles and interquartile range,
the number of pairs the change won, the metric's bound and whether the
change's median is worse than the base's by no more than bound x base
(null, unresolved, where the base's interquartile range is wider than
bound x base and not every change run beats every base run), and whether
a gain is shown: the change won at least 9 of 10 pairs (ties count for
neither side) and its median gain exceeds the base's interquartile range.

``--self-test`` compares HEAD with this checkout, one pair of 1 s per
workload of BENCHMARK.json, writes no file, and exits 0 only when every
pair gives equal digests and both sides report ``correct: true``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``: its result and digest."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, text=True, stdout=subprocess.PIPE,
    )
    lines = process.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, json.JSONDecodeError):
        raise SystemExit(f"error: {tree}: run.py gave no result "
                         f"(exit {process.returncode})")
    return {
        "exit": process.returncode,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digest": record["digest"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
        "env": record["env"],
    }


def run_pairs(trees: dict, workload: str, pairs: int,
              seconds: float) -> list[dict]:
    runs = []
    for i in range(pairs):
        seed = i + 1
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_side(trees[side], workload, seed, seconds)
        print(f"{workload} pair {i + 1}/{pairs} seed {seed}: "
              + ", ".join(f"{s} {pair[s]['metrics'].get('ops_per_s', 0):.6g} "
                          "ops/s" for s in SIDES), file=sys.stderr)
        runs.append(pair)
    return runs


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: both medians, the base's quartiles, the pairs won, the
    verdict against the metric's bound and whether a gain is shown."""
    summary = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [pair[side]["metrics"].get(name) for pair in runs]
                  for side in SIDES}
        if any(v is None for side in SIDES for v in values[side]):
            continue
        base_median = statistics.median(values["base"])
        change_median = statistics.median(values["change"])
        quartiles = (statistics.quantiles(values["base"], n=4)
                     if len(runs) > 1 else None)
        iqr = None if quartiles is None else quartiles[2] - quartiles[0]
        won = sum((c > b) if higher else (c < b)
                  for b, c in zip(values["base"], values["change"]))
        sign = 1 if higher else -1
        gain = (change_median - base_median) * sign
        allowed = metric["bound"] * base_median
        # A base spread wider than the bound cannot tell a breach from noise,
        # unless every change run beats every base run.
        unresolved = iqr is not None and iqr > allowed and not (
            min(sign * c for c in values["change"])
            > max(sign * b for b in values["base"]))
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "base_median": base_median,
            "change_median": change_median,
            "median_rel_change": change_median / base_median - 1.0,
            "base_quartiles": None if quartiles is None
            else [quartiles[0], quartiles[2]],
            "base_iqr": iqr,
            "change_won_pairs": won,
            "pairs": len(runs),
            "median_gain_exceeds_base_iqr": None if iqr is None else gain > iqr,
            "gain_shown": None if iqr is None
            else 10 * won >= 9 * len(runs) and gain > iqr,
            "bound": metric["bound"],
            "within_bound": None if unresolved else -gain <= allowed,
        }
    return summary


def with_base(ref: str, action):
    """Run ``action(trees)`` with ``ref`` exported; always remove it."""
    tree = Path(tempfile.mkdtemp(prefix="paired-bench-"))
    try:
        archive = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True,
                                 stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        return action({"base": tree, "change": ROOT})
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def commits(ref: str) -> dict:
    return {
        "base": git("rev-parse", "--verify", f"{ref}^{{commit}}"),
        "change": git("rev-parse", "--verify", "HEAD"),
        # The BENCH files this script writes do not count.
        "change_dirty": bool(git("status", "--porcelain", "--", ".",
                                 ":(exclude)BENCH_*.json")),
    }


def measure(args) -> int:
    if not re.fullmatch(r"[A-Za-z0-9_-]+", args.label):
        raise SystemExit("error: --label takes letters, digits, _ and -")
    shas = commits(args.base)
    results = with_base(shas["base"], lambda trees: {
        name: run_pairs(trees, name, args.pairs, args.seconds)
        for name in args.workload})
    env = next(iter(results.values()))[0]["change"]["env"]
    bench = {
        "label": args.label,
        "commits": shas,
        "host": {k: env[k] for k in ("python", "numpy", "nproc")},
        "command": ("PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py "
                    "--workload W --seed N --seconds S --trace 0, "
                    "base and change alternating which runs first"),
        "workloads": {},
    }
    metrics = benchmark_spec()["end_to_end"]
    for name, runs in results.items():
        for pair in runs:
            for side in SIDES:
                del pair[side]["env"]
        bench["workloads"][name] = {
            "pairs": args.pairs,
            "seconds": args.seconds,
            "runs": runs,
            "summary": summarize(runs, metrics),
        }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


def self_test() -> int:
    """HEAD against this checkout, one 1 s pair per workload."""
    names = [w["name"] for w in benchmark_spec()["workloads"]]
    results = with_base("HEAD", lambda trees: {
        name: run_pairs(trees, name, 1, 1.0)[0] for name in names})
    status = 0
    for name, pair in results.items():
        base, change = pair["base"], pair["change"]
        same = base["digest"] == change["digest"]
        correct = base["correct"] and change["correct"]
        print(f"{'ok  ' if same and correct else 'FAIL'} {name}: digests "
              f"{'equal' if same else 'differ'} ({base['digest']['sha256'][:12]}"
              f" / {change['digest']['sha256'][:12]}), correct "
              f"{base['correct']} / {change['correct']}")
        status |= not (same and correct)
    return int(status)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--base", help="git ref of the base side")
    parser.add_argument("--workload", action="append",
                        help="repeat to run several workloads")
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--label")
    args = parser.parse_args(argv)
    if not args.self_test:
        missing = [f"--{k}" for k in ("base", "workload", "pairs", "seconds",
                                      "label") if getattr(args, k) is None]
        if missing:
            parser.error("missing " + ", ".join(missing))
        if args.pairs < 1 or not args.seconds > 0:
            parser.error("--pairs must be >= 1 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return self_test() if args.self_test else measure(args)


if __name__ == "__main__":
    sys.exit(main())
