"""adaptsim benchmark runner.

Usage (from the repository root):

    python3 bench/run.py --workload grid_variable --seed 7 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 24 --trace 1

Runs a workload's campaigns through the public API (load_config ->
run_experiment -> emit_report), one whole pass per fresh process
(one_pass.py), repeating passes until ``--seconds`` of campaign time have
been measured, and checks every pass's outputs (see checks.py).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the traced
ones, plus the tracing overhead.  Human-readable lines come first; the last
line of standard output is the JSON result.  The exit status is nonzero
when any campaign fails or its outputs fail a check, and when the package
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_tmp"
DIGESTS = BENCH_DIR / "digests.json"

DEFAULT_SEED = 7  # the acceptance grid's seed; its outputs are pinned in digests.json
HELD_OUT_SEED = 1904  # not to be used while writing a change; re-check claims on it
SETUP_PROBES_PER_PASS = 2  # extra set-up-only processes before each untraced pass

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "frames/s",
    "peak_rss_mb": "MiB",
    "output_mb": "MB",
}


def machine(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout; git is not asked to look above the checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (git failed)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def spawn_pass(workload: str, config_path: Path, out_dir: Path, seed: int, mode: str):
    """Run one_pass.py in MODE: (setup seconds, pass report or {}) or None."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "one_pass.py"), workload, str(config_path), str(out_dir),
         str(seed), mode],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        lines = proc.stdout.read().splitlines()
    if proc.returncode != 0 or ready.strip() != "ready":
        return None
    if mode == "setup":
        return setup_s, {}
    return (setup_s, json.loads(lines[-1])) if lines else None


def check_recorded(name: str, digests: dict, campaigns: list[str]) -> dict:
    """Compare the default seed's outputs with the seed commit's, in digests.json."""
    from checks import compare_digests

    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if name not in recorded:
        return {c: [f"no recorded digests for {name}"] for c in campaigns}
    return compare_digests(digests, recorded[name], campaigns, "differs from the seed commit")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload, print its figures and return the JSON result."""
    import yaml
    from adaptsim import config

    from checks import check_pass, compare_digests, digest_outputs, output_bytes
    from workloads import WORKLOADS

    info = machine(seed)
    info.update(workload=name, seconds=seconds, trace=int(trace))
    print("machine: " + json.dumps(info))

    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        tmp = Path(tmp)
        config_path = tmp / "config.yaml"
        config_path.write_text(yaml.safe_dump(WORKLOADS[name].config), encoding="utf-8")
        first_dir = tmp / "pass_0"
        specs = config.load_config(config_path).campaign_specs(out_dir=first_dir, base_seed=seed)
        campaigns = [spec.out_dir.name for spec in specs]

        untraced: list[dict] = []
        setups: list[float] = []
        traced: list[dict] = []
        failed: set[tuple[int, str]] = set()
        problems: list[str] = []

        def fail(index, names, msg):
            failed.update((index, n) for n in names)
            problems.append(f"pass {index}: {msg}")

        first_digests = None
        measured = 0.0
        index = 0
        while True:
            use_tracer = trace and index % 2 == 1
            out_dir = tmp / f"pass_{index}"
            if not use_tracer:
                for _ in range(SETUP_PROBES_PER_PASS):
                    probe = spawn_pass(name, config_path, tmp / "setup_probe", seed, "setup")
                    if probe is None:
                        fail(index, campaigns, "set-up probe failed")
                    else:
                        setups.append(probe[0])
            t0 = time.perf_counter()
            outcome = spawn_pass(name, config_path, out_dir, seed,
                                 "traced" if use_tracer else "plain")
            if outcome is None:
                fail(index, campaigns, "pass process failed")
                measured += time.perf_counter() - t0
            else:
                setup_s, report = outcome
                measured += report["wall_s"]
                if use_tracer:
                    traced.append(report)
                else:
                    untraced.append(report)
                    setups.append(setup_s)
                for owner, tb in report["errors"].items():
                    fail(index, campaigns if owner == "summary.csv" else [owner],
                         f"{owner} raised:\n{tb}")
            digests = digest_outputs(out_dir) if out_dir.is_dir() else {}
            if index == 0:
                first_digests = digests
                out_bytes = output_bytes(out_dir) if digests else 0
            else:
                for owner, msgs in compare_digests(
                    digests, first_digests, campaigns, "differs from pass 0"
                ).items():
                    fail(index, [owner], "; ".join(msgs[:3]))
                shutil.rmtree(out_dir, ignore_errors=True)
            index += 1
            if measured >= seconds and (not trace or index % 2 == 0):
                break

        for owner, msgs in check_pass(specs).items():
            fail(0, [owner], "; ".join(msgs[:3]))
        if seed == DEFAULT_SEED:
            for owner, msgs in check_recorded(name, first_digests, campaigns).items():
                fail(0, [owner], "; ".join(msgs[:3]))
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass

    attempted = index * len(campaigns)
    print(f"workload {name}: {len(untraced)} untraced and {len(traced)} traced passes, "
          f"{attempted} campaigns attempted")
    metrics: dict[str, dict] = {}
    if untraced:
        walls = [r["wall_s"] for r in untraced]
        e2e = {
            "setup_s": median(setups),
            "wall_s": median(walls),
            "steps_per_s": median([r["frames"] / r["wall_s"] for r in untraced]),
            "peak_rss_mb": median([r["peak_rss_kib"] for r in untraced]) / 1024,
            "output_mb": out_bytes / 1e6,
        }
        print(f"  frames per pass: {untraced[0]['frames']}")
        print("  untraced pass wall_s: " + " ".join(f"{w:.4f}" for w in walls))
        print("  setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
        for key, value in e2e.items():
            print(f"  {key:<14} {value:>14.6f} {END_TO_END_UNITS[key]}")
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    print(f"  {'failed_pct':<14} {100.0 * len(failed) / attempted:>14.6f} %")
    for msg in problems[:20]:
        print("  FAILED " + msg.replace("\n", "\n    "))

    if trace:
        metrics = {}
        if traced and untraced:
            per_layer = {}
            unmeasured = []
            for key in traced[0]["layers"]:
                values = [r["layers"][key] for r in traced]
                if None in values:
                    unmeasured.append(key)
                else:
                    per_layer[key] = median(values)
            per_layer["trace.overhead_pct"] = 100.0 * (
                median([r["wall_s"] for r in traced]) / e2e["wall_s"] - 1.0
            )
            print("  traced pass wall_s:   " + " ".join(f"{r['wall_s']:.4f}" for r in traced))
            print("  per-layer, median over traced passes (units in bench/README.md):")
            for key, value in per_layer.items():
                print(f"    {key:<40} {value:>16.4f} {layer_unit(key)}")
            if unmeasured:
                print("  not measured, because their spans were never called: "
                      + " ".join(unmeasured))
            print("  calibrated wrapper entry and exit, taken off the caller's self time: "
                  + " ".join(f"{r['call_cost_ns']} ns" for r in traced) + " per wrapped call")
            print("  self time as a share of the first traced pass's wall_s:")
            for span, calls, self_ms, pct in traced[0]["shares"]:
                print(f"    {span:<34} {calls:>9} calls {self_ms:>11.2f} ms {pct:>7.2f} %")
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in per_layer.items()}

    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }


def layer_unit(name: str) -> str:
    for suffix, unit in (
        ("_calls", "count"), ("_bytes", "bytes"), ("_us_per_step", "us/step"),
        ("_us", "us"), ("_ms", "ms"), ("_pct", "%"),
    ):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="grid_variable, full_day, wide_actions or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"base_seed of every campaign (default {DEFAULT_SEED}; "
                             f"held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="campaign time to measure; whole passes, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "adaptsim" / "__init__.py").is_file():
        print(f"error: adaptsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    from workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)} or all")
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": value
                for name, r in results.items()
                for key, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
