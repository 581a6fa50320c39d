"""Output checks for benchmark passes.

Two oracles guard every pass:

* Digests: ``metrics.csv``, ``summary.csv`` and every run trace are hashed.
  For the default seed the hashes must equal the ones recorded from the
  seed commit in ``digests.json``; for any seed, every later pass of a run
  must reproduce the first pass byte for byte (traced passes included).
* Self-consistency, for any seed: ``recompute_metrics_from_trace``
  reproduces each ``metrics.csv`` row, every trace has the trace's length,
  and ``satisfied`` equals ``latency <= target`` on every step.

Problems are reported per campaign directory; a problem with the report
itself is charged to every campaign of the pass.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from adaptsim import harness

from workloads import rank_configurations

REPORT = "summary.csv"


def deterministic_files(out_dir: Path) -> list[Path]:
    """The outputs that must not depend on wall-clock time."""
    files = [out_dir / REPORT]
    for campaign in sorted(p for p in out_dir.iterdir() if p.is_dir()):
        files.append(campaign / "metrics.csv")
        files.extend(sorted((campaign / "runs").glob("run_*.csv")))
    return [f for f in files if f.is_file()]


def digest_outputs(out_dir: Path) -> dict[str, str]:
    digests = {}
    for path in deterministic_files(out_dir):
        h = hashlib.sha256()
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
        digests[path.relative_to(out_dir).as_posix()] = h.hexdigest()
    return digests


def output_bytes(out_dir: Path) -> int:
    """Bytes on disk under ``out_dir``."""
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def compare_digests(
    got: dict[str, str], expected: dict[str, str], campaigns: list[str], what: str
) -> dict[str, list[str]]:
    """Problems per campaign where ``got`` differs from ``expected``."""
    problems: dict[str, list[str]] = {}
    for rel in sorted(set(got) | set(expected)):
        if got.get(rel) == expected.get(rel):
            continue
        if rel not in got:
            msg = f"{rel}: missing ({what})"
        elif rel not in expected:
            msg = f"{rel}: unexpected file ({what})"
        else:
            msg = f"{rel}: content differs ({what})"
        owner = rel.split("/", 1)[0]
        for name in campaigns if owner == REPORT else [owner]:
            problems.setdefault(name, []).append(msg)
    return problems


def _scan_trace(path: Path, target: float) -> tuple[int, list[str]]:
    """Step count of a run trace and any step whose ``satisfied`` is wrong."""
    problems = []
    steps = 0
    with open(path, encoding="utf-8") as f:
        if f.readline().rstrip("\n") != harness.TRACE_FILE_HEADER:
            return 0, [f"{path.name}: bad header"]
        for line in f:
            cells = line.split(",")
            steps += 1
            if int(cells[5]) != int(float(cells[4]) <= target):
                problems.append(f"{path.name} step {cells[0]}: satisfied={cells[5]} "
                                f"but latency={cells[4]}")
    return steps, problems


def _metrics_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != harness.METRICS_HEADER:
        raise ValueError(f"{path}: bad header")
    return [line.split(",") for line in lines[1:]]


def check_campaign(spec, sorted_configs) -> list[str]:
    """Self-consistency of one campaign's metrics.csv and run traces."""
    problems: list[str] = []
    target = spec.requirement.constraints[0].target
    rows = _metrics_rows(spec.out_dir / "metrics.csv")
    if len(rows) != spec.runs + 1 or rows[-1][0] != "mean":
        return [f"metrics.csv: expected {spec.runs} run rows and a mean row"]
    recomputed = []
    for k, row in enumerate(rows[:-1]):
        path = spec.out_dir / "runs" / f"run_{k:03d}.csv"
        if not path.is_file():
            problems.append(f"{path.name}: missing")
            continue
        steps, bad_steps = _scan_trace(path, target)
        problems.extend(bad_steps[:3])
        if steps != spec.trace.length:
            problems.append(f"{path.name}: {steps} steps, trace has {spec.trace.length}")
        m = harness.recompute_metrics_from_trace(path, sorted_configs, spec.profile, k)
        recomputed.append(m)
        want = [str(k), str(m.steps), m.mean_objective, m.latency_satisfaction_pct,
                m.mean_reward]
        got = row[:2] + [float(x) for x in row[2:]]
        if got != want:
            problems.append(f"metrics.csv run {k}: {row} but trace gives {want}")
    if len(recomputed) == spec.runs:
        n = spec.runs
        want_mean = [
            "mean",
            str(sum(m.steps for m in recomputed) // n),
            sum(m.mean_objective for m in recomputed) / n,
            sum(m.latency_satisfaction_pct for m in recomputed) / n,
            sum(m.mean_reward for m in recomputed) / n,
        ]
        got_mean = rows[-1][:2] + [float(x) for x in rows[-1][2:]]
        if got_mean != want_mean:
            problems.append(f"metrics.csv mean row: {rows[-1]} but traces give {want_mean}")
    return problems


def check_pass(specs) -> dict[str, list[str]]:
    """Self-consistency problems per campaign directory name.

    The specs come from one config, so they share the profile and the
    reference input that rank the configurations.
    """
    ranked = rank_configurations(specs[0])
    problems: dict[str, list[str]] = {}
    for spec in specs:
        try:
            found = check_campaign(spec, ranked)
        except (OSError, ValueError, IndexError) as exc:
            found = [f"unreadable output: {exc}"]
        if found:
            problems[spec.out_dir.name] = found
    return problems
