"""Experiment runner: seeded multi-run campaigns, overhead timing, reports.

A campaign runs one controller on one input trace for a number of seeded
runs.  Learning controllers persist their value table between runs, so run
k resumes from whatever run k-1 learned.  Run k of every campaign uses seed
``base_seed + k``, which gives every controller the identical sequence of
CPU availabilities and inputs for a fair comparison.

Wall-clock decision timing is kept out of the metric files so campaign
outputs are byte-identical across repeated executions with the same seed;
timings land in a separate file.
"""

from __future__ import annotations

import math
import os
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .controllers import (
    ControllerObservation,
    HeuristicController,
    HeuristicParams,
    LearningParams,
    QLearningController,
    QTable,
    StaticController,
    make_action_space,
    qtable_load_or_zeros,
    qtable_save,
    reward,
    static_fast_index,
)
from .profiling import ProfileTable
from .service_model import (
    Configuration,
    Requirement,
    ServiceTopology,
    enumerate_configurations,
    sort_by_objective,
)
from .simenv import TRACE_KINDS, CpuChain, CpuChainParams, Environment, InputTrace

CONTROLLER_KINDS = ("static-hp", "static-fast", "heuristic", "rl1", "rl2")
RL_ENCODERS = {"rl1": "v1", "rl2": "v2"}  # learner kind -> state encoder

TRACE_FILE_HEADER = "step,cpu,input_size,ordinal,latency,satisfied,reward"
_TRACE_COLUMNS = tuple(TRACE_FILE_HEADER.split(","))
METRICS_HEADER = "run,steps,mean_objective,latency_satisfaction_pct,mean_reward"
TIMINGS_HEADER = "run,decide_median_s,decide_p99_s"


class CampaignLockError(RuntimeError):
    """Another campaign is already writing to the same persistence path."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _sum(values: Iterable[float]) -> float:
    """Left-to-right float sum; builtin ``sum()`` compensates from Python 3.12 on.

    Every metric goes through this one order, so ``metrics.csv`` keeps its
    bytes on every Python version and matches a trace re-read line by line.
    """
    total = 0.0
    for x in values:
        total += x
    return total


@dataclass
class EpisodeTrace:
    """One episode's per-frame values, one typed column each.

    Frame ``t`` is index ``t`` of every column: its availability and input
    size, the chosen configuration's ordinal, and what the frame gave.
    """

    cpu: array = field(default_factory=partial(array, "d"))
    input_size: array = field(default_factory=partial(array, "q"))
    ordinal: array = field(default_factory=partial(array, "q"))
    latency: array = field(default_factory=partial(array, "d"))
    satisfied: array = field(default_factory=partial(array, "b"))  # 0 or 1
    reward: array = field(default_factory=partial(array, "d"))
    objective: array = field(default_factory=partial(array, "d"))

    def __len__(self) -> int:
        return len(self.cpu)


@dataclass
class RunMetrics:
    run_index: int
    steps: int
    mean_objective: float
    latency_satisfaction_pct: float
    mean_reward: float
    decide_median_s: float
    decide_p99_s: float


@dataclass
class EpisodeResult:
    trace: EpisodeTrace
    metrics: RunMetrics
    decide_ns: array  # 'q': wall time of each decide() call, in step order


@dataclass
class CampaignResult:
    controller: str
    trace_kind: str
    objective_metric: str
    metrics: list[RunMetrics]
    out_dir: Path

    def mean_over_runs(self, attr: str) -> float:
        return _sum(getattr(m, attr) for m in self.metrics) / len(self.metrics)


@dataclass
class OverheadReport:
    controller: str
    steps: int
    decide_median_s: float
    decide_p99_s: float
    reference_frame_s: float

    @property
    def total_s(self) -> float:
        return self.decide_median_s + self.reference_frame_s

    @property
    def impact_pct(self) -> float:
        return 100.0 * self.decide_median_s / self.total_s


@dataclass
class ExperimentSpec:
    """Everything one campaign needs: model of the world plus run policy."""

    topology: ServiceTopology
    requirement: Requirement
    profile: ProfileTable
    trace: InputTrace
    controller: str
    out_dir: Path
    cpu_params: CpuChainParams = field(default_factory=CpuChainParams)
    heuristic_params: HeuristicParams = field(default_factory=HeuristicParams)
    learning_params: LearningParams = field(default_factory=LearningParams)
    action_count: int | str = 16
    runs: int = 50
    base_seed: int = 0
    reference_input: int | None = None

    def __post_init__(self) -> None:
        if self.controller not in CONTROLLER_KINDS:
            raise ValueError(
                f"unknown controller {self.controller!r}; pick from {CONTROLLER_KINDS}"
            )
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be a non-negative integer, got {self.base_seed}")
        self.out_dir = Path(self.out_dir)

    @property
    def qtable_path(self) -> Path:
        """Where a learning controller persists its table between runs."""
        return self.out_dir / "qtable.txt"

    @property
    def reference_size(self) -> int:
        return (
            self.reference_input
            if self.reference_input is not None
            else self.profile.input_sizes[0]
        )


def build_controller(
    kind: str,
    actions: list[Configuration],
    profile: ProfileTable,
    requirement: Requirement,
    reference_input: int,
    heuristic_params: HeuristicParams,
    learning_params: LearningParams,
    table: QTable | None = None,
    rng: np.random.Generator | None = None,
):
    if kind == "static-hp":
        return StaticController(0, name=kind)
    if kind == "static-fast":
        return StaticController(
            static_fast_index(actions, profile, reference_input), name=kind
        )
    if kind == "heuristic":
        return HeuristicController(len(actions), heuristic_params)
    encoder = RL_ENCODERS.get(kind)
    if encoder is not None:
        if table is None:
            table = QTable.zeros(encoder, len(actions))
        return QLearningController(
            encoder, table, requirement, learning_params, rng=rng, name=kind
        )
    raise ValueError(f"unknown controller {kind!r}")


def run_episode(
    env: Environment,
    controller,
    actions: Sequence[Configuration],
    seed: int | np.random.SeedSequence | None,
    run_index: int = 0,
) -> EpisodeResult:
    """One full pass over the environment's trace with one controller."""
    requirement = env.requirement
    target = requirement.latency_target
    state = env.reset(seed)
    controller.reset()
    obs = ControllerObservation(cpu_availability=state.cpu_availability)
    cpu_used, size_used = state.cpu_availability, state.input_size
    trace = EpisodeTrace()
    decide_ns = array("q")
    # Bound appends: one attribute lookup per column per episode, not per frame.
    add_ns = decide_ns.append
    add_cpu, add_size, add_ordinal = trace.cpu.append, trace.input_size.append, trace.ordinal.append
    add_latency, add_satisfied = trace.latency.append, trace.satisfied.append
    add_reward, add_objective = trace.reward.append, trace.objective.append
    decide = controller.decide
    env_step = env.step
    clock = time.perf_counter_ns
    for _ in range(env.length):
        t0 = clock()
        action_index = decide(obs)
        add_ns(clock() - t0)
        config = actions[action_index]
        latency, objective, satisfied, observation, _ = env_step(config)
        # Positional construction in field order: keywords cost more per step.
        obs = ControllerObservation(
            observation.cpu_availability,
            action_index,
            latency / target,
            satisfied,
            objective,
        )
        add_cpu(cpu_used)
        add_size(size_used)
        add_ordinal(config.ordinal)
        add_latency(latency)
        add_satisfied(satisfied)
        add_reward(reward(obs, requirement))
        add_objective(objective)
        cpu_used, size_used = observation.cpu_availability, observation.input_size
    controller.finish(obs)
    return EpisodeResult(
        trace=trace,
        metrics=_metrics(run_index, trace, decide_ns),
        decide_ns=decide_ns,
    )


def _metrics(run_index: int, trace: EpisodeTrace, decide_ns: array) -> RunMetrics:
    n = len(trace)
    times = np.frombuffer(decide_ns, dtype=np.int64) / 1e9
    return RunMetrics(
        run_index=run_index,
        steps=n,
        mean_objective=_sum(trace.objective) / n,
        latency_satisfaction_pct=100.0 * sum(trace.satisfied) / n,
        mean_reward=_sum(trace.reward) / n,
        decide_median_s=float(np.percentile(times, 50)),
        decide_p99_s=float(np.percentile(times, 99)),
    )


class _Spellings(dict):
    """float -> ``repr(float(x))``, computed once per distinct value.

    Zero is never stored: 0.0 and -0.0 are equal keys but spell differently.
    """

    def __missing__(self, x: float) -> str:
        spelled = repr(float(x))
        if x:
            self[x] = spelled
        return spelled


def write_run_trace(path: Path, trace: EpisodeTrace) -> None:
    """Write ``trace`` as a run-trace CSV, one row per frame as it is formatted."""
    spell = _Spellings()
    columns = zip(
        trace.cpu, trace.input_size, trace.ordinal, trace.latency, trace.satisfied, trace.reward
    )
    rows = (
        f"{step},{spell[cpu]},{input_size},{ordinal},"
        f"{spell[latency]},{satisfied},{spell[rew]}\n"
        for step, (cpu, input_size, ordinal, latency, satisfied, rew) in enumerate(columns)
    )
    with open(path, "w", encoding="utf-8") as f:
        f.write(TRACE_FILE_HEADER + "\n")
        f.writelines(rows)


def _lock_owner(lock: Path) -> int | None:
    """The PID written in a lock file, or None when it holds none."""
    try:
        pid = int(lock.read_text(encoding="utf-8").strip())
    except (FileNotFoundError, ValueError):
        return None
    return pid if pid > 0 else None


def _is_running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):  # gone, or no possible PID
        return False
    except PermissionError:  # alive, but owned by another user
        return True
    return True


@contextmanager
def _persistence_lock(path: Path):
    """Hold ``<path>.lock`` (holding this process's PID) for the block.

    A lock whose PID names no running process was left by a killed campaign
    and is taken over; a lock without a PID is always refused.
    """
    lock = path.with_name(path.name + ".lock")
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        owner = _lock_owner(lock)
        if owner is None:
            raise CampaignLockError(
                f"{lock} exists: another campaign appears to be using {path}; "
                "remove the lock file if that campaign is no longer running"
            ) from None
        if _is_running(owner):
            raise CampaignLockError(
                f"{lock} is held by running process {owner}: "
                f"another campaign is using {path}"
            ) from None
        lock.unlink(missing_ok=True)
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise CampaignLockError(
                f"{lock} was taken by another campaign while replacing a stale lock"
            ) from None
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
        yield
    finally:
        os.close(fd)
        lock.unlink(missing_ok=True)


def run_experiment(spec: ExperimentSpec) -> CampaignResult:
    """Run one campaign: ``spec.runs`` seeded episodes of one controller.

    Learning controllers start run 0 from an all-zero table (any existing
    file at the persistence path is overwritten) and chain the table through
    the remaining runs via save/load round trips.
    """
    configs = enumerate_configurations(spec.topology)
    sorted_configs = sort_by_objective(
        configs, spec.profile, spec.reference_size, sense=spec.requirement.objective_sense
    )
    actions = make_action_space(sorted_configs, spec.action_count)
    env = Environment(spec.profile, spec.requirement, spec.trace, CpuChain(spec.cpu_params))
    runs_dir = spec.out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    encoder = RL_ENCODERS.get(spec.controller)

    def _run_all() -> list[RunMetrics]:
        all_metrics: list[RunMetrics] = []
        for k in range(spec.runs):
            ss = np.random.SeedSequence(spec.base_seed + k)
            env_ss, ctrl_ss = ss.spawn(2)
            table = None
            if encoder:
                table = (
                    QTable.zeros(encoder, len(actions))
                    if k == 0
                    else qtable_load_or_zeros(spec.qtable_path, encoder, len(actions))
                )
            controller = build_controller(
                spec.controller,
                actions,
                spec.profile,
                spec.requirement,
                spec.reference_size,
                spec.heuristic_params,
                spec.learning_params,
                table=table,
                rng=np.random.default_rng(ctrl_ss),
            )
            episode = run_episode(env, controller, actions, env_ss, run_index=k)
            write_run_trace(runs_dir / f"run_{k:03d}.csv", episode.trace)
            if encoder:
                qtable_save(controller.table, spec.qtable_path)
            all_metrics.append(episode.metrics)
        return all_metrics

    if encoder:
        spec.qtable_path.parent.mkdir(parents=True, exist_ok=True)
        with _persistence_lock(spec.qtable_path):
            metrics = _run_all()
    else:
        metrics = _run_all()

    _write_metrics(spec.out_dir / "metrics.csv", metrics)
    _write_timings(spec.out_dir / "timings.csv", metrics)
    return CampaignResult(
        controller=spec.controller,
        trace_kind=spec.trace.kind,
        objective_metric=spec.requirement.objective_metric,
        metrics=metrics,
        out_dir=spec.out_dir,
    )


def _write_metrics(path: Path, metrics: list[RunMetrics]) -> None:
    lines = [METRICS_HEADER]
    for m in metrics:
        lines.append(
            f"{m.run_index},{m.steps},{_fmt(m.mean_objective)},"
            f"{_fmt(m.latency_satisfaction_pct)},{_fmt(m.mean_reward)}"
        )
    n = len(metrics)
    lines.append(
        "mean,{steps},{obj},{sat},{rew}".format(
            steps=sum(m.steps for m in metrics) // n,
            obj=_fmt(_sum(m.mean_objective for m in metrics) / n),
            sat=_fmt(_sum(m.latency_satisfaction_pct for m in metrics) / n),
            rew=_fmt(_sum(m.mean_reward for m in metrics) / n),
        )
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_timings(path: Path, metrics: list[RunMetrics]) -> None:
    lines = [TIMINGS_HEADER]
    for m in metrics:
        lines.append(f"{m.run_index},{_fmt(m.decide_median_s)},{_fmt(m.decide_p99_s)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def measure_overhead(
    controller_kind: str,
    steps: int = 20000,
    warmup: int = 1000,
    reference_frame_s: float = 0.070,
    action_count: int | str = 16,
    seed: int = 7,
    profile: ProfileTable | None = None,
    topology: ServiceTopology | None = None,
    requirement: Requirement | None = None,
) -> OverheadReport:
    """Time the per-step decision cost of a controller over a long episode.

    Runs one episode of ``warmup + steps`` frames through :func:`run_episode`
    and keeps the decide() durations after the first ``warmup``.  Only the
    decide() call is timed (for learners that includes the value update).
    The impact percentage relates the median decision time to a reference
    frame processing time, 70 ms by default.
    """
    from . import defaults
    from .simenv import make_trace

    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0 < reference_frame_s < float("inf"):  # refuses NaN too
        raise ValueError(
            f"reference frame time must be a finite number > 0, got {reference_frame_s} s"
        )
    topology = topology or defaults.default_topology()
    requirement = requirement or defaults.default_requirement()
    if profile is None:
        from .profiling import generate_synthetic_profile

        profile = generate_synthetic_profile(
            defaults.default_model(), topology, defaults.DEFAULT_INPUT_SIZES
        )
    trace = make_trace("random", length=warmup + steps)
    reference = profile.input_sizes[0]
    configs = sort_by_objective(
        enumerate_configurations(topology), profile, reference, sense=requirement.objective_sense
    )
    actions = make_action_space(configs, action_count)
    env = Environment(profile, requirement, trace)
    controller = build_controller(
        controller_kind,
        actions,
        profile,
        requirement,
        reference,
        HeuristicParams(),
        LearningParams(),
        rng=np.random.default_rng(seed + 1),
    )
    episode = run_episode(env, controller, actions, seed)
    timed = np.frombuffer(episode.decide_ns, dtype=np.int64)[warmup:] / 1e9
    return OverheadReport(
        controller=controller_kind,
        steps=len(timed),
        decide_median_s=float(np.percentile(timed, 50)),
        decide_p99_s=float(np.percentile(timed, 99)),
        reference_frame_s=reference_frame_s,
    )


def emit_report(results: Sequence[CampaignResult], out_dir: str | Path) -> dict[str, Path]:
    """Write the cross-campaign summary table and per-controller averages.

    summary.csv has one row per (metric, trace) and one column per
    controller; bar_chart.csv averages each controller over all traces.
    Per-step trace files were already written by each campaign under its
    own directory.
    """
    if not results:
        raise ValueError("no campaign results to report")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def _canonical(known: tuple[str, ...]):
        return lambda name: (known.index(name) if name in known else len(known), name)

    controllers = sorted(
        dict.fromkeys(r.controller for r in results), key=_canonical(CONTROLLER_KINDS)
    )
    traces = sorted(dict.fromkeys(r.trace_kind for r in results), key=_canonical(TRACE_KINDS))
    objective_metric = results[0].objective_metric
    by_key = {(r.controller, r.trace_kind): r for r in results}

    lines = ["metric,trace," + ",".join(controllers)]
    for metric_label, attr in (
        (objective_metric, "mean_objective"),
        ("latency_satisfaction_pct", "latency_satisfaction_pct"),
    ):
        for trace in traces:
            cells = []
            for controller in controllers:
                result = by_key.get((controller, trace))
                cells.append("" if result is None else _fmt(result.mean_over_runs(attr)))
            lines.append(f"{metric_label},{trace}," + ",".join(cells))
    summary_path = out_dir / "summary.csv"
    summary_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    bar_lines = [f"controller,mean_{objective_metric},mean_latency_satisfaction_pct"]
    for controller in controllers:
        rows = [r for r in results if r.controller == controller]
        obj = _sum(r.mean_over_runs("mean_objective") for r in rows) / len(rows)
        sat = _sum(r.mean_over_runs("latency_satisfaction_pct") for r in rows) / len(rows)
        bar_lines.append(f"{controller},{_fmt(obj)},{_fmt(sat)}")
    bar_path = out_dir / "bar_chart.csv"
    bar_path.write_text("\n".join(bar_lines) + "\n", encoding="utf-8")
    return {"summary": summary_path, "bar_chart": bar_path}


def _trace_row(line: str, step: int, configs: int) -> tuple[int, int, float]:
    """(ordinal, satisfied, reward) of the run-trace row due at ``step``.

    Raises ValueError naming the first cell that a trace writer could not
    have written.
    """
    cells = line.rstrip("\n").split(",")
    if len(cells) != len(_TRACE_COLUMNS):
        raise ValueError(f"expected {len(_TRACE_COLUMNS)} cells, got {len(cells)}")
    values = []
    for name, cell, kind in zip(_TRACE_COLUMNS, cells, (int, float, int, int, float, int, float)):
        try:
            value = kind(cell)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"{name} {cell!r} is not {what}") from None
        if kind is float and not math.isfinite(value):
            raise ValueError(f"{name} {cell!r} is not finite")
        values.append(value)
    row_step, _, _, ordinal, _, satisfied, rew = values
    if row_step != step:
        raise ValueError(f"step {row_step} where step {step} is due")
    if not 0 <= ordinal < configs:
        raise ValueError(f"ordinal {ordinal} is outside the {configs} configurations")
    if satisfied not in (0, 1):
        raise ValueError(f"satisfied {cells[5]!r} is not 0 or 1")
    return ordinal, satisfied, rew


def recompute_metrics_from_trace(
    path: str | Path,
    sorted_configs: Sequence[Configuration],
    profile: ProfileTable,
    run_index: int = 0,
) -> RunMetrics:
    """Rebuild a run's metrics from its per-step trace file.

    Used by the report verb and as a cross-check that summary metrics match
    what the traces imply.  Timing fields are not recoverable from traces
    and come back as zero.  The file is read one row at a time; a malformed
    row raises ValueError starting with ``<path>:<line>:``.
    """
    n = 0
    sum_obj = 0.0
    sum_sat = 0
    sum_reward = 0.0
    # A byte that is not UTF-8 reads as U+FFFD, which no cell parses.
    with open(path, encoding="utf-8", errors="replace") as f:
        if f.readline().rstrip("\n") != TRACE_FILE_HEADER:
            raise ValueError(f"{path}: not a run trace file")
        for lineno, line in enumerate(f, start=2):
            try:
                ordinal, satisfied, rew = _trace_row(line, n, len(sorted_configs))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            sum_obj += profile.objective(sorted_configs[ordinal].assignments)
            sum_sat += satisfied
            sum_reward += rew
            n += 1
    if n == 0:
        raise ValueError(f"{path}: trace has no steps")
    return RunMetrics(
        run_index=run_index,
        steps=n,
        mean_objective=sum_obj / n,
        latency_satisfaction_pct=100.0 * sum_sat / n,
        mean_reward=sum_reward / n,
        decide_median_s=0.0,
        decide_p99_s=0.0,
    )
