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

import fcntl
import math
import numbers
import os
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import zip_longest
from pathlib import Path
from typing import Iterable, Mapping, Sequence

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
from .simenv import (
    TRACE_KINDS,
    CpuChain,
    CpuChainParams,
    Environment,
    InputTrace,
    make_trace,
    refuse_latency_overflow,
)

CONTROLLER_KINDS = ("static-hp", "static-fast", "heuristic", "rl1", "rl2")
RL_ENCODERS = {"rl1": "v1", "rl2": "v2"}  # learner kind -> state encoder

TRACE_FILE_HEADER = "step,cpu,input_size,ordinal,latency,satisfied,reward"
_TRACE_COLUMNS = tuple(TRACE_FILE_HEADER.split(","))
_TRACE_CELL_TYPES = (int, float, int, int, float, int, float)  # of _TRACE_COLUMNS
METRICS_HEADER = "run,steps,mean_objective,latency_satisfaction_pct,mean_reward"
TIMINGS_HEADER = "run,decide_median_s,decide_p99_s"
OVERHEAD_SEED = 7  # measure_overhead's episode


class CampaignLockError(RuntimeError):
    """Another running campaign holds the lock on the same campaign directory."""


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
    """One episode's run trace in memory: the file's data columns, one typed array each.

    Frame ``t`` is index ``t`` of every column (the file's ``step``): its
    availability and input size, the chosen configuration's ordinal, and
    what the frame gave.  The ordinal determines the frame's objective.
    """

    cpu: array = field(default_factory=partial(array, "d"))
    input_size: array = field(default_factory=partial(array, "q"))
    ordinal: array = field(default_factory=partial(array, "q"))
    latency: array = field(default_factory=partial(array, "d"))
    satisfied: array = field(default_factory=partial(array, "b"))  # 0 or 1
    reward: array = field(default_factory=partial(array, "d"))

    def __post_init__(self) -> None:
        lengths = {f.name: len(getattr(self, f.name)) for f in fields(self)}
        if len(set(lengths.values())) > 1:
            named = ", ".join(f"{name} {n}" for name, n in lengths.items())
            raise ValueError(f"an episode trace's columns differ in length: {named}")

    @classmethod
    def over(cls, cpu: array, input_size: array) -> EpisodeTrace:
        """The frames of context ``cpu`` and ``input_size`` (held, not copied), the rest zeros."""
        zeros = (array(f.default_factory().typecode, [0]) * len(cpu) for f in fields(cls)[2:])
        return cls(cpu, input_size, *zeros)

    def __len__(self) -> int:
        return len(self.cpu)


@dataclass
class RunMetrics:  # one row of metrics.csv
    run_index: int
    steps: int
    mean_objective: float
    latency_satisfaction_pct: float
    mean_reward: float


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

    def __post_init__(self) -> None:
        if self.controller not in CONTROLLER_KINDS:
            raise ValueError(
                f"unknown controller {self.controller!r}; pick from {CONTROLLER_KINDS}"
            )
        for name in ("runs", "base_seed"):  # a numpy integer is read as an int; a bool is refused
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be a non-negative integer, got {self.base_seed}")
        self.out_dir = Path(self.out_dir)
        # Environment refuses it too; here it is refused before any campaign runs.
        target, floor = self.requirement.latency_target, self.cpu_params.min_avail
        refuse_latency_overflow(self.profile, target, self.trace.length, floor)

    @property
    def qtable_path(self) -> Path:
        """Where a learning controller persists its table between runs."""
        return self.out_dir / "qtable.txt"

    @property
    def reference_size(self) -> int:
        """The smallest profiled input size, where the configurations are ranked."""
        return self.profile.input_sizes[0]


def campaign_dir_name(controller: str, trace_kind: str) -> str:
    """The directory, under an output root, of ``controller``'s campaign on ``trace_kind``."""
    return f"{controller}_{trace_kind}"


def _campaign_of(name: str) -> tuple[str, str] | None:
    """``(controller, trace kind)`` that :func:`campaign_dir_name` gave ``name``, else None."""
    for kind in (*TRACE_KINDS, "custom"):
        if name.endswith(f"_{kind}") and len(name) > len(kind) + 1:
            return name[: -len(kind) - 1], kind
    return None


def rank_configurations(
    topology: ServiceTopology, profile: ProfileTable, sense: str
) -> list[Configuration]:
    """Every configuration of ``topology``, best objective first, with its ordinal."""
    return sort_by_objective(
        enumerate_configurations(topology), profile, profile.input_sizes[0], sense=sense
    )


def _set_up(spec: ExperimentSpec) -> tuple[list[Configuration], Environment]:
    """``spec``'s action space (rungs spread over the ranked configurations) and environment."""
    ranked = rank_configurations(spec.topology, spec.profile, spec.requirement.objective_sense)
    env = Environment(spec.profile, spec.requirement, spec.trace, CpuChain(spec.cpu_params))
    return make_action_space(ranked, spec.action_count), env


def build_controller(
    spec: ExperimentSpec,
    actions: list[Configuration],
    table: QTable | None = None,
    rng: np.random.Generator | None = None,
):
    """``spec.controller`` over ``actions``; a learner without ``table`` starts from zeros."""
    kind = spec.controller
    if kind == "static-hp":
        return StaticController(0, name=kind)
    if kind == "static-fast":
        return StaticController(static_fast_index(actions, spec.profile), name=kind)
    if kind == "heuristic":
        return HeuristicController(len(actions), spec.heuristic_params)
    if table is None:
        table = QTable.zeros(RL_ENCODERS[kind], len(actions))
    return QLearningController(table, spec.requirement, spec.learning_params, rng=rng, name=kind)


def run_episode(
    env: Environment,
    controller,
    actions: Sequence[Configuration],
    seed: int | np.random.SeedSequence | None,
    run_index: int = 0,
) -> EpisodeResult:
    """One full pass over the environment's trace with one controller."""
    for config in actions:
        if config.ordinal < 0:  # a frame's objective is found by its ordinal
            raise ValueError(f"action {config.assignments} has no ordinal; see sort_by_objective")
    ordinals = [config.ordinal for config in actions]
    requirement = env.requirement
    target = requirement.latency_target
    state = env.reset(seed)
    controller.reset()
    obs = ControllerObservation(cpu_availability=state.cpu_availability)
    # The context columns are env's; the others are allocated once and frame t fills index t.
    trace = EpisodeTrace.over(*env.context)
    decide_ns = array("q", [0]) * env.length
    # Local names: one attribute lookup per column per episode, not per frame.
    ordinal_col, latency_col = trace.ordinal, trace.latency
    satisfied_col, reward_col = trace.satisfied, trace.reward
    rows = [env.profile.row(config) for config in actions]
    count = len(actions)
    decide = controller.decide
    env_step = env.step
    clock = time.perf_counter_ns
    for t in range(env.length):
        t0 = clock()
        action_index = decide(obs)
        decide_ns[t] = clock() - t0
        if not 0 <= action_index < count:
            raise IndexError(f"decide() returned action {action_index} of {count} actions")
        latency, objective, satisfied, observation, _ = env_step(rows[action_index])
        # tuple.__new__ in field order skips the named tuple's Python-level __new__.
        obs = tuple.__new__(
            ControllerObservation,
            (observation.cpu_availability, action_index, latency / target, satisfied, objective),
        )
        ordinal_col[t] = ordinals[action_index]
        latency_col[t] = latency
        satisfied_col[t] = satisfied
        reward_col[t] = reward(obs, requirement)
    controller.finish(obs)
    objective_of = dict(zip(ordinals, env.profile.objectives[rows].tolist()))
    return EpisodeResult(
        trace=trace,
        metrics=_run_metrics(run_index, trace, objective_of),
        decide_ns=decide_ns,
    )


def _decide_quantiles(decide_ns: array) -> tuple[float, float]:
    """(median, p99) of decide() wall times given in ns, in seconds, interpolated
    linearly as ``np.percentile`` does, from one partition."""
    # Not np.percentile: its first call imports numpy.ma, inside the first campaign's time.
    # Over the ns themselves: a seconds copy would be one more temporary of the episode's length.
    last = len(decide_ns) - 1
    at = [last * 0.5, last * 0.99]
    kth = [min(int(x) + i, last) for x in at for i in (0, 1)]
    ns = np.partition(np.frombuffer(decide_ns, dtype=np.int64), kth)

    def lerp(x: float) -> float:
        lo, t = int(x), x - int(x)
        a, b = ns[lo].item(), ns[min(lo + 1, last)].item()
        return (b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t) / 1e9

    return lerp(at[0]), lerp(at[1])


def _run_metrics(
    run_index: int, trace: EpisodeTrace, objective_of: Mapping[int, float] | Sequence[float]
) -> RunMetrics:
    """A run's ``metrics.csv`` row from its trace, as the episode held it or as read back.

    ``objective_of[ordinal]`` is a frame's objective; each mean is summed
    left to right, as :func:`_sum` does, so both sources give the same bytes.
    """
    steps = len(trace)
    return RunMetrics(
        run_index=run_index,
        steps=steps,
        mean_objective=_sum(map(objective_of.__getitem__, trace.ordinal)) / steps,
        latency_satisfaction_pct=100.0 * sum(trace.satisfied) / steps,
        mean_reward=_sum(trace.reward) / steps,
    )


_BLOCK_ROWS = 1024  # rows a run trace is formatted at a time: the writer stays under 1 MB


def _spelled(values: np.ndarray) -> list[str]:
    """``values`` as a run trace spells them, ``repr`` of a float and ``str`` of an
    integer, each distinct value spelled once."""
    if values.dtype.kind == "f":  # by bits: 0.0 and -0.0 keep their own spellings
        bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
        spellings = list(map(repr, bits.view(np.float64).tolist()))
    else:
        distinct, inverse = np.unique(values, return_inverse=True)
        spellings = list(map(str, distinct.tolist()))
    return np.array(spellings, dtype=object)[inverse].tolist()


def write_run_trace(path: Path, trace: EpisodeTrace) -> None:
    """Write ``trace`` as a run-trace CSV, ``_BLOCK_ROWS`` rows at a time, each
    block a column at a time."""
    arrays = (getattr(trace, f.name) for f in fields(trace))
    columns = [np.frombuffer(column, dtype=column.typecode) for column in arrays]
    with open(path, "w", encoding="utf-8") as f:
        f.write(TRACE_FILE_HEADER + "\n")
        for start in range(0, len(trace), _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, len(trace))
            cells = [_spelled(column[start:stop]) for column in columns]
            f.write("\n".join(map(",".join, zip(map(str, range(start, stop)), *cells))) + "\n")


@contextmanager
def _persistence_lock(path: Path):
    """Hold an exclusive ``flock`` on ``<path>.lock`` for the block.  A lock file no
    process holds is taken, whatever it contains; the PID written there is for people."""
    lock = path.with_name(path.name + ".lock")
    fd = os.open(lock, os.O_CREAT | os.O_WRONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise CampaignLockError(
                f"{lock} is held by a running campaign: another campaign is using {path}"
            ) from None
        try:
            same_file = os.path.samestat(os.fstat(fd), os.stat(lock))
        except FileNotFoundError:
            same_file = False
        if not same_file:  # deleted or replaced by the campaign that held it before
            raise CampaignLockError(
                f"{lock} changed while being checked: another campaign is using {path}"
            )
        os.ftruncate(fd, 0)
        os.write(fd, f"{os.getpid()}\n".encode())
    except BaseException:
        os.close(fd)
        raise
    try:
        yield
    finally:
        lock.unlink(missing_ok=True)
        os.close(fd)  # releases the flock after the path is gone


def run_experiment(spec: ExperimentSpec) -> CampaignResult:
    """Run one campaign: ``spec.runs`` seeded episodes of one controller.

    Every campaign holds its directory's lock while it deletes an earlier
    run's records, Q-table included, and writes its own: a shorter re-run
    leaves none of the old ones behind.  So a learner's run 0 finds no table
    and starts from zeros, and each later run loads the one the run before saved.
    """
    actions, env = _set_up(spec)
    runs_dir = spec.out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    encoder = RL_ENCODERS.get(spec.controller)
    with _persistence_lock(spec.qtable_path):
        _clear_records(spec.out_dir)
        runs = [_run_once(spec, actions, env, k, runs_dir, encoder) for k in range(spec.runs)]
        result = CampaignResult(
            controller=spec.controller,
            trace_kind=spec.trace.kind,
            objective_metric=spec.requirement.objective_metric,
            metrics=[metrics for metrics, _ in runs],
            out_dir=spec.out_dir,
        )
        _write_metrics(result)
        _write_timings(spec.out_dir / "timings.csv", [quantiles for _, quantiles in runs])
    return result


def _run_index(path: Path) -> int | None:
    """k when ``path`` is named ``run_{k:03d}.csv``, as run k's trace is written; else None."""
    k = path.stem[len("run_"):]
    return int(k) if k.isdigit() and path.name == f"run_{int(k):03d}.csv" else None


def _clear_records(campaign_dir: Path) -> None:
    """Delete the records a campaign writes into ``campaign_dir``.  A
    ``runs/run_*.csv`` the writer never names stays."""
    for name in ("metrics.csv", "timings.csv", "qtable.txt"):
        (campaign_dir / name).unlink(missing_ok=True)
    for path in (campaign_dir / "runs").glob("run_*.csv"):
        if _run_index(path) is not None:
            path.unlink()


def _run_once(
    spec: ExperimentSpec,
    actions: list[Configuration],
    env: Environment,
    k: int,
    runs_dir: Path,
    encoder: str | None,
) -> tuple[RunMetrics, tuple[float, float]]:
    """Run ``k`` of ``spec``: write its trace and, for a learner, save its table.

    Returns the run's metrics and its decide() (median, p99) in seconds.  The
    controller, its table and the episode live only inside this call, so
    run k's table is freed before run k+1 loads its copy: a campaign never
    holds two tables at once.
    """
    env_ss, ctrl_ss = np.random.SeedSequence(spec.base_seed + k).spawn(2)
    table = qtable_load_or_zeros(spec.qtable_path, encoder, len(actions)) if encoder else None
    controller = build_controller(spec, actions, table, np.random.default_rng(ctrl_ss))
    episode = run_episode(env, controller, actions, env_ss, run_index=k)
    write_run_trace(runs_dir / f"run_{k:03d}.csv", episode.trace)
    if encoder:
        qtable_save(controller.table, spec.qtable_path)
    return episode.metrics, _decide_quantiles(episode.decide_ns)


def metrics_row(m: RunMetrics) -> str:
    """``m``'s row of ``metrics.csv``, as :data:`METRICS_HEADER` names its cells."""
    values = (m.mean_objective, m.latency_satisfaction_pct, m.mean_reward)
    return ",".join([str(m.run_index), str(m.steps), *map(_fmt, values)])


def _write_metrics(result: CampaignResult) -> None:
    """``result``'s ``metrics.csv``: a row per run, then the means over runs."""
    metrics = result.metrics
    means = [result.mean_over_runs(attr) for attr in METRICS_HEADER.split(",")[2:]]
    mean_row = ["mean", str(sum(m.steps for m in metrics) // len(metrics)), *map(_fmt, means)]
    lines = [METRICS_HEADER, *map(metrics_row, metrics), ",".join(mean_row)]
    (result.out_dir / "metrics.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_timings(path: Path, quantiles: list[tuple[float, float]]) -> None:
    rows = (f"{k},{_fmt(median)},{_fmt(p99)}" for k, (median, p99) in enumerate(quantiles))
    path.write_text("\n".join([TIMINGS_HEADER, *rows]) + "\n", encoding="utf-8")


def measure_overhead(
    spec: ExperimentSpec,
    steps: int = 20000,
    warmup: int = 1000,
    reference_frame_s: float = 0.070,
) -> OverheadReport:
    """Time the per-step decision cost of ``spec.controller`` over a long episode.

    Runs one episode of ``warmup + steps`` random-trace frames of ``spec``
    through :func:`run_episode` and keeps the decide() durations after the
    first ``warmup``.  Only the decide() call is timed (for learners that
    includes the value update).  The impact percentage relates the median
    decision time to a reference frame processing time, 70 ms by default.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if not 0 < reference_frame_s < float("inf"):  # refuses NaN too
        raise ValueError(
            f"reference frame time must be a finite number > 0, got {reference_frame_s} s"
        )
    spec = replace(spec, trace=make_trace("random", length=warmup + steps))
    actions, env = _set_up(spec)
    controller = build_controller(spec, actions, rng=np.random.default_rng(OVERHEAD_SEED + 1))
    episode = run_episode(env, controller, actions, OVERHEAD_SEED)
    timed = episode.decide_ns[warmup:]
    median, p99 = _decide_quantiles(timed)
    return OverheadReport(
        controller=spec.controller,
        steps=len(timed),
        decide_median_s=median,
        decide_p99_s=p99,
        reference_frame_s=reference_frame_s,
    )


def _kind_order(known: tuple[str, ...]):
    """A sort key: the kinds of ``known`` in its order, then any other name by name."""
    return lambda name: (known.index(name) if name in known else len(known), name)


_CONTROLLER_ORDER, _TRACE_ORDER = _kind_order(CONTROLLER_KINDS), _kind_order(TRACE_KINDS)


def in_summary_order(results: Iterable[CampaignResult]) -> list[CampaignResult]:
    """``results`` in the order ``summary.csv`` holds them: by trace, then by controller."""
    return sorted(
        results, key=lambda r: (_TRACE_ORDER(r.trace_kind), _CONTROLLER_ORDER(r.controller))
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
    controllers = sorted({r.controller for r in results}, key=_CONTROLLER_ORDER)
    traces = sorted({r.trace_kind for r in results}, key=_TRACE_ORDER)
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


def _trace_row(line: str, step: int, configs: int) -> list:
    """The run-trace row due at ``step``: its seven cells, typed as the header names them.

    Raises ValueError naming the first cell that a trace writer could not
    have written.
    """
    cells = line.rstrip("\n").split(",")
    if len(cells) != len(_TRACE_COLUMNS):
        raise ValueError(f"expected {len(_TRACE_COLUMNS)} cells, got {len(cells)}")
    values = []
    for name, cell, kind in zip(_TRACE_COLUMNS, cells, _TRACE_CELL_TYPES):
        try:
            value = kind(cell)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"{name} {cell!r} is not {what}") from None
        if kind is float and not math.isfinite(value):
            raise ValueError(f"{name} {cell!r} is not finite")
        values.append(value)
    row_step, _, input_size, ordinal, _, satisfied, _ = values
    if row_step != step:
        raise ValueError(f"step {row_step} where step {step} is due")
    if not -(2**63) <= input_size < 2**63:  # what the writer's column holds
        raise ValueError(f"input_size {cells[2]!r} is outside the 64-bit integers")
    if not 0 <= ordinal < configs:
        raise ValueError(f"ordinal {ordinal} is outside the {configs} configurations")
    if satisfied not in (0, 1):
        raise ValueError(f"satisfied {cells[5]!r} is not 0 or 1")
    return values


def _read_run_trace(path: str | Path, configs: int) -> EpisodeTrace:
    """The :class:`EpisodeTrace` that :func:`write_run_trace` wrote to ``path``,
    column for column; a bad row's error starts ``<path>:<line>:``."""
    trace = EpisodeTrace()
    columns = [getattr(trace, f.name) for f in fields(trace)]
    # A byte that is not UTF-8 reads as U+FFFD, which no cell parses.
    with open(path, encoding="utf-8", errors="replace") as f:
        if f.readline().rstrip("\n") != TRACE_FILE_HEADER:
            raise ValueError(f"{path}: not a run trace file")
        for lineno, line in enumerate(f, start=2):
            try:
                _, *cells = _trace_row(line, lineno - 2, configs)  # line 2 holds step 0
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            for column, cell in zip(columns, cells):
                column.append(cell)
    if not trace:
        raise ValueError(f"{path}: trace has no steps")
    return trace


def recompute_metrics_from_trace(
    path: str | Path,
    sorted_configs: Sequence[Configuration],
    profile: ProfileTable,
    run_index: int = 0,
) -> RunMetrics:
    """Rebuild a run's ``metrics.csv`` row from its trace file, read back as the episode held it.

    Used by the report verb and as a cross-check that summary metrics match
    what the traces imply.
    """
    objective_of = [profile.objective(config) for config in sorted_configs]
    return _run_metrics(run_index, _read_run_trace(path, len(sorted_configs)), objective_of)


def _run_trace_paths(campaign_dir: Path) -> list[tuple[Path, str]]:
    """``campaign_dir``'s run traces in run order, each with its ``metrics.csv`` row.
    A file the writer could not have named, a gap in the numbering, or a row
    count other than theirs raises ValueError."""
    runs_dir = campaign_dir / "runs"
    found = set(runs_dir.glob("run_*.csv"))
    for path in sorted(found):
        if _run_index(path) is None:
            raise ValueError(
                f"{path} is not a run trace: a campaign's run traces are named "
                "run_000.csv, run_001.csv and so on"
            )
    paths = [runs_dir / f"run_{k:03d}.csv" for k in range(len(found))]
    for path in paths:
        if path not in found:
            raise ValueError(
                f"{path} is missing: a campaign's run traces are numbered "
                "from run_000.csv without a gap"
            )
    metrics = campaign_dir / "metrics.csv"
    try:
        rows = metrics.read_text(encoding="utf-8").splitlines()[1:]  # after the header
    except FileNotFoundError:
        raise ValueError(
            f"{metrics} is missing: the campaign did not finish or is still running; run it again"
        ) from None
    except UnicodeDecodeError:
        raise ValueError(f"{metrics}: not a UTF-8 text file") from None
    listed = [row for row in rows if not row.startswith("mean,")]
    if len(listed) != len(paths):
        raise ValueError(
            f"{runs_dir} holds {len(paths)} run traces, but {metrics} lists {len(listed)} runs"
        )
    return list(zip(paths, listed))


def read_campaign(
    campaign_dir: Path, ranked: list[Configuration], profile: ProfileTable, objective_metric: str
) -> CampaignResult | None:
    """The campaign in ``campaign_dir``, recomputed from its run traces, each checked
    against its ``metrics.csv`` row; None when ``campaign_dir`` has no ``runs/``, a
    name :func:`campaign_dir_name` does not give, or no runs in its ``metrics.csv``."""
    campaign = _campaign_of(campaign_dir.name)
    if campaign is None or not (campaign_dir / "runs").is_dir():
        return None
    metrics = []
    for i, (path, listed) in enumerate(_run_trace_paths(campaign_dir)):
        metrics.append(recompute_metrics_from_trace(path, ranked, profile, i))
        row = metrics_row(metrics[-1]).split(",")
        for column, was, now in zip_longest(METRICS_HEADER.split(","), listed.split(","), row):
            if was != now:
                raise ValueError(
                    f"{campaign_dir / 'metrics.csv'}: run {i} lists {column} {was}, but "
                    f"{path.name} gives {now}; report with the campaign's own --config"
                )
    if not metrics:
        return None
    return CampaignResult(*campaign, objective_metric, metrics, campaign_dir)
