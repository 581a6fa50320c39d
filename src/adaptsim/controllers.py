"""Orchestration policies: static baselines, a rule ladder, and tabular Q-learning.

All controllers act on a shared *action space*: a list of configurations
sorted by objective value, index 0 being the best objective.  The heuristic
walks that ladder one rung at a time; the learner treats each rung as a
discrete action and keeps a state x action value table.

State encoding bins (boundaries are part of the contract):

* latency ratio (last latency / target): [0, 0.8) | [0.8, 1.0] | (1.0, inf)
* CPU availability (v2 only):            [0, 0.5) | [0.5, 0.8) | [0.8, 1.0]

The state index packs (latency bin [, cpu bin], last action index) so each
tuple maps to exactly one row.
"""

from __future__ import annotations

import math
import mmap
import operator
import os
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .service_model import Configuration, Requirement, is_count

_LATENCY_BINS = 3
_CPU_BINS = 3


class QTableMismatchError(ValueError):
    """A persisted table does not fit the current encoder/action setup."""


class ControllerObservation(NamedTuple):
    """What a controller sees before deciding: current context + last results.

    ``last_config_ordinal`` is the index of the previous decision within the
    controller's action space (0 before the first step).  The ``last_*`` metric
    fields (latency / target, bound met, objective) are None on the first step.
    """

    cpu_availability: float
    last_config_ordinal: int = 0
    last_latency_ratio: float | None = None
    last_satisfied: bool | None = None
    last_objective: float | None = None


@dataclass(frozen=True)
class LearningParams:
    alpha: float = 0.1
    gamma: float = 0.9
    epsilon_start: float = 1.0
    epsilon_min: float = 0.05
    epsilon_decay: float = 0.995

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if not 0 <= self.gamma < 1:
            raise ValueError("gamma must be in [0, 1)")
        if not 0 <= self.epsilon_min <= self.epsilon_start <= 1:
            raise ValueError("need 0 <= epsilon_min <= epsilon_start <= 1")
        if not 0 < self.epsilon_decay <= 1:
            raise ValueError("epsilon_decay must be in (0, 1]")


@dataclass(frozen=True)
class HeuristicParams:
    upgrade_after: int = 10

    def __post_init__(self) -> None:
        if not is_count(self.upgrade_after, 1):
            raise ValueError(f"upgrade_after must be an integer >= 1, got {self.upgrade_after!r}")


def latency_bin(ratio: float | None) -> int:
    """0: below 80% of target, 1: 80-100% (inclusive), 2: over target."""
    if ratio is None or ratio < 0.8:
        return 0
    if ratio <= 1.0:
        return 1
    return 2


def cpu_bin(avail: float) -> int:
    """0: below 50%, 1: 50-80% (lower bound inclusive), 2: 80% and up."""
    if avail < 0.5:
        return 0
    if avail < 0.8:
        return 1
    return 2


def encode_state_v1(obs: ControllerObservation, action_count: int) -> int:
    """Pack (latency bin, last action) into [0, 3 * action_count)."""
    return latency_bin(obs.last_latency_ratio) * action_count + obs.last_config_ordinal


def encode_state_v2(obs: ControllerObservation, action_count: int) -> int:
    """Pack (latency bin, cpu bin, last action) into [0, 9 * action_count)."""
    packed = latency_bin(obs.last_latency_ratio) * _CPU_BINS + cpu_bin(obs.cpu_availability)
    return packed * action_count + obs.last_config_ordinal


# encoder -> (state function, context bins per action)
_ENCODE = {
    "v1": (encode_state_v1, _LATENCY_BINS),
    "v2": (encode_state_v2, _LATENCY_BINS * _CPU_BINS),
}
ENCODERS = tuple(_ENCODE)


def state_count(encoder: str, action_count: int) -> int:
    if encoder not in _ENCODE:
        raise ValueError(f"unknown state encoder {encoder!r}")
    return _ENCODE[encoder][1] * action_count


def reward(obs: ControllerObservation, requirement: Requirement) -> float:
    """Last step's reward: the objective if the latency bound held, otherwise
    minus the latency ratio (the target-relative overshoot).
    """
    if obs.last_satisfied is None or obs.last_latency_ratio is None:
        raise ValueError("reward needs last-step metrics; none available yet")
    if not obs.last_satisfied:
        return -obs.last_latency_ratio
    value = obs.last_objective
    if value is None:
        raise ValueError("reward needs the last objective value")
    return value if requirement.objective_sense == "maximize" else -value


def _zeros_on_demand(shape: tuple[int, int], dtype) -> np.ndarray:
    """A zeroed, writable, C-contiguous array on a private anonymous map.

    The kernel backs a page only once it is written, and huge pages are off
    for the map, so a table is resident only for the rows a learner writes.
    """
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    nbytes = count * dtype.itemsize
    try:
        buf = mmap.mmap(-1, max(nbytes, 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    except (OSError, OverflowError):
        raise MemoryError(
            f"Unable to allocate {nbytes} bytes for an array with shape {shape} "
            f"and data type {dtype}"
        ) from None
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


class QTable:
    """Dense state x action expected-reward estimates plus visit counts.

    Updates mutate in place; controllers running concurrently must not share
    one table.
    """

    def __init__(self, encoder: str, values: np.ndarray, visit_counts: np.ndarray):
        if encoder not in ENCODERS:
            raise ValueError(f"unknown state encoder {encoder!r}")
        if values.shape != visit_counts.shape or values.ndim != 2:
            raise ValueError("values and visit_counts must share a 2-D shape")
        self.encoder = encoder
        self.values = values
        self.visit_counts = visit_counts

    @classmethod
    def zeros(cls, encoder: str, action_count: int) -> "QTable":
        rows = state_count(encoder, action_count)
        return cls(
            encoder,
            _zeros_on_demand((rows, action_count), np.float64),
            _zeros_on_demand((rows, action_count), np.int64),
        )

    @property
    def state_count(self) -> int:
        return self.values.shape[0]

    @property
    def action_count(self) -> int:
        return self.values.shape[1]

    @property
    def total_visits(self) -> int:
        return int(self.visit_counts.sum())


_SCAN_CELLS = 1 << 16


def _held_cells(table: QTable):
    """Yield ``(first row, mask)`` per block of about 64 Ki cells, the mask
    marking each cell not at (+0.0, 0); blocks keep the masks small."""
    step = max(1, _SCAN_CELLS // max(1, table.action_count))
    for start in range(0, table.state_count, step):
        values = table.values[start : start + step]
        visits = table.visit_counts[start : start + step]
        yield start, (values != 0) | np.signbit(values) | (visits != 0)  # -0.0 too


def q_update(
    table: QTable,
    prev_state: int,
    action: int,
    reward_value: float,
    next_state: int,
    params: LearningParams,
) -> QTable:
    """One-step value update toward reward + discounted best next value.

    Mutates exactly one cell of ``table`` (and its visit count) in place.
    """
    rows, cols = table.values.shape
    if not 0 <= prev_state < rows:
        raise IndexError(f"state {prev_state} out of range [0, {rows})")
    if not 0 <= next_state < rows:
        raise IndexError(f"state {next_state} out of range [0, {rows})")
    if not 0 <= action < cols:
        raise IndexError(f"action {action} out of range [0, {cols})")
    values = table.values
    current = values.item(prev_state, action)
    # The element at argmax, not row.max(): a zero maximum keeps the sign of
    # its first occurrence.
    row = values[next_state]
    target = reward_value + params.gamma * row.item(row.argmax())
    values[prev_state, action] = current + params.alpha * (target - current)
    table.visit_counts[prev_state, action] += 1
    return table


def select_action(
    table: QTable, state: int, epsilon: float, rng: np.random.Generator
) -> int:
    """Epsilon-greedy: explore uniformly, otherwise argmax (ties: lowest index).

    The row must be finite: numpy's argmax picks a NaN, Python's max may not.
    """
    if not 0 <= state < table.state_count:
        raise IndexError(f"state {state} out of range [0, {table.state_count})")
    if float(rng.random()) < epsilon:
        return int(rng.integers(table.action_count))
    return int(table.values[state].argmax())


def qtable_save(table: QTable, path: str | Path) -> None:
    """Write ``<encoder> <states> <actions>``, then ``<state> <action> <value>
    <visits>`` per cell not at (+0.0, 0), row-major, to ``<path>.tmp``; sync it
    and rename it onto ``path``, so a crash keeps the old table.  Loads bit-exact."""
    values, visits = table.values, table.visit_counts
    lines = [f"{table.encoder} {table.state_count} {table.action_count}"]
    for start, held in _held_cells(table):
        rows, cols = np.nonzero(held)
        rows += start
        cells = zip(rows.tolist(), cols.tolist(), values[rows, cols].tolist(),
                    visits[rows, cols].tolist())
        lines += [f"{r} {c} {v!r} {n}" for r, c, v, n in cells]
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def qtable_load(
    path: str | Path, encoder: str | None = None, action_count: int | None = None
) -> QTable:
    """Read a :func:`qtable_save` file; fields split as ``str.split`` has it.  Every error
    names ``path`` and the line; given ``encoder`` and ``action_count``, a header declaring
    another table raises QTableMismatchError before any cell is allocated or read."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines() or [""]
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not a UTF-8 text file") from None
    head = lines[0].split()
    try:
        declared, rows, cols = head[0], int(head[1]), int(head[2])
        if len(head) != 3 or rows < 1 or cols < 1:
            raise ValueError
    except (IndexError, ValueError):
        raise ValueError(f"{path}: line 1: malformed header {lines[0]!r}") from None
    if declared not in ENCODERS:
        raise ValueError(f"{path}: line 1: unknown state encoder {declared!r}")
    if encoder is not None:
        states = state_count(encoder, action_count)
        if (declared, rows, cols) != (encoder, states, action_count):
            raise QTableMismatchError(
                f"{path} holds a {declared} table of shape {rows}x{cols}, but this "
                f"experiment needs {encoder} {states}x{action_count}"
            )
    values = _zeros_on_demand((rows, cols), np.float64)
    visits = _zeros_on_demand((rows, cols), np.int64)
    listed = set()
    total = 0  # of the visit counts: QTable.total_visits is an int64 sum
    for number, line in enumerate(lines[1:], 2):
        try:
            fields = line.split()
            if len(fields) != 4:
                raise ValueError(f"want <state> <action> <value> <visits>, got {line!r}")
            r, c, value, count = int(fields[0]), int(fields[1]), float(fields[2]), int(fields[3])
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"cell ({r}, {c}) is outside the {rows}x{cols} table")
            if (r, c) in listed:
                raise ValueError(f"cell ({r}, {c}) is listed twice")
            if not math.isfinite(value):
                raise ValueError(f"Q-value {value} is not finite")
            if not 0 <= count < 2**63:
                raise ValueError(f"visit count {count} is not a non-negative 64-bit integer")
            total += count
            if total >= 2**63:
                raise ValueError("visit counts total past 2^63 - 1")
        except ValueError as exc:
            raise ValueError(f"{path}: line {number}: {exc}") from None
        listed.add((r, c))
        values[r, c], visits[r, c] = value, count
    return QTable(declared, values, visits)


def qtable_load_or_zeros(
    path: str | Path, encoder: str, action_count: int
) -> QTable:
    """The ``encoder`` table over ``action_count`` actions persisted at ``path``, or
    all zeros when there is none; another table there raises QTableMismatchError."""
    if Path(path).exists():
        return qtable_load(path, encoder, action_count)
    return QTable.zeros(encoder, action_count)


def make_action_space(
    sorted_configs: list[Configuration], count: int | str = "all"
) -> list[Configuration]:
    """Pick the active configurations a controller may choose between.

    ``count`` ordinals are spread evenly over the objective-sorted list,
    always including the best and the worst; "all" keeps everything.
    """
    if not sorted_configs:
        raise ValueError("empty configuration list")
    if count == "all":
        return list(sorted_configs)
    if not is_count(count, 1):
        raise ValueError(f"action count must be 'all' or an integer >= 1, got {count!r}")
    count = operator.index(count)
    if count >= len(sorted_configs):
        return list(sorted_configs)
    if count == 1:
        return [sorted_configs[0]]
    last = len(sorted_configs) - 1
    picks = sorted({round(i * last / (count - 1)) for i in range(count)})
    return [sorted_configs[i] for i in picks]


class StaticController:
    """Always returns the same action; the non-adaptive baseline."""

    def __init__(self, action_index: int, name: str = "static"):
        if action_index < 0:
            raise ValueError("action_index must be >= 0")
        self.name = name
        self._action = action_index

    def reset(self) -> None:
        pass

    def decide(self, obs: ControllerObservation) -> int:
        return self._action

    def finish(self, obs: ControllerObservation) -> None:
        pass


def static_fast_index(actions: list[Configuration], profile) -> int:
    """Index of the lowest-latency action at the smallest profiled input size."""
    latencies = [profile.lookup(cfg, profile.input_sizes[0])[0] for cfg in actions]
    return int(np.argmin(latencies))


class HeuristicController:
    """Ladder controller assuming a monotone objective/latency trade-off.

    Starts from the best-objective rung.  A violated latency bound degrades
    one rung immediately; ``upgrade_after`` consecutive satisfied steps
    upgrade one rung.  Both directions saturate at the ends of the ladder.
    """

    name = "heuristic"

    def __init__(self, action_count: int, params: HeuristicParams | None = None):
        if action_count < 1:
            raise ValueError("action_count must be >= 1")
        self.params = params or HeuristicParams()
        self._action_count = action_count
        self.reset()

    def reset(self) -> None:
        self._current = 0
        self._satisfied_streak = 0
        self._started = False

    def decide(self, obs: ControllerObservation) -> int:
        if not self._started or obs.last_satisfied is None:
            self._started = True
            return self._current
        if not obs.last_satisfied:
            self._current = min(self._current + 1, self._action_count - 1)
            self._satisfied_streak = 0
        else:
            self._satisfied_streak += 1
            if self._satisfied_streak >= self.params.upgrade_after:
                self._current = max(self._current - 1, 0)
                self._satisfied_streak = 0
        return self._current

    def finish(self, obs: ControllerObservation) -> None:
        pass


class QLearningController:
    """Tabular value learner over the discretized context.

    Each decide() call folds the previous step's reward into the table, then
    picks epsilon-greedily.  Exploration decays multiplicatively per step
    and, when resuming from a persisted table, continues from where the
    recorded visit count left off instead of restarting from scratch.
    """

    def __init__(
        self,
        table: QTable,
        requirement: Requirement,
        params: LearningParams | None = None,
        rng: np.random.Generator | None = None,
        name: str | None = None,
    ):
        self.name = name or f"rl-{table.encoder}"
        self._encode = _ENCODE[table.encoder][0]
        self.table = table
        self.requirement = requirement
        self.params = params or LearningParams()
        self._rng = rng if rng is not None else np.random.default_rng()
        self._epsilon = self._resumed_epsilon()
        self._prev: tuple[int, int] | None = None

    def _resumed_epsilon(self) -> float:
        p = self.params
        decayed = p.epsilon_start * p.epsilon_decay ** self.table.total_visits
        return max(p.epsilon_min, decayed)

    @property
    def epsilon(self) -> float:
        return self._epsilon

    def reset(self) -> None:
        self._prev = None

    def _learn(self, obs: ControllerObservation) -> int:
        """``obs``'s state, after folding the pending step's reward into the
        table; an observation without last metrics folds nothing."""
        state = self._encode(obs, self.table.action_count)
        if self._prev is not None and obs.last_satisfied is not None:
            prev_state, prev_action = self._prev
            r = reward(obs, self.requirement)
            q_update(self.table, prev_state, prev_action, r, state, self.params)
        return state

    def decide(self, obs: ControllerObservation) -> int:
        state = self._learn(obs)
        action = select_action(self.table, state, self._epsilon, self._rng)
        # max(epsilon_min, decayed) without the builtin call: the same float, as both are finite.
        decayed, least = self._epsilon * self.params.epsilon_decay, self.params.epsilon_min
        self._epsilon = decayed if decayed > least else least
        self._prev = (state, action)
        return action

    def finish(self, obs: ControllerObservation) -> None:
        """Fold the final step's reward into the table at episode end; an
        observation without last metrics leaves the pending step in place."""
        if obs.last_satisfied is not None:
            self._learn(obs)
            self._prev = None
