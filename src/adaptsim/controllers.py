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

import operator
import os
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .service_model import Configuration, Requirement

ENCODERS = ("v1", "v2")

_LATENCY_BINS = 3
_CPU_BINS = 3


class QTableMismatchError(ValueError):
    """A persisted table does not fit the current encoder/action setup."""


class ControllerObservation(NamedTuple):
    """What a controller sees before deciding: current context + last results.

    ``last_config_ordinal`` is the index of the previous decision within the
    controller's action space (0 before the first step).  The ``last_*``
    metric fields are None on the first step of an episode.
    """

    cpu_availability: float
    last_config_ordinal: int = 0
    last_constraint_ratios: tuple[float, ...] | None = None
    satisfied_last: tuple[bool, ...] | None = None
    last_objective: float | None = None

    @property
    def last_latency_ratio(self) -> float | None:
        """Last latency as a fraction of the first constraint's target."""
        if self.last_constraint_ratios is None:
            return None
        return self.last_constraint_ratios[0]


@dataclass(frozen=True)
class LearningParams:
    alpha: float = 0.1
    gamma: float = 0.9
    epsilon_start: float = 1.0
    epsilon_min: float = 0.05
    epsilon_decay: float = 0.995
    seed: int | None = None

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
    start_index: int = 0

    def __post_init__(self) -> None:
        if self.upgrade_after < 1:
            raise ValueError("upgrade_after must be >= 1")
        if self.start_index < 0:
            raise ValueError("start_index must be >= 0")


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


def state_count(encoder: str, action_count: int) -> int:
    if encoder == "v1":
        return _LATENCY_BINS * action_count
    if encoder == "v2":
        return _LATENCY_BINS * _CPU_BINS * action_count
    raise ValueError(f"unknown state encoder {encoder!r}")


_ENCODE = {"v1": encode_state_v1, "v2": encode_state_v2}


def encode_state(encoder: str, obs: ControllerObservation, action_count: int) -> int:
    if encoder not in _ENCODE:
        raise ValueError(f"unknown state encoder {encoder!r}")
    return _ENCODE[encoder](obs, action_count)


def reward(obs: ControllerObservation, requirement: Requirement) -> float:
    """Last step's reward: the objective if every constraint held, otherwise
    minus the summed target-relative overshoot of the violated constraints.
    """
    if obs.satisfied_last is None or obs.last_constraint_ratios is None:
        raise ValueError("reward needs last-step metrics; none available yet")
    if all(obs.satisfied_last):
        value = obs.last_objective
        if value is None:
            raise ValueError("reward needs the last objective value")
        return value if requirement.objective_sense == "maximize" else -value
    violated = map(operator.not_, obs.satisfied_last)
    return -sum(compress(obs.last_constraint_ratios, violated))


class QTable:
    """Dense state x action expected-reward estimates plus visit counts.

    Updates mutate in place; controllers running concurrently must work on
    separate copies (:meth:`copy`) rather than share one table.
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
            np.zeros((rows, action_count), dtype=np.float64),
            np.zeros((rows, action_count), dtype=np.int64),
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

    def copy(self) -> "QTable":
        return QTable(self.encoder, self.values.copy(), self.visit_counts.copy())


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


def _spell_rows(matrix: np.ndarray, nonzero: np.ndarray, zero: str, spell) -> list[str]:
    """One line per row of ``matrix``, cells spelled by ``spell``.

    Rows with no ``nonzero`` cell share one all-``zero`` string; the other
    rows start from ``zero`` everywhere and spell only their marked cells.
    """
    cols = matrix.shape[1]
    lines = [" ".join([zero] * cols)] * matrix.shape[0]
    rows_at, cols_at = np.nonzero(nonzero)
    touched: dict[int, list[str]] = {}
    for r, c, v in zip(rows_at.tolist(), cols_at.tolist(), matrix[rows_at, cols_at].tolist()):
        cells = touched.get(r)
        if cells is None:
            cells = touched[r] = [zero] * cols
        cells[c] = spell(v)
    for r, cells in touched.items():
        lines[r] = " ".join(cells)
    return lines


def qtable_save(table: QTable, path: str | Path) -> None:
    """Persist a table so it loads back bit-exact.

    The text goes to ``<path>.tmp`` first and is then renamed onto ``path``,
    so a crash mid-write leaves the previous table intact.
    """
    values, visits = table.values, table.visit_counts
    # signbit keeps -0.0 (equal to zero) spelled as "-0.0".
    value_lines = _spell_rows(values, (values != 0) | np.signbit(values), "0.0", repr)
    visit_lines = _spell_rows(visits, visits != 0, "0", str)
    header = f"{table.encoder} {table.state_count} {table.action_count}"
    text = "\n".join([header, *value_lines, *visit_lines]) + "\n"
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Parsed(dict):
    """token -> ``convert(token)``, computed once per distinct token."""

    def __init__(self, convert):
        super().__init__()
        self._convert = convert

    def __missing__(self, token: str):
        value = self[token] = self._convert(token)
        return value


# The ASCII bytes that ``str.split()`` treats as whitespace.
_WHITESPACE = np.zeros(256, dtype=bool)
_WHITESPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True


def _parse_rows(
    path: str | Path,
    lines: list[str],
    first_line: int,
    out: np.ndarray,
    zero: str,
    convert,
    what: str,
) -> None:
    """Fill the zero matrix ``out`` from one text line per row.

    Lines equal to the all-``zero`` line are skipped.  The others are split
    into tokens together, with numpy on their bytes (a token is a run of
    non-whitespace, as ``str.split`` makes it), and only the tokens other
    than ``zero`` are converted, each distinct one once.
    """
    cols = out.shape[1]
    zero_line = " ".join([zero] * cols)
    rows = [i for i, line in enumerate(lines) if line != zero_line]
    if not rows:
        return
    text = "\n".join([lines[i] for i in rows])
    if not text.isascii():  # str.split also breaks at non-ASCII whitespace
        text = "\n".join([" ".join(lines[i].split()) for i in rows])
    # Whitespace on both sides makes every token start and end at a change
    # between whitespace and not; the tail also lets every token be compared
    # with len(zero) bytes.
    raw = b" " + text.encode("utf-8") + b" " * len(zero)
    data = np.frombuffer(raw, dtype=np.uint8)
    in_token = ~_WHITESPACE[data]
    edges = np.flatnonzero(in_token[1:] != in_token[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]
    # Tokens before each line end, differenced: the tokens on each line.
    widths = np.diff(np.searchsorted(starts, np.flatnonzero(data == ord("\n"))),
                     prepend=0, append=len(starts))
    wrong = np.flatnonzero(widths != cols)
    if wrong.size:
        r = int(wrong[0])
        raise ValueError(
            f"{path}: line {first_line + rows[r]}: row width {widths[r]} "
            f"does not match declared shape ({cols} columns)"
        )
    spelled = ends - starts != len(zero)
    for k, byte in enumerate(zero.encode("ascii")):
        spelled |= data[starts + k] != byte
    parsed = _Parsed(convert)
    at = np.flatnonzero(spelled)
    for t, start, end in zip(at.tolist(), starts[at].tolist(), ends[at].tolist()):
        r, c = divmod(t, cols)
        try:
            out[rows[r], c] = parsed[raw[start:end].decode("utf-8")]
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: line {first_line + rows[r]}: bad {what}: {exc}") from None


def qtable_load(path: str | Path) -> QTable:
    """Read a table written by :func:`qtable_save`; every error names ``path``."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not a UTF-8 text file") from None
    if not lines:
        raise ValueError(f"{path}: empty Q-table file")
    head = lines[0].split()
    try:
        encoder, rows, cols = head[0], int(head[1]), int(head[2])
        if len(head) != 3 or rows < 1 or cols < 1:
            raise ValueError
    except (IndexError, ValueError):
        raise ValueError(f"{path}: malformed header {lines[0]!r}") from None
    if encoder not in ENCODERS:
        raise ValueError(f"{path}: unknown state encoder {encoder!r}")
    if len(lines) != 1 + 2 * rows:
        raise ValueError(f"{path}: expected {1 + 2 * rows} lines, found {len(lines)}")
    values = np.zeros((rows, cols), dtype=np.float64)
    visits = np.zeros((rows, cols), dtype=np.int64)
    _parse_rows(path, lines[1 : 1 + rows], 2, values, "0.0", float, "Q-value")
    _parse_rows(path, lines[1 + rows :], 2 + rows, visits, "0", int, "visit count")
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: Q-values must be finite numbers")
    if (visits < 0).any():
        raise ValueError(f"{path}: visit counts must be non-negative integers")
    return QTable(encoder, values, visits)


def qtable_load_or_zeros(
    path: str | Path, encoder: str, action_count: int
) -> QTable:
    """Load a persisted table, or start from all zeros when none exists."""
    path = Path(path)
    if not path.exists():
        return QTable.zeros(encoder, action_count)
    table = qtable_load(path)
    expected_states = state_count(encoder, action_count)
    if (
        table.encoder != encoder
        or table.state_count != expected_states
        or table.action_count != action_count
    ):
        raise QTableMismatchError(
            f"{path} holds a {table.encoder} table of shape "
            f"{table.state_count}x{table.action_count}, but this experiment "
            f"needs {encoder} {expected_states}x{action_count}"
        )
    return table


def make_action_space(
    sorted_configs: list[Configuration], count: int | str = "all"
) -> list[Configuration]:
    """Pick the active configurations a controller may choose between.

    ``count`` ordinals are spread evenly over the objective-sorted list,
    always including the best and the worst; "all" keeps everything.
    """
    if not sorted_configs:
        raise ValueError("empty configuration list")
    if count == "all" or int(count) >= len(sorted_configs):
        return list(sorted_configs)
    n = int(count)
    if n < 1:
        raise ValueError("action count must be >= 1")
    if n == 1:
        return [sorted_configs[0]]
    last = len(sorted_configs) - 1
    picks = sorted({round(i * last / (n - 1)) for i in range(n)})
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


def static_fast_index(
    actions: list[Configuration], profile, reference_input: int
) -> int:
    """Index of the lowest-latency action at the reference input size."""
    latencies = [profile.lookup(cfg, reference_input)[0] for cfg in actions]
    return int(np.argmin(latencies))


class HeuristicController:
    """Ladder controller assuming a monotone objective/latency trade-off.

    Starts from the best-objective rung.  Any violated constraint degrades
    one rung immediately; ``upgrade_after`` consecutive satisfied steps
    upgrade one rung.  Both directions saturate at the ends of the ladder.
    """

    name = "heuristic"

    def __init__(self, action_count: int, params: HeuristicParams | None = None):
        if action_count < 1:
            raise ValueError("action_count must be >= 1")
        self.params = params or HeuristicParams()
        if self.params.start_index >= action_count:
            raise ValueError("start_index outside the action space")
        self._action_count = action_count
        self._current = self.params.start_index
        self._satisfied_streak = 0
        self._started = False

    def reset(self) -> None:
        self._current = self.params.start_index
        self._satisfied_streak = 0
        self._started = False

    def decide(self, obs: ControllerObservation) -> int:
        if not self._started or obs.satisfied_last is None:
            self._started = True
            return self._current
        if not all(obs.satisfied_last):
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
        encoder: str,
        table: QTable,
        requirement: Requirement,
        params: LearningParams | None = None,
        rng: np.random.Generator | None = None,
        name: str | None = None,
    ):
        if encoder not in ENCODERS:
            raise ValueError(f"unknown state encoder {encoder!r}")
        if table.encoder != encoder:
            raise QTableMismatchError(
                f"table was built for encoder {table.encoder!r}, not {encoder!r}"
            )
        self.name = name or f"rl-{encoder}"
        self.encoder = encoder
        self._encode = _ENCODE[encoder]
        self.table = table
        self.requirement = requirement
        self.params = params or LearningParams()
        self._rng = rng if rng is not None else np.random.default_rng(self.params.seed)
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

    def decide(self, obs: ControllerObservation) -> int:
        state = self._encode(obs, self.table.action_count)
        if self._prev is not None and obs.satisfied_last is not None:
            prev_state, prev_action = self._prev
            r = reward(obs, self.requirement)
            q_update(self.table, prev_state, prev_action, r, state, self.params)
        action = select_action(self.table, state, self._epsilon, self._rng)
        self._epsilon = max(self.params.epsilon_min, self._epsilon * self.params.epsilon_decay)
        self._prev = (state, action)
        return action

    def finish(self, obs: ControllerObservation) -> None:
        """Fold the final step's reward into the table at episode end."""
        if self._prev is None or obs.satisfied_last is None:
            return
        state = self._encode(obs, self.table.action_count)
        prev_state, prev_action = self._prev
        r = reward(obs, self.requirement)
        q_update(self.table, prev_state, prev_action, r, state, self.params)
        self._prev = None
