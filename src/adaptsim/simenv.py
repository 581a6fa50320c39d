"""Discrete-time execution environment: CPU availability chain plus input trace.

One step corresponds to fully processing one input frame.  Effective frame
latency is the profiled base latency divided by the current CPU
availability (fair-share model of a compute-bound task).  After a step is
evaluated, the availability chain and the input trace advance, so the
observation returned by :meth:`Environment.step` already shows the context
the *next* decision will run under.

The interface mirrors the usual reset/step agent-environment loop:
``reset(seed)`` starts a reproducible episode, ``step(action)`` processes
one frame, and stepping past the end of the trace raises
:class:`EpisodeFinished`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .defaults import DEFAULT_INPUT_SIZES
from .profiling import ProfileTable
from .service_model import Configuration, Requirement

FIXED_TRACE_FACES = 48
FIXED_TRACE_STEPS = 1000
VARIABLE_BLOCK_FACES = (6, 12, 24, 48, 96, 192, 96, 48, 24, 12, 6)
VARIABLE_BLOCK_STEPS = 100
FULL_DAY_STEPS = 86400
RANDOM_CHANGE_PROB = 0.1

# Hour-of-day -> faces per frame for the full-day trace: quiet nights,
# commuter peaks in the morning and late afternoon.
FULL_DAY_SCHEDULE: Mapping[int, int] = {
    **{h: 6 for h in range(0, 6)},
    **{h: 96 for h in range(6, 9)},
    **{h: 192 for h in range(9, 11)},
    **{h: 48 for h in range(11, 16)},
    **{h: 192 for h in range(16, 19)},
    **{h: 96 for h in range(19, 22)},
    **{h: 12 for h in range(22, 24)},
}

TRACE_KINDS = ("fixed", "variable", "full_day", "random")


class EpisodeFinished(RuntimeError):
    """Signals that the input trace is exhausted; reset to start a new episode."""


@dataclass(frozen=True)
class CpuChainParams:
    """Markov-chain parameters for the CPU availability of a shared device."""

    min_avail: float = 0.3
    max_avail: float = 1.0
    change_prob: float = 0.1
    delta_mean: float = 0.1
    delta_stddev: float = 0.1

    def __post_init__(self) -> None:
        if not 0 < self.min_avail <= self.max_avail <= 1:
            raise ValueError("need 0 < min_avail <= max_avail <= 1")
        if not 0 <= self.change_prob <= 1:
            raise ValueError("change_prob must be in [0, 1]")
        for name in ("delta_mean", "delta_stddev"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.delta_stddev < 0:
            raise ValueError("delta_stddev must be >= 0")


class CpuChain:
    """Markov chain of the CPU availability, starting from an idle device.

    ``change_events`` counts steps where the change branch fired.  Note that
    a fired change at a range boundary can be absorbed by clamping, so the
    observable value-change rate sits slightly below ``change_prob``."""

    def __init__(self, params: CpuChainParams | None = None):
        self.params = params or CpuChainParams()
        self._value = self.params.max_avail
        self._rng: np.random.Generator | None = None
        self.change_events = 0

    def reset(self, rng: np.random.Generator) -> float:
        self._rng = rng
        self._value = self.params.max_avail
        self.change_events = 0
        return self._value

    @property
    def value(self) -> float:
        return self._value

    def step(self) -> float:
        """Advance by one step and return the new availability.

        With probability ``change_prob`` the availability moves by a normally
        distributed magnitude in a uniformly random direction, clamped into
        [min_avail, max_avail]; otherwise it stays put.  Draw order (change,
        magnitude, sign) is fixed so seeded runs are reproducible.
        """
        rng = self._rng
        if rng is None:
            raise RuntimeError("CpuChain.step() before reset()")
        p = self.params
        if rng.random() >= p.change_prob:
            return self._value
        magnitude = rng.normal(p.delta_mean, p.delta_stddev)
        moved = self._value + magnitude if rng.random() < 0.5 else self._value - magnitude
        self._value = value = min(p.max_avail, max(p.min_avail, moved))
        self.change_events += 1
        assert p.min_avail <= value <= p.max_avail
        return value


class ScriptedCpu:
    """Availability follows an explicit per-step script instead of the chain.

    Values are clamped into the params range; the last value holds if the
    episode outlives the script.
    """

    def __init__(self, values: Sequence[float], params: CpuChainParams | None = None):
        self.params = params or CpuChainParams()
        if len(values) == 0:
            raise ValueError("scripted CPU trace must be non-empty")
        lo, hi = self.params.min_avail, self.params.max_avail
        self._values = tuple(min(hi, max(lo, float(v))) for v in values)
        self._idx = 0

    def reset(self, rng: np.random.Generator) -> float:
        self._idx = 0
        return self._values[0]

    @property
    def value(self) -> float:
        return self._values[min(self._idx, len(self._values) - 1)]

    def step(self) -> float:
        self._idx += 1
        return self.value


@dataclass(frozen=True)
class InputTrace:
    """Per-step input sizes (faces per frame) for one episode.

    Deterministic kinds carry their sizes explicitly.  The ``random`` kind
    carries only its length; its sizes are drawn at reset time from the
    episode RNG.
    """

    kind: str
    sizes: tuple[int, ...] | None = None
    length: int = 0

    def __post_init__(self) -> None:
        if self.sizes is not None:
            object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
            object.__setattr__(self, "length", len(self.sizes))
        if self.length <= 0:
            raise ValueError("trace length must be >= 1")

    def materialize(self, rng: np.random.Generator) -> tuple[int, ...]:
        """Concrete per-step sizes for one episode."""
        if self.sizes is not None:
            return self.sizes
        n = len(DEFAULT_INPUT_SIZES)
        sizes = [int(rng.integers(n))]
        for _ in range(self.length - 1):
            if float(rng.random()) < RANDOM_CHANGE_PROB:
                # A change always switches to a different size.
                sizes.append((sizes[-1] + 1 + int(rng.integers(n - 1))) % n)
            else:
                sizes.append(sizes[-1])
        return tuple(DEFAULT_INPUT_SIZES[i] for i in sizes)


def make_trace(
    kind: str,
    *,
    length: int | None = None,
    schedule: Mapping[int, int] | None = None,
) -> InputTrace:
    """Build one of the standard input traces.

    fixed     1000 frames of 48 faces.
    variable  11 blocks of 100 frames: 6, 12, 24, 48, 96, 192, 96, 48, 24, 12, 6.
    full_day  86400 frames (one per second) following an hourly schedule.
    random    ``length`` frames (default 1000) over DEFAULT_INPUT_SIZES:
              each frame keeps the previous size with probability 0.9,
              otherwise switches to a different one.
    """
    if kind == "fixed":
        return InputTrace(kind=kind, sizes=(FIXED_TRACE_FACES,) * FIXED_TRACE_STEPS)
    if kind == "variable":
        sizes: list[int] = []
        for faces in VARIABLE_BLOCK_FACES:
            sizes.extend([faces] * VARIABLE_BLOCK_STEPS)
        return InputTrace(kind=kind, sizes=tuple(sizes))
    if kind == "full_day":
        table = dict(FULL_DAY_SCHEDULE if schedule is None else schedule)
        if sorted(table) != list(range(24)):
            raise ValueError("full_day schedule must map every hour 0..23")
        sizes = [table[second // 3600] for second in range(FULL_DAY_STEPS)]
        return InputTrace(kind=kind, sizes=tuple(sizes))
    if kind == "random":
        return InputTrace(kind=kind, length=1000 if length is None else int(length))
    raise ValueError(f"unknown trace kind {kind!r}")


def custom_trace(sizes: Sequence[int]) -> InputTrace:
    """An explicit deterministic trace, for scripted scenarios."""
    return InputTrace(kind="custom", sizes=tuple(sizes))


class EnvState(NamedTuple):
    """Observation: the context the next frame runs under."""

    cpu_availability: float
    input_size: int


class StepOutcome(NamedTuple):
    latency: float
    objective: float
    satisfied: bool
    observation: EnvState
    done: bool


class Environment:
    """Simulates one service instance processing an input trace.

    Not thread-safe; run independently seeded instances for parallelism.
    """

    def __init__(
        self,
        profile: ProfileTable,
        requirement: Requirement,
        trace: InputTrace,
        cpu_source: CpuChain | ScriptedCpu | None = None,
    ):
        self.profile = profile
        self.requirement = requirement
        self._target = requirement.latency_target
        self.trace = trace
        self.cpu = cpu_source if cpu_source is not None else CpuChain()
        self._sizes: tuple[int, ...] = ()
        self._cpu_now = 0.0  # availability the next frame runs under
        # (assignments, input size) -> (base latency, objective), per episode
        self._cells: dict[tuple[tuple[int, ...], int], tuple[float, float]] = {}
        self._step = 0
        self._done = True

    @property
    def length(self) -> int:
        return self.trace.length

    def reset(self, seed: int | np.random.SeedSequence | None = None) -> EnvState:
        """Start a new episode; identical seeds replay identical episodes."""
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        chain_ss, trace_ss = ss.spawn(2)
        cpu0 = self._cpu_now = self.cpu.reset(np.random.default_rng(chain_ss))
        self._sizes = self.trace.materialize(np.random.default_rng(trace_ss))
        self._cells = {}
        self._step = 0
        self._done = False
        return EnvState(cpu_availability=cpu0, input_size=self._sizes[0])

    def step(self, action: Configuration) -> StepOutcome:
        """Process one frame with the given configuration."""
        if self._done:
            raise EpisodeFinished("input trace exhausted; call reset()")
        cpu_used = self._cpu_now
        sizes = self._sizes
        step = self._step
        input_size = sizes[step]
        key = (action.assignments, input_size)
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = self.profile.lookup(action, input_size)
        base_latency, objective = cell
        latency = base_latency / cpu_used
        step += 1
        self._step = step
        done = self._done = step >= len(sizes)
        cpu_next = self._cpu_now = self.cpu.step()
        params = self.cpu.params
        assert params.min_avail <= cpu_next <= params.max_avail
        # Positional construction: keywords cost more than the step's arithmetic.
        observation = EnvState(cpu_next, input_size if done else sizes[step])
        return StepOutcome(latency, objective, latency <= self._target, observation, done)
