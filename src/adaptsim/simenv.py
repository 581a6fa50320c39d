"""Discrete-time execution environment: CPU availability chain plus input trace.

One step corresponds to fully processing one input frame.  Effective frame
latency is the profiled base latency divided by the frame's CPU
availability (fair-share model of a compute-bound task).  The chain ignores
the actions, so ``reset`` draws each frame's availability and input size up
front; the observation returned by :meth:`Environment.step` already shows
the context the *next* decision will run under.

The interface mirrors the usual reset/step agent-environment loop:
``reset(seed)`` starts a reproducible episode, ``step(row)`` processes one
frame with the configuration at that profile row, and stepping past the end
of the trace raises :class:`EpisodeFinished`.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .defaults import DEFAULT_INPUT_SIZES
from .profiling import ProfileTable
from .service_model import Requirement, is_count

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

    def step(self) -> float:
        self._idx += 1
        return self._values[min(self._idx, len(self._values) - 1)]


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
            given = tuple(self.sizes)
            try:  # one pass over the sizes when all are valid; full_day has 86 400
                sizes = tuple(map(operator.index, given))
            except TypeError:  # a float or a string among them
                sizes = ()
            valid = len(sizes) == len(given) and min(sizes, default=0) >= 0
            if not valid or bool in set(map(type, given)):
                bad = next(s for s in given if not is_count(s, 0))
                raise ValueError(f"an input size must be an integer >= 0, got {bad!r}")
            object.__setattr__(self, "sizes", sizes)
            object.__setattr__(self, "length", len(sizes))
        if not is_count(self.length, 1):
            raise ValueError(f"trace length must be an integer >= 1, got {self.length!r}")
        object.__setattr__(self, "length", operator.index(self.length))

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


def make_trace(kind: str, *, length: int | None = None) -> InputTrace:
    """Build one of the standard input traces.

    fixed     1000 frames of 48 faces.
    variable  11 blocks of 100 frames: 6, 12, 24, 48, 96, 192, 96, 48, 24, 12, 6.
    full_day  86400 frames (one per second) following FULL_DAY_SCHEDULE.
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
        sizes = [FULL_DAY_SCHEDULE[second // 3600] for second in range(FULL_DAY_STEPS)]
        return InputTrace(kind=kind, sizes=tuple(sizes))
    if kind == "random":
        return InputTrace(kind=kind, length=1000 if length is None else length)
    raise ValueError(f"unknown trace kind {kind!r}")


def custom_trace(sizes: Sequence[int]) -> InputTrace:
    """An explicit deterministic trace, for scripted scenarios."""
    return InputTrace(kind="custom", sizes=tuple(sizes))


def refuse_latency_overflow(
    profile: ProfileTable, target: float, frames: int, floor: float
) -> None:
    """Refuse a CPU ``floor`` or latency ``target`` under which ``frames`` frames of the
    profile's worst latency overflow: this bounds every sum a run takes."""
    worst = max(profile.latency_at(s).max().item() for s in profile.input_sizes)
    if not math.isfinite(frames * worst / floor / target):
        raise ValueError(
            f"cpu min_avail {floor!r} is too small for latency target {target!r}: "
            f"{frames} frames x {worst!r} s base latency / min_avail / target overflows"
        )


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
        refuse_latency_overflow(profile, self._target, trace.length, self.cpu.params.min_avail)
        self._context = (array("d"), array("q"))  # frame t's availability and input size
        self._cpu_after = 0.0  # availability after the last frame
        self._objective: list[float] = []  # by row
        self._latency: dict[int, list[float]] = {}  # input size -> base latency by row
        self._step = 0

    @property
    def length(self) -> int:
        return self.trace.length

    @property
    def context(self) -> tuple[array, array]:
        """The current episode's ``(cpu, input_size)``, one value per frame; empty before reset."""
        return self._context

    def reset(self, seed: int | np.random.SeedSequence | None = None) -> EnvState:
        """Start a new episode and draw its context; identical seeds replay identical episodes."""
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        chain_ss, trace_ss = ss.spawn(2)
        sizes = array("q", self.trace.materialize(np.random.default_rng(trace_ss)))
        cpu = array("d", [self.cpu.reset(np.random.default_rng(chain_ss))]) * len(sizes)
        for t in range(1, len(sizes)):  # new arrays: an earlier episode's stay as they were
            cpu[t] = self.cpu.step()
        self._cpu_after = self.cpu.step()
        self._context = cpu, sizes
        self._objective = self.profile.objectives.tolist()
        self._latency = {s: self.profile.latency_at(s).tolist() for s in set(sizes)}
        self._step = 0
        return EnvState(cpu_availability=cpu[0], input_size=sizes[0])

    def step(self, row: int) -> StepOutcome:
        """Process one frame with the configuration at profile row ``row``."""
        cpu, sizes = self._context
        t = self._step
        if t >= len(sizes):  # also before the first reset(), when there are no sizes
            raise EpisodeFinished("input trace exhausted; call reset()")
        if not 0 <= row < len(self._objective):  # a negative row would index from the end
            raise IndexError(f"row {row} is outside the {len(self._objective)} configurations")
        input_size = sizes[t]
        latency = self._latency[input_size][row] / cpu[t]
        t += 1
        self._step = t
        done = t >= len(sizes)
        # tuple.__new__ in field order skips the named tuples' Python-level __new__, about
        # half of what building the two records cost per frame.
        observation = tuple.__new__(
            EnvState, (self._cpu_after, input_size) if done else (cpu[t], sizes[t])
        )
        return tuple.__new__(
            StepOutcome, (latency, self._objective[row], latency <= self._target, observation, done)
        )
