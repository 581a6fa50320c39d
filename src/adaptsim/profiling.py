"""Profile tables: expected latency and objective per (configuration, input size).

A profile table is the simulator's ground truth.  It is either generated
from a synthetic cost model or loaded from a plain-text file produced by an
earlier profiling run.  Base latencies are what the service would take at
100% CPU availability; the environment divides them by the current
availability.  The objective value (e.g. precision) depends on the
configuration only, not on the input size.

Profile file format (UTF-8, comma-separated, header required)::

    assignments,input_size,base_latency_seconds,objective_value
    0;1;2,6,0.31,0.55

where ``assignments`` is the semicolon-joined value-index vector.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

from .service_model import Configuration, ServiceTopology, enumerate_configurations

PROFILE_HEADER = "assignments,input_size,base_latency_seconds,objective_value"

AssignmentKey = tuple[int, ...]
ConfigLike = Union[Configuration, Sequence[int]]


class ProfileError(ValueError):
    """Raised for malformed, incomplete, or inconsistent profile data."""


@dataclass(frozen=True)
class ProfileEntry:
    """One profiled cell: a configuration measured at one input size."""

    assignments: AssignmentKey
    input_size: int
    base_latency: float
    objective_value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignments", tuple(int(i) for i in self.assignments))
        if self.input_size < 0:
            raise ProfileError(f"input_size must be >= 0, got {self.input_size}")
        if not (math.isfinite(self.base_latency) and self.base_latency > 0):
            raise ProfileError(
                f"base_latency must be a finite number > 0, got {self.base_latency}"
            )
        if not 0.0 <= self.objective_value <= 1.0:
            raise ProfileError(
                f"objective_value must be a finite number in [0, 1], "
                f"got {self.objective_value}"
            )


def _as_key(config: ConfigLike) -> AssignmentKey:
    if isinstance(config, Configuration):
        return config.assignments
    return tuple(int(i) for i in config)


class ProfileTable:
    """Complete grid of profile entries over configurations x input sizes.

    Immutable after construction; lookups between profiled sizes are
    linearly interpolated and clamped at the endpoints.
    """

    def __init__(self, entries: Iterable[ProfileEntry]):
        latencies: dict[AssignmentKey, dict[int, float]] = {}
        objectives: dict[AssignmentKey, float] = {}
        sizes: set[int] = set()
        for entry in entries:
            per_size = latencies.setdefault(entry.assignments, {})
            if entry.input_size in per_size:
                raise ProfileError(
                    f"duplicate entry for configuration {entry.assignments} "
                    f"at input size {entry.input_size}"
                )
            per_size[entry.input_size] = entry.base_latency
            sizes.add(entry.input_size)
            known = objectives.setdefault(entry.assignments, entry.objective_value)
            if known != entry.objective_value:
                raise ProfileError(
                    f"objective varies across input sizes for configuration "
                    f"{entry.assignments} ({known} vs {entry.objective_value})"
                )
        if not latencies:
            raise ProfileError("profile has no entries")
        self._input_sizes: tuple[int, ...] = tuple(sorted(sizes))
        for key, per_size in latencies.items():
            if len(per_size) != len(self._input_sizes):
                missing = sorted(sizes - set(per_size))
                raise ProfileError(
                    f"incomplete grid: configuration {key} is missing "
                    f"input sizes {missing}"
                )
        self._size_index = {s: i for i, s in enumerate(self._input_sizes)}
        self._latencies: dict[AssignmentKey, tuple[float, ...]] = {
            key: tuple(per_size[s] for s in self._input_sizes)
            for key, per_size in latencies.items()
        }
        self._objectives = objectives

    @property
    def input_sizes(self) -> tuple[int, ...]:
        return self._input_sizes

    def configurations(self) -> list[AssignmentKey]:
        """All profiled assignment vectors, in lexicographic order."""
        return sorted(self._latencies)

    def entry(self, config: ConfigLike, input_size: int) -> ProfileEntry:
        """The stored entry at an exactly profiled input size."""
        key = _as_key(config)
        idx = self._size_index.get(input_size)
        if idx is None:
            raise KeyError(f"input size {input_size} was not profiled")
        return ProfileEntry(
            assignments=key,
            input_size=input_size,
            base_latency=self._latencies[key][idx],
            objective_value=self._objectives[key],
        )

    def lookup(self, config: ConfigLike, input_size: int) -> tuple[float, float]:
        """(base_latency, objective_value) for a configuration at any input size.

        Sizes between profiled knots are linearly interpolated; sizes outside
        the profiled range are clamped to the nearest endpoint.
        """
        key = _as_key(config)
        lat = self._latencies.get(key)
        if lat is None:
            raise KeyError(f"unknown configuration {key}")
        objective = self._objectives[key]
        idx = self._size_index.get(input_size)
        if idx is not None:
            return lat[idx], objective
        sizes = self._input_sizes
        if input_size <= sizes[0]:
            return lat[0], objective
        if input_size >= sizes[-1]:
            return lat[-1], objective
        hi = bisect_left(sizes, input_size)
        lo = hi - 1
        frac = (input_size - sizes[lo]) / (sizes[hi] - sizes[lo])
        return lat[lo] + frac * (lat[hi] - lat[lo]), objective

    def objective(self, config: ConfigLike) -> float:
        key = _as_key(config)
        try:
            return self._objectives[key]
        except KeyError:
            raise KeyError(f"unknown configuration {key}") from None

    def entries(self) -> Iterable[ProfileEntry]:
        """All entries, ordered by assignment vector then input size."""
        for key in self.configurations():
            for size in self._input_sizes:
                yield self.entry(key, size)


@dataclass(frozen=True)
class SyntheticProfileModel:
    """Deterministic cost model used to generate profile tables.

    Latency is additive: a floor, plus a weight per chosen parameter value,
    plus a per-face slope times the input size.  The objective is the sum of
    the chosen values' objective weights, clipped to [0, 1].  Every number
    must be finite; latency weights and the slope must also be non-negative
    so generated latencies stay positive and non-decreasing in input size.
    """

    latency_weights: Mapping[str, Mapping[str, float]]
    objective_weights: Mapping[str, Mapping[str, float]]
    per_face_slope: float
    latency_floor: float

    def __post_init__(self) -> None:
        floor, slope = self.latency_floor, self.per_face_slope
        if not (math.isfinite(floor) and floor > 0):
            raise ProfileError(f"latency_floor must be a finite number > 0, got {floor}")
        if not (math.isfinite(slope) and slope >= 0):
            raise ProfileError(f"per_face_slope must be a finite number >= 0, got {slope}")
        for kind, table in (("latency", self.latency_weights),
                            ("objective", self.objective_weights)):
            for param, weights in table.items():
                for label, w in weights.items():
                    if not math.isfinite(w):
                        raise ProfileError(
                            f"{kind} weight for {param}={label} must be finite, got {w}"
                        )
                    if kind == "latency" and w < 0:
                        raise ProfileError(f"negative latency weight for {param}={label}: {w}")

    def base_latency(self, labels: Sequence[tuple[str, str]], input_size: int) -> float:
        total = self.latency_floor + self.per_face_slope * input_size
        for param, label in labels:
            total += self._weight(self.latency_weights, param, label)
        return total

    def objective_value(self, labels: Sequence[tuple[str, str]]) -> float:
        total = 0.0
        for param, label in labels:
            total += self._weight(self.objective_weights, param, label)
        return min(1.0, max(0.0, total))

    @staticmethod
    def _weight(table: Mapping[str, Mapping[str, float]], param: str, label: str) -> float:
        try:
            return table[param][label]
        except KeyError:
            raise ProfileError(
                f"model has no weight for parameter {param!r} value {label!r}"
            ) from None


def generate_synthetic_profile(
    model: SyntheticProfileModel,
    topology: ServiceTopology,
    input_sizes: Sequence[int],
) -> ProfileTable:
    """Evaluate the model on the full configuration grid."""
    sizes = [int(s) for s in input_sizes]
    if not sizes:
        raise ProfileError("input_sizes must be non-empty")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ProfileError("input_sizes must be strictly increasing")
    params = topology.parameters
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise ProfileError(
            "synthetic models key weights by parameter name; "
            f"topology {topology.name!r} reuses a name across operators"
        )
    entries = []
    for config in enumerate_configurations(topology):
        labels = [(p.name, p.values[i]) for p, i in zip(params, config.assignments)]
        objective = model.objective_value(labels)
        for size in sizes:
            entries.append(
                ProfileEntry(
                    assignments=config.assignments,
                    input_size=size,
                    base_latency=model.base_latency(labels, size),
                    objective_value=objective,
                )
            )
    return ProfileTable(entries)


def save_profile(table: ProfileTable, path: str | Path) -> None:
    """Write a profile file that loads back bit-exact."""
    path = Path(path)
    lines = [PROFILE_HEADER]
    for entry in table.entries():
        key = ";".join(str(i) for i in entry.assignments)
        lines.append(
            f"{key},{entry.input_size},{entry.base_latency!r},{entry.objective_value!r}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_profile(path: str | Path) -> ProfileTable:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != PROFILE_HEADER:
        raise ProfileError(
            f"{path}: missing or malformed header (expected {PROFILE_HEADER!r})"
        )
    entries = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 4:
            raise ProfileError(f"{path}:{lineno}: malformed row {line!r}")
        try:
            assignments = tuple(int(tok) for tok in parts[0].split(";"))
            entry = ProfileEntry(
                assignments=assignments,
                input_size=int(parts[1]),
                base_latency=float(parts[2]),
                objective_value=float(parts[3]),
            )
        except (ValueError, ProfileError) as exc:
            raise ProfileError(f"{path}:{lineno}: malformed row: {exc}") from None
        entries.append(entry)
    return ProfileTable(entries)


def validate_profile_coverage(table: ProfileTable, topology: ServiceTopology) -> None:
    """Check that a table covers exactly the topology's configuration space."""
    expected = {c.assignments for c in enumerate_configurations(topology)}
    got = set(table.configurations())
    missing = expected - got
    if missing:
        raise ProfileError(
            f"profile is missing {len(missing)} configurations "
            f"(e.g. {sorted(missing)[0]})"
        )
    extra = got - expected
    if extra:
        raise ProfileError(
            f"profile has {len(extra)} configurations outside the topology "
            f"(e.g. {sorted(extra)[0]})"
        )
