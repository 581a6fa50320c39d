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
from typing import Mapping, Sequence, Union

import numpy as np

from .service_model import Configuration, ServiceTopology, enumerate_configurations

PROFILE_HEADER = "assignments,input_size,base_latency_seconds,objective_value"

AssignmentKey = tuple[int, ...]
ConfigLike = Union[Configuration, Sequence[int]]


class ProfileError(ValueError):
    """Malformed, incomplete or inconsistent profile data; ``cell`` is the
    (row, column) of the grid value a :class:`ProfileTable` refused, if any."""

    def __init__(self, message: str, cell: tuple[int, int] | None = None):
        super().__init__(message)
        self.cell = cell


def _as_key(config: ConfigLike) -> AssignmentKey:
    if isinstance(config, Configuration):
        return config.assignments
    return tuple(int(i) for i in config)


class ProfileTable:
    """Complete grid: ``base_latency[r][c]`` of ``configurations[r]`` at
    ``input_sizes[c]``, and one ``objective[r]`` per configuration.

    Immutable after construction; lookups between profiled sizes are
    linearly interpolated and clamped at the endpoints.
    """

    def __init__(
        self,
        configurations: Sequence[ConfigLike],
        input_sizes: Sequence[int],
        base_latency: Sequence[Sequence[float]] | np.ndarray,
        objective: Sequence[float] | np.ndarray,
    ):
        keys = [_as_key(c) for c in configurations]
        sizes = tuple(int(s) for s in input_sizes)
        if not keys or not sizes:
            raise ProfileError("profile has no entries: the grid must be non-empty")
        if sizes[0] < 0 or any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ProfileError(f"input sizes must be >= 0 and strictly increasing: {list(sizes)}")
        self._row = {key: r for r, key in enumerate(keys)}
        if len(self._row) != len(keys):
            dup = next(key for r, key in enumerate(keys) if self._row[key] != r)
            raise ProfileError(f"duplicate configuration {dup}")
        lat = np.array(base_latency, dtype=np.float64)
        obj = np.array(objective, dtype=np.float64)
        if lat.shape != (len(keys), len(sizes)) or obj.shape != (len(keys),):
            raise ProfileError(f"shapes {lat.shape} and {obj.shape} of base_latency and objective "
                               f"do not match {len(keys)} configurations x {len(sizes)} sizes")
        bad = np.argwhere(~(np.isfinite(lat) & (lat > 0)))
        if bad.size:
            r, c = bad[0].tolist()
            raise ProfileError(
                f"base latency for configuration {keys[r]} at input size {sizes[c]} "
                f"must be a finite number > 0, got {lat[r, c]}",
                cell=(r, c),
            )
        bad = np.flatnonzero(~((obj >= 0) & (obj <= 1)))
        if bad.size:
            r = bad[0].item()
            raise ProfileError(
                f"objective for configuration {keys[r]} must be a finite number "
                f"in [0, 1], got {obj[r]}",
                cell=(r, 0),
            )
        lat.flags.writeable = obj.flags.writeable = False
        self._input_sizes = sizes
        self._base_latency = lat
        self._objective = obj

    @property
    def input_sizes(self) -> tuple[int, ...]:
        return self._input_sizes

    def configurations(self) -> list[AssignmentKey]:
        """All profiled assignment vectors, in lexicographic order."""
        return sorted(self._row)

    @property
    def objectives(self) -> np.ndarray:
        """Read-only objective value of every row."""
        return self._objective

    def row(self, config: ConfigLike) -> int:
        """The row that every by-row array of the table holds ``config`` at."""
        key = _as_key(config)
        try:
            return self._row[key]
        except KeyError:
            raise KeyError(f"unknown configuration {key}") from None

    def latency_at(self, input_size: int) -> np.ndarray:
        """Base latency of every row at any input size.

        Sizes between profiled knots are linearly interpolated; sizes outside
        the profiled range are clamped to the nearest endpoint.
        """
        lat, sizes = self._base_latency, self._input_sizes
        hi = bisect_left(sizes, input_size)
        if hi == len(sizes):  # above the last knot
            return lat[:, -1]
        if hi == 0 or sizes[hi] == input_size:  # at a knot, or below the first
            return lat[:, hi]
        lo = hi - 1
        frac = (input_size - sizes[lo]) / (sizes[hi] - sizes[lo])
        return lat[:, lo] + frac * (lat[:, hi] - lat[:, lo])

    def lookup(self, config: ConfigLike, input_size: int) -> tuple[float, float]:
        """(base_latency, objective_value) for a configuration at any input size."""
        row = self.row(config)
        return float(self.latency_at(input_size)[row]), float(self._objective[row])

    def objective(self, config: ConfigLike) -> float:
        return float(self._objective[self.row(config)])


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
    params = topology.parameters
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise ProfileError(
            "synthetic models key weights by parameter name; "
            f"topology {topology.name!r} reuses a name across operators"
        )
    configs = enumerate_configurations(topology)
    latency = np.empty((len(configs), len(sizes)))
    objective = np.empty(len(configs))
    for r, config in enumerate(configs):
        labels = [(p.name, p.values[i]) for p, i in zip(params, config.assignments)]
        objective[r] = model.objective_value(labels)
        latency[r] = [model.base_latency(labels, size) for size in sizes]
    return ProfileTable(configs, sizes, latency, objective)


def save_profile(table: ProfileTable, path: str | Path) -> None:
    """Write a profile file that loads back bit-exact."""
    lines = [PROFILE_HEADER]
    for key in table.configurations():
        row = table._row[key]
        assignments = ";".join(str(i) for i in key)
        objective = float(table._objective[row])
        for size, latency in zip(table.input_sizes, table._base_latency[row].tolist()):
            lines.append(f"{assignments},{size},{latency!r},{objective!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_profile(path: str | Path, topology: ServiceTopology | None = None) -> ProfileTable:
    """Read a profile file, refusing one that does not cover exactly ``topology``, if given.
    Every refusal starts with ``<path>:``, and one about a single row with ``<path>:<line>:``."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ProfileError(f"{path}: not a UTF-8 text file") from None
    numbered = [(n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not numbered or numbered[0][1].strip() != PROFILE_HEADER:
        raise ProfileError(f"{path}: missing or malformed header (expected {PROFILE_HEADER!r})")
    keys, sizes, lats, objs = [], [], [], []
    for lineno, line in numbered[1:]:
        try:
            key, size, lat, obj = line.split(",")
            keys.append(tuple(int(tok) for tok in key.split(";")))
            sizes.append(int(size))
            lats.append(float(lat))
            objs.append(float(obj))
        except ValueError as exc:
            raise ProfileError(f"{path}:{lineno}: malformed row {line!r}: {exc}") from None
    configs, knots = sorted(set(keys)), sorted(set(sizes))
    row_of = {key: r for r, key in enumerate(configs)}
    col_of = {size: c for c, size in enumerate(knots)}
    latency = np.empty((len(configs), len(knots)))
    objective = np.empty(len(configs))
    line_of = np.zeros(latency.shape, dtype=np.int64)  # 0: no row for the cell yet
    for (lineno, _), key, size, lat, obj in zip(numbered[1:], keys, sizes, lats, objs):
        r, c = row_of[key], col_of[size]
        if line_of[r, c]:
            raise ProfileError(
                f"{path}:{lineno}: duplicate entry for configuration {key} at input "
                f"size {size} (first on line {line_of[r, c]})"
            )
        if not line_of[r].any():
            objective[r] = obj
        elif obj != objective[r] and not (math.isnan(obj) and math.isnan(objective[r])):
            raise ProfileError(f"{path}:{lineno}: objective varies across input sizes for "
                               f"configuration {key} ({objective[r]} vs {obj})")
        latency[r, c] = lat
        line_of[r, c] = lineno
    incomplete = np.flatnonzero((line_of == 0).any(axis=1))
    if incomplete.size:
        r = incomplete[0]
        missing = [knots[c] for c in np.flatnonzero(line_of[r] == 0)]
        raise ProfileError(
            f"{path}: incomplete grid: configuration {configs[r]} is missing "
            f"input sizes {missing}"
        )
    try:
        table = ProfileTable(configs, knots, latency, objective)
        if topology is not None:
            validate_profile_coverage(table, topology)
    except ProfileError as exc:
        where = f"{path}:{line_of[exc.cell]}" if exc.cell else f"{path}"
        raise ProfileError(f"{where}: {exc}") from None
    return table


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
