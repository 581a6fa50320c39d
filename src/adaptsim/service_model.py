"""Service pipelines, their configuration space, and service requirements.

A service is an ordered pipeline of operators, each exposing tunable
parameters (adaptation knobs).  One choice of value for every knob across
the whole pipeline is a :class:`Configuration`, the unit the controllers
act on.  A :class:`Requirement` pairs an objective metric (to maximize or
minimize) with the hard latency bound every processed frame must satisfy.

All types here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .profiling import ProfileTable


@dataclass(frozen=True)
class ParameterSpec:
    """A single adaptation knob: a name and its ordered set of value labels.

    Value order is meaningful (it defines enumeration order and is how a
    knob's cheap-to-expensive direction is conventionally expressed), so it
    is preserved exactly as declared.
    """

    name: str
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(str(v) for v in self.values))
        if not self.name:
            raise ValueError("parameter name must be non-empty")
        if not self.values:
            raise ValueError(f"parameter {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"parameter {self.name!r} has duplicate value labels")


@dataclass(frozen=True)
class OperatorSpec:
    """A processing function of the pipeline with its parameters."""

    name: str
    parameters: tuple[ParameterSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parameters", tuple(self.parameters))
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise ValueError(f"operator {self.name!r} has duplicate parameter names")


@dataclass(frozen=True)
class ServiceTopology:
    """An ordered set of operators forming one service pipeline."""

    name: str
    operators: tuple[OperatorSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "operators", tuple(self.operators))
        names = [op.name for op in self.operators]
        if len(set(names)) != len(names):
            raise ValueError(f"topology {self.name!r} has duplicate operator names")

    @property
    def parameters(self) -> tuple[ParameterSpec, ...]:
        """All parameters in declaration order (operator order, then knob order)."""
        return tuple(p for op in self.operators for p in op.parameters)

    @property
    def configuration_count(self) -> int:
        return math.prod(len(p.values) for p in self.parameters)

    def value_labels(self, config: "Configuration") -> tuple[str, ...]:
        """Human-readable value labels for a configuration's assignments."""
        return tuple(p.values[i] for p, i in zip(self.parameters, config.assignments))


@dataclass(frozen=True)
class Configuration:
    """One assignment of a value index to every parameter, in topology order.

    ``ordinal`` is the configuration's rank after objective sorting
    (0 = best objective); it stays -1 until :func:`sort_by_objective`
    assigns it.
    """

    assignments: tuple[int, ...]
    ordinal: int = -1

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignments", tuple(int(i) for i in self.assignments))


@dataclass(frozen=True)
class ConstraintSpec:
    """A hard upper bound on a monitored metric (e.g. latency <= 1 s)."""

    metric: str
    target: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.target) and self.target > 0):
            raise ValueError(
                f"constraint {self.metric!r} target must be a finite number > 0, "
                f"got {self.target}"
            )


@dataclass(frozen=True)
class Requirement:
    """Objective metric plus the one constraint the simulator models: a latency bound."""

    objective_metric: str
    constraints: tuple[ConstraintSpec, ...]
    objective_sense: str = "maximize"

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.objective_sense not in ("maximize", "minimize"):
            raise ValueError(f"unknown objective sense {self.objective_sense!r}")
        if not self.constraints:
            raise ValueError("a requirement needs at least one constraint")
        metrics = [c.metric for c in self.constraints]
        if len(set(metrics)) != len(metrics):
            raise ValueError("constraint metrics must be pairwise distinct")
        if self.objective_metric in metrics:
            raise ValueError("objective metric cannot also be a constraint metric")
        other = [m for m in metrics if m != "latency"]
        if other:
            raise ValueError(
                f"the simulator models only latency; cannot evaluate constraints on {other}"
            )

    @property
    def latency_target(self) -> float:
        """The latency bound, in seconds; the requirement's one constraint."""
        return self.constraints[0].target


def enumerate_configurations(topology: ServiceTopology) -> list[Configuration]:
    """Enumerate the full configuration cross product.

    Order is lexicographic in parameter declaration order, so the first
    configuration assigns index 0 everywhere and the last assigns the
    highest index everywhere.
    """
    params = topology.parameters
    if not params:
        raise ValueError(
            f"topology {topology.name!r} declares no parameters; "
            "the service cannot be configured"
        )
    ranges = [range(len(p.values)) for p in params]
    return [Configuration(assignments=combo) for combo in itertools.product(*ranges)]


def sort_by_objective(
    configs: Sequence[Configuration],
    profile: "ProfileTable",
    reference_input: int,
    sense: str = "maximize",
) -> list[Configuration]:
    """Rank configurations by objective value and assign ordinals.

    Ordinal 0 is the best-objective configuration (highest value for
    maximize, lowest for minimize).  Ties are broken by lexicographic
    assignment order so the ranking is deterministic.
    """
    if sense not in ("maximize", "minimize"):
        raise ValueError(f"unknown objective sense {sense!r}")
    flip = -1.0 if sense == "maximize" else 1.0
    keyed = []
    for cfg in configs:
        try:
            _, objective = profile.lookup(cfg, reference_input)
        except KeyError:
            raise KeyError(
                f"profile has no entry for configuration {cfg.assignments}"
            ) from None
        keyed.append((flip * objective, cfg))
    keyed.sort(key=lambda pair: (pair[0], pair[1].assignments))
    return [replace(cfg, ordinal=rank) for rank, (_, cfg) in enumerate(keyed)]


def make_topology(
    name: str, operators: Iterable[tuple[str, Iterable[tuple[str, Iterable[str]]]]]
) -> ServiceTopology:
    """Build a topology from nested (operator, [(parameter, values)]) pairs."""
    ops = tuple(
        OperatorSpec(
            name=op_name,
            parameters=tuple(ParameterSpec(p_name, tuple(vals)) for p_name, vals in params),
        )
        for op_name, params in operators
    )
    return ServiceTopology(name=name, operators=ops)
