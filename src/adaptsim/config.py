"""Experiment configuration files (YAML) and their expansion into campaigns.

A single config document declares the service topology, the requirement,
the profile source, and the run policy.  Controllers and traces may be
lists; the cross product becomes one campaign per (controller, trace) pair,
each writing into its own subdirectory of ``out_dir``.

Every section is optional: omitted sections fall back to the shipped
face-pipeline defaults, so a minimal config can be just ``runs: 5``.  An
unknown key, at the top level or in any section, is an error.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Mapping, Sequence

import yaml

from . import defaults
from .controllers import HeuristicParams, LearningParams
from .harness import CONTROLLER_KINDS, ExperimentSpec
from .profiling import (
    ProfileTable,
    SyntheticProfileModel,
    generate_synthetic_profile,
    load_profile,
    validate_profile_coverage,
)
from .service_model import (
    ConstraintSpec,
    OperatorSpec,
    ParameterSpec,
    Requirement,
    ServiceTopology,
)
from .simenv import TRACE_KINDS, CpuChainParams, InputTrace, make_trace


class ConfigError(ValueError):
    """Raised when an experiment config file cannot be interpreted."""


@dataclass
class ExperimentConfig:
    topology: ServiceTopology
    requirement: Requirement
    profile: ProfileTable
    controllers: list[str]
    trace_kinds: list[str]
    cpu_params: CpuChainParams
    heuristic_params: HeuristicParams
    learning_params: LearningParams
    action_count: int | str
    runs: int
    base_seed: int
    reference_input: int | None
    out_dir: Path
    random_trace_length: int
    full_day_schedule: dict[int, int] | None = None

    def trace(self, kind: str) -> InputTrace:
        return make_trace(
            kind,
            length=self.random_trace_length,
            schedule=self.full_day_schedule,
        )

    def campaign_specs(
        self,
        controllers: list[str] | None = None,
        trace_kinds: list[str] | None = None,
        out_dir: Path | None = None,
        runs: int | None = None,
        base_seed: int | None = None,
    ) -> list[ExperimentSpec]:
        """One spec per (controller, trace), optionally overridden by the CLI."""
        controllers = controllers or self.controllers
        trace_kinds = trace_kinds or self.trace_kinds
        out_root = Path(out_dir) if out_dir is not None else self.out_dir
        specs = []
        for trace_kind in trace_kinds:
            trace = self.trace(trace_kind)
            for controller in controllers:
                specs.append(
                    ExperimentSpec(
                        topology=self.topology,
                        requirement=self.requirement,
                        profile=self.profile,
                        trace=trace,
                        controller=controller,
                        out_dir=out_root / f"{controller}_{trace_kind}",
                        cpu_params=self.cpu_params,
                        heuristic_params=self.heuristic_params,
                        learning_params=self.learning_params,
                        action_count=self.action_count,
                        runs=runs if runs is not None else self.runs,
                        base_seed=base_seed if base_seed is not None else self.base_seed,
                        reference_input=self.reference_input,
                    )
                )
        return specs


def _known_node(
    node: Any, where: str, known: Sequence[str] | None = None
) -> Mapping[str, Any]:
    """A mapping whose keys are all in ``known`` (any key when ``known`` is None)."""
    if not isinstance(node, Mapping):
        raise ConfigError(f"{where} must be a mapping, got {type(node).__name__}")
    for key in node:
        if known is not None and key not in known:
            raise ConfigError(
                f"unknown key {key!r} under {where}; expected one of {', '.join(known)}"
            )
    return node


def _list_node(node: Any, where: str) -> list | tuple:
    """A list, refused rather than iterated when it is a scalar or a mapping."""
    if not isinstance(node, (list, tuple)):
        raise ConfigError(f"{where} must be a list, got {type(node).__name__}")
    return node


def _params_node(node: Any, params_cls: type, where: str) -> Mapping[str, Any]:
    """A mapping whose keys are all fields of the dataclass ``params_cls``."""
    return _known_node(node, where, [f.name for f in fields(params_cls)])


def _parse_topology(node: Any) -> ServiceTopology:
    node = _known_node(node, "topology", ("name", "operators"))
    operators = []
    for i, op_node in enumerate(_list_node(node.get("operators", []), "topology.operators")):
        where = f"topology.operators[{i}]"
        op_node = _known_node(op_node, where, ("name", "parameters"))
        params = []
        p_nodes = _list_node(op_node.get("parameters", []), f"{where}.parameters")
        for j, p_node in enumerate(p_nodes):
            p_where = f"{where}.parameters[{j}]"
            p_node = _known_node(p_node, p_where, ("name", "values"))
            try:
                values = _list_node(p_node["values"], f"{p_where}.values")
                params.append(ParameterSpec(str(p_node["name"]), tuple(map(str, values))))
            except KeyError as exc:
                raise ConfigError(f"parameter entry missing key {exc}") from None
        operators.append(
            OperatorSpec(
                name=str(op_node.get("name", f"op{len(operators)}")),
                parameters=tuple(params),
            )
        )
    try:
        return ServiceTopology(name=str(node.get("name", "service")), operators=tuple(operators))
    except ValueError as exc:
        raise ConfigError(f"invalid topology: {exc}") from None


def _parse_requirement(node: Any) -> Requirement:
    node = _known_node(
        node, "requirement", ("objective_metric", "objective_sense", "constraints")
    )
    constraints = []
    c_nodes = _list_node(node.get("constraints", []), "requirement.constraints")
    for i, c_node in enumerate(c_nodes):
        where = f"requirement.constraints[{i}]"
        c_node = _known_node(c_node, where, ("metric", "target"))
        if "target" not in c_node:
            raise ConfigError(f"{where} missing key 'target'")
        target = _number(c_node["target"], f"{where}.target")
        try:
            constraints.append(ConstraintSpec(str(c_node.get("metric", "latency")), target))
        except ValueError as exc:
            raise ConfigError(f"invalid requirement: {exc}") from None
    try:
        return Requirement(
            objective_metric=str(node.get("objective_metric", "precision")),
            constraints=tuple(constraints),
            objective_sense=str(node.get("objective_sense", "maximize")),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid requirement: {exc}") from None


def _weights(node: Any, where: str) -> dict[str, dict[str, float]]:
    """``{parameter: {value: weight}}``, every weight a number."""
    return {
        str(p): {
            str(v): _number(w, f"{where}.{p}.{v}")
            for v, w in _known_node(values, f"{where}.{p}").items()
        }
        for p, values in _known_node(node, where).items()
    }


def _parse_model(node: Any) -> SyntheticProfileModel:
    node = _known_node(
        node,
        "profile.model",
        ("latency_floor", "per_face_slope", "latency_weights", "objective_weights"),
    )
    try:
        return SyntheticProfileModel(
            latency_weights=_weights(node["latency_weights"], "profile.model.latency_weights"),
            objective_weights=_weights(
                node["objective_weights"], "profile.model.objective_weights"
            ),
            per_face_slope=_number(node["per_face_slope"], "profile.model.per_face_slope"),
            latency_floor=_number(node["latency_floor"], "profile.model.latency_floor"),
        )
    except KeyError as exc:
        raise ConfigError(f"profile.model missing key {exc}") from None


def load_config(path: str | Path | None = None) -> ExperimentConfig:
    """Load an experiment config file; ``None`` yields the built-in defaults."""
    if path is None:
        raw: dict[str, Any] = {}
    else:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = yaml.safe_load(path.read_text(encoding="utf-8"))
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            detail = f"line {mark.line + 1}: {exc.problem}" if mark else " ".join(str(exc).split())
            raise ConfigError(f"{path}: not valid YAML: {detail}") from None
        raw = {} if loaded is None else loaded
        if not isinstance(raw, Mapping):
            raise ConfigError(f"{path}: top level must be a mapping")
    return parse_config(raw, base_dir=Path(path).parent if path else Path.cwd())


def _integer(value: Any, key: str) -> int:
    """``value`` itself if it is a non-negative integer; bools, floats and
    strings are refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(f"{key} must be a non-negative integer, got {value!r}")
    return value


def _number(value: Any, key: str) -> float:
    """``value`` as a float if it is an int or a float; bools and strings are
    refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def parse_config(raw: Mapping[str, Any], base_dir: Path | None = None) -> ExperimentConfig:
    base_dir = base_dir or Path.cwd()
    raw = _known_node(
        raw,
        "the top level",
        ("topology", "requirement", "profile", "controller", "trace", "cpu",
         "runs", "base_seed", "reference_input", "out_dir"),
    )

    topology = (
        _parse_topology(raw["topology"]) if "topology" in raw else defaults.default_topology()
    )
    requirement = (
        _parse_requirement(raw["requirement"])
        if "requirement" in raw
        else defaults.default_requirement()
    )

    profile_node = _known_node(
        raw.get("profile", {}), "profile", ("source", "path", "input_sizes", "model")
    )
    source = profile_node.get("source", "synthetic")
    if source == "synthetic":
        where = "profile with source 'synthetic'"
        _known_node(profile_node, where, ("source", "input_sizes", "model"))
        input_sizes = [
            _integer(s, "profile.input_sizes")
            for s in _list_node(
                profile_node.get("input_sizes", defaults.DEFAULT_INPUT_SIZES),
                "profile.input_sizes",
            )
        ]
        model_node = profile_node.get("model", "default")
        model = defaults.default_model() if model_node == "default" else _parse_model(model_node)
        profile = generate_synthetic_profile(model, topology, input_sizes)
    elif source == "file":
        # The file brings its own input sizes and latencies.
        _known_node(profile_node, "profile with source 'file'", ("source", "path"))
        if "path" not in profile_node:
            raise ConfigError("profile.source is 'file' but profile.path is missing")
        profile_path = Path(profile_node["path"])
        if not profile_path.is_absolute():
            profile_path = base_dir / profile_path
        profile = load_profile(profile_path)
        validate_profile_coverage(profile, topology)
    else:
        raise ConfigError(f"unknown profile source {source!r}")

    controller_node = _known_node(
        raw.get("controller", {}), "controller", ("kinds", "actions", "heuristic", "learning")
    )
    controllers = [
        str(c)
        for c in _list_node(controller_node.get("kinds", CONTROLLER_KINDS), "controller.kinds")
    ]
    for c in controllers:
        if c not in CONTROLLER_KINDS:
            raise ConfigError(f"unknown controller {c!r}; pick from {CONTROLLER_KINDS}")
    heuristic_node = _params_node(
        controller_node.get("heuristic", {}), HeuristicParams, "controller.heuristic"
    )
    heuristic_params = HeuristicParams(
        **{k: _integer(v, f"controller.heuristic.{k}") for k, v in heuristic_node.items()}
    )
    learning_node = _params_node(
        controller_node.get("learning", {}), LearningParams, "controller.learning"
    )
    learning_params = LearningParams(
        **{k: _number(v, f"controller.learning.{k}") for k, v in learning_node.items()}
    )
    action_count: int | str = controller_node.get("actions", 16)
    if action_count != "all":
        action_count = _integer(action_count, "controller.actions")

    trace_node = _known_node(
        raw.get("trace", {}), "trace", ("kinds", "random_length", "full_day_schedule")
    )
    trace_kinds = [
        str(t).replace("-", "_")
        for t in _list_node(trace_node.get("kinds", ["variable"]), "trace.kinds")
    ]
    for t in trace_kinds:
        if t not in TRACE_KINDS:
            raise ConfigError(f"unknown trace kind {t!r}; pick from {TRACE_KINDS}")
    where = "trace.full_day_schedule"
    schedule_node = _known_node(trace_node.get("full_day_schedule", {}), where)
    schedule = {_integer(h, where): _integer(f, where) for h, f in schedule_node.items()} or None

    cpu_node = _params_node(raw.get("cpu", {}), CpuChainParams, "cpu")
    cpu_params = CpuChainParams(**{k: _number(v, f"cpu.{k}") for k, v in cpu_node.items()})

    out_dir = Path(raw.get("out_dir", "results"))
    if not out_dir.is_absolute():
        out_dir = base_dir / out_dir

    reference_input = raw.get("reference_input")
    if reference_input is not None:
        reference_input = _integer(reference_input, "reference_input")
    return ExperimentConfig(
        topology=topology,
        requirement=requirement,
        profile=profile,
        controllers=controllers,
        trace_kinds=trace_kinds,
        cpu_params=cpu_params,
        heuristic_params=heuristic_params,
        learning_params=learning_params,
        action_count=action_count,
        runs=_integer(raw.get("runs", 50), "runs"),
        base_seed=_integer(raw.get("base_seed", 0), "base_seed"),
        reference_input=reference_input,
        out_dir=out_dir,
        random_trace_length=_integer(
            trace_node.get("random_length", 1000), "trace.random_length"
        ),
        full_day_schedule=schedule,
    )
