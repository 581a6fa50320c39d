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
from typing import Any, Callable, Mapping, Sequence

import yaml

from . import defaults
from .controllers import HeuristicParams, LearningParams
from .harness import CONTROLLER_KINDS, ExperimentSpec, campaign_dir_name
from .profiling import (
    ProfileTable,
    SyntheticProfileModel,
    generate_synthetic_profile,
    load_profile,
)
from .service_model import (
    ConstraintSpec,
    OperatorSpec,
    ParameterSpec,
    Requirement,
    ServiceTopology,
    is_count,
)
from .simenv import TRACE_KINDS, CpuChainParams, make_trace


class ConfigError(ValueError):
    """Raised when an experiment config file cannot be interpreted."""


_MERGE_TAG = "tag:yaml.org,2002:merge"  # the key of ``<<: *anchor``


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` refusing a key written twice in one mapping, where
    PyYAML would keep the last value; a key that a merge brings in may still
    be overridden."""

    def __init__(self, stream):
        super().__init__(stream)
        self._checked = set()  # mapping nodes: applying a merge rewrites a node's entries

    def flatten_mapping(self, node):  # every mapping comes here before its merges are applied
        if node not in self._checked:
            self._checked.add(node)
            first_line = {}
            for key_node, _ in node.value:
                if not isinstance(key_node, yaml.ScalarNode) or key_node.tag == _MERGE_TAG:
                    continue  # the base refuses an unhashable key, and applies a merge
                key, line = self.construct_object(key_node), key_node.start_mark.line + 1
                if key in first_line:
                    raise ConfigError(
                        f"line {line}: key {key!r} appears twice (first on line {first_line[key]})"
                    )
                first_line[key] = line
        super().flatten_mapping(node)


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
    out_dir: Path
    random_trace_length: int

    def campaign_specs(
        self,
        controllers: list[str] | None = None,
        trace_kinds: list[str] | None = None,
        out_dir: Path | None = None,
        runs: int | None = None,
        base_seed: int | None = None,
    ) -> list[ExperimentSpec]:
        """One spec per (controller, trace), optionally overridden by the CLI; an override
        list is read as the config's own lists are."""
        if controllers is None:
            controllers = self.controllers
        else:
            controllers = _kinds(controllers, "the controller list", CONTROLLER_KINDS)
        if trace_kinds is None:
            trace_kinds = self.trace_kinds
        else:
            trace_kinds = _kinds(trace_kinds, "the trace kind list", TRACE_KINDS, _trace_kind)
        out_root = Path(out_dir) if out_dir is not None else self.out_dir
        specs = []
        for trace_kind in trace_kinds:
            trace = make_trace(trace_kind, length=self.random_trace_length)
            for controller in controllers:
                specs.append(
                    ExperimentSpec(
                        topology=self.topology,
                        requirement=self.requirement,
                        profile=self.profile,
                        trace=trace,
                        controller=controller,
                        out_dir=out_root / campaign_dir_name(controller, trace_kind),
                        cpu_params=self.cpu_params,
                        heuristic_params=self.heuristic_params,
                        learning_params=self.learning_params,
                        action_count=self.action_count,
                        runs=runs if runs is not None else self.runs,
                        base_seed=base_seed if base_seed is not None else self.base_seed,
                    )
                )
        return specs


def _known_node(
    node: Any, where: str, known: Sequence[str] | None = None, required: Sequence[str] = ()
) -> Mapping[str, Any]:
    """A mapping whose keys are all in ``known`` (any key when ``known`` is None) and
    that holds every key of ``required``."""
    if not isinstance(node, Mapping):
        raise ConfigError(f"{where} must be a mapping, got {type(node).__name__}")
    for key in node:
        if known is not None and key not in known:
            raise ConfigError(
                f"unknown key {key!r} under {where}; expected one of {', '.join(known)}"
            )
    for key in required:
        if key not in node:
            raise ConfigError(f"{where} missing key {key!r}")
    return node


def _list_node(node: Any, where: str) -> list | tuple:
    """A list, refused rather than iterated when it is a scalar or a mapping."""
    if not isinstance(node, (list, tuple)):
        raise ConfigError(f"{where} must be a list, got {type(node).__name__}")
    return node


def _kinds(
    node: Any, where: str, known: Sequence[str], spell: Callable[[Any], str] = str
) -> list[str]:
    """The kinds a list names, each spelled by ``spell``: at least one, each in ``known``,
    and none twice, since its campaign would run twice into one directory."""
    kinds = [spell(kind) for kind in _list_node(node, where)]
    if not kinds:
        raise ConfigError(f"{where} must name at least one kind")
    for i, kind in enumerate(kinds):
        if kind not in known:
            raise ConfigError(
                f"{where} names unknown kind {kind!r}; expected one of {', '.join(known)}"
            )
        if kind in kinds[:i]:
            raise ConfigError(f"{where} names {kind!r} more than once")
    return kinds


def _trace_kind(kind: Any) -> str:
    """A trace kind as :data:`TRACE_KINDS` spells it: ``full-day`` is ``full_day``."""
    return str(kind).replace("-", "_")


def _built(where: str, make: Callable, *args, **kwargs):
    """``make(*args, **kwargs)``; a ValueError it raises is refused under the key ``where``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _params(node: Any, cls: type, where: str, value: Callable[[Any, str], Any]):
    """The dataclass ``cls`` from a mapping whose keys are all its fields, each
    value read by ``value(v, "<where>.<key>")``."""
    node = _known_node(node, where, [f.name for f in fields(cls)])
    return _built(where, cls, **{k: value(v, f"{where}.{k}") for k, v in node.items()})


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
            p_node = _known_node(p_node, p_where, ("name", "values"), required=("name", "values"))
            values = _list_node(p_node["values"], f"{p_where}.values")
            params.append(
                _built(p_where, ParameterSpec, str(p_node["name"]), tuple(map(str, values)))
            )
        name = str(op_node.get("name", f"op{len(operators)}"))
        operators.append(_built(where, OperatorSpec, name, tuple(params)))
    name = str(node.get("name", "service"))
    return _built("topology", ServiceTopology, name, tuple(operators))


def _parse_requirement(node: Any) -> Requirement:
    node = _known_node(
        node, "requirement", ("objective_metric", "objective_sense", "constraints")
    )
    constraints = []
    c_nodes = _list_node(node.get("constraints", []), "requirement.constraints")
    for i, c_node in enumerate(c_nodes):
        where = f"requirement.constraints[{i}]"
        c_node = _known_node(c_node, where, ("metric", "target"), required=("target",))
        target = _number(c_node["target"], f"{where}.target")
        metric = str(c_node.get("metric", "latency"))
        constraints.append(_built(where, ConstraintSpec, metric, target))
    return _built(
        "requirement",
        Requirement,
        objective_metric=str(node.get("objective_metric", "precision")),
        constraints=tuple(constraints),
        objective_sense=str(node.get("objective_sense", "maximize")),
    )


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
    keys = ("latency_floor", "per_face_slope", "latency_weights", "objective_weights")
    node = _known_node(node, "profile.model", keys, required=keys)
    return _built(
        "profile.model",
        SyntheticProfileModel,
        latency_weights=_weights(node["latency_weights"], "profile.model.latency_weights"),
        objective_weights=_weights(node["objective_weights"], "profile.model.objective_weights"),
        per_face_slope=_number(node["per_face_slope"], "profile.model.per_face_slope"),
        latency_floor=_number(node["latency_floor"], "profile.model.latency_floor"),
    )


def load_config(path: str | Path | None = None) -> ExperimentConfig:
    """Load an experiment config file; ``None`` yields the built-in defaults."""
    if path is None:
        raw: dict[str, Any] = {}
    else:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = yaml.load(path.read_text(encoding="utf-8"), Loader=_UniqueKeyLoader)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            detail = f"line {mark.line + 1}: {exc.problem}" if mark else " ".join(str(exc).split())
            raise ConfigError(f"{path}: not valid YAML: {detail}") from None
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: not a UTF-8 text file") from None
        except ConfigError as exc:  # a key written twice
            raise ConfigError(f"{path}: {exc}") from None
        raw = {} if loaded is None else loaded
        if not isinstance(raw, Mapping):
            raise ConfigError(f"{path}: top level must be a mapping")
    return parse_config(raw, base_dir=Path(path).parent if path else Path.cwd())


def _integer(value: Any, key: str, least: int = 0) -> int:
    """``value`` itself if it is an integer >= ``least``; bools, floats and
    strings are refused, not converted."""
    if not is_count(value, least):
        raise ConfigError(f"{key} must be an integer >= {least}, got {value!r}")
    return value


def _number(value: Any, key: str) -> float:
    """``value`` as a float if it is an int or a float; bools and strings are
    refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _path(value: Any, key: str, base_dir: Path) -> Path:
    """``value`` as a path, a relative one under ``base_dir``; only a string is a path."""
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {type(value).__name__}")
    path = Path(value)
    return path if path.is_absolute() else base_dir / path


def parse_config(raw: Mapping[str, Any], base_dir: Path | None = None) -> ExperimentConfig:
    base_dir = base_dir or Path.cwd()
    raw = _known_node(
        raw,
        "the top level",
        ("topology", "requirement", "profile", "controller", "trace", "cpu",
         "runs", "base_seed", "out_dir"),
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
        profile = _built("profile", generate_synthetic_profile, model, topology, input_sizes)
    elif source == "file":
        # The file brings its own input sizes and latencies.
        where = "profile with source 'file'"
        _known_node(profile_node, where, ("source", "path"), required=("path",))
        profile = load_profile(_path(profile_node["path"], "profile.path", base_dir), topology)
    else:
        raise ConfigError(f"unknown profile source {source!r}")

    controller_node = _known_node(
        raw.get("controller", {}), "controller", ("kinds", "actions", "heuristic", "learning")
    )
    kinds = controller_node.get("kinds", CONTROLLER_KINDS)
    controllers = _kinds(kinds, "controller.kinds", CONTROLLER_KINDS)
    heuristic_params = _params(
        controller_node.get("heuristic", {}), HeuristicParams, "controller.heuristic", _integer
    )
    learning_params = _params(
        controller_node.get("learning", {}), LearningParams, "controller.learning", _number
    )
    action_count: int | str = controller_node.get("actions", 16)
    if action_count != "all":
        _integer(action_count, "controller.actions", 1)

    trace_node = _known_node(raw.get("trace", {}), "trace", ("kinds", "random_length"))
    kinds = trace_node.get("kinds", ["variable"])
    trace_kinds = _kinds(kinds, "trace.kinds", TRACE_KINDS, _trace_kind)
    # Refused when the config loads, whatever trace kinds run and whichever verb reads it.
    random_length = _integer(trace_node.get("random_length", 1000), "trace.random_length", 1)

    return ExperimentConfig(
        topology=topology,
        requirement=requirement,
        profile=profile,
        controllers=controllers,
        trace_kinds=trace_kinds,
        cpu_params=_params(raw.get("cpu", {}), CpuChainParams, "cpu", _number),
        heuristic_params=heuristic_params,
        learning_params=learning_params,
        action_count=action_count,
        runs=_integer(raw.get("runs", 50), "runs", 1),
        base_seed=_integer(raw.get("base_seed", 0), "base_seed"),
        out_dir=_path(raw.get("out_dir", "results"), "out_dir", base_dir),
        random_trace_length=random_length,
    )
