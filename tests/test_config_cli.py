import filecmp
import re

import pytest

from adaptsim.cli import build_parser, main
from adaptsim.config import ConfigError, load_config
from adaptsim.harness import measure_overhead
from adaptsim.profiling import ProfileError

MINIMAL_TOPOLOGY = """\
topology:
  name: doc_pipeline
  operators:
    - name: ocr
      parameters:
        - name: dpi
          values: ["150", "300"]
        - name: language_model
          values: [small, large]
requirement:
  objective_metric: accuracy
  objective_sense: maximize
  constraints:
    - metric: latency
      target: 2.0
profile:
  source: synthetic
  input_sizes: [1, 4, 16]
  model:
    latency_floor: 0.2
    per_face_slope: 0.01
    latency_weights:
      dpi: {"150": 0.0, "300": 0.4}
      language_model: {small: 0.0, large: 0.8}
    objective_weights:
      dpi: {"150": 0.3, "300": 0.5}
      language_model: {small: 0.1, large: 0.4}
controller:
  kinds: [static-hp, heuristic]
  heuristic:
    upgrade_after: 4
  actions: all
trace:
  kinds: [random]
  random_length: 120
runs: 2
base_seed: 3
"""


def test_default_config_without_file():
    cfg = load_config(None)
    assert cfg.topology.configuration_count == 512
    assert cfg.runs == 50
    assert cfg.controllers == ["static-hp", "static-fast", "heuristic", "rl1", "rl2"]
    assert cfg.trace_kinds == ["variable"]
    specs = cfg.campaign_specs(runs=1)
    assert len(specs) == 5
    assert specs[0].out_dir.name == "static-hp_variable"


def test_config_file_parsing(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(MINIMAL_TOPOLOGY)
    cfg = load_config(path)
    assert cfg.topology.name == "doc_pipeline"
    assert cfg.topology.configuration_count == 4
    assert cfg.requirement.objective_metric == "accuracy"
    assert cfg.requirement.constraints[0].target == 2.0
    assert cfg.profile.input_sizes == (1, 4, 16)
    assert cfg.action_count == "all"
    assert cfg.heuristic_params.upgrade_after == 4
    assert cfg.runs == 2
    specs = cfg.campaign_specs()
    assert [s.controller for s in specs] == ["static-hp", "heuristic"]
    assert all(s.trace.kind == "random" for s in specs)
    assert all(s.trace.length == 120 for s in specs)


def test_config_errors(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("controller:\n  kinds: [pid]\n")
    with pytest.raises(ConfigError, match="unknown controller"):
        load_config(path)
    path.write_text("trace:\n  kinds: [bursty]\n")
    with pytest.raises(ConfigError, match="unknown trace kind"):
        load_config(path)
    path.write_text("profile:\n  source: measurements\n")
    with pytest.raises(ConfigError, match="unknown profile source"):
        load_config(path)
    path.write_text("profile:\n  source: file\n")
    with pytest.raises(ConfigError, match="profile.path"):
        load_config(path)
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.yaml")


def test_profile_file_source_roundtrip(tmp_path):
    exp = tmp_path / "exp.yaml"
    exp.write_text(MINIMAL_TOPOLOGY)
    assert main(["profile", "--config", str(exp), "--out", str(tmp_path / "p.csv")]) == 0
    # same experiment, but the profile now comes from the generated file
    topology_part = MINIMAL_TOPOLOGY.split("profile:")[0]
    exp2 = tmp_path / "exp2.yaml"
    exp2.write_text(topology_part + "profile:\n  source: file\n  path: p.csv\n")
    cfg = load_config(exp2)
    assert cfg.profile.input_sizes == (1, 4, 16)
    assert len(cfg.profile.configurations()) == 4
    # the default topology has 512 configurations: the file is refused by name
    exp2.write_text("profile:\n  source: file\n  path: p.csv\n")
    with pytest.raises(ProfileError, match=re.escape(f"{tmp_path / 'p.csv'}: profile is missing")):
        load_config(exp2)


def test_cli_profile_generate_and_validate(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    assert main(["profile", "--out", str(out)]) == 0
    assert out.exists()
    assert main(["profile", "--validate", str(out)]) == 0
    captured = capsys.readouterr()
    assert "OK" in captured.out


def test_cli_profile_validate_rejects_wrong_grid(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    exp = tmp_path / "exp.yaml"
    exp.write_text(MINIMAL_TOPOLOGY)
    assert main(["profile", "--config", str(exp), "--out", str(out)]) == 0
    # validating the 4-config profile against the default 512-config topology fails
    assert main(["profile", "--validate", str(out)]) == 1
    assert "missing" in capsys.readouterr().err


def test_cli_run_and_report_roundtrip(tmp_path, capsys):
    exp = tmp_path / "exp.yaml"
    exp.write_text(MINIMAL_TOPOLOGY + "out_dir: results\n")
    assert main(["run", "--config", str(exp)]) == 0
    out_root = tmp_path / "results"
    summary = out_root / "summary.csv"
    assert summary.exists()
    first = summary.read_bytes()
    capsys.readouterr()
    # re-render from the run traces alone and compare
    assert main(["report", "--config", str(exp), "--out", str(out_root)]) == 0
    assert summary.read_bytes() == first
    assert (out_root / "static-hp_random" / "runs" / "run_000.csv").exists()


@pytest.mark.parametrize(
    "column,cell,complaint",
    [
        (3, "4", "ordinal 4 is outside the 4 configurations"),
        (3, "-1", "ordinal -1 is outside the 4 configurations"),
        (6, None, "expected 7 cells, got 6"),
        (6, "abc", "reward 'abc' is not a number"),
        (6, "nan", "reward 'nan' is not finite"),
        (5, "2", "satisfied '2' is not 0 or 1"),
        (2, "4.0", "input_size '4.0' is not an integer"),
        (0, "9", "step 9 where step 2 is due"),
    ],
    ids=["ordinal-past-end", "ordinal-negative", "truncated", "non-numeric", "nan", "satisfied-2",
         "size-not-integer", "step-out-of-order"],
)
def test_cli_report_refuses_malformed_run_trace(tmp_path, capsys, column, cell, complaint):
    exp = tmp_path / "exp.yaml"
    exp.write_text(MINIMAL_TOPOLOGY)
    out_root = tmp_path / "results"
    assert main(["run", "--config", str(exp), "--out", str(out_root)]) == 0
    trace = out_root / "heuristic_random" / "runs" / "run_001.csv"
    lines = trace.read_text().splitlines()
    cells = lines[3].split(",")
    if cell is None:
        del cells[column:]
    else:
        cells[column] = cell
    lines[3] = ",".join(cells)
    trace.write_text("\n".join(lines) + "\n")
    summary = (out_root / "summary.csv").read_bytes()
    capsys.readouterr()
    assert main(["report", "--config", str(exp), "--out", str(out_root)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {trace}:4: {complaint}\n"
    assert (out_root / "summary.csv").read_bytes() == summary


def test_cli_run_trace_takes_either_spelling():
    args = build_parser().parse_args(["run", "--trace", "full-day", "--trace", "full_day"])
    assert args.trace == ["full_day", "full_day"]


def test_cli_run_overrides(tmp_path):
    exp = tmp_path / "exp.yaml"
    exp.write_text(MINIMAL_TOPOLOGY)
    out = tmp_path / "o1"
    assert (
        main(
            [
                "run",
                "--config",
                str(exp),
                "--controller",
                "heuristic",
                "--runs",
                "1",
                "--seed",
                "21",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    dirs = [p.name for p in out.iterdir() if p.is_dir()]
    assert dirs == ["heuristic_random"]


def test_cli_run_determinism(tmp_path):
    exp = tmp_path / "exp.yaml"
    exp.write_text(MINIMAL_TOPOLOGY)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["run", "--config", str(exp), "--out", str(out)]) == 0
    assert filecmp.cmp(a / "summary.csv", b / "summary.csv", shallow=False)
    assert filecmp.cmp(
        a / "heuristic_random" / "metrics.csv",
        b / "heuristic_random" / "metrics.csv",
        shallow=False,
    )


def test_cli_overhead(capsys):
    assert main(["overhead", "--steps", "1500", "--controller", "heuristic"]) == 0
    out = capsys.readouterr().out
    assert "heuristic" in out
    assert "impact" in out


def test_cli_overhead_rejects_missing_config(tmp_path, capsys):
    missing = tmp_path / "nonexistent.yaml"
    status = main(["overhead", "--config", str(missing), "--steps", "50",
                   "--controller", "heuristic"])
    err = capsys.readouterr().err
    assert status == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "nonexistent.yaml" in err


def test_cli_overhead_times_the_configured_service(tmp_path, capsys, monkeypatch):
    from adaptsim import cli

    seen = []

    def spy(kind, **kwargs):
        seen.append(kwargs)
        return measure_overhead(kind, **kwargs)

    monkeypatch.setattr(cli, "measure_overhead", spy)
    exp = tmp_path / "exp.yaml"
    exp.write_text(MINIMAL_TOPOLOGY)
    assert main(["overhead", "--config", str(exp), "--steps", "50",
                 "--controller", "heuristic", "--controller", "rl2"]) == 0
    assert "rl2" in capsys.readouterr().out
    assert len(seen) == 2
    for kwargs in seen:
        assert kwargs["topology"].configuration_count == 4
        assert kwargs["requirement"].constraints[0].target == 2.0
        assert kwargs["profile"].input_sizes == (1, 4, 16)
        assert kwargs["action_count"] == "all"


def test_cli_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.yaml"
    assert main(["run", "--config", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err


def _run_with_constraints(tmp_path, constraints_yaml):
    exp = tmp_path / "exp.yaml"
    exp.write_text(
        MINIMAL_TOPOLOGY.replace(
            "  constraints:\n    - metric: latency\n      target: 2.0\n", constraints_yaml
        )
    )
    return main(["run", "--config", str(exp), "--out", str(tmp_path / "out")])


def test_cli_run_rejects_non_finite_latency_target(tmp_path, capsys):
    for target in (".nan", ".inf"):
        status = _run_with_constraints(
            tmp_path, f"  constraints:\n    - metric: latency\n      target: {target}\n"
        )
        err = capsys.readouterr().err
        assert status == 1, target
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "finite" in err
    assert not (tmp_path / "out" / "summary.csv").exists()


def test_cli_run_rejects_constraint_not_on_latency(tmp_path, capsys):
    latency = "    - metric: latency\n      target: 2.0\n"
    for others in (latency, ""):
        status = _run_with_constraints(
            tmp_path, f"  constraints:\n{others}    - metric: energy\n      target: 0.5\n"
        )
        _assert_refused_before_any_campaign(tmp_path, capsys, status, "'energy'")


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-70"])
def test_cli_overhead_rejects_bad_reference_frame_time(capsys, value):
    status = main(["overhead", "--steps", "50", "--controller", "heuristic",
                   f"--reference-frame-ms={value}"])
    out, err = capsys.readouterr()
    assert status == 1
    assert out == "", out
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "reference frame time must be a finite number > 0" in err


def test_cli_run_rejects_malformed_yaml(tmp_path, capsys):
    exp = tmp_path / "exp.yaml"
    exp.write_text("runs: [1, 2\n")
    status = main(["run", "--config", str(exp), "--out", str(tmp_path / "out")])
    _assert_refused_before_any_campaign(
        tmp_path, capsys, status, f"error: {exp}: not valid YAML: line 2"
    )


@pytest.mark.parametrize(
    "argv",
    [["profile", "--out", "{dir}"], ["profile", "--validate", "{dir}"],
     ["run", "--config", "{dir}"], ["run", "--out", "{file}/x", "--runs", "1",
                                    "--controller", "static-hp", "--trace", "fixed"]],
    ids=["profile-out-dir", "profile-validate-dir", "run-config-dir", "run-out-under-file"],
)
def test_cli_reports_os_errors_as_one_line(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    argv = [a.format(dir=tmp_path, file=tmp_path / "file") for a in argv]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert str(tmp_path) in err
    assert "running" not in out, out


def test_cli_profile_validate_rejects_non_finite_latency(tmp_path, capsys):
    path = tmp_path / "profile.csv"
    assert main(["profile", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    for bad in ("nan", "inf"):
        cells = lines[1].split(",")
        cells[2] = bad
        path.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
        capsys.readouterr()
        assert main(["profile", "--validate", str(path)]) == 1, bad
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert ":2:" in err and "finite" in err


def test_cli_run_rejects_zero_random_trace_length(tmp_path, capsys):
    exp = tmp_path / "exp.yaml"
    exp.write_text(MINIMAL_TOPOLOGY.replace("random_length: 120", "random_length: 0"))
    status = main(["run", "--config", str(exp), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert status == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "trace length must be >= 1" in err
    assert not (tmp_path / "out").exists()


def _run_config(tmp_path, config_text, *extra):
    exp = tmp_path / "exp.yaml"
    exp.write_text(config_text)
    return main(["run", "--config", str(exp), "--out", str(tmp_path / "out"), *extra])


@pytest.mark.parametrize(
    "section, key, config_text",
    [
        ("controller.heuristic", "upgrade_aftr",
         MINIMAL_TOPOLOGY.replace("upgrade_after: 4", "upgrade_aftr: 3")),
        ("controller.learning", "alfa",
         MINIMAL_TOPOLOGY.replace("  actions: all\n", "  actions: all\n  learning:\n    alfa: 0.2\n")),
        ("cpu", "chnge_prob", MINIMAL_TOPOLOGY + "cpu:\n  chnge_prob: 0.2\n"),
        ("the top level", "runz", MINIMAL_TOPOLOGY + "runz: 5\n"),
        ("topology", "nme", MINIMAL_TOPOLOGY.replace("  name: doc_pipeline", "  nme: doc")),
        ("topology.operators[0]", "granularty",
         MINIMAL_TOPOLOGY.replace("- name: ocr\n", "- name: ocr\n      granularty: 2\n")),
        ("topology.operators[0]", "granularity",
         MINIMAL_TOPOLOGY.replace("- name: ocr\n", "- name: ocr\n      granularity: 2\n")),
        ("controller.learning", "seed",
         MINIMAL_TOPOLOGY.replace("  actions: all\n", "  actions: all\n  learning:\n    seed: 5\n")),
        ("topology.operators[0].parameters[1]", "valuez",
         MINIMAL_TOPOLOGY.replace("values: [small, large]", "valuez: [small, large]")),
        ("requirement", "objective_metrc",
         MINIMAL_TOPOLOGY.replace("objective_metric: accuracy", "objective_metrc: accuracy")),
        ("requirement.constraints[0]", "targt",
         MINIMAL_TOPOLOGY.replace("target: 2.0", "targt: 2.0")),
        ("profile", "sourc", MINIMAL_TOPOLOGY.replace("source: synthetic", "sourc: synthetic")),
        ("profile.model", "latency_flor",
         MINIMAL_TOPOLOGY.replace("latency_floor: 0.2", "latency_flor: 0.2")),
        ("controller", "kind",
         MINIMAL_TOPOLOGY.replace("kinds: [static-hp, heuristic]", "kind: [heuristic]")),
        ("trace", "kind", MINIMAL_TOPOLOGY.replace("kinds: [random]", "kind: [random]")),
    ],
    ids=["heuristic", "learning", "cpu", "top", "topology", "operator", "granularity",
         "learning-seed", "parameter", "requirement", "constraint", "profile", "model",
         "controller", "trace"],
)
def test_cli_run_rejects_unknown_parameter_key(tmp_path, capsys, section, key, config_text):
    status = _run_config(tmp_path, config_text)
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1, captured.err
    assert f"unknown key {key!r} under {section};" in captured.err, captured.err
    assert "running" not in captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["delta_mean", "delta_stddev"])
@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
def test_cli_run_rejects_non_finite_cpu_delta(tmp_path, capsys, field, value):
    status = _run_config(tmp_path, MINIMAL_TOPOLOGY + f"cpu:\n  {field}: {value}\n")
    err = capsys.readouterr().err
    assert status == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert field in err and "finite" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config_text, extra",
    [
        (MINIMAL_TOPOLOGY.replace("base_seed: 3", "base_seed: -1"), []),
        (MINIMAL_TOPOLOGY.replace("base_seed: 3", "base_seed: 2.5"), []),
        (MINIMAL_TOPOLOGY.replace("base_seed: 3", "base_seed: seven"), []),
        (MINIMAL_TOPOLOGY, ["--seed", "-1"]),
    ],
    ids=["negative", "fraction", "text", "cli-negative"],
)
def test_cli_run_rejects_bad_base_seed_before_any_campaign(
    tmp_path, capsys, config_text, extra
):
    status = _run_config(tmp_path, config_text, *extra)
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1, captured.err
    assert "base_seed" in captured.err, captured.err
    assert "running" not in captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config_text, key",
    [
        (MINIMAL_TOPOLOGY.replace("runs: 2", "runs: 2.5"), "runs"),
        (MINIMAL_TOPOLOGY.replace("runs: 2", "runs: true"), "runs"),
        (MINIMAL_TOPOLOGY.replace("actions: all", "actions: 3.9"), "controller.actions"),
        (MINIMAL_TOPOLOGY.replace("actions: all", "actions: '3'"), "controller.actions"),
        (MINIMAL_TOPOLOGY.replace("random_length: 120", "random_length: '12'"),
         "trace.random_length"),
        (MINIMAL_TOPOLOGY.replace("input_sizes: [1, 4, 16]", "input_sizes: [1, 4.5, 16]"),
         "profile.input_sizes"),
        (MINIMAL_TOPOLOGY + "reference_input: 4.0\n", "reference_input"),
        (MINIMAL_TOPOLOGY.replace("upgrade_after: 4", "upgrade_after: 4.7"),
         "controller.heuristic.upgrade_after"),
        (MINIMAL_TOPOLOGY.replace("kinds: [random]", "kinds: [full_day]\n"
                                  "  full_day_schedule: {0: 6.5}"),
         "trace.full_day_schedule"),
    ],
    ids=["runs-fraction", "runs-bool", "actions-fraction", "actions-text", "random-length-text",
         "input-size-fraction", "reference-input-float", "heuristic-fraction",
         "schedule-fraction"],
)
def test_cli_run_rejects_non_integer_field_before_any_campaign(
    tmp_path, capsys, config_text, key
):
    status = _run_config(tmp_path, config_text)
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1, captured.err
    assert f"{key} must be a non-negative integer" in captured.err, captured.err
    assert "running" not in captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("weight", ['"300": 0.4', '"300": 0.5'], ids=["latency", "objective"])
@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
def test_cli_rejects_non_finite_model_weight(tmp_path, capsys, weight, value):
    assert MINIMAL_TOPOLOGY.count(weight) == 1
    exp = tmp_path / "exp.yaml"
    exp.write_text(MINIMAL_TOPOLOGY.replace(weight, f'"300": {value}'))
    for argv in (["run", "--config", str(exp), "--out", str(tmp_path / "out")],
                 ["profile", "--config", str(exp), "--out", str(tmp_path / "p.csv")]):
        status = main(argv)
        err = capsys.readouterr().err
        assert status == 1, argv
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "dpi=300 must be finite" in err, err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "p.csv").exists()


def _assert_refused_before_any_campaign(tmp_path, capsys, status, *named):
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1, captured.err
    for text in named:
        assert text in captured.err, captured.err
    assert "running" not in captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config_text, key",
    [
        (MINIMAL_TOPOLOGY.replace("input_sizes: [1, 4, 16]", "input_sizes: 5"),
         "profile.input_sizes must be a list"),
        (MINIMAL_TOPOLOGY.replace("kinds: [random]", "kinds: [full_day]\n"
                                  "  full_day_schedule: [1, 2]"),
         "trace.full_day_schedule must be a mapping"),
        (MINIMAL_TOPOLOGY.replace('values: ["150", "300"]', "values: 3"),
         "topology.operators[0].parameters[0].values must be a list"),
        (MINIMAL_TOPOLOGY.replace('latency_weights:\n      dpi: {"150": 0.0, "300": 0.4}\n'
                                  "      language_model: {small: 0.0, large: 0.8}",
                                  "latency_weights: [1]"),
         "profile.model.latency_weights must be a mapping"),
        (MINIMAL_TOPOLOGY.replace('dpi: {"150": 0.3, "300": 0.5}', "dpi: 0.3"),
         "profile.model.objective_weights.dpi must be a mapping"),
        (MINIMAL_TOPOLOGY.replace("kinds: [static-hp, heuristic]", "kinds: rl1"),
         "controller.kinds must be a list"),
        (MINIMAL_TOPOLOGY.replace("kinds: [random]", "kinds: random"),
         "trace.kinds must be a list"),
        ("topology:\n  operators: {ocr: {}}\n", "topology.operators must be a list"),
        (MINIMAL_TOPOLOGY.replace("    - metric: latency\n      target: 2.0\n",
                                  "    metric: latency\n"),
         "requirement.constraints must be a list"),
    ],
    ids=["input-sizes-scalar", "schedule-list", "values-scalar", "latency-weights-list",
         "weight-row-scalar", "controller-kinds-string", "trace-kinds-string",
         "operators-mapping", "constraints-mapping"],
)
def test_cli_run_rejects_config_value_of_wrong_shape(tmp_path, capsys, config_text, key):
    assert config_text != MINIMAL_TOPOLOGY
    _assert_refused_before_any_campaign(
        tmp_path, capsys, _run_config(tmp_path, config_text), key
    )


@pytest.mark.parametrize(
    "config_text, key",
    [
        (MINIMAL_TOPOLOGY.replace("  actions: all\n", "  actions: all\n  learning:\n"
                                  "    alpha: true\n"), "controller.learning.alpha"),
        (MINIMAL_TOPOLOGY.replace("  actions: all\n", "  actions: all\n  learning:\n"
                                  "    alpha: abc\n"), "controller.learning.alpha"),
        (MINIMAL_TOPOLOGY + "cpu:\n  change_prob: true\n", "cpu.change_prob"),
        (MINIMAL_TOPOLOGY + "cpu:\n  delta_mean: '0.1'\n", "cpu.delta_mean"),
        (MINIMAL_TOPOLOGY.replace("target: 2.0", "target: '2.0'"),
         "requirement.constraints[0].target"),
        (MINIMAL_TOPOLOGY.replace("latency_floor: 0.2", "latency_floor: yes"),
         "profile.model.latency_floor"),
        (MINIMAL_TOPOLOGY.replace("per_face_slope: 0.01", "per_face_slope: fast"),
         "profile.model.per_face_slope"),
        (MINIMAL_TOPOLOGY.replace('"300": 0.4', '"300": "0.4"'),
         "profile.model.latency_weights.dpi.300"),
        (MINIMAL_TOPOLOGY.replace("large: 0.4", "large: true"),
         "profile.model.objective_weights.language_model.large"),
    ],
    ids=["alpha-bool", "alpha-text", "change-prob-bool", "delta-mean-text", "target-text",
         "floor-bool", "slope-text", "latency-weight-text", "objective-weight-bool"],
)
def test_cli_run_rejects_non_number_float_field(tmp_path, capsys, config_text, key):
    assert config_text != MINIMAL_TOPOLOGY
    _assert_refused_before_any_campaign(
        tmp_path, capsys, _run_config(tmp_path, config_text), f"{key} must be a number"
    )


def test_cli_run_rejects_missing_constraint_target(tmp_path, capsys):
    status = _run_with_constraints(tmp_path, "  constraints:\n    - metric: latency\n")
    _assert_refused_before_any_campaign(
        tmp_path, capsys, status, "requirement.constraints[0] missing key 'target'"
    )


@pytest.mark.parametrize(
    "source, key, text, known",
    [("file", "input_sizes", "[1, 4]", "source, path"),
     ("file", "model", "default", "source, path"),
     ("synthetic", "path", "p.csv", "source, input_sizes, model")],
)
def test_cli_run_refuses_profile_keys_the_source_ignores(
    tmp_path, capsys, source, key, text, known
):
    exp = tmp_path / "exp.yaml"
    exp.write_text(MINIMAL_TOPOLOGY)
    assert main(["profile", "--config", str(exp), "--out", str(tmp_path / "p.csv")]) == 0
    capsys.readouterr()
    path = "  path: p.csv\n" if source == "file" else ""
    config_text = (MINIMAL_TOPOLOGY.split("profile:")[0]
                   + f"profile:\n  source: {source}\n{path}  {key}: {text}\n")
    _assert_refused_before_any_campaign(
        tmp_path, capsys, _run_config(tmp_path, config_text),
        f"unknown key {key!r} under profile with source {source!r}; expected one of {known}",
    )
