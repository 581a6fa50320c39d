import filecmp

import pytest

from adaptsim.cli import main
from adaptsim.config import ConfigError, load_config

MINIMAL_TOPOLOGY = """\
topology:
  name: doc_pipeline
  operators:
    - name: ocr
      granularity: 2
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
    status = _run_with_constraints(
        tmp_path,
        "  constraints:\n"
        "    - metric: latency\n      target: 2.0\n"
        "    - metric: energy\n      target: 0.5\n",
    )
    err = capsys.readouterr().err
    assert status == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "energy" in err
    assert not (tmp_path / "out" / "summary.csv").exists()


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


@pytest.mark.parametrize(
    "section, key, config_text",
    [
        ("controller.heuristic", "upgrade_aftr",
         MINIMAL_TOPOLOGY.replace("upgrade_after: 4", "upgrade_aftr: 3")),
        ("controller.learning", "alfa",
         MINIMAL_TOPOLOGY.replace("  actions: all\n", "  actions: all\n  learning:\n    alfa: 0.2\n")),
        ("cpu", "chnge_prob", MINIMAL_TOPOLOGY + "cpu:\n  chnge_prob: 0.2\n"),
    ],
    ids=["heuristic", "learning", "cpu"],
)
def test_cli_run_rejects_unknown_parameter_key(tmp_path, capsys, section, key, config_text):
    exp = tmp_path / "exp.yaml"
    exp.write_text(config_text)
    status = main(["run", "--config", str(exp), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert status == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert repr(key) in err and section in err, err
    assert not (tmp_path / "out").exists()
