import filecmp
import math
import re
from pathlib import Path

import pytest
import yaml

from adaptsim.cli import main
from adaptsim.config import ConfigError, load_config
from adaptsim.controllers import HeuristicParams, LearningParams, make_action_space
from adaptsim.defaults import default_model, default_topology
from adaptsim.harness import CONTROLLER_KINDS, METRICS_HEADER, _run_trace_paths, measure_overhead
from adaptsim.profiling import ProfileError
from adaptsim.service_model import enumerate_configurations, sort_by_objective
from adaptsim.simenv import TRACE_KINDS, CpuChainParams

NONMONOTONE = Path(__file__).resolve().parent.parent / "configs" / "nonmonotone.yaml"

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
    assert len(enumerate_configurations(cfg.topology)) == 512
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
    assert len(enumerate_configurations(cfg.topology)) == 4
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



def test_nonmonotone_config_breaks_only_the_ladders_latency_order():
    model = yaml.safe_load(NONMONOTONE.read_text())["profile"]["model"]
    assert model["objective_weights"] == default_model().objective_weights
    for path, monotone in ((None, True), (NONMONOTONE, False)):
        cfg = load_config(path)
        assert cfg.topology == default_topology()
        smallest = cfg.profile.input_sizes[0]
        ranked = sort_by_objective(enumerate_configurations(cfg.topology), cfg.profile, smallest)
        # The ladder from its worst-objective rung up, as the heuristic climbs it.
        ladder = make_action_space(ranked, cfg.action_count)[::-1]
        latency = [cfg.profile.lookup(c, smallest)[0] for c in ladder]
        assert all(a <= b for a, b in zip(latency, latency[1:])) is monotone, path

def test_config_errors(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("controller:\n  kinds: [pid]\n")
    with pytest.raises(ConfigError, match="^controller.kinds names unknown kind 'pid'; "):
        load_config(path)
    path.write_text("trace:\n  kinds: [bursty]\n")
    with pytest.raises(ConfigError, match="^trace.kinds names unknown kind 'bursty'; "):
        load_config(path)
    path.write_text("profile:\n  source: measurements\n")
    with pytest.raises(ConfigError, match="unknown profile source"):
        load_config(path)
    path.write_text("profile:\n  source: file\n")
    with pytest.raises(ConfigError, match="^profile with source 'file' missing key 'path'$"):
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


def test_run_and_report_print_the_same_table_in_summary_order(tmp_path, capsys):
    # Kinds listed against the paper's order: both verbs print summary.csv's order.
    exp = tmp_path / "exp.yaml"
    exp.write_text(
        MINIMAL_TOPOLOGY.replace("[static-hp, heuristic]", "[rl2, heuristic]")
        .replace("kinds: [random]", "kinds: [random, fixed]")
        + "out_dir: results\n"
    )
    assert main(["run", "--config", str(exp)]) == 0
    ran = capsys.readouterr().out.split("summary: ", 1)[1]
    assert main(["report", "--config", str(exp), "--out", str(tmp_path / "results")]) == 0
    assert capsys.readouterr().out.split("summary: ", 1)[1] == ran
    campaigns = [line.split()[:2] for line in ran.splitlines()[2:]]
    assert campaigns == [
        ["heuristic", "fixed"], ["rl2", "fixed"], ["heuristic", "random"], ["rl2", "random"]
    ]


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


@pytest.mark.parametrize("gone", ["run_000.csv", "run_001.csv"])
def test_cli_report_refuses_a_missing_run_trace(tmp_path, capsys, gone):
    exp = tmp_path / "exp.yaml"
    exp.write_text(MINIMAL_TOPOLOGY)
    out_root = tmp_path / "results"
    assert main(["run", "--config", str(exp), "--out", str(out_root), "--runs", "3"]) == 0
    missing = out_root / "heuristic_random" / "runs" / gone
    missing.unlink()
    summary = (out_root / "summary.csv").read_bytes()
    capsys.readouterr()
    assert main(["report", "--config", str(exp), "--out", str(out_root)]) == 1
    out, err = capsys.readouterr()
    assert err == (
        f"error: {missing} is missing: a campaign's run traces are numbered "
        "from run_000.csv without a gap\n"
    )
    assert out == ""
    assert (out_root / "summary.csv").read_bytes() == summary


@pytest.mark.parametrize("stray", ["run_old.csv", "run_0001.csv", "run_1.csv"])
def test_cli_report_names_a_stray_run_file(tmp_path, capsys, stray):
    exp = tmp_path / "exp.yaml"
    exp.write_text(MINIMAL_TOPOLOGY)
    out_root = tmp_path / "results"
    assert main(["run", "--config", str(exp), "--out", str(out_root)]) == 0
    path = out_root / "heuristic_random" / "runs" / stray
    path.write_text("")
    summary = (out_root / "summary.csv").read_bytes()
    capsys.readouterr()
    assert main(["report", "--config", str(exp), "--out", str(out_root)]) == 1
    out, err = capsys.readouterr()
    assert err == (
        f"error: {path} is not a run trace: a campaign's run traces are named "
        "run_000.csv, run_001.csv and so on\n"
    )
    assert out == ""
    assert (out_root / "summary.csv").read_bytes() == summary


def test_run_trace_names_go_on_past_run_999(tmp_path):
    runs = tmp_path / "runs"
    runs.mkdir()
    for k in range(1001):
        (runs / f"run_{k:03d}.csv").touch()
    (tmp_path / "metrics.csv").write_text(METRICS_HEADER + "\n" + "row\n" * 1001)
    paths = [path for path, _ in _run_trace_paths(tmp_path)]
    assert paths[999:] == [runs / "run_999.csv", runs / "run_1000.csv"]
    assert len(paths) == 1001


def test_cli_report_refuses_a_deleted_last_run_trace(tmp_path, capsys):
    # No gap in the numbering: only the campaign's metrics.csv tells that a
    # third run trace is gone.
    exp = tmp_path / "exp.yaml"
    exp.write_text(MINIMAL_TOPOLOGY)
    out_root = tmp_path / "results"
    assert main(["run", "--config", str(exp), "--out", str(out_root), "--runs", "3"]) == 0
    campaign = out_root / "heuristic_random"
    (campaign / "runs" / "run_002.csv").unlink()
    summary = (out_root / "summary.csv").read_bytes()
    capsys.readouterr()
    assert main(["report", "--config", str(exp), "--out", str(out_root)]) == 1
    out, err = capsys.readouterr()
    assert err == (
        f"error: {campaign / 'runs'} holds 2 run traces, but "
        f"{campaign / 'metrics.csv'} lists 3 runs\n"
    )
    assert out == ""
    assert (out_root / "summary.csv").read_bytes() == summary


def test_cli_report_refuses_a_campaign_without_metrics(tmp_path, capsys):
    exp = tmp_path / "exp.yaml"
    exp.write_text(MINIMAL_TOPOLOGY)
    out_root = tmp_path / "results"
    assert main(["run", "--config", str(exp), "--out", str(out_root)]) == 0
    metrics = out_root / "heuristic_random" / "metrics.csv"
    metrics.unlink()
    summary = (out_root / "summary.csv").read_bytes()
    capsys.readouterr()
    assert main(["report", "--config", str(exp), "--out", str(out_root)]) == 1
    out, err = capsys.readouterr()
    assert err == (
        f"error: {metrics} is missing: the campaign did not finish or is still running; "
        "run it again\n"
    )
    assert out == ""
    assert (out_root / "summary.csv").read_bytes() == summary


def test_cli_report_refuses_a_config_other_than_the_campaigns(tmp_path, capsys):
    # Without --config, report ranks configurations for the default
    # requirement, which maximizes: the recomputed runs disagree with the
    # metrics.csv the minimizing campaign wrote.
    exp = tmp_path / "exp.yaml"
    exp.write_text(
        "requirement: {objective_sense: minimize, constraints: [{metric: latency, target: 1.0}]}\n"
        "runs: 2\n"
        "trace: {kinds: [random], random_length: 200}\n"
        "controller: {kinds: [heuristic, rl2]}\n"
    )
    out_root = tmp_path / "out"
    assert main(["run", "--config", str(exp), "--out", str(out_root)]) == 0
    summary = (out_root / "summary.csv").read_bytes()
    listed = (out_root / "heuristic_random" / "metrics.csv").read_text().splitlines()[1]
    capsys.readouterr()
    assert main(["report", "--out", str(out_root)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"{out_root / 'heuristic_random' / 'metrics.csv'}: run 0" in err, err
    assert f"mean_objective {listed.split(',')[2]}" in err, err
    assert "--config" in err, err
    assert (out_root / "summary.csv").read_bytes() == summary
    assert main(["report", "--config", str(exp), "--out", str(out_root)]) == 0
    assert (out_root / "summary.csv").read_bytes() == summary


def test_cli_report_refuses_a_directory_without_campaigns(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: no campaign directories with run traces under {tmp_path}\n"
    assert out == ""
    assert not (tmp_path / "summary.csv").exists()


def test_campaign_specs_takes_either_trace_spelling():
    (spec,) = load_config(None).campaign_specs(controllers=["static-hp"], trace_kinds=["full-day"])
    assert spec.trace.kind == "full_day"
    assert spec.out_dir.name == "static-hp_full_day"


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


@pytest.mark.parametrize("verb", ["overhead", "report"])
def test_cli_verbs_refuse_a_config_of_zero_runs(tmp_path, capsys, verb):
    exp = tmp_path / "exp.yaml"
    exp.write_text(MINIMAL_TOPOLOGY.replace("runs: 2", "runs: 0"))
    extra = ["--steps", "50"] if verb == "overhead" else ["--out", str(tmp_path)]
    status = main([verb, "--config", str(exp), *extra])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err == "error: runs must be an integer >= 1, got 0\n"
    assert captured.out == ""


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

    def spy(spec, **kwargs):
        seen.append(spec)
        return measure_overhead(spec, **kwargs)

    monkeypatch.setattr(cli, "measure_overhead", spy)
    exp = tmp_path / "exp.yaml"
    exp.write_text(
        MINIMAL_TOPOLOGY.replace("  actions: all\n", "  actions: all\n  learning: {alpha: 0.3}\n")
        + "cpu: {min_avail: 0.5, change_prob: 0.2}\n"
    )
    assert main(["overhead", "--config", str(exp), "--steps", "50",
                 "--controller", "heuristic", "--controller", "rl2"]) == 0
    assert "rl2" in capsys.readouterr().out
    assert [spec.controller for spec in seen] == ["heuristic", "rl2"]
    for spec in seen:
        assert len(enumerate_configurations(spec.topology)) == 4
        assert spec.requirement.constraints[0].target == 2.0
        assert spec.profile.input_sizes == (1, 4, 16)
        assert spec.action_count == "all"
        assert spec.cpu_params == CpuChainParams(min_avail=0.5, change_prob=0.2)
        assert spec.learning_params == LearningParams(alpha=0.3)
        assert spec.heuristic_params == HeuristicParams(upgrade_after=4)


def test_cli_overhead_refuses_a_repeated_controller(capsys):
    status = main(["overhead", "--steps", "50", "--controller", "heuristic",
                   "--controller", "rl2", "--controller", "heuristic"])
    assert status == 1
    assert capsys.readouterr() == (
        "", "error: the controller list names 'heuristic' more than once\n"
    )


@pytest.mark.parametrize(
    "keyword, kinds, message",
    [("controllers", ["rl2", "heuristic", "rl2"], "the controller list names 'rl2'"),
     ("trace_kinds", ["random", "fixed", "fixed"], "the trace kind list names 'fixed'")],
)
def test_campaign_specs_refuses_a_repeated_kind(keyword, kinds, message):
    with pytest.raises(ConfigError, match=f"^{message} more than once$"):
        load_config(None).campaign_specs(**{keyword: kinds})


@pytest.mark.parametrize(
    "keyword, where", [("controllers", "the controller list"), ("trace_kinds", "the trace kind list")]
)
def test_campaign_specs_refuses_an_empty_override(keyword, where):
    with pytest.raises(ConfigError, match=f"^{where} must name at least one kind$"):
        load_config(None).campaign_specs(**{keyword: []})


@pytest.mark.parametrize(
    "verb, flags, message",
    [("run", ["--controller", "foo"], "the controller list names unknown kind 'foo'; "),
     ("run", ["--trace", "nope"], "the trace kind list names unknown kind 'nope'; "),
     ("overhead", ["--controller", "foo"], "the controller list names unknown kind 'foo'; ")],
    ids=["run-controller", "run-trace", "overhead-controller"],
)
def test_cli_refuses_an_unknown_kind_flag_in_one_line(tmp_path, capsys, verb, flags, message):
    extra = ["--out", str(tmp_path / "out")] if verb == "run" else ["--steps", "50"]
    status = main([verb, *flags, *extra])
    _assert_refused_before_any_campaign(tmp_path, capsys, status, f"error: {message}")


@pytest.mark.parametrize("verb, kinds", [("run", CONTROLLER_KINDS + TRACE_KINDS),
                                         ("overhead", CONTROLLER_KINDS)])
def test_cli_help_lists_the_kinds(capsys, monkeypatch, verb, kinds):
    monkeypatch.setenv("COLUMNS", "200")  # no kind is split at its hyphen
    with pytest.raises(SystemExit):
        main([verb, "--help"])
    out = capsys.readouterr().out
    assert all(kind in out for kind in kinds), out


def test_cli_report_reads_a_campaign_rerun_with_fewer_runs(tmp_path, capsys):
    exp = tmp_path / "exp.yaml"
    exp.write_text(MINIMAL_TOPOLOGY)
    out_root = tmp_path / "results"
    assert main(["run", "--config", str(exp), "--out", str(out_root), "--runs", "3"]) == 0
    assert main(["run", "--config", str(exp), "--out", str(out_root), "--runs", "1"]) == 0
    summary = (out_root / "summary.csv").read_bytes()
    capsys.readouterr()
    assert main(["report", "--config", str(exp), "--out", str(out_root)]) == 0
    assert capsys.readouterr().err == ""
    assert (out_root / "summary.csv").read_bytes() == summary
    assert [p.name for p in (out_root / "heuristic_random" / "runs").iterdir()] == ["run_000.csv"]


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
    "config_text, where, key, first",
    [
        ("runs: 5\nruns: 2\n", 2, "runs", 1),
        ("controller: {kinds: [rl2]}\nruns: 1\ncontroller: {kinds: [heuristic]}\n",
         3, "controller", 1),
        ("trace:\n  kinds: [fixed]\n  random_length: 50\n  kinds: [random]\n", 4, "kinds", 2),
        ("trace: {kinds: [fixed], kinds: [variable]}\n", 1, "kinds", 1),
        ("trace: {<<: {kinds: [fixed], kinds: [variable]}}\n", 1, "kinds", 1),
    ],
    ids=["top-level", "section", "inside-a-section", "flow-mapping", "merged-mapping"],
)
def test_load_config_refuses_a_key_written_twice(tmp_path, config_text, where, key, first):
    # YAML keeps the last value of a repeated key without a word.
    exp = tmp_path / "exp.yaml"
    exp.write_text(config_text)
    with pytest.raises(ConfigError) as err:
        load_config(exp)
    assert str(err.value) == f"{exp}: line {where}: key {key!r} appears twice (first on line {first})"


def test_load_config_lets_a_merge_key_be_overridden(tmp_path):
    exp = tmp_path / "exp.yaml"
    exp.write_text(
        "trace:\n  <<: &short {kinds: [fixed], random_length: 40}\n  kinds: [random]\nruns: 1\n"
    )
    cfg = load_config(exp)
    assert (cfg.trace_kinds, cfg.random_trace_length, cfg.runs) == (["random"], 40, 1)


def test_cli_run_refuses_a_key_written_twice_before_any_campaign(tmp_path, capsys):
    exp = tmp_path / "exp.yaml"
    exp.write_text("runs: 2\nruns: 3\n")
    status = main(["run", "--config", str(exp), "--out", str(tmp_path / "out")])
    _assert_refused_before_any_campaign(
        tmp_path, capsys, status, f"error: {exp}: line 2: key 'runs' appears twice (first on line 1)"
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
    assert "trace.random_length must be an integer >= 1, got 0" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [["run", "--config", "{bad}", "--out", "{out}"],
     ["profile", "--validate", "{bad}"],
     ["run", "--config", "{profile_config}", "--out", "{out}"]],
    ids=["config", "profile", "profile-source-file"],
)
def test_cli_refuses_a_file_that_is_not_utf8_with_its_path(tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"runs: 2\n\xff\n")
    profile_config = tmp_path / "exp.yaml"
    profile_config.write_text(f"profile: {{source: file, path: {bad}}}\n")
    argv = [a.format(bad=bad, out=tmp_path / "out", profile_config=profile_config) for a in argv]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {bad}: not a UTF-8 text file\n"
    assert out == ""
    assert not (tmp_path / "out").exists()


def test_cli_report_refuses_a_metrics_file_that_is_not_utf8(tmp_path, capsys):
    exp = tmp_path / "exp.yaml"
    exp.write_text(MINIMAL_TOPOLOGY)
    out_root = tmp_path / "results"
    assert main(["run", "--config", str(exp), "--out", str(out_root)]) == 0
    metrics = out_root / "heuristic_random" / "metrics.csv"
    metrics.write_bytes(metrics.read_bytes() + b"\xff\n")
    summary = (out_root / "summary.csv").read_bytes()
    capsys.readouterr()
    assert main(["report", "--config", str(exp), "--out", str(out_root)]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {metrics}: not a UTF-8 text file\n"
    assert out == ""
    assert (out_root / "summary.csv").read_bytes() == summary


@pytest.mark.parametrize(
    "section",
    ["cpu: {min_avail: 1.0e-320, change_prob: 0.5, delta_mean: 0.5}\n",
     "requirement: {constraints: [{metric: latency, target: 1.0e-320}]}\n"],
    ids=["cpu-floor", "latency-target"],
)
def test_cli_run_refuses_a_context_under_which_latency_overflows(tmp_path, capsys, section):
    status = _run_config(tmp_path, "runs: 1\ncontroller: {kinds: [static-hp]}\n" + section)
    out, err = capsys.readouterr()
    assert status == 1
    assert err.startswith("error: cpu min_avail ") and err.count("\n") == 1, err
    assert "is too small for latency target" in err and "overflows" in err, err
    assert not (tmp_path / "out" / "static-hp_variable").exists()


def test_cli_run_refuses_a_later_campaigns_overflowing_floor_before_any_campaign(
    tmp_path, capsys
):
    # 1e-305 overflows on the 86 400 full_day frames, not on the 1 100 variable ones
    status = _run_config(
        tmp_path,
        "runs: 1\ncontroller: {kinds: [static-hp]}\ntrace: {kinds: [variable, full_day]}\n"
        "cpu: {min_avail: 1.0e-305}\n",
    )
    out, err = capsys.readouterr()
    assert status == 1
    assert out == ""
    assert err.startswith("error: cpu min_avail 1e-305 is too small for latency target 1.0: "
                          "86400 frames x ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_cli_run_takes_a_cpu_floor_whose_latency_stays_finite(tmp_path, capsys):
    status = _run_config(
        tmp_path,
        "runs: 1\ncontroller: {kinds: [static-hp]}\ntrace: {kinds: [fixed]}\n"
        "cpu: {min_avail: 1.0e-300, change_prob: 0.5, delta_mean: 0.5}\n",
    )
    assert status == 0
    rows = (tmp_path / "out" / "static-hp_fixed" / "metrics.csv").read_text().splitlines()
    values = [float(cell) for row in rows[1:] for cell in row.split(",")[2:]]
    assert all(math.isfinite(v) for v in values) and min(values) < -1e290, rows
    assert main(["report", "--out", str(tmp_path / "out")]) == 0


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
        ("controller.heuristic", "start_index",
         MINIMAL_TOPOLOGY.replace("upgrade_after: 4", "start_index: 0")),
        ("the top level", "reference_input", MINIMAL_TOPOLOGY + "reference_input: 6\n"),
    ],
    ids=["heuristic", "learning", "cpu", "top", "topology", "operator", "granularity",
         "learning-seed", "parameter", "requirement", "constraint", "profile", "model",
         "controller", "trace", "heuristic-start-index", "reference-input"],
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
        (MINIMAL_TOPOLOGY.replace("upgrade_after: 4", "upgrade_after: 4.7"),
         "controller.heuristic.upgrade_after"),
    ],
    ids=["runs-fraction", "runs-bool", "actions-fraction", "actions-text", "random-length-text",
         "input-size-fraction", "heuristic-fraction"],
)
def test_cli_run_rejects_non_integer_field_before_any_campaign(
    tmp_path, capsys, config_text, key
):
    status = _run_config(tmp_path, config_text)
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1, captured.err
    assert f"{key} must be an integer >= " in captured.err, captured.err
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
    "flags, named",
    [(["--controller", "heuristic", "--controller", "heuristic"],
      "the controller list names 'heuristic'"),
     (["--trace", "full-day", "--trace", "full_day"], "the trace kind list names 'full_day'")],
    ids=["controller", "trace"],
)
def test_cli_run_refuses_a_repeated_kind_flag(tmp_path, capsys, flags, named):
    status = _run_config(tmp_path, MINIMAL_TOPOLOGY, *flags)
    _assert_refused_before_any_campaign(tmp_path, capsys, status, f"{named} more than once")


def test_cli_run_rejects_zero_actions_before_any_campaign(tmp_path, capsys):
    status = _run_config(tmp_path, MINIMAL_TOPOLOGY.replace("actions: all", "actions: 0"))
    _assert_refused_before_any_campaign(tmp_path, capsys, status, "controller.actions")


@pytest.mark.parametrize(
    "config_text, key",
    [
        (MINIMAL_TOPOLOGY.replace("input_sizes: [1, 4, 16]", "input_sizes: 5"),
         "profile.input_sizes must be a list"),
        (MINIMAL_TOPOLOGY.replace("kinds: [random]", "kinds: [full_day]\n"
                                  "  full_day_schedule: {0: 6}"),
         "error: unknown key 'full_day_schedule' under trace; "
         "expected one of kinds, random_length\n"),
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
        (MINIMAL_TOPOLOGY.replace("kinds: [static-hp, heuristic]", "kinds: []"),
         "controller.kinds must name at least one kind"),
        (MINIMAL_TOPOLOGY.replace("kinds: [random]", "kinds: []"),
         "trace.kinds must name at least one kind"),
        (MINIMAL_TOPOLOGY.replace("runs: 2", "runs: 0"), "runs must be an integer >= 1, got 0"),
        (MINIMAL_TOPOLOGY.replace("kinds: [random]", "kinds: [variable]")
         .replace("random_length: 120", "random_length: 0"),
         "trace.random_length must be an integer >= 1, got 0"),
        ("topology:\n  operators: {ocr: {}}\n", "topology.operators must be a list"),
        (MINIMAL_TOPOLOGY.replace("    - metric: latency\n      target: 2.0\n",
                                  "    metric: latency\n"),
         "requirement.constraints must be a list"),
        (MINIMAL_TOPOLOGY + "out_dir: 5\n", "out_dir must be a string, got int"),
        (MINIMAL_TOPOLOGY + "out_dir: null\n", "out_dir must be a string, got NoneType"),
        (MINIMAL_TOPOLOGY + "out_dir: [a, b]\n", "out_dir must be a string, got list"),
        (MINIMAL_TOPOLOGY + "out_dir: {a: 1}\n", "out_dir must be a string, got dict"),
        (MINIMAL_TOPOLOGY.split("profile:")[0] + "profile: {source: file, path: 5}\n",
         "profile.path must be a string, got int"),
        (MINIMAL_TOPOLOGY.replace("kinds: [static-hp, heuristic]",
                                  "kinds: [heuristic, static-hp, heuristic]"),
         "controller.kinds names 'heuristic' more than once"),
        (MINIMAL_TOPOLOGY.replace("kinds: [random]", "kinds: [full-day, random, full_day]"),
         "trace.kinds names 'full_day' more than once"),
    ],
    ids=["input-sizes-scalar", "schedule-unknown-key", "values-scalar", "latency-weights-list",
         "weight-row-scalar", "controller-kinds-string", "trace-kinds-string",
         "controller-kinds-empty", "trace-kinds-empty", "runs-zero",
         "random-length-zero-unused-kind",
         "operators-mapping", "constraints-mapping",
         "out-dir-int", "out-dir-null", "out-dir-list", "out-dir-mapping", "profile-path-int",
         "controller-kinds-repeated", "trace-kinds-repeated"],
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


@pytest.mark.parametrize(
    "config_text, prefix",
    [
        (MINIMAL_TOPOLOGY + "cpu: {min_avail: 0}\n", "error: cpu: "),
        (MINIMAL_TOPOLOGY.replace("  actions: all\n", "  actions: all\n  learning: {alpha: 2}\n"),
         "error: controller.learning: "),
        (MINIMAL_TOPOLOGY.replace("upgrade_after: 4", "upgrade_after: 0"),
         "error: controller.heuristic: "),
        (MINIMAL_TOPOLOGY.replace("input_sizes: [1, 4, 16]", "input_sizes: [48, 48]"),
         "error: profile: "),
        (MINIMAL_TOPOLOGY.replace("latency_floor: 0.2", "latency_floor: -1"),
         "error: profile.model: "),
        (MINIMAL_TOPOLOGY.replace('          values: ["150", "300"]\n', ""),
         "error: topology.operators[0].parameters[0] missing key 'values'\n"),
    ],
    ids=["cpu", "learning", "heuristic", "profile", "model", "parameter-values"],
)
def test_cli_run_names_the_key_of_a_domain_refusal(tmp_path, capsys, config_text, prefix):
    assert config_text != MINIMAL_TOPOLOGY
    status = _run_config(tmp_path, config_text)
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1, captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


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
