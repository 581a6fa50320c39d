import filecmp
import os
import re
import subprocess
import sys
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptsim import harness
from adaptsim.controllers import StaticController, make_action_space, qtable_load
from adaptsim.defaults import default_topology
from adaptsim.harness import (
    TRACE_FILE_HEADER,
    CampaignLockError,
    EpisodeTrace,
    ExperimentSpec,
    emit_report,
    measure_overhead,
    recompute_metrics_from_trace,
    run_episode,
    run_experiment,
    write_run_trace,
)
from adaptsim.service_model import enumerate_configurations, sort_by_objective
from adaptsim.simenv import Environment, make_trace


def spec_for(tmp_path, controller, profile, topology, requirement, **kw):
    defaults = dict(
        topology=topology,
        requirement=requirement,
        profile=profile,
        trace=make_trace("variable"),
        controller=controller,
        out_dir=tmp_path / controller,
        runs=3,
        base_seed=11,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


@pytest.fixture(scope="module")
def small_campaigns(tmp_path_factory, face_profile, face_topology, face_requirement):
    """Three-run campaigns for every controller on the variable trace."""
    root = tmp_path_factory.mktemp("campaigns")
    results = {}
    for kind in ("static-hp", "static-fast", "heuristic", "rl1", "rl2"):
        spec = spec_for(root, kind, face_profile, face_topology, face_requirement)
        results[kind] = run_experiment(spec)
    return root, results


def test_campaign_outputs_exist(small_campaigns):
    root, results = small_campaigns
    for kind, result in results.items():
        assert (root / kind / "metrics.csv").exists()
        assert (root / kind / "timings.csv").exists()
        assert len(list((root / kind / "runs").glob("run_*.csv"))) == 3
        assert len(result.metrics) == 3


def test_trace_file_line_count_is_steps_plus_header(small_campaigns):
    root, results = small_campaigns
    path = root / "heuristic" / "runs" / "run_000.csv"
    lines = path.read_text().splitlines()
    assert len(lines) == 1100 + 1


def test_static_hp_mean_objective_is_profile_max(small_campaigns, face_profile):
    _, results = small_campaigns
    best = max(face_profile.objective(k) for k in face_profile.configurations())
    for m in results["static-hp"].metrics:
        assert m.mean_objective == best


def test_campaign_determinism_byte_identical(
    tmp_path, face_profile, face_topology, face_requirement
):
    a = spec_for(
        tmp_path, "rl2", face_profile, face_topology, face_requirement,
        out_dir=tmp_path / "a", runs=2,
    )
    b = spec_for(
        tmp_path, "rl2", face_profile, face_topology, face_requirement,
        out_dir=tmp_path / "b", runs=2,
    )
    run_experiment(a)
    run_experiment(b)
    assert filecmp.cmp(tmp_path / "a" / "metrics.csv", tmp_path / "b" / "metrics.csv", shallow=False)
    for k in range(2):
        assert filecmp.cmp(
            tmp_path / "a" / "runs" / f"run_{k:03d}.csv",
            tmp_path / "b" / "runs" / f"run_{k:03d}.csv",
            shallow=False,
        )


def test_metrics_match_trace_recomputation(small_campaigns, face_sorted_configs, face_profile):
    root, results = small_campaigns
    for kind in ("heuristic", "rl2"):
        result = results[kind]
        for k, metrics in enumerate(result.metrics):
            redone = recompute_metrics_from_trace(
                root / kind / "runs" / f"run_{k:03d}.csv",
                face_sorted_configs,
                face_profile,
                run_index=k,
            )
            assert redone.steps == metrics.steps
            assert redone.mean_objective == pytest.approx(metrics.mean_objective, abs=1e-12)
            assert redone.latency_satisfaction_pct == metrics.latency_satisfaction_pct
            assert redone.mean_reward == pytest.approx(metrics.mean_reward, abs=1e-12)


def test_recompute_names_the_line_of_a_byte_that_is_not_utf8(
    small_campaigns, face_sorted_configs, face_profile, tmp_path
):
    root, _ = small_campaigns
    lines = (root / "heuristic" / "runs" / "run_000.csv").read_bytes().splitlines(True)
    lines[2] = lines[2].replace(b",", b",\xff", 1)
    path = tmp_path / "run.csv"
    path.write_bytes(b"".join(lines))
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}:3: cpu '\ufffd")):
        recompute_metrics_from_trace(path, face_sorted_configs, face_profile)


def test_qtable_chains_across_runs(small_campaigns):
    root, results = small_campaigns
    table = qtable_load(root / "rl2" / "qtable.txt")
    # one update per step: (steps - 1) inside the loop plus one at finish
    assert table.total_visits == 3 * 1100
    assert table.encoder == "v2"


def test_rl_campaign_restarts_from_zeros(tmp_path, face_profile, face_topology, face_requirement):
    spec = spec_for(
        tmp_path, "rl1", face_profile, face_topology, face_requirement, runs=1
    )
    first = run_experiment(spec).metrics[0]
    again = run_experiment(spec).metrics[0]  # existing qtable must not leak in
    assert first.mean_objective == again.mean_objective
    assert first.mean_reward == again.mean_reward


def test_persistence_lock_collision(tmp_path, face_profile, face_topology, face_requirement):
    spec = spec_for(tmp_path, "rl2", face_profile, face_topology, face_requirement, runs=1)
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    lock = spec.qtable_path.with_name(spec.qtable_path.name + ".lock")
    lock.write_text("")
    with pytest.raises(CampaignLockError):
        run_experiment(spec)
    lock.unlink()
    run_experiment(spec)
    assert not lock.exists()


def test_stale_lock_of_a_reaped_process_is_taken_over(
    tmp_path, face_profile, face_topology, face_requirement
):
    spec = spec_for(tmp_path, "rl1", face_profile, face_topology, face_requirement, runs=1)
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped: its PID no longer names a running process
    lock = spec.qtable_path.with_name(spec.qtable_path.name + ".lock")
    lock.write_text(f"{child.pid}\n")
    run_experiment(spec)
    assert not lock.exists()
    assert spec.qtable_path.exists()


def test_lock_of_a_running_process_is_refused_and_names_it(
    tmp_path, face_profile, face_topology, face_requirement
):
    spec = spec_for(tmp_path, "rl1", face_profile, face_topology, face_requirement, runs=1)
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    lock = spec.qtable_path.with_name(spec.qtable_path.name + ".lock")
    lock.write_text(f"{os.getpid()}\n")
    with pytest.raises(CampaignLockError, match=f"process {os.getpid()}"):
        run_experiment(spec)
    assert lock.read_text() == f"{os.getpid()}\n"
    assert not spec.qtable_path.exists()


def test_lock_holds_the_owner_pid_while_the_campaign_runs(
    tmp_path, face_profile, face_topology, face_requirement, monkeypatch
):
    spec = spec_for(tmp_path, "rl1", face_profile, face_topology, face_requirement, runs=1)
    lock = spec.qtable_path.with_name(spec.qtable_path.name + ".lock")
    seen = []
    real_save = harness.qtable_save

    def save_and_look(table, path):
        seen.append(lock.read_text())
        real_save(table, path)

    monkeypatch.setattr(harness, "qtable_save", save_and_look)
    run_experiment(spec)
    assert seen == [f"{os.getpid()}\n"]
    assert not lock.exists()


def test_pareto_sanity_across_traces(tmp_path, face_profile, face_topology, face_requirement):
    # every elastic controller beats fast-static on objective and
    # high-precision-static on satisfaction, on each trace kind
    for kind, runs in (("fixed", 3), ("variable", 3), ("random", 3), ("full_day", 1)):
        results = {}
        for controller in ("static-hp", "static-fast", "heuristic", "rl1", "rl2"):
            spec = spec_for(
                tmp_path,
                controller,
                face_profile,
                face_topology,
                face_requirement,
                trace=make_trace(kind),
                out_dir=tmp_path / f"{controller}_{kind}",
                runs=runs,
                base_seed=5,
            )
            results[controller] = run_experiment(spec)
        fast_obj = results["static-fast"].mean_over_runs("mean_objective")
        hp_sat = results["static-hp"].mean_over_runs("latency_satisfaction_pct")
        for elastic in ("heuristic", "rl1", "rl2"):
            assert results[elastic].mean_over_runs("mean_objective") > fast_obj, kind
            assert (
                results[elastic].mean_over_runs("latency_satisfaction_pct") > hp_sat
            ), kind


def test_emit_report_layout(small_campaigns, tmp_path):
    _, results = small_campaigns
    pair = [results["static-hp"], results["rl2"]]
    paths = emit_report(pair, tmp_path / "report")
    lines = paths["summary"].read_text().splitlines()
    assert lines[0] == "metric,trace,static-hp,rl2"
    assert len(lines) == 3  # header + objective row + satisfaction row
    assert lines[1].startswith("precision,variable,")
    assert lines[2].startswith("latency_satisfaction_pct,variable,")
    assert all(len(line.split(",")) == 4 for line in lines[1:])
    bar = paths["bar_chart"].read_text().splitlines()
    assert bar[0] == "controller,mean_precision,mean_latency_satisfaction_pct"
    assert len(bar) == 3


def test_emit_report_empty_errors(tmp_path):
    target = tmp_path / "never"
    with pytest.raises(ValueError, match="no campaign results"):
        emit_report([], target)
    assert not target.exists()


def test_run_metrics_ranges(small_campaigns):
    _, results = small_campaigns
    for result in results.values():
        for m in result.metrics:
            assert 0.0 <= m.mean_objective <= 1.0
            assert 0.0 <= m.latency_satisfaction_pct <= 100.0
            assert m.steps == 1100


def test_spec_validation(tmp_path, face_profile, face_topology, face_requirement):
    with pytest.raises(ValueError, match="unknown controller"):
        spec_for(tmp_path, "pid", face_profile, face_topology, face_requirement)
    with pytest.raises(ValueError, match="runs"):
        spec_for(tmp_path, "rl1", face_profile, face_topology, face_requirement, runs=0)


def test_measure_overhead_report():
    report = measure_overhead("heuristic", steps=2000, warmup=200)
    assert report.steps == 2000
    assert report.decide_median_s > 0
    assert report.decide_p99_s >= report.decide_median_s
    assert report.total_s == report.decide_median_s + 0.070
    assert report.impact_pct == pytest.approx(
        100 * report.decide_median_s / report.total_s
    )
    assert report.impact_pct < 5.0  # generous unit-level bound


def test_measure_overhead_rl_includes_update():
    report = measure_overhead("rl2", steps=2000, warmup=200)
    assert report.decide_median_s > 0
    assert report.impact_pct < 5.0


# Any float a trace column can hold: signed zeros, infinities, NaN,
# subnormals, and numpy float64 scalars next to plain floats.
trace_floats = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.floats().map(np.float64),
)


def trace_of(cells):
    """An EpisodeTrace whose frame i holds cells[i] = (cpu, latency, reward)."""
    n = len(cells)
    return EpisodeTrace(
        cpu=array("d", [c[0] for c in cells]),
        input_size=array("q", [(3 * i) % 50 for i in range(n)]),
        ordinal=array("q", [i % 16 for i in range(n)]),
        latency=array("d", [c[1] for c in cells]),
        satisfied=array("b", [i % 2 for i in range(n)]),
        reward=array("d", [c[2] for c in cells]),
        objective=array("d", [0.5] * n),
    )


def reference_trace_text(cells) -> str:
    """The run-trace file for trace_of(cells), spelled one row at a time."""
    lines = [TRACE_FILE_HEADER]
    for i, (cpu, latency, rew) in enumerate(cells):
        lines.append(
            f"{i},{repr(float(cpu))},{(3 * i) % 50},{i % 16},"
            f"{repr(float(latency))},{i % 2},{repr(float(rew))}"
        )
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(trace_floats, trace_floats, trace_floats), max_size=40))
def test_write_run_trace_spells_every_float_as_its_repr(tmp_path_factory, cells):
    # 0.0 and -0.0 compare equal but must keep their own spelling in one file
    cells = [(0.0, -0.0, 0.0), (-0.0, 0.0, -0.0)] + cells + [(0.0, -0.0, -0.0)]
    path = tmp_path_factory.mktemp("trace") / "run.csv"
    write_run_trace(path, trace_of(cells))
    assert path.read_bytes() == reference_trace_text(cells).encode("utf-8")


@pytest.mark.parametrize("frames", [0, 1, 5000])
def test_write_run_trace_matches_reference_at_any_length(tmp_path, frames):
    rng = np.random.default_rng(frames)
    special = [0.0, -0.0, 5e-324, float("inf"), float("-inf"), float("nan")]
    cells = [
        tuple(
            special[int(rng.integers(len(special)))] if rng.random() < 0.1
            else float(rng.normal(0.0, 10.0 ** int(rng.integers(-300, 300))))
            for _ in range(3)
        )
        for _ in range(frames)
    ]
    path = tmp_path / "run.csv"
    write_run_trace(path, trace_of(cells))
    assert path.read_bytes() == reference_trace_text(cells).encode("utf-8")


def test_episode_columns_hold_less_than_records_did(face_profile, face_requirement, tmp_path):
    # One 20 000-frame static episode.  Measured on 20 000 frames: the
    # per-frame records held 239 B/frame and building the whole trace file in
    # memory peaked at 5.8 MB; columns hold 68 B/frame and the streamed
    # writer peaks at 1.0 MB.
    frames = 20_000
    configs = sort_by_objective(
        enumerate_configurations(default_topology()), face_profile, face_profile.input_sizes[0]
    )
    actions = make_action_space(configs, 16)
    env = Environment(face_profile, face_requirement, make_trace("random", length=frames))
    controller = StaticController(0, name="static-hp")
    run_episode(env, controller, actions, 1)  # the profile's cell memo fills here
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        episode = run_episode(env, controller, actions, 1)
        held_per_frame = (tracemalloc.get_traced_memory()[0] - before) / frames
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        write_run_trace(tmp_path / "run.csv", episode.trace)
        writer_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(episode.trace) == frames
    assert held_per_frame < 128, held_per_frame
    assert writer_peak < 2_500_000, writer_peak


def test_every_metric_sums_left_to_right(tmp_path, face_sorted_configs, face_profile):
    # 0.0 left to right; a compensated sum (builtin sum() from Python 3.12) gives 2.0
    column = [1.0, 1e100, 1.0, -1e100]
    assert harness._sum(column) == 0.0
    runs = [
        harness.RunMetrics(k, 1, x, x, x, 0.0, 0.0) for k, x in enumerate(column)
    ]
    result = harness.CampaignResult("rl2", "custom", "precision", runs, tmp_path)
    assert result.mean_over_runs("mean_reward") == 0.0
    harness._write_metrics(tmp_path / "metrics.csv", runs)
    mean_row = (tmp_path / "metrics.csv").read_text().splitlines()[-1]
    assert mean_row == "mean,1,0.0,0.0,0.0"
    trace = trace_of([(1.0, 0.5, x) for x in column])
    trace.objective = array("d", column)
    metrics = harness._metrics(0, trace, array("q", [1, 2, 3, 4]))
    assert (metrics.mean_objective, metrics.mean_reward) == (0.0, 0.0)
    write_run_trace(tmp_path / "run.csv", trace)
    redone = recompute_metrics_from_trace(tmp_path / "run.csv", face_sorted_configs, face_profile)
    assert redone.mean_reward == 0.0
