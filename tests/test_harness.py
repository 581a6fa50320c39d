import filecmp
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptsim import harness
from adaptsim.controllers import qtable_load
from adaptsim.harness import (
    TRACE_FILE_HEADER,
    CampaignLockError,
    ExperimentSpec,
    StepRecord,
    emit_report,
    measure_overhead,
    recompute_metrics_from_trace,
    run_experiment,
    write_run_trace,
)
from adaptsim.simenv import make_trace


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


# Any float a record can hold: signed zeros, infinities, NaN, subnormals,
# and numpy float64 scalars next to plain floats.
trace_floats = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.floats().map(np.float64),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(trace_floats, trace_floats, trace_floats), max_size=40))
def test_write_run_trace_spells_every_float_as_its_repr(tmp_path_factory, cells):
    # 0.0 and -0.0 compare equal but must keep their own spelling in one file
    cells = [(0.0, -0.0, 0.0), (-0.0, 0.0, -0.0)] + cells + [(0.0, -0.0, -0.0)]
    records = [
        StepRecord(
            step=i, cpu=cpu, input_size=6, ordinal=0, latency=latency,
            satisfied=i % 2 == 0, reward=rew, objective=0.5,
        )
        for i, (cpu, latency, rew) in enumerate(cells)
    ]
    path = tmp_path_factory.mktemp("trace") / "run.csv"
    write_run_trace(path, records)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == TRACE_FILE_HEADER
    assert len(lines) == 1 + len(cells)
    for i, (line, (cpu, latency, rew)) in enumerate(zip(lines[1:], cells)):
        step, cpu_s, size, ordinal, latency_s, satisfied, rew_s = line.split(",")
        assert (step, size, ordinal, satisfied) == (str(i), "6", "0", str(int(i % 2 == 0)))
        assert cpu_s == repr(float(cpu))
        assert latency_s == repr(float(latency))
        assert rew_s == repr(float(rew))
