import filecmp
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from array import array
from contextlib import contextmanager
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptsim import harness
from adaptsim.controllers import (
    ControllerObservation,
    QTable,
    StaticController,
    make_action_space,
    qtable_load,
    state_count,
)
from adaptsim.defaults import default_topology
from adaptsim.harness import (
    CONTROLLER_KINDS,
    TRACE_FILE_HEADER,
    CampaignLockError,
    EpisodeTrace,
    ExperimentSpec,
    campaign_dir_name,
    emit_report,
    measure_overhead,
    read_campaign,
    recompute_metrics_from_trace,
    run_episode,
    run_experiment,
    write_run_trace,
)
from adaptsim.service_model import enumerate_configurations, sort_by_objective
from adaptsim.simenv import Environment, custom_trace, make_trace


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


def test_a_learner_rerun_interrupted_in_run_0_leaves_no_table(
    tmp_path, face_profile, face_topology, face_requirement, monkeypatch
):
    spec = spec_for(
        tmp_path, "rl2", face_profile, face_topology, face_requirement,
        trace=make_trace("random", length=40),
    )
    run_experiment(spec)
    assert spec.qtable_path.exists()

    def interrupted(*args, **kwargs):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(harness, "run_episode", interrupted)
    with pytest.raises(RuntimeError, match="interrupted"):
        run_experiment(spec)
    assert not spec.qtable_path.exists()  # the earlier campaign's table is not left behind


def test_a_numpy_integer_action_count_runs_as_an_int(
    tmp_path, face_profile, face_topology, face_requirement
):
    metrics = [
        run_experiment(spec_for(
            tmp_path, "rl1", face_profile, face_topology, face_requirement,
            trace=make_trace("random", length=60), out_dir=tmp_path / name,
            action_count=count, runs=2,
        )).metrics
        for name, count in (("int", 8), ("numpy", np.int64(8)))
    ]
    assert metrics[0] == metrics[1]
    assert qtable_load(tmp_path / "numpy" / "qtable.txt").action_count == 8


@pytest.mark.parametrize("kind", ["rl1", "rl2"])
def test_learner_campaign_holds_one_table_at_a_time(
    tmp_path, face_profile, face_topology, face_requirement, kind, monkeypatch
):
    # With every configuration an action, an rl2 table spans 4 608 x 512 cells
    # of float64 value and int64 visit count: 37.7 MB of address space.  Its
    # arrays live on memory maps, which tracemalloc does not see, so count the
    # live tables: run k's table must be freed before run k+1 loads its copy.
    live = {"now": 0, "most": 0}
    real_init = QTable.__init__

    def forget_one():
        live["now"] -= 1

    def counted_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        live["now"] += 1
        live["most"] = max(live["most"], live["now"])
        weakref.finalize(self, forget_one)

    monkeypatch.setattr(QTable, "__init__", counted_init)
    spec = spec_for(
        tmp_path, kind, face_profile, face_topology, face_requirement,
        trace=make_trace("random", length=300), action_count="all", runs=3,
    )
    run_experiment(spec)
    assert live == {"now": 0, "most": 1}
    assert qtable_load(spec.qtable_path).action_count == 512


_RL2_GROWTH_SCRIPT = """
import sys
from adaptsim.defaults import (
    DEFAULT_INPUT_SIZES, default_model, default_requirement, default_topology,
)
from adaptsim.harness import ExperimentSpec, run_experiment
from adaptsim.profiling import generate_synthetic_profile
from adaptsim.simenv import make_trace

topology = default_topology()
profile = generate_synthetic_profile(default_model(), topology, DEFAULT_INPUT_SIZES)


def campaign(kind):
    run_experiment(ExperimentSpec(
        topology=topology, requirement=default_requirement(), profile=profile,
        trace=make_trace("random", length=2000), controller=kind,
        out_dir=f"{sys.argv[1]}/{kind}", action_count="all", runs=2, base_seed=7,
    ))


def peak_kib():
    # This process image's resident high-water mark.  ru_maxrss would also
    # carry the forking test process's, which hides the growth below it.
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


campaign("static-hp")  # the set-up growth every campaign pays: episode, writer, actions
before = peak_kib()
campaign("rl2")
print(peak_kib() - before)
"""


def test_rl2_campaign_memory_grows_with_the_rows_it_writes(tmp_path):
    # With actions: all a dense rl2 table is 4 608 x 512 x 16 B = 37.7 MB, but
    # a 2 000-frame campaign writes a few hundred of its rows.  Only written
    # pages are resident, so the peak grows by far less than half a table
    # (about 7 MB); a table resident in full grew it by about 40 MB.
    env = dict(os.environ)
    src = str(Path(harness.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _RL2_GROWTH_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    growth = int(done.stdout) * 1024
    dense = state_count("v2", 512) * 512 * 16
    assert growth < dense / 2, f"peak grew {growth / 1e6:.1f} MB over the rl2 campaign"


def test_decide_quantiles_match_numpy_percentile():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 100, 1100):
        ns = rng.integers(1, 10**6, size=n)
        median, p99 = harness._decide_quantiles(array("q", ns.tolist()))
        want = np.percentile(ns, [50, 99]) / 1e9
        assert math.isclose(median, want[0], rel_tol=1e-12), n
        assert math.isclose(p99, want[1], rel_tol=1e-12), n


_MASKED_ARRAYS_SCRIPT = """
import sys
from adaptsim.config import load_config
from adaptsim.harness import run_experiment

specs = load_config(None).campaign_specs(out_dir=sys.argv[1], runs=1)
print([run_experiment(spec).controller for spec in specs])
print("numpy.ma" in sys.modules)
"""


def test_a_run_of_each_kind_leaves_numpy_ma_unimported(tmp_path):
    # np.percentile imports numpy.ma on its first call: 9-17 ms inside the
    # first campaign's wall time, for two quantiles.
    env = dict(os.environ)
    src = str(Path(harness.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _MASKED_ARRAYS_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    assert done.stdout.splitlines() == [str(list(CONTROLLER_KINDS)), "False"]


def reaped_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped: its PID no longer names a running process
    return child.pid


_HOLD_LOCK = """
import fcntl, os, sys, time
fd = os.open(sys.argv[1], os.O_CREAT | os.O_WRONLY)
fcntl.flock(fd, fcntl.LOCK_EX)
print("held", flush=True)
time.sleep(600)
"""


@contextmanager
def lock_held_by_a_child(lock: Path):
    """A live child holds ``lock`` under ``flock`` as flock(1) does, writing nothing
    into it; it is killed with SIGKILL and reaped when the block ends."""
    child = subprocess.Popen(
        [sys.executable, "-c", _HOLD_LOCK, str(lock)], stdout=subprocess.PIPE, text=True
    )
    try:
        assert child.stdout.readline() == "held\n"
        yield child
    finally:
        child.kill()
        child.wait()
        child.stdout.close()


@pytest.mark.parametrize(
    "content",
    [lambda: "", lambda: f"{reaped_pid()}\n", lambda: f"{os.getpid()}\n", lambda: "junk"],
    ids=["empty", "reaped", "live", "junk"],
)
def test_stale_lock_of_a_reaped_process_is_taken_over(
    tmp_path, face_profile, face_topology, face_requirement, content
):
    # No process holds the lock file, so it is taken whatever it holds: even
    # the PID of a running process (this one).
    spec = spec_for(tmp_path, "rl1", face_profile, face_topology, face_requirement, runs=1)
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    lock = spec.qtable_path.with_name(spec.qtable_path.name + ".lock")
    lock.write_text(content())
    run_experiment(spec)
    assert not lock.exists()
    assert spec.qtable_path.exists()


def test_a_killed_holders_lock_is_taken_without_clean_up(
    tmp_path, face_profile, face_topology, face_requirement
):
    spec = spec_for(tmp_path, "rl2", face_profile, face_topology, face_requirement, runs=1)
    spec.out_dir.mkdir(parents=True)
    lock = spec.qtable_path.with_name(spec.qtable_path.name + ".lock")
    with lock_held_by_a_child(lock):
        with pytest.raises(CampaignLockError, match="is held by a running campaign"):
            run_experiment(spec)
        assert not spec.qtable_path.exists()
    assert lock.read_text() == ""  # the killed holder's file, left as it was
    run_experiment(spec)
    assert spec.qtable_path.exists()
    assert not lock.exists()


def test_a_held_lock_refuses_a_static_campaign_before_it_touches_a_record(
    tmp_path, face_profile, face_topology, face_requirement
):
    spec = spec_for(tmp_path, "heuristic", face_profile, face_topology, face_requirement)
    lock = spec.qtable_path.with_name("qtable.txt.lock")

    def records():
        return {p: p.read_bytes() for p in spec.out_dir.rglob("*") if p.is_file() and p != lock}

    run_experiment(spec)
    before = records()
    assert len(before) == 5  # metrics.csv, timings.csv and three run traces
    with lock_held_by_a_child(lock):
        with pytest.raises(CampaignLockError, match="is held by a running campaign"):
            run_experiment(replace(spec, runs=1))
    assert records() == before


def test_of_two_nested_locks_on_one_path_exactly_one_holds(tmp_path):
    path = tmp_path / "qtable.txt"
    lock = tmp_path / "qtable.txt.lock"
    with harness._persistence_lock(path):
        with pytest.raises(CampaignLockError, match="is held by a running campaign"):
            with harness._persistence_lock(path):
                pass
        assert lock.read_text() == f"{os.getpid()}\n"
    assert not lock.exists()


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


def test_a_stale_lock_replaced_during_the_takeover_is_refused(tmp_path, monkeypatch):
    # Between opening the stale lock and locking it, the file at the path is
    # replaced: the takeover must not claim a file the path no longer names.
    path = tmp_path / "qtable.txt"
    lock = tmp_path / "qtable.txt.lock"
    lock.write_text(f"{reaped_pid()}\n")
    real_flock = harness.fcntl.flock

    def replace_then_flock(fd, op):
        lock.unlink()
        lock.write_text(f"{reaped_pid()}\n")
        real_flock(fd, op)

    monkeypatch.setattr(harness.fcntl, "flock", replace_then_flock)
    with pytest.raises(CampaignLockError, match="changed"):
        with harness._persistence_lock(path):
            pass
    assert lock.exists()


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


@pytest.mark.parametrize(
    "field, value",
    [("runs", 2.5), ("runs", True), ("runs", "2"), ("base_seed", 1.5), ("base_seed", True),
     ("base_seed", "11")],
)
def test_spec_refuses_a_run_count_or_seed_that_is_not_an_integer(
    tmp_path, face_profile, face_topology, face_requirement, field, value
):
    spec = spec_for(
        tmp_path, "rl1", face_profile, face_topology, face_requirement,
        trace=make_trace("random", length=40), runs=2,
    )
    run_experiment(spec)
    records = {p: p.read_bytes() for p in spec.out_dir.rglob("*") if p.is_file()}
    least = {"runs": 1, "base_seed": 0}[field]
    message = f"{field} must be an integer >= {least}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_experiment(replace(spec, **{field: value}))
    assert {p: p.read_bytes() for p in spec.out_dir.rglob("*") if p.is_file()} == records


def test_spec_reads_numpy_integers_as_ints(tmp_path, face_profile, face_topology, face_requirement):
    spec = spec_for(
        tmp_path, "heuristic", face_profile, face_topology, face_requirement,
        trace=make_trace("random", length=40), runs=np.int64(2), base_seed=np.uint8(11),
    )
    assert (type(spec.runs), type(spec.base_seed)) == (int, int)
    assert run_experiment(spec) == run_experiment(replace(spec, runs=2, base_seed=11))


def test_measure_overhead_report(tmp_path, face_profile, face_topology, face_requirement):
    spec = spec_for(tmp_path, "heuristic", face_profile, face_topology, face_requirement)
    report = measure_overhead(spec, steps=2000, warmup=200)
    assert report.steps == 2000
    assert report.decide_median_s > 0
    assert report.decide_p99_s >= report.decide_median_s
    assert report.total_s == report.decide_median_s + 0.070
    assert report.impact_pct == pytest.approx(
        100 * report.decide_median_s / report.total_s
    )
    assert report.impact_pct < 5.0  # generous unit-level bound


def test_measure_overhead_rl_includes_update(
    tmp_path, face_profile, face_topology, face_requirement
):
    spec = spec_for(tmp_path, "rl2", face_profile, face_topology, face_requirement)
    report = measure_overhead(spec, steps=2000, warmup=200)
    assert report.decide_median_s > 0
    assert report.impact_pct < 5.0


def test_measure_overhead_refuses_negative_warmup(
    tmp_path, face_profile, face_topology, face_requirement
):
    spec = spec_for(tmp_path, "heuristic", face_profile, face_topology, face_requirement)
    with pytest.raises(ValueError, match="^warmup must be an integer >= 0, got -10$"):
        measure_overhead(spec, steps=100, warmup=-10)


@pytest.mark.parametrize(
    "name, value, least",
    [("steps", True, 1), ("steps", 2.5, 1), ("steps", 0, 1), ("warmup", True, 0),
     ("warmup", 1.5, 0)],
)
def test_measure_overhead_refuses_a_step_count_that_is_not_an_integer(
    tmp_path, face_profile, face_topology, face_requirement, name, value, least
):
    spec = spec_for(tmp_path, "heuristic", face_profile, face_topology, face_requirement)
    message = f"{name} must be an integer >= {least}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        measure_overhead(spec, **{"steps": 100, "warmup": 10, name: value})


@pytest.mark.parametrize("kind", CONTROLLER_KINDS)
def test_measure_overhead_builds_every_controller(
    tmp_path, face_profile, face_topology, face_requirement, kind
):
    spec = spec_for(tmp_path, kind, face_profile, face_topology, face_requirement)
    report = measure_overhead(spec, steps=300, warmup=30)
    assert (report.controller, report.steps) == (kind, 300)
    assert 0 < report.decide_median_s <= report.decide_p99_s


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


@pytest.mark.parametrize(
    "frames",
    [0, 1, harness._BLOCK_ROWS - 1, harness._BLOCK_ROWS, harness._BLOCK_ROWS + 1, 5000],
)
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


def test_episode_trace_refuses_columns_of_unequal_length():
    columns = {f.name: f.default_factory() for f in fields(EpisodeTrace)}
    for name, column in columns.items():
        column.extend([1] * (2 if name == "reward" else 3))
    with pytest.raises(ValueError) as err:
        EpisodeTrace(**columns)
    assert str(err.value) == (
        "an episode trace's columns differ in length: "
        "cpu 3, input_size 3, ordinal 3, latency 3, satisfied 3, reward 2"
    )
    assert len(EpisodeTrace()) == 0
    assert len(EpisodeTrace.over(columns["cpu"], columns["input_size"])) == 3


def test_run_episode_observes_each_frame_as_a_controller_observation(
    face_profile, face_requirement, face_sorted_configs
):
    class Recording(StaticController):
        def __init__(self):
            super().__init__(2)
            self.seen = []

        def decide(self, obs):
            self.seen.append(obs)
            return super().decide(obs)

        def finish(self, obs):
            self.seen.append(obs)

    env = Environment(face_profile, face_requirement, make_trace("random", length=50))
    outcomes = []
    step = env.step
    env.step = lambda row: outcomes.append(step(row)) or outcomes[-1]
    controller = Recording()
    run_episode(env, controller, make_action_space(face_sorted_configs, 16), 5)
    assert len(controller.seen) == len(outcomes) + 1 == 51  # finish() sees the last
    assert all(type(obs) is ControllerObservation for obs in controller.seen)
    assert controller.seen[0] == ControllerObservation(env.context[0][0])
    target = face_requirement.latency_target
    for obs, out in zip(controller.seen[1:], outcomes):
        assert obs._asdict() == dict(
            cpu_availability=out.observation.cpu_availability,
            last_config_ordinal=2,
            last_latency_ratio=out.latency / target,
            last_satisfied=out.satisfied,
            last_objective=out.objective,
        )


def test_episode_columns_hold_less_than_records_did(face_profile, face_requirement, tmp_path):
    # One 20 000-frame static episode.  Measured on 20 000 frames: the
    # per-frame records held 239 B/frame and building the whole trace file in
    # memory peaked at 5.8 MB; columns hold 49 B/frame (the whole episode
    # about 63) and the streamed writer peaks at 1.0 MB.
    frames = 20_000
    configs = sort_by_objective(
        enumerate_configurations(default_topology()), face_profile, face_profile.input_sizes[0]
    )
    actions = make_action_space(configs, 16)
    env = Environment(face_profile, face_requirement, make_trace("random", length=frames))
    controller = StaticController(0, name="static-hp")
    run_episode(env, controller, actions, 1)  # the environment's latency lists exist from here
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


def test_episode_columns_are_allocated_at_their_length(face_profile, face_requirement):
    # Appending frame by frame left each column with growth slack past its end.
    frames = 1_100
    configs = sort_by_objective(
        enumerate_configurations(default_topology()), face_profile, face_profile.input_sizes[0]
    )
    env = Environment(face_profile, face_requirement, make_trace("variable", length=frames))
    episode = run_episode(env, StaticController(0), make_action_space(configs, 16), 3)
    columns = {f.name: getattr(episode.trace, f.name) for f in fields(EpisodeTrace)}
    columns["decide_ns"] = episode.decide_ns
    for name, column in columns.items():
        assert len(column) == frames, name
        held = sys.getsizeof(column) - sys.getsizeof(array(column.typecode))
        assert held == frames * column.itemsize, name


def test_write_run_trace_memory_does_not_grow_with_the_trace(tmp_path):
    # 120 000 frames of distinct floats, one cell in eight NaN.  Keeping the
    # spelling of every distinct value (and a new entry per NaN) peaked at
    # tens of MB.
    frames = 120_000
    rng = np.random.default_rng(5)

    def column(code, values):
        out = array(code)
        out.frombytes(values.tobytes())
        return out

    floats = rng.random((3, frames))
    floats[:, ::8] = np.nan
    trace = EpisodeTrace(
        cpu=column("d", floats[0]),
        input_size=column("q", rng.integers(1, 50, frames)),
        ordinal=column("q", rng.integers(0, 16, frames)),
        latency=column("d", floats[1]),
        satisfied=column("b", rng.integers(0, 2, frames, dtype=np.int8)),
        reward=column("d", floats[2]),
    )
    path = tmp_path / "run.csv"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_run_trace(path, trace)
        writer_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert writer_peak < 1_000_000, writer_peak
    lines = path.read_text().splitlines()
    assert len(lines) == frames + 1
    assert lines[1].split(",")[1] == "nan"
    assert lines[2].split(",")[1] == repr(float(floats[0, 1]))


def test_every_metric_sums_left_to_right(tmp_path, face_sorted_configs, face_profile):
    # 0.0 left to right; a compensated sum (builtin sum() from Python 3.12) gives 2.0
    column = [1.0, 1e100, 1.0, -1e100]
    assert harness._sum(column) == 0.0
    runs = [
        harness.RunMetrics(k, 1, x, x, x) for k, x in enumerate(column)
    ]
    result = harness.CampaignResult("rl2", "custom", "precision", runs, tmp_path)
    assert result.mean_over_runs("mean_reward") == 0.0
    harness._write_metrics(result)
    mean_row = (tmp_path / "metrics.csv").read_text().splitlines()[-1]
    assert mean_row == "mean,1,0.0,0.0,0.0"
    trace = trace_of([(1.0, 0.5, x) for x in column])
    metrics = harness._run_metrics(0, trace, column)  # ordinal i has objective column[i]
    assert (metrics.mean_objective, metrics.mean_reward) == (0.0, 0.0)
    write_run_trace(tmp_path / "run.csv", trace)
    redone = recompute_metrics_from_trace(tmp_path / "run.csv", face_sorted_configs, face_profile)
    assert redone.mean_reward == 0.0


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(CONTROLLER_KINDS),
    sense=st.sampled_from(["maximize", "minimize"]),  # minimizing gives -0.0 rewards
    frames=st.integers(1, 300),
    action_count=st.sampled_from([1, 2, 16, "all"]),
    seed=st.integers(0, 2**16),
)
def test_trace_file_gives_back_the_episode_metrics(
    tmp_path_factory, face_profile, face_topology, face_requirement,
    kind, sense, frames, action_count, seed,
):
    spec = ExperimentSpec(
        topology=face_topology,
        requirement=replace(face_requirement, objective_sense=sense),
        profile=face_profile,
        trace=make_trace("random", length=frames),
        controller=kind,
        out_dir=tmp_path_factory.mktemp("property"),
        action_count=action_count,
    )
    actions, env = harness._set_up(spec)
    controller = harness.build_controller(spec, actions, rng=np.random.default_rng(seed))
    episode = run_episode(env, controller, actions, seed, run_index=3)
    path = spec.out_dir / "run.csv"
    write_run_trace(path, episode.trace)
    ranked = harness.rank_configurations(face_topology, face_profile, sense)
    redone = recompute_metrics_from_trace(path, ranked, face_profile, 3)
    assert redone == episode.metrics
    assert harness.metrics_row(redone) == harness.metrics_row(episode.metrics)


# Finite floats, the edges first: signed zeros, subnormals, the largest magnitudes.
finite_trace_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            finite_trace_floats,
            st.integers(-(2**63), 2**63 - 1),
            st.integers(0, 511),
            finite_trace_floats,
            st.integers(0, 1),
            finite_trace_floats,
        ),
        min_size=1,
        max_size=300,
    )
)
def test_a_written_run_trace_reads_back_as_the_episode_trace(tmp_path_factory, frames):
    trace = EpisodeTrace()
    columns = [getattr(trace, f.name) for f in fields(EpisodeTrace)]
    for frame in frames:
        for column, cell in zip(columns, frame):
            column.append(cell)
    path = tmp_path_factory.mktemp("trace") / "run.csv"
    write_run_trace(path, trace)
    read = harness._read_run_trace(path, 512)
    for f in fields(EpisodeTrace):  # by bytes, so -0.0 keeps its sign
        assert getattr(read, f.name).tobytes() == getattr(trace, f.name).tobytes(), f.name
        assert getattr(read, f.name).typecode == getattr(trace, f.name).typecode, f.name


def test_report_refuses_an_input_size_past_64_bits(tmp_path, face_sorted_configs, face_profile):
    path = tmp_path / "run.csv"
    write_run_trace(path, trace_of([(1.0, 0.5, 0.25)]))
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace(",0,0,", f",{2**63},0,", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        recompute_metrics_from_trace(path, face_sorted_configs, face_profile)
    assert str(err.value) == f"{path}:2: input_size '{2**63}' is outside the 64-bit integers"


def test_run_episode_refuses_an_unranked_action_space(face_profile, face_requirement):
    unranked = enumerate_configurations(default_topology())[:4]  # ordinal -1 each
    env = Environment(face_profile, face_requirement, make_trace("random", length=5))
    with pytest.raises(ValueError, match=re.escape(f"{unranked[0].assignments} has no ordinal")):
        run_episode(env, StaticController(0), unranked, 1)


class _Returns:
    """A controller whose decide() gives ``choices`` in turn."""

    def __init__(self, *choices):
        self.choices = choices

    def reset(self):
        self.frame = 0

    def decide(self, obs):
        self.frame += 1
        return self.choices[min(self.frame, len(self.choices)) - 1]

    def finish(self, obs):
        pass


@pytest.mark.parametrize("bad", [-1, 16], ids=["negative", "past-the-end"])
def test_run_episode_refuses_an_action_outside_the_space(
    face_profile, face_requirement, face_sorted_configs, bad
):
    actions = make_action_space(face_sorted_configs, 16)
    env = Environment(face_profile, face_requirement, make_trace("random", length=10))
    charged = []
    step = env.step
    env.step = lambda row: charged.append(row) or step(row)
    with pytest.raises(IndexError, match=f"^decide\\(\\) returned action {bad} of 16 actions$"):
        run_episode(env, _Returns(0, 3, bad), actions, 1)
    assert len(charged) == 2  # the bad frame was refused before it was charged


campaign_traces = st.one_of(
    st.sampled_from(["fixed", "variable"]).map(make_trace),
    st.integers(1, 60).map(lambda n: make_trace("random", length=n)),
    st.lists(st.integers(1, 300), min_size=1, max_size=60).map(custom_trace),
)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(CONTROLLER_KINDS),
    trace=campaign_traces,
    runs=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_read_campaign_gives_back_what_run_experiment_wrote(
    tmp_path_factory, face_profile, face_topology, face_requirement, kind, trace, runs, seed
):
    root = tmp_path_factory.mktemp("root")
    spec = ExperimentSpec(
        topology=face_topology,
        requirement=face_requirement,
        profile=face_profile,
        trace=trace,
        controller=kind,
        out_dir=root / campaign_dir_name(kind, trace.kind),
        runs=runs,
        base_seed=seed,
    )
    result = run_experiment(spec)
    ranked = harness.rank_configurations(face_topology, face_profile, "maximize")
    read = partial(
        read_campaign, ranked=ranked, profile=face_profile,
        objective_metric=face_requirement.objective_metric,
    )
    assert read(spec.out_dir) == result
    assert read(root) is None
    without_runs = root / "elsewhere" / spec.out_dir.name
    without_runs.mkdir(parents=True)
    shutil.copy(spec.out_dir / "metrics.csv", without_runs)
    assert read(without_runs) is None
    (without_runs / "runs").mkdir()  # and a metrics.csv that lists no runs
    (without_runs / "metrics.csv").write_text(harness.METRICS_HEADER + "\n")
    assert read(without_runs) is None


def test_read_campaign_names_a_missing_metrics_file(
    tmp_path, face_profile, face_topology, face_requirement
):
    spec = spec_for(
        tmp_path, "heuristic", face_profile, face_topology, face_requirement,
        out_dir=tmp_path / campaign_dir_name("heuristic", "variable"), runs=2,
    )
    run_experiment(spec)
    metrics = spec.out_dir / "metrics.csv"
    metrics.unlink()  # as a campaign killed before its end, or still running, leaves it
    ranked = harness.rank_configurations(face_topology, face_profile, "maximize")
    with pytest.raises(ValueError) as refused:
        read_campaign(spec.out_dir, ranked, face_profile, "precision")
    assert str(refused.value) == (
        f"{metrics} is missing: the campaign did not finish or is still running; run it again"
    )


@pytest.mark.parametrize("kind", ["heuristic", "rl2"])
def test_a_shorter_rerun_leaves_none_of_the_longer_runs_records(
    tmp_path, face_profile, face_topology, face_requirement, kind
):
    spec = spec_for(
        tmp_path, kind, face_profile, face_topology, face_requirement,
        trace=make_trace("random", length=40),
        out_dir=tmp_path / campaign_dir_name(kind, "random"),
    )
    run_experiment(spec)  # three runs
    stray = spec.out_dir / "runs" / "run_old.csv"
    stray.write_text("not written by a campaign\n")
    result = run_experiment(replace(spec, runs=1))
    assert sorted(p.name for p in (spec.out_dir / "runs").iterdir()) == [
        "run_000.csv", "run_old.csv"
    ]
    assert len((spec.out_dir / "metrics.csv").read_text().splitlines()) == 3  # and the means
    assert len((spec.out_dir / "timings.csv").read_text().splitlines()) == 2
    stray.unlink()
    ranked = harness.rank_configurations(face_topology, face_profile, "maximize")
    assert read_campaign(spec.out_dir, ranked, face_profile, "precision") == result
