"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The campaign criteria share one 50-run grid on the variable trace
with a fixed base seed, built once per session.
"""

import filecmp

import numpy as np
import pytest

from adaptsim.controllers import (
    ControllerObservation,
    LearningParams,
    QLearningController,
    QTable,
    encode_state_v1,
    encode_state_v2,
    make_action_space,
    qtable_load,
    reward,
    state_count,
)
from adaptsim.harness import (
    ExperimentSpec,
    emit_report,
    measure_overhead,
    run_episode,
    run_experiment,
)
from adaptsim.service_model import ConstraintSpec, Requirement
from adaptsim.simenv import CpuChain, CpuChainParams, Environment, ScriptedCpu, custom_trace, make_trace

CONTROLLERS = ("static-hp", "static-fast", "heuristic", "rl1", "rl2")
CAMPAIGN_SEED = 7
CAMPAIGN_RUNS = 50


def check(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}  {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def run_grid(root, face_profile, face_topology, face_requirement):
    results = {}
    for controller in CONTROLLERS:
        spec = ExperimentSpec(
            topology=face_topology,
            requirement=face_requirement,
            profile=face_profile,
            trace=make_trace("variable"),
            controller=controller,
            out_dir=root / f"{controller}_variable",
            runs=CAMPAIGN_RUNS,
            base_seed=CAMPAIGN_SEED,
        )
        results[controller] = run_experiment(spec)
    emit_report(list(results.values()), root)
    return results


@pytest.fixture(scope="module")
def campaign(tmp_path_factory, face_profile, face_topology, face_requirement):
    root = tmp_path_factory.mktemp("acceptance_grid")
    return root, run_grid(root, face_profile, face_topology, face_requirement)


def test_criterion_1_reward_oracle():
    req = Requirement("precision", (ConstraintSpec("latency", 1.0),))
    rng = np.random.default_rng(2)
    satisfied_seen = violated_seen = 0
    for _ in range(1000):
        objective = float(rng.uniform(0.0, 1.0))
        target = float(rng.uniform(0.2, 3.0))
        latency = float(rng.uniform(0.0, 2.5) * target)
        req = Requirement("precision", (ConstraintSpec("latency", target),))
        obs = ControllerObservation(
            cpu_availability=1.0,
            last_config_ordinal=0,
            last_latency_ratio=latency / target,
            last_satisfied=latency <= target,
            last_objective=objective,
        )
        got = reward(obs, req)
        # independent direct evaluation of the two-branch definition
        if latency <= target:
            expected = objective
            satisfied_seen += 1
        else:
            expected = -(latency / target)
            violated_seen += 1
        assert got == expected, (objective, latency, target)
    check(
        1,
        "reward oracle",
        satisfied_seen > 0 and violated_seen > 0,
        f"1000 triples exact ({satisfied_seen} satisfied / {violated_seen} violated)",
    )


def test_criterion_2_encoder_bijectivity():
    actions = 16
    ratios = {0: 0.4, 1: 0.9, 2: 1.5}
    avails = {0: 0.3, 1: 0.65, 2: 0.9}
    v1_hits: dict[int, tuple] = {}
    for b, ratio in ratios.items():
        for last in range(actions):
            obs = ControllerObservation(
                cpu_availability=1.0,
                last_config_ordinal=last,
                last_latency_ratio=ratio,
                last_satisfied=ratio <= 1.0,
                last_objective=0.5,
            )
            idx = encode_state_v1(obs, actions)
            assert idx not in v1_hits, f"v1 collision at {idx}"
            v1_hits[idx] = (b, last)
    v2_hits: dict[int, tuple] = {}
    for b, ratio in ratios.items():
        for u, avail in avails.items():
            for last in range(actions):
                obs = ControllerObservation(
                    cpu_availability=avail,
                    last_config_ordinal=last,
                    last_latency_ratio=ratio,
                    last_satisfied=ratio <= 1.0,
                    last_objective=0.5,
                )
                idx = encode_state_v2(obs, actions)
                assert idx not in v2_hits, f"v2 collision at {idx}"
                v2_hits[idx] = (b, u, last)
    ok = set(v1_hits) == set(range(state_count("v1", actions))) and set(v2_hits) == set(
        range(state_count("v2", actions))
    )
    check(2, "encoder bijectivity", ok, f"v1 covers {len(v1_hits)}, v2 covers {len(v2_hits)}")


def test_criterion_3_cpu_chain_statistics():
    chain = CpuChain(CpuChainParams())
    chain.reset(np.random.default_rng(17))
    steps = 10**5
    lo = hi = 1.0
    for _ in range(steps):
        v = chain.step()
        lo = min(lo, v)
        hi = max(hi, v)
    freq = chain.change_events / steps
    ok = 0.09 <= freq <= 0.11 and 0.3 <= lo and hi <= 1.0
    check(
        3,
        "cpu chain statistics",
        ok,
        f"change frequency {freq:.4f}, range [{lo:.3f}, {hi:.3f}]",
    )


def test_criterion_4_toy_convergence():
    req = Requirement("precision", (ConstraintSpec("latency", 1.0),))
    ratios = {0: 2.0, 1: 0.5}  # action 0 always violates, action 1 satisfies
    wins = 0
    for seed in range(100):
        table = QTable.zeros("v1", 2)
        ctrl = QLearningController(
            "v1", table, req, LearningParams(), rng=np.random.default_rng(seed)
        )
        ctrl.reset()
        obs = ControllerObservation(cpu_availability=1.0)
        seen = {encode_state_v1(obs, 2)}
        for _ in range(500):
            action = ctrl.decide(obs)
            ratio = ratios[action]
            obs = ControllerObservation(
                cpu_availability=1.0,
                last_config_ordinal=action,
                last_latency_ratio=ratio,
                last_satisfied=ratio <= 1.0,
                last_objective=0.5,
            )
            seen.add(encode_state_v1(obs, 2))
        if all(int(np.argmax(table.values[s])) == 1 for s in seen):
            wins += 1
    check(4, "toy Q-learning convergence", wins >= 95, f"{wins}/100 seeds converged")


def test_criterion_5_directional_comparison(campaign):
    _, results = campaign
    obj = {c: r.mean_over_runs("mean_objective") for c, r in results.items()}
    sat = {c: r.mean_over_runs("latency_satisfaction_pct") for c, r in results.items()}
    elastic = ("heuristic", "rl1", "rl2")
    a = all(sat["static-hp"] < sat[c] for c in elastic)
    b = all(obj["static-fast"] < obj[c] for c in elastic)
    c_ok = obj["rl2"] >= obj["heuristic"]
    d_ok = obj["rl2"] >= obj["rl1"]
    detail = (
        f"obj: hp={obj['static-hp']:.3f} fast={obj['static-fast']:.3f} "
        f"heur={obj['heuristic']:.3f} rl1={obj['rl1']:.3f} rl2={obj['rl2']:.3f} | "
        f"sat%: hp={sat['static-hp']:.1f} fast={sat['static-fast']:.1f} "
        f"heur={sat['heuristic']:.1f} rl1={sat['rl1']:.1f} rl2={sat['rl2']:.1f}"
    )
    check(5, "directional comparison", a and b and c_ok and d_ok, detail)


def test_criterion_6_learning_effect(campaign):
    _, results = campaign
    rewards = [m.mean_reward for m in results["rl2"].metrics]
    early = sum(rewards[:10]) / 10
    late = sum(rewards[40:50]) / 10
    check(
        6,
        "learning effect",
        late > early,
        f"mean reward runs 1-10 = {early:+.3f}, runs 41-50 = {late:+.3f}",
    )


def test_criterion_7_overhead():
    details = []
    ok = True
    for kind in ("heuristic", "rl2"):
        report = measure_overhead(kind, steps=15000, warmup=1000, reference_frame_s=0.070)
        ok = ok and report.decide_median_s < 0.5e-3 and report.impact_pct < 0.5
        details.append(
            f"{kind}: median {report.decide_median_s * 1e3:.4f} ms, "
            f"impact {report.impact_pct:.3f}%"
        )
    check(7, "decision overhead", ok, "; ".join(details))


def test_criterion_8_rapid_adaptation(
    tmp_path, face_profile, face_topology, face_requirement, face_sorted_configs
):
    # Train on a steady 24-face input under the stochastic availability chain.
    # (At 48 faces no configuration meets the 1 s bound at 0.4 availability,
    # so the scripted scenario uses 24-face frames.)
    train_spec = ExperimentSpec(
        topology=face_topology,
        requirement=face_requirement,
        profile=face_profile,
        trace=custom_trace([24] * 1000),
        controller="rl2",
        out_dir=tmp_path,
        runs=25,
        base_seed=CAMPAIGN_SEED,
    )
    run_experiment(train_spec)
    table = qtable_load(tmp_path / "qtable.txt")

    script = [1.0] * 485 + [0.4] * 30 + [1.0] * 500
    env = Environment(
        face_profile,
        face_requirement,
        custom_trace([24] * 1000),
        cpu_source=ScriptedCpu(script),
    )
    actions = make_action_space(face_sorted_configs, 16)
    greedy = LearningParams(epsilon_start=0.0, epsilon_min=0.0)
    ctrl = QLearningController(
        "v2", table, face_requirement, greedy, rng=np.random.default_rng(1)
    )
    episode = run_episode(env, ctrl, actions, seed=3)
    trace = episode.trace

    pre_drop = trace.ordinal[484]
    adapted = any(o > pre_drop for o in trace.ordinal[485:495])
    returned = any(o <= pre_drop for o in trace.ordinal[515:535])
    window = trace.satisfied[475:545]
    window_sat = sum(window) / len(window)
    ok = adapted and returned and window_sat >= 0.90
    check(
        8,
        "rapid adaptation",
        ok,
        f"pre-drop ordinal {pre_drop}, adapted<=10 steps: {adapted}, "
        f"returned<=20 steps: {returned}, window satisfaction {window_sat:.1%}",
    )


def test_criterion_9_campaign_determinism(
    campaign, tmp_path_factory, face_profile, face_topology, face_requirement
):
    first_root, _ = campaign
    second_root = tmp_path_factory.mktemp("acceptance_grid_rerun")
    run_grid(second_root, face_profile, face_topology, face_requirement)
    mismatches = []
    for controller in CONTROLLERS:
        a_dir = first_root / f"{controller}_variable"
        b_dir = second_root / f"{controller}_variable"
        if not filecmp.cmp(a_dir / "metrics.csv", b_dir / "metrics.csv", shallow=False):
            mismatches.append(f"{controller}/metrics.csv")
        for k in range(CAMPAIGN_RUNS):
            name = f"runs/run_{k:03d}.csv"
            if not filecmp.cmp(a_dir / name, b_dir / name, shallow=False):
                mismatches.append(f"{controller}/{name}")
    if not filecmp.cmp(first_root / "summary.csv", second_root / "summary.csv", shallow=False):
        mismatches.append("summary.csv")
    check(
        9,
        "campaign determinism",
        not mismatches,
        "byte-identical metric outputs" if not mismatches else f"differs: {mismatches[:3]}",
    )
