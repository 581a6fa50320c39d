import numpy as np
import pytest

from adaptsim.profiling import ProfileEntry, ProfileTable
from adaptsim.service_model import Configuration, ConstraintSpec, Requirement
from adaptsim.simenv import (
    FULL_DAY_SCHEDULE,
    CpuChain,
    CpuChainParams,
    Environment,
    EpisodeFinished,
    ScriptedCpu,
    custom_trace,
    make_trace,
)

LATENCY_REQ = Requirement("precision", (ConstraintSpec("latency", 1.0),))


class StubRng:
    """Scripted draw sequence standing in for a Generator."""

    def __init__(self, randoms, normals=()):
        self._randoms = list(randoms)
        self._normals = list(normals)

    def random(self):
        return self._randoms.pop(0)

    def normal(self, loc, scale):
        return self._normals.pop(0)


def flat_profile(base_latency, objective=0.5, sizes=(6, 48)):
    return ProfileTable(
        [ProfileEntry((0,), s, base_latency, objective) for s in sizes]
    )


def constant_cpu_env(base_latency, cpu, steps=4):
    profile = flat_profile(base_latency)
    env = Environment(
        profile,
        LATENCY_REQ,
        custom_trace([6] * steps),
        cpu_source=ScriptedCpu([cpu] * (steps + 1)),
    )
    env.reset(0)
    return env


# --- CPU availability chain ---------------------------------------------


def chain_step_from(start, rng):
    """One step of a chain that starts at ``start`` (its max_avail)."""
    chain = CpuChain(CpuChainParams(max_avail=start))
    chain.reset(rng)
    return chain.step()


def test_chain_without_change_prob_is_constant():
    chain = CpuChain(CpuChainParams(change_prob=0.0))
    chain.reset(np.random.default_rng(3))
    for _ in range(10**6):
        if chain.step() != 1.0:
            pytest.fail("availability moved despite change_prob=0")


def test_boundary_clamp_upward():
    # change fires (0.0 < 0.1), magnitude 0.07 >= 0, sign + (0.2 < 0.5)
    rng = StubRng(randoms=[0.0, 0.2], normals=[0.07])
    assert chain_step_from(1.0, rng) == 1.0


def test_boundary_clamp_downward():
    rng = StubRng(randoms=[0.0, 0.9], normals=[0.5])  # sign -, big magnitude
    assert chain_step_from(0.32, rng) == 0.3


def test_negative_magnitude_is_allowed_and_clamped():
    # sign + with negative magnitude moves down; clamp still applies
    rng = StubRng(randoms=[0.0, 0.2], normals=[-0.9])
    assert chain_step_from(0.5, rng) == 0.3


def test_chain_event_frequency_and_range():
    chain = CpuChain(CpuChainParams())
    chain.reset(np.random.default_rng(11))
    steps = 10**5
    values = [chain.step() for _ in range(steps)]
    freq = chain.change_events / steps
    assert 0.09 <= freq <= 0.11
    assert min(values) >= 0.3
    assert max(values) <= 1.0


def test_chain_params_validation():
    with pytest.raises(ValueError):
        CpuChainParams(min_avail=0.0)
    with pytest.raises(ValueError):
        CpuChainParams(min_avail=0.9, max_avail=0.5)
    with pytest.raises(ValueError):
        CpuChainParams(change_prob=1.5)
    with pytest.raises(ValueError):
        CpuChainParams(delta_stddev=-1.0)


def test_scripted_cpu_clamps_and_holds_last_value():
    cpu = ScriptedCpu([1.0, 0.1, 0.4])
    cpu.reset(np.random.default_rng(0))
    assert cpu.value == 1.0
    assert cpu.step() == 0.3  # clamped up to min_avail
    assert cpu.step() == 0.4
    assert cpu.step() == 0.4  # script exhausted, holds


# --- input traces ---------------------------------------------------------


def test_fixed_trace_layout():
    trace = make_trace("fixed")
    assert trace.length == 1000
    assert set(trace.sizes) == {48}


def test_variable_trace_layout():
    trace = make_trace("variable")
    assert trace.length == 1100
    assert trace.sizes[0] == 6
    assert trace.sizes[550] == 192
    assert trace.sizes[1099] == 6
    blocks = [trace.sizes[i * 100] for i in range(11)]
    assert blocks == [6, 12, 24, 48, 96, 192, 96, 48, 24, 12, 6]
    for i in range(11):
        assert len(set(trace.sizes[i * 100 : (i + 1) * 100])) == 1


def test_full_day_trace_layout():
    trace = make_trace("full_day")
    assert trace.length == 86400
    for hour, faces in FULL_DAY_SCHEDULE.items():
        assert trace.sizes[hour * 3600] == faces
        assert trace.sizes[hour * 3600 + 3599] == faces


def test_full_day_schedule_override_must_cover_all_hours():
    with pytest.raises(ValueError, match="every hour"):
        make_trace("full_day", schedule={0: 6})


def test_random_trace_change_frequency():
    trace = make_trace("random", length=10**5)
    sizes = trace.materialize(np.random.default_rng(0))
    changes = sum(a != b for a, b in zip(sizes, sizes[1:]))
    freq = changes / (len(sizes) - 1)
    assert 0.09 <= freq <= 0.11
    assert set(sizes) <= {6, 12, 24, 48, 96, 192}


def test_random_trace_seeded_is_reproducible():
    trace = make_trace("random", length=500)
    c = trace.materialize(np.random.default_rng(1))
    d = trace.materialize(np.random.default_rng(1))
    e = trace.materialize(np.random.default_rng(2))
    assert c == d
    assert c != e


def test_unknown_trace_kind():
    with pytest.raises(ValueError, match="unknown trace kind"):
        make_trace("bursty")


# --- environment stepping -------------------------------------------------


def test_latency_at_full_cpu_is_base_latency():
    env = constant_cpu_env(base_latency=0.5, cpu=1.0)
    out = env.step(Configuration((0,)))
    assert out.latency == 0.5
    assert out.satisfied is True


def test_latency_scales_inversely_and_boundary_satisfies():
    env = constant_cpu_env(base_latency=0.5, cpu=0.5)
    out = env.step(Configuration((0,)))
    assert out.latency == 1.0
    assert out.satisfied is True  # inclusive bound


def test_low_cpu_violates():
    env = constant_cpu_env(base_latency=0.6, cpu=0.3)
    out = env.step(Configuration((0,)))
    assert out.latency == pytest.approx(2.0)
    assert out.satisfied is False


def test_reset_determinism_bit_for_bit(face_profile, face_requirement, face_sorted_configs):
    env = Environment(face_profile, face_requirement, make_trace("variable"))
    action = face_sorted_configs[100]

    def roll(seed):
        env.reset(seed)
        out = [env.step(action) for _ in range(200)]
        return [(o.latency, o.observation.cpu_availability) for o in out]

    assert roll(42) == roll(42)
    assert roll(42) != roll(43)


def test_episode_end_signal_and_fresh_reset(face_profile, face_requirement, face_sorted_configs):
    env = Environment(face_profile, face_requirement, custom_trace([6, 6]))
    env.reset(0)
    action = face_sorted_configs[0]
    assert env.step(action).done is False
    assert env.step(action).done is True
    with pytest.raises(EpisodeFinished):
        env.step(action)
    env.reset(0)
    for _ in range(2):
        out = env.step(action)
    assert out.done is True


def test_variable_trace_first_observation(face_profile, face_requirement):
    env = Environment(face_profile, face_requirement, make_trace("variable"))
    state = env.reset(7)
    assert state.input_size == 6
    assert state.cpu_availability == 1.0


def test_observation_reflects_post_step_state(face_profile, face_requirement, face_sorted_configs):
    env = Environment(face_profile, face_requirement, make_trace("variable"))
    env.reset(7)
    out = env.step(face_sorted_configs[511])
    assert out.observation.cpu_availability == env.cpu.value
    assert out.observation.input_size == 6  # still inside the first block


def test_latency_monotone_in_cpu_and_input(face_profile, face_requirement, face_sorted_configs):
    action = face_sorted_configs[8]
    latencies = []
    for cpu in (0.3, 0.5, 0.8, 1.0):
        env = Environment(
            face_profile,
            face_requirement,
            custom_trace([48]),
            cpu_source=ScriptedCpu([cpu, cpu]),
        )
        env.reset(0)
        latencies.append(env.step(action).latency)
    assert all(a > b for a, b in zip(latencies, latencies[1:]))

    by_size = []
    for size in (6, 12, 24, 48, 96, 192):
        env = Environment(
            face_profile,
            face_requirement,
            custom_trace([size]),
            cpu_source=ScriptedCpu([1.0, 1.0]),
        )
        env.reset(0)
        by_size.append(env.step(action).latency)
    assert all(a <= b for a, b in zip(by_size, by_size[1:]))


def test_episode_lengths_exact(face_profile, face_requirement):
    for kind, expected in (("fixed", 1000), ("variable", 1100), ("full_day", 86400)):
        env = Environment(face_profile, face_requirement, make_trace(kind))
        assert env.length == expected
    env = Environment(face_profile, face_requirement, make_trace("random", length=77))
    assert env.length == 77

