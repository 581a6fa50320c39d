import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptsim.controllers import HeuristicController, make_action_space
from adaptsim.harness import run_episode
from adaptsim.profiling import ProfileTable
from adaptsim.service_model import ConstraintSpec, Requirement
from adaptsim.simenv import (
    FULL_DAY_SCHEDULE,
    CpuChain,
    CpuChainParams,
    EnvState,
    Environment,
    EpisodeFinished,
    InputTrace,
    ScriptedCpu,
    StepOutcome,
    custom_trace,
    make_trace,
)
from test_profiling import reference_lookup

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
    return ProfileTable([(0,)], sizes, [[base_latency] * len(sizes)], [objective])


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
    assert cpu.reset(np.random.default_rng(0)) == 1.0
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


@pytest.mark.parametrize(
    "sizes, bad",
    [([-5], -5), ([6, 2.7], 2.7), ([True], True), ([6, "3"], "3"),
     ([np.float64(6.0)], np.float64(6.0)), ([6, -1, 2.5], -1)],
)
def test_custom_trace_refuses_a_size_that_is_not_a_face_count(sizes, bad):
    message = f"an input size must be an integer >= 0, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        custom_trace(sizes)


@pytest.mark.parametrize("length", [2.5, "3", True, 0, -4, 3.0, None])
def test_random_trace_refuses_a_length_that_is_not_a_positive_integer(length):
    message = f"trace length must be an integer >= 1, got {length!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        InputTrace(kind="random", length=length)
    if length is not None:  # make_trace's None is its default length
        with pytest.raises(ValueError, match="^trace length must be an integer >= 1, got "):
            make_trace("random", length=length)


def test_traces_keep_numpy_integers_as_ints():
    trace = custom_trace(np.array([0, 6, 192], dtype=np.int64))
    assert trace.sizes == (0, 6, 192)
    assert all(type(s) is int for s in trace.sizes)
    random = make_trace("random", length=np.uint16(7))
    assert random.length == 7 and type(random.length) is int
    with pytest.raises(ValueError, match="^trace length must be an integer >= 1, got 0$"):
        custom_trace([])


# --- environment stepping -------------------------------------------------


def test_latency_at_full_cpu_is_base_latency():
    env = constant_cpu_env(base_latency=0.5, cpu=1.0)
    out = env.step(0)
    assert out.latency == 0.5
    assert out.satisfied is True


def test_latency_scales_inversely_and_boundary_satisfies():
    env = constant_cpu_env(base_latency=0.5, cpu=0.5)
    out = env.step(0)
    assert out.latency == 1.0
    assert out.satisfied is True  # inclusive bound


def test_low_cpu_violates():
    env = constant_cpu_env(base_latency=0.6, cpu=0.3)
    out = env.step(0)
    assert out.latency == pytest.approx(2.0)
    assert out.satisfied is False


@pytest.mark.parametrize(
    "base_latency, min_avail, target, frames",
    [(2.0, 1e-320, 1.0, 4), (2.0, 0.3, 1e-320, 4), (1e306, 0.3, 1.0, 1000)],
    ids=["cpu-floor", "latency-target", "trace-length"],
)
def test_environment_refuses_a_context_under_which_latency_overflows(
    base_latency, min_avail, target, frames
):
    profile = flat_profile(base_latency)
    requirement = Requirement("precision", (ConstraintSpec("latency", target),))
    cpu = CpuChain(CpuChainParams(min_avail=min_avail))
    message = f"cpu min_avail {min_avail!r} is too small for latency target {target!r}: "
    with pytest.raises(ValueError, match=re.escape(message)):
        Environment(profile, requirement, custom_trace([6] * frames), cpu)


@pytest.mark.parametrize("row", [-1, 1])
def test_step_refuses_a_row_outside_the_profile(row):
    env = constant_cpu_env(base_latency=0.5, cpu=1.0)  # one configuration, at row 0
    with pytest.raises(IndexError, match=f"row {row} is outside the 1 configurations"):
        env.step(row)
    assert env.step(0).latency == 0.5  # the refused frame is still due


def test_step_charges_the_interpolated_and_clamped_latency():
    sizes, latencies = (10, 20, 40), [[0.3, 0.7, 1.1], [0.25, 0.5, 2.0]]
    profile = ProfileTable([(0,), (1,)], sizes, latencies, [0.4, 0.6])
    trace = [3, 10, 13, 27, 40, 55]  # below, at, between, between, at and above the knots
    cpus = [1.0, 0.7, 0.35, 0.9, 0.5, 0.3]
    for row in (0, 1):
        env = Environment(profile, LATENCY_REQ, custom_trace(trace), ScriptedCpu(cpus))
        env.reset(0)
        for size, cpu in zip(trace, cpus):
            out = env.step(row)
            assert out.latency == reference_lookup(sizes, latencies[row], size) / cpu
            assert out.objective == profile.objectives[row]


def test_step_returns_its_named_record_types():
    # frames of 6 and 48 faces at availability 0.9 and 0.6; 0.45 after the last
    env = Environment(flat_profile(0.55), LATENCY_REQ, custom_trace([6, 48]),
                      cpu_source=ScriptedCpu([0.9, 0.6, 0.45]))
    env.reset(0)
    for latency, cpu_after, size_after, done in ((0.55 / 0.9, 0.6, 48, False),
                                                 (0.55 / 0.6, 0.45, 48, True)):
        out = env.step(0)
        expected = StepOutcome(
            latency=latency,
            objective=0.5,
            satisfied=latency <= 1.0,
            observation=EnvState(cpu_availability=cpu_after, input_size=size_after),
            done=done,
        )
        assert type(out) is StepOutcome and type(out.observation) is EnvState
        assert out == expected
        assert out._asdict() == expected._asdict()
        assert out.observation._asdict() == expected.observation._asdict()


def test_reset_determinism_bit_for_bit(face_profile, face_requirement, face_sorted_configs):
    env = Environment(face_profile, face_requirement, make_trace("variable"))
    row = face_profile.row(face_sorted_configs[100])

    def roll(seed):
        env.reset(seed)
        out = [env.step(row) for _ in range(200)]
        return [(o.latency, o.observation.cpu_availability) for o in out]

    assert roll(42) == roll(42)
    assert roll(42) != roll(43)


def test_episode_end_signal_and_fresh_reset(face_profile, face_requirement, face_sorted_configs):
    env = Environment(face_profile, face_requirement, custom_trace([6, 6]))
    row = face_profile.row(face_sorted_configs[0])
    with pytest.raises(EpisodeFinished):  # no episode before the first reset()
        env.step(row)
    env.reset(0)
    assert env.step(row).done is False
    assert env.step(row).done is True
    with pytest.raises(EpisodeFinished):
        env.step(row)
    env.reset(0)
    for _ in range(2):
        out = env.step(row)
    assert out.done is True


def test_variable_trace_first_observation(face_profile, face_requirement):
    env = Environment(face_profile, face_requirement, make_trace("variable"))
    state = env.reset(7)
    assert state.input_size == 6
    assert state.cpu_availability == 1.0


def test_observation_reflects_post_step_state(face_profile, face_requirement, face_sorted_configs):
    env = Environment(face_profile, face_requirement, make_trace("variable"))
    env.reset(7)
    out = env.step(face_profile.row(face_sorted_configs[511]))
    cpu, sizes = env.context
    assert out.observation == (cpu[1], sizes[1])  # frame 1's context
    assert out.observation.input_size == 6  # still inside the first block


def test_latency_monotone_in_cpu_and_input(face_profile, face_requirement, face_sorted_configs):
    row = face_profile.row(face_sorted_configs[8])
    latencies = []
    for cpu in (0.3, 0.5, 0.8, 1.0):
        env = Environment(
            face_profile,
            face_requirement,
            custom_trace([48]),
            cpu_source=ScriptedCpu([cpu, cpu]),
        )
        env.reset(0)
        latencies.append(env.step(row).latency)
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
        by_size.append(env.step(row).latency)
    assert all(a <= b for a, b in zip(by_size, by_size[1:]))


def test_episode_lengths_exact(face_profile, face_requirement):
    for kind, expected in (("fixed", 1000), ("variable", 1100), ("full_day", 86400)):
        env = Environment(face_profile, face_requirement, make_trace(kind))
        assert env.length == expected
    env = Environment(face_profile, face_requirement, make_trace("random", length=77))
    assert env.length == 77



@st.composite
def chain_params(draw):
    lo = draw(st.floats(0.01, 1.0))
    return CpuChainParams(
        min_avail=lo,
        max_avail=draw(st.floats(lo, 1.0)),
        change_prob=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        delta_mean=draw(st.floats(-1.0, 1.0)),
        delta_stddev=draw(st.floats(0.0, 1.0)),
    )


cpu_sources = st.one_of(  # a maker of fresh, identical sources
    chain_params().map(lambda params: partial(CpuChain, params)),
    st.lists(st.floats(0.0, 2.0), min_size=1, max_size=20).map(lambda v: partial(ScriptedCpu, v)),
)
traces = st.one_of(
    st.sampled_from([make_trace("fixed"), make_trace("variable")]),
    st.integers(1, 300).map(lambda n: make_trace("random", length=n)),
    st.lists(st.integers(1, 300), min_size=1, max_size=300).map(custom_trace),
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    trace=traces,
    make_cpu=cpu_sources,
    rows=st.lists(st.integers(0, 511), min_size=1, max_size=8),
)
def test_reset_draws_the_context_that_every_step_charges(
    face_profile, face_requirement, face_sorted_configs, seed, trace, make_cpu, rows
):
    chain_ss, trace_ss = np.random.SeedSequence(seed).spawn(2)
    by_hand = make_cpu()
    cpu = [by_hand.reset(np.random.default_rng(chain_ss))]
    cpu += [by_hand.step() for _ in range(trace.length)]  # the last is after the last frame
    sizes = list(trace.materialize(np.random.default_rng(trace_ss)))

    env = Environment(face_profile, face_requirement, trace, make_cpu())
    assert [len(column) for column in env.context] == [0, 0]  # no episode yet
    assert env.reset(seed) == (cpu[0], sizes[0])
    assert [column.tolist() for column in env.context] == [cpu[:-1], sizes]
    for t, size in enumerate(sizes):
        row = rows[t % len(rows)]
        out = env.step(row)
        assert out.latency == face_profile.latency_at(size)[row] / cpu[t]
        assert out.observation == (cpu[t + 1], sizes[min(t + 1, len(sizes) - 1)])
        assert out.done == (t + 1 == len(sizes))

    actions = make_action_space(face_sorted_configs, 16)
    episode = run_episode(env, HeuristicController(len(actions)), actions, seed)
    assert episode.trace.cpu is env.context[0] and episode.trace.input_size is env.context[1]
    assert [episode.trace.cpu.tolist(), episode.trace.input_size.tolist()] == [cpu[:-1], sizes]
