import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adaptsim import controllers
from adaptsim.controllers import (
    ControllerObservation,
    HeuristicController,
    HeuristicParams,
    LearningParams,
    QLearningController,
    QTable,
    QTableMismatchError,
    StaticController,
    cpu_bin,
    encode_state_v1,
    encode_state_v2,
    latency_bin,
    make_action_space,
    q_update,
    qtable_load,
    qtable_load_or_zeros,
    qtable_save,
    reward,
    select_action,
    state_count,
    static_fast_index,
)
from adaptsim.harness import run_episode
from adaptsim.profiling import ProfileTable
from adaptsim.service_model import ConstraintSpec, Requirement
from adaptsim.simenv import Environment, custom_trace

REQ = Requirement("precision", (ConstraintSpec("latency", 1.0),))


def obs(ratio=None, cpu=1.0, last=0, objective=None):
    return ControllerObservation(
        cpu_availability=cpu,
        last_config_ordinal=last,
        last_latency_ratio=ratio,
        last_satisfied=None if ratio is None else ratio <= 1.0,
        last_objective=objective,
    )


# --- state encoders ---------------------------------------------------------


def test_latency_bins_and_boundaries():
    assert latency_bin(None) == 0
    assert latency_bin(0.5) == 0
    assert latency_bin(0.8) == 1  # boundary belongs to the middle bin
    assert latency_bin(1.0) == 1
    assert latency_bin(1.2) == 2


def test_cpu_bins_and_boundaries():
    assert cpu_bin(0.3) == 0
    assert cpu_bin(0.5) == 1  # lower boundary inclusive upward
    assert cpu_bin(0.8) == 2
    assert cpu_bin(0.9) == 2


def test_encode_v1_examples():
    assert encode_state_v1(obs(ratio=0.5, last=3, objective=0.5), 16) == 3
    assert encode_state_v1(obs(ratio=1.2, last=0, objective=0.5), 16) == 32
    assert encode_state_v1(obs(ratio=0.8, last=0, objective=0.5), 16) == 16


def test_encode_v2_example():
    assert encode_state_v2(obs(ratio=0.9, cpu=0.9, last=2, objective=0.5), 16) == 82


def test_first_step_encodes_to_cheap_bins():
    first = ControllerObservation(cpu_availability=1.0)
    assert encode_state_v1(first, 16) == 0
    assert encode_state_v2(first, 16) == 2 * 16  # cpu bin 2 at idle start


def test_encoders_are_bijections():
    for encoder, fn, bins in (
        ("v1", encode_state_v1, [(r,) for r in (0.4, 0.9, 1.5)]),
        (
            "v2",
            encode_state_v2,
            [(r, c) for r in (0.4, 0.9, 1.5) for c in (0.3, 0.65, 0.9)],
        ),
    ):
        seen = set()
        for combo in bins:
            ratio = combo[0]
            cpu = combo[1] if len(combo) > 1 else 1.0
            for last in range(16):
                seen.add(fn(obs(ratio=ratio, cpu=cpu, last=last, objective=0.5), 16))
        assert seen == set(range(state_count(encoder, 16)))


# --- reward -----------------------------------------------------------------


def test_reward_satisfied_branch():
    assert reward(obs(ratio=0.7, objective=0.9), REQ) == 0.9


def test_reward_violated_branch():
    assert reward(obs(ratio=1.5, objective=0.9), REQ) == -1.5


def test_reward_requires_history():
    with pytest.raises(ValueError, match="last-step metrics"):
        reward(ControllerObservation(cpu_availability=1.0), REQ)


def test_reward_minimize_sense_negates_objective():
    req = Requirement(
        "energy", (ConstraintSpec("latency", 1.0),), objective_sense="minimize"
    )
    assert reward(obs(ratio=0.5, objective=0.4), req) == -0.4


def test_reward_branches_are_exclusive_and_bounded():
    rng = np.random.default_rng(0)
    for _ in range(500):
        objective = float(rng.uniform(0, 1))
        ratio = float(rng.uniform(0, 3))
        value = reward(obs(ratio=ratio, objective=objective), REQ)
        if ratio <= 1.0:
            assert 0.0 <= value <= 1.0
        else:
            assert value < 0


# --- Q table and update -------------------------------------------------------

_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]
_FINITE_FLOATS = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
)


def test_q_update_examples():
    params = LearningParams(alpha=0.1, gamma=0.9)
    table = QTable.zeros("v1", 2)
    q_update(table, 0, 0, 1.0, 1, params)
    assert table.values[0, 0] == pytest.approx(0.1)

    table = QTable.zeros("v1", 2)
    table.values[0, 0] = 1.0
    q_update(table, 0, 0, 0.0, 1, params)
    assert table.values[0, 0] == pytest.approx(0.9)

    table = QTable.zeros("v1", 2)
    q_update(table, 0, 1, -2.5, 1, LearningParams(alpha=1.0, gamma=0.0))
    assert table.values[0, 1] == -2.5


def test_q_update_touches_exactly_one_cell():
    table = QTable.zeros("v2", 16)
    before_v = table.values.copy()
    before_c = table.visit_counts.copy()
    q_update(table, 5, 7, 0.3, 9, LearningParams())
    diff_v = np.argwhere(table.values != before_v)
    diff_c = np.argwhere(table.visit_counts != before_c)
    assert diff_v.tolist() == [[5, 7]]
    assert diff_c.tolist() == [[5, 7]]
    assert table.visit_counts[5, 7] == 1


def test_q_update_index_errors():
    table = QTable.zeros("v1", 2)
    params = LearningParams()
    with pytest.raises(IndexError):
        q_update(table, 6, 0, 0.0, 0, params)
    with pytest.raises(IndexError):
        q_update(table, 0, 2, 0.0, 0, params)
    with pytest.raises(IndexError):
        q_update(table, 0, 0, 0.0, -1, params)


def test_select_action_greedy_and_tiebreak():
    table = QTable.zeros("v1", 3)
    rng = np.random.default_rng(0)
    table.values[0] = [0.1, 0.5, 0.2]
    assert select_action(table, 0, 0.0, rng) == 1
    table.values[1] = [0.4, 0.4, 0.4]
    assert select_action(table, 1, 0.0, rng) == 0
    table = QTable.zeros("v1", 2)
    table.values[0] = [-0.0, 0.0]  # equal: the lower index wins, whatever the sign
    assert select_action(table, 0, 0.0, rng) == 0
    table.values[1] = [0.0, -0.0]
    assert select_action(table, 1, 0.0, rng) == 0


def test_select_action_uniform_under_full_exploration():
    table = QTable.zeros("v1", 16)
    rng = np.random.default_rng(123)
    draws = 10**5
    counts = np.zeros(16, dtype=int)
    for _ in range(draws):
        counts[select_action(table, 0, 1.0, rng)] += 1
    freqs = counts / draws
    assert np.all(np.abs(freqs - 1 / 16) <= 0.01)


def test_greedy_argmax_invariant_under_row_shift():
    rng = np.random.default_rng(5)
    table = QTable.zeros("v1", 8)
    table.values[2] = rng.normal(size=8)
    before = select_action(table, 2, 0.0, rng)
    table.values[2] += 17.25
    assert select_action(table, 2, 0.0, rng) == before


def _reference_q_update(table, prev_state, action, reward_value, next_state, params):
    """The original list-based update: the greedy value is Python's max."""
    values = table.values
    current = values.item(prev_state, action)
    target = reward_value + params.gamma * max(values[next_state].tolist())
    values[prev_state, action] = current + params.alpha * (target - current)
    table.visit_counts[prev_state, action] += 1
    return table


def _reference_select_action(table, state, epsilon, rng):
    """The original list-based epsilon-greedy choice."""
    if float(rng.random()) < epsilon:
        return int(rng.integers(table.action_count))
    row = table.values[state].tolist()
    return row.index(max(row))


@st.composite
def _greedy_cases(draw):
    """A two-row table (finite rows of width 1-600, often with ties) and an update."""
    cols = draw(st.integers(1, 600))
    # The fill is one value repeated, so most rows hold ties.
    values = draw(hnp.arrays(np.float64, (2, cols), elements=_FINITE_FLOATS,
                             fill=st.sampled_from(_EDGE_FLOATS)))
    visits = draw(hnp.arrays(np.int64, (2, cols), elements=st.integers(0, 10**6)))
    table = QTable("v1", values, visits)
    prev_state, next_state = draw(st.sampled_from([(0, 1), (1, 0), (1, 1)]))
    action = draw(st.integers(0, cols - 1))
    reward_value = draw(st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3))
    params = LearningParams(alpha=draw(st.floats(1e-3, 1.0)), gamma=draw(st.floats(0.0, 0.999)))
    epsilon = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return table, prev_state, action, reward_value, next_state, params, epsilon


@settings(max_examples=300, deadline=None)
@given(case=_greedy_cases(), seed=st.integers(0, 2**32 - 1))
def test_greedy_lookups_match_list_reference(case, seed):
    table, prev_state, action, reward_value, next_state, params, epsilon = case
    expected = QTable(table.encoder, table.values.copy(), table.visit_counts.copy())
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert select_action(table, next_state, epsilon, rng) == _reference_select_action(
        expected, next_state, epsilon, reference_rng
    )
    assert rng.bit_generator.state == reference_rng.bit_generator.state  # same draws
    assert select_action(table, next_state, 0.0, rng) == _reference_select_action(
        expected, next_state, 0.0, reference_rng
    )
    q_update(table, prev_state, action, reward_value, next_state, params)
    _reference_q_update(expected, prev_state, action, reward_value, next_state, params)
    assert table.values.view(np.int64)[prev_state, action] == (
        expected.values.view(np.int64)[prev_state, action]
    )
    assert np.array_equal(table.values.view(np.int64), expected.values.view(np.int64))
    assert np.array_equal(table.visit_counts, expected.visit_counts)


def test_qtable_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    table = QTable.zeros("v2", 16)
    table.values[:] = rng.normal(size=table.values.shape)
    table.visit_counts[:] = rng.integers(0, 100, size=table.values.shape)
    path = tmp_path / "q.txt"
    qtable_save(table, path)
    loaded = qtable_load(path)
    assert loaded.encoder == "v2"
    assert np.array_equal(loaded.values, table.values)
    assert np.array_equal(loaded.visit_counts, table.visit_counts)


def test_qtable_with_non_finite_value_rejected(tmp_path):
    path = tmp_path / "q.txt"
    for bad in (float("nan"), float("inf")):
        table = QTable.zeros("v1", 4)
        table.values[5, 2] = bad
        qtable_save(table, path)
        with pytest.raises(ValueError, match="finite"):
            qtable_load(path)


def test_qtable_dimension_mismatch(tmp_path):
    path = tmp_path / "q.txt"
    qtable_save(QTable.zeros("v1", 16), path)
    with pytest.raises(QTableMismatchError, match="needs v2"):
        qtable_load_or_zeros(path, "v2", 16)


def test_qtable_header_of_another_shape_is_refused_before_any_cell_is_allocated(tmp_path):
    # A table of 2^62 states would need exabytes: it is refused at its header,
    # not by a MemoryError from allocating it.
    path = tmp_path / "q.txt"
    path.write_text(f"v2 {2**62} 16\n0 0 0.5 1\n")
    message = f"{path} holds a v2 table of shape {2**62}x16, but this experiment needs v2 144x16"
    with pytest.raises(QTableMismatchError, match=f"^{re.escape(message)}$"):
        qtable_load_or_zeros(path, "v2", 16)


def test_qtable_absent_file_defaults_to_zeros(tmp_path):
    table = qtable_load_or_zeros(tmp_path / "missing.txt", "v2", 16)
    assert table.values.shape == (144, 16)
    assert not table.values.any()
    assert not table.visit_counts.any()


def _reference_qtable_text(table):
    """The file format cell by cell: every cell whose value is not +0.0 or
    whose visit count is not 0, walked in row-major order."""
    lines = [f"{table.encoder} {table.state_count} {table.action_count}"]
    for r in range(table.state_count):
        for c in range(table.action_count):
            value, count = float(table.values[r, c]), int(table.visit_counts[r, c])
            if value != 0 or math.copysign(1.0, value) < 0 or count != 0:
                lines.append(f"{r} {c} {value!r} {count}")
    return "\n".join(lines) + "\n"


@st.composite
def _tables(draw):
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 12))
    sparse = draw(st.booleans())
    values = draw(hnp.arrays(
        np.float64, (rows, cols), elements=_FINITE_FLOATS,
        fill=st.just(0.0) if sparse else st.nothing(),
    ))
    visits = draw(hnp.arrays(
        np.int64, (rows, cols), elements=st.integers(0, 2**63 - 1),
        fill=st.just(0) if sparse else st.nothing(),
    ))
    return QTable(draw(st.sampled_from(["v1", "v2"])), values, visits)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_tables())
def test_qtable_save_matches_reference_bytes_and_loads_bit_exact(tmp_path, table):
    path = tmp_path / "q.txt"
    qtable_save(table, path)
    assert path.read_bytes() == _reference_qtable_text(table).encode("utf-8")
    if table.visit_counts.sum(dtype=object) >= 2**63:  # past what total_visits holds
        with pytest.raises(ValueError, match=r"visit counts total past 2\^63 - 1"):
            qtable_load(path)
    else:
        loaded = qtable_load(path)
        assert loaded.encoder == table.encoder
        assert np.array_equal(loaded.values.view(np.int64), table.values.view(np.int64))
        assert np.array_equal(loaded.visit_counts, table.visit_counts)
        assert loaded.visit_counts.dtype == np.int64
    assert sorted(p.name for p in tmp_path.iterdir()) == ["q.txt"]  # no temp file left


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_tables(), scan_cells=st.integers(1, 40))
def test_qtable_save_scans_in_blocks(tmp_path, monkeypatch, table, scan_cells):
    # Blocks of a few cells: rows of the later blocks must be offset by the
    # block's first row, and a block without a held cell is skipped.
    monkeypatch.setattr(controllers, "_SCAN_CELLS", scan_cells)
    path = tmp_path / "q.txt"
    qtable_save(table, path)
    assert path.read_bytes() == _reference_qtable_text(table).encode("utf-8")


def _constructed_tables(tmp_path):
    zeros = QTable.zeros("v1", 8)
    qtable_save(zeros, tmp_path / "q.txt")
    return {"zeros": zeros, "load": qtable_load(tmp_path / "q.txt")}


@pytest.mark.parametrize("how", ["zeros", "load"])
def test_qtable_arrays_are_zero_writable_and_c_contiguous(tmp_path, how):
    table = _constructed_tables(tmp_path)[how]
    for array, dtype in ((table.values, np.float64), (table.visit_counts, np.int64)):
        assert array.shape == (24, 8)
        assert array.dtype == dtype
        assert array.flags.writeable
        assert array.flags.c_contiguous
        assert not np.signbit(array).any() and not array.any()
        array[23, 7] = 1
        assert array[23, 7] == 1


def test_qtable_too_large_to_map_raises_memory_error():
    with pytest.raises(MemoryError, match=r"shape \(9000000000000, 1000000000000\)"):
        QTable.zeros("v2", 10**12)


def test_qtable_save_crash_mid_write_keeps_previous_table(tmp_path, monkeypatch):
    path = tmp_path / "q.txt"
    old = QTable.zeros("v1", 4)
    old.values[5, 2] = -0.0
    old.values[7, 1] = 5e-324
    old.visit_counts[7, 1] = 3
    qtable_save(old, path)
    before = path.read_bytes()

    real_open = open

    class HalfWrite:
        """A file that takes half of what it is given, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            self.fh.flush()
            raise OSError("simulated crash mid-write")

    monkeypatch.setattr(
        controllers, "open", lambda *a, **k: HalfWrite(real_open(*a, **k)), raising=False
    )
    new = QTable.zeros("v1", 4)
    new.values[:] = 9.5
    with pytest.raises(OSError, match="simulated crash"):
        qtable_save(new, path)
    monkeypatch.undo()

    assert path.read_bytes() == before
    loaded = qtable_load(path)
    assert np.array_equal(loaded.values.view(np.int64), old.values.view(np.int64))
    assert np.array_equal(loaded.visit_counts, old.visit_counts)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["q.txt"]


def _small_saved_table(tmp_path):
    """A saved v1 table with 2 actions (6 states): the header and two cell lines."""
    table = QTable.zeros("v1", 2)
    table.values[1, 0] = 0.5
    table.visit_counts[1, 0] = 2
    table.visit_counts[4, 1] = 1
    path = tmp_path / "q.txt"
    qtable_save(table, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["v1 6 2", "1 0 0.5 2", "4 1 0.0 1"]
    return path, lines


@pytest.mark.parametrize(
    "line, text, match",
    [
        (0, "v1 six 2", "line 1: malformed header"),
        (0, "v1 6 2.0", "line 1: malformed header"),
        (0, "v1 6 0", "line 1: malformed header"),
        (0, "v9 6 2", "line 1: unknown state encoder"),
        (1, "1 0 0.5", "line 2: want <state> <action> <value> <visits>"),
        (2, "4 1 0.0 1 7", "line 3: want <state> <action> <value> <visits>"),
        (1, "1 0 abc 2", "line 2: could not convert string to float"),
        (2, "4 1 0.0 1.5", "line 3: invalid literal for int"),
        (2, "4 1 0.0 -3", "line 3: visit count -3 is not a non-negative"),
        (1, "1 0 nan 2", "line 2: Q-value nan is not finite"),
        (1, "1 0 -inf 2", "line 2: Q-value -inf is not finite"),
        (2, f"4 1 0.0 {2**63}", "line 3: visit count .* 64-bit"),
        (2, f"4 1 0.0 {2**63 - 2}", r"line 3: visit counts total past 2\^63 - 1"),
        (1, "x 0 0.5 2", "line 2: invalid literal for int"),
        (1, "1.0 0 0.5 2", "line 2: invalid literal for int"),
        (1, "6 0 0.5 2", r"line 2: cell \(6, 0\) is outside the 6x2 table"),
        (2, "4 2 0.0 1", r"line 3: cell \(4, 2\) is outside the 6x2 table"),
        (2, "4 -1 0.0 1", r"line 3: cell \(4, -1\) is outside"),
        (2, "1 0 0.0 1", r"line 3: cell \(1, 0\) is listed twice"),
    ],
    ids=[
        "non-integer-header", "float-header", "zero-width-header", "unknown-encoder",
        "three-field-line", "five-field-line", "non-numeric-value", "non-integer-visit",
        "negative-visit", "nan-value", "infinite-value", "int64-overflow-visit",
        "int64-overflow-visit-total",
        "non-integer-state", "float-state", "state-out-of-range", "action-out-of-range",
        "negative-action", "duplicate-cell",
    ],
)
def test_qtable_load_diagnostics_name_the_file(tmp_path, line, text, match):
    path, lines = _small_saved_table(tmp_path)
    lines[line] = text
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=match) as err:
        qtable_load(path)
    assert str(err.value).startswith(f"{path}: line ")


def test_qtable_load_takes_one_cell_of_the_largest_visit_count(tmp_path):
    # Only a total past 2^63 - 1 is refused: there QTable.total_visits wrapped
    # to -2^63 and a learner resumed from the table raised OverflowError.
    path, lines = _small_saved_table(tmp_path)
    path.write_text(f"{lines[0]}\n1 0 0.5 {2**63 - 1}\n", encoding="utf-8")
    table = qtable_load(path)
    assert table.total_visits == 2**63 - 1
    QLearningController(table, REQ)  # resumes its epsilon from the counts


def test_qtable_load_refuses_an_empty_file_and_the_dense_format(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1: malformed header"):
        qtable_load(path)
    # The dense format had one line per row: it fails at its first row.
    path.write_text("v1 3 1\n0.0\n0.5\n0.0\n0\n2\n0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: want <state>"):
        qtable_load(path)
    path.write_bytes(b"v1 3 1\n\xff\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a UTF-8 text file$"):
        qtable_load(path)


def test_qtable_load_reads_hand_spelled_zeros_and_negative_zero(tmp_path):
    path, lines = _small_saved_table(tmp_path)
    lines.append("0 0 0 00")  # a listed zero cell is allowed and stays +0.0
    lines.append("0 1 -0.0 0")
    lines[1] = " 1\t0\u00a0 0.50  +2 "  # any whitespace separates, as str.split has it
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    loaded = qtable_load(path)
    assert loaded.values[0, 0] == 0.0 and not np.signbit(loaded.values[0, 0])
    assert np.signbit(loaded.values[0, 1])
    assert loaded.values[1, 0] == 0.5
    assert loaded.visit_counts.tolist() == [[0, 0], [2, 0], [0, 0], [0, 0], [0, 1], [0, 0]]


# --- static and heuristic controllers ----------------------------------------


def ladder_profile(n=6, sizes=(6, 48)):
    """n configs with objective k/n and latency 0.2 + 0.1 k (pure trade-off)."""
    return ProfileTable(
        [(k,) for k in range(n)],
        sizes,
        [[0.2 + 0.1 * k] * len(sizes) for k in range(n)],
        [(k + 1) / (n + 1) for k in range(n)],
    )


def test_static_controller_returns_fixed_action():
    ctrl = StaticController(3, name="static")
    assert [ctrl.decide(obs(ratio=r, objective=0.5)) for r in (0.1, 2.0, 0.9)] == [3, 3, 3]


def test_static_fast_index_picks_min_latency():
    from adaptsim.service_model import enumerate_configurations, make_topology, sort_by_objective

    topo = make_topology("lad", [("op", [("k", [str(i) for i in range(6)])])])
    profile = ladder_profile()
    ranked = sort_by_objective(enumerate_configurations(topo), profile, 6)
    assert static_fast_index(ranked, profile) == len(ranked) - 1


def test_static_fast_maximizes_satisfaction_among_static_policies(
    face_profile, face_requirement, face_sorted_configs
):
    # oracle: simulate every static rung on the same seeded episode
    actions = make_action_space(face_sorted_configs, 16)
    rates = []
    for idx in range(len(actions)):
        env = Environment(face_profile, face_requirement, custom_trace([48] * 300))
        episode = run_episode(env, StaticController(idx), actions, seed=99)
        rates.append(episode.metrics.latency_satisfaction_pct)
    fast = static_fast_index(actions, face_profile)
    assert rates[fast] == max(rates)


def test_heuristic_degrades_every_violation():
    ctrl = HeuristicController(16)
    chosen = [ctrl.decide(ControllerObservation(cpu_availability=1.0))]
    for _ in range(2):
        chosen.append(ctrl.decide(obs(ratio=2.0, last=chosen[-1], objective=0.5)))
    assert chosen == [0, 1, 2]


def test_heuristic_upgrade_counter():
    ctrl = HeuristicController(16, HeuristicParams(upgrade_after=2))
    chosen = [ctrl.decide(ControllerObservation(cpu_availability=1.0))]
    for ratio in [2.0] * 5 + [0.5] * 5:  # five violations reach rung 5, then satisfied
        chosen.append(ctrl.decide(obs(ratio=ratio, last=chosen[-1], objective=0.5)))
    assert chosen == [0, 1, 2, 3, 4, 5, 5, 4, 4, 3, 3]


def test_heuristic_saturates_at_both_ends():
    ctrl = HeuristicController(3, HeuristicParams(upgrade_after=1))
    assert ctrl.decide(ControllerObservation(cpu_availability=1.0)) == 0
    assert ctrl.decide(obs(ratio=2.0, last=0, objective=0.5)) == 1
    assert ctrl.decide(obs(ratio=2.0, last=1, objective=0.5)) == 2
    assert ctrl.decide(obs(ratio=2.0, last=2, objective=0.5)) == 2  # worst rung holds
    ctrl2 = HeuristicController(3, HeuristicParams(upgrade_after=1))
    assert ctrl2.decide(ControllerObservation(cpu_availability=1.0)) == 0
    assert ctrl2.decide(obs(ratio=0.5, last=0, objective=0.5)) == 0  # best rung holds


def test_heuristic_steps_change_by_at_most_one():
    rng = np.random.default_rng(8)
    ctrl = HeuristicController(16, HeuristicParams(upgrade_after=3))
    prev = ctrl.decide(ControllerObservation(cpu_availability=1.0))
    for _ in range(500):
        ratio = float(rng.uniform(0.2, 1.8))
        current = ctrl.decide(obs(ratio=ratio, last=prev, objective=0.5))
        assert abs(current - prev) <= 1
        assert 0 <= current < 16
        prev = current


def test_heuristic_returns_to_last_working_rung_after_failed_upgrade():
    ctrl = HeuristicController(16, HeuristicParams(upgrade_after=1))
    rung = ctrl.decide(ControllerObservation(cpu_availability=1.0))
    for _ in range(8):  # eight violations reach rung 8
        rung = ctrl.decide(obs(ratio=1.4, last=rung, objective=0.5))
    assert rung == 8
    assert ctrl.decide(obs(ratio=0.5, last=8, objective=0.5)) == 7  # upgrade
    assert ctrl.decide(obs(ratio=1.4, last=7, objective=0.5)) == 8  # back down


# --- action space -------------------------------------------------------------


def test_make_action_space_even_spread(face_sorted_configs):
    actions = make_action_space(face_sorted_configs, 16)
    assert len(actions) == 16
    assert actions[0].ordinal == 0
    assert actions[-1].ordinal == 511
    ordinals = [c.ordinal for c in actions]
    assert ordinals == sorted(ordinals)


def test_make_action_space_all_and_oversized(face_sorted_configs):
    assert len(make_action_space(face_sorted_configs, "all")) == 512
    assert len(make_action_space(face_sorted_configs[:4], 16)) == 4
    assert [c.ordinal for c in make_action_space(face_sorted_configs, 1)] == [0]


@pytest.mark.parametrize("count", [True, False, 0, -3, 2.7, 3.0, "3", "ALL", None])
def test_make_action_space_refuses_a_count_that_is_not_all_or_a_positive_int(
    face_sorted_configs, count
):
    with pytest.raises(ValueError, match=f"got {re.escape(repr(count))}$"):
        make_action_space(face_sorted_configs, count)


@pytest.mark.parametrize("value", [2.5, True, 0, "3", None])
def test_heuristic_params_refuse_an_upgrade_after_that_is_not_an_integer_of_1_or_more(value):
    message = f"upgrade_after must be an integer >= 1, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        HeuristicParams(upgrade_after=value)


def test_a_numpy_integer_is_a_count(face_sorted_configs):
    four = make_action_space(face_sorted_configs, 4)
    assert make_action_space(face_sorted_configs, np.int64(4)) == four
    assert HeuristicParams(upgrade_after=np.int64(2)) == HeuristicParams(upgrade_after=2)


# --- learning controller -------------------------------------------------------


def test_learning_controller_converges_in_toy_environment():
    # action 0 always violates at ratio 2.0; action 1 satisfies with objective 0.5
    wins = 0
    for seed in range(20):
        table = QTable.zeros("v1", 2)
        ctrl = QLearningController(table, REQ, LearningParams(), rng=np.random.default_rng(seed))
        ctrl.reset()
        current = ControllerObservation(cpu_availability=1.0)
        seen = {encode_state_v1(current, 2)}
        for _ in range(500):
            action = ctrl.decide(current)
            ratio = 2.0 if action == 0 else 0.5
            current = obs(ratio=ratio, last=action, objective=0.5)
            seen.add(encode_state_v1(current, 2))
        if all(int(np.argmax(table.values[s])) == 1 for s in seen):
            wins += 1
    assert wins >= 19


def test_learning_controller_resumes_epsilon_from_visits():
    params = LearningParams(epsilon_start=1.0, epsilon_decay=0.995, epsilon_min=0.05)
    fresh = QLearningController(QTable.zeros("v1", 2), REQ, params)
    assert fresh.epsilon == 1.0
    warm_table = QTable.zeros("v1", 2)
    warm_table.visit_counts[0, 0] = 10_000
    warm = QLearningController(warm_table, REQ, params)
    assert warm.epsilon == 0.05


def test_finish_folds_last_reward():
    table = QTable.zeros("v1", 2)
    ctrl = QLearningController(
        table, REQ, LearningParams(epsilon_start=0.0, epsilon_min=0.0),
        rng=np.random.default_rng(0),
    )
    ctrl.reset()
    first = ControllerObservation(cpu_availability=1.0)
    action = ctrl.decide(first)
    updates_before = table.total_visits
    # Without last metrics, finish folds nothing and keeps the pending step.
    ctrl.finish(ControllerObservation(cpu_availability=0.3, last_config_ordinal=action))
    assert table.total_visits == updates_before
    ctrl.finish(obs(ratio=0.5, last=action, objective=0.7))
    assert table.total_visits == updates_before + 1
    assert table.visit_counts[encode_state_v1(first, 2), action] == 1
    ctrl.finish(obs(ratio=0.5, last=action, objective=0.7))  # nothing is pending now
    assert table.total_visits == updates_before + 1
