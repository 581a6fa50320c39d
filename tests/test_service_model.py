import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptsim.profiling import ProfileTable
from adaptsim.service_model import (
    ConstraintSpec,
    OperatorSpec,
    ParameterSpec,
    Requirement,
    ServiceTopology,
    enumerate_configurations,
    make_topology,
    sort_by_objective,
)


def topology_with_counts(counts):
    params = [
        (f"p{i}", [f"v{j}" for j in range(n)]) for i, n in enumerate(counts)
    ]
    return make_topology("t", [("op", params)])


def table_for(topology, objectives, latency=0.5, sizes=(6,)):
    """Profile with one objective per configuration, keyed by assignment order."""
    configs = enumerate_configurations(topology)
    return ProfileTable(configs, sizes, [[latency] * len(sizes)] * len(configs), objectives)


def test_enumerate_counts_512():
    topo = topology_with_counts([4, 4, 4, 2, 2, 2])
    configs = enumerate_configurations(topo)
    assert len(configs) == 512


def test_enumerate_single_value_parameter():
    topo = topology_with_counts([1])
    configs = enumerate_configurations(topo)
    assert [c.assignments for c in configs] == [(0,)]


def test_enumerate_lexicographic_order():
    topo = topology_with_counts([2, 3])
    configs = enumerate_configurations(topo)
    assert len(configs) == 6
    assert configs[0].assignments == (0, 0)
    assert configs[-1].assignments == (1, 2)
    assert [c.assignments for c in configs] == sorted(c.assignments for c in configs)


def test_enumerate_empty_topology_errors():
    topo = ServiceTopology("empty", (OperatorSpec("op", ()),))
    with pytest.raises(ValueError, match="cannot be configured"):
        enumerate_configurations(topo)


def test_parameter_invariants():
    with pytest.raises(ValueError, match="no values"):
        ParameterSpec("p", ())
    with pytest.raises(ValueError, match="duplicate value"):
        ParameterSpec("p", ("a", "a"))


def test_operator_and_topology_name_uniqueness():
    p = ParameterSpec("p", ("a",))
    with pytest.raises(ValueError, match="duplicate parameter"):
        OperatorSpec("op", (p, p))
    op = OperatorSpec("op", (p,))
    with pytest.raises(ValueError, match="duplicate operator"):
        ServiceTopology("t", (op, op))


def test_requirement_invariants():
    lat = ConstraintSpec("latency", 1.0)
    with pytest.raises(ValueError, match="> 0"):
        ConstraintSpec("latency", 0.0)
    for target in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            ConstraintSpec("latency", target)
    with pytest.raises(ValueError, match="at least one constraint"):
        Requirement("precision", ())
    with pytest.raises(ValueError, match="distinct"):
        Requirement("precision", (lat, lat))
    with pytest.raises(ValueError, match="objective metric"):
        Requirement("latency", (lat,))
    with pytest.raises(ValueError, match="sense"):
        Requirement("precision", (lat,), objective_sense="median")
    assert Requirement("precision", (ConstraintSpec("latency", 2.5),)).latency_target == 2.5


def test_requirement_refuses_constraint_not_on_latency():
    for constraints in (
        (ConstraintSpec("latency", 1.0), ConstraintSpec("energy", 0.5)),
        (ConstraintSpec("energy", 0.5),),
    ):
        with pytest.raises(ValueError, match="only latency.*'energy'"):
            Requirement("precision", constraints)


def test_sort_by_objective_basic():
    topo = topology_with_counts([3])
    # configs (0,), (1,), (2,) get objectives a=0.4, b=0.9, c=0.7
    table = table_for(topo, [0.4, 0.9, 0.7])
    ranked = sort_by_objective(enumerate_configurations(topo), table, 6)
    assert [c.assignments for c in ranked] == [(1,), (2,), (0,)]
    assert [c.ordinal for c in ranked] == [0, 1, 2]


def test_sort_by_objective_tie_break_is_declaration_order():
    topo = topology_with_counts([2, 2])
    table = table_for(topo, [0.5, 0.5, 0.5, 0.5])
    ranked = sort_by_objective(enumerate_configurations(topo), table, 6)
    assert [c.assignments for c in ranked] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_sort_by_objective_minimize_sense():
    topo = topology_with_counts([3])
    table = table_for(topo, [0.4, 0.9, 0.7])
    ranked = sort_by_objective(enumerate_configurations(topo), table, 6, sense="minimize")
    assert [c.assignments for c in ranked] == [(0,), (2,), (1,)]


def test_sort_by_objective_missing_entry_names_configuration():
    topo = topology_with_counts([2])
    table = table_for(topology_with_counts([1]), [0.5])
    with pytest.raises(KeyError, match=r"\(1,\)"):
        sort_by_objective(enumerate_configurations(topo), table, 6)


def test_sort_512_extremes_match_brute_force(face_topology, face_profile, face_sorted_configs):
    # independent scan of the profile, no ordering logic involved
    objectives = {
        key: face_profile.objective(key) for key in face_profile.configurations()
    }
    best = max(objectives.values())
    worst = min(objectives.values())
    assert face_profile.objective(face_sorted_configs[0].assignments) == best
    assert face_profile.objective(face_sorted_configs[-1].assignments) == worst
    assert face_sorted_configs[0].ordinal == 0
    assert face_sorted_configs[-1].ordinal == 511


@st.composite
def value_counts(draw, max_product=100_000):
    """1-10 parameters of 1-6 values each, at most ``max_product`` configurations.

    Unbounded, 10 parameters of 6 values are 6^10 = 60.5 M configurations,
    more memory than a test machine has; each count is drawn below the room
    the earlier ones leave, then the order is shuffled.
    """
    counts, product = [], 1
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        n = draw(st.integers(min_value=1, max_value=min(6, max_product // product)))
        counts.append(n)
        product *= n
    return draw(st.permutations(counts))


@settings(max_examples=40, deadline=None)
@given(value_counts())
def test_enumeration_size_matches_product(counts):
    topo = topology_with_counts(counts)
    configs = enumerate_configurations(topo)
    assert len(configs) == math.prod(counts)
    assert len({c.assignments for c in configs}) == len(configs)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=24
    )
)
def test_sort_is_a_monotone_permutation(objectives):
    topo = topology_with_counts([len(objectives)])
    table = table_for(topo, objectives)
    configs = enumerate_configurations(topo)
    ranked = sort_by_objective(configs, table, 6)
    # permutation of the same assignment multiset
    assert sorted(c.assignments for c in ranked) == [c.assignments for c in configs]
    values = [table.objective(c.assignments) for c in ranked]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert sorted(c.ordinal for c in ranked) == list(range(len(ranked)))


def test_inputs_unchanged_by_sorting():
    topo = topology_with_counts([3])
    table = table_for(topo, [0.1, 0.2, 0.3])
    configs = enumerate_configurations(topo)
    sort_by_objective(configs, table, 6)
    assert all(c.ordinal == -1 for c in configs)
