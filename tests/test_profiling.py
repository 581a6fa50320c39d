import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptsim.defaults import DEFAULT_INPUT_SIZES, default_model
from adaptsim.profiling import (
    ProfileEntry,
    ProfileError,
    ProfileTable,
    SyntheticProfileModel,
    generate_synthetic_profile,
    load_profile,
    save_profile,
    validate_profile_coverage,
)
from adaptsim.service_model import enumerate_configurations, make_topology


def tiny_topology():
    return make_topology("tiny", [("op", [("knob", ["lo", "hi"])])])


def constant_model(floor=0.1, slope=0.0):
    return SyntheticProfileModel(
        latency_weights={"knob": {"lo": 0.0, "hi": 0.0}},
        objective_weights={"knob": {"lo": 0.3, "hi": 0.6}},
        per_face_slope=slope,
        latency_floor=floor,
    )


def two_point_table():
    return ProfileTable(
        [
            ProfileEntry((0,), 6, 0.1, 0.5),
            ProfileEntry((0,), 12, 0.2, 0.5),
        ]
    )


def test_constant_model_gives_constant_latency():
    table = generate_synthetic_profile(constant_model(), tiny_topology(), [6, 12, 24])
    assert all(e.base_latency == 0.1 for e in table.entries())


def test_default_model_latency_grows_with_input(face_profile):
    for key in face_profile.configurations():
        lat6, _ = face_profile.lookup(key, 6)
        lat192, _ = face_profile.lookup(key, 192)
        assert lat192 > lat6


def test_best_objective_config_is_slowest_everywhere(face_profile, face_sorted_configs):
    # exhaustive scan of the generated table, one size at a time
    best = face_sorted_configs[0].assignments
    for size in DEFAULT_INPUT_SIZES:
        max_latency = max(
            face_profile.lookup(key, size)[0] for key in face_profile.configurations()
        )
        assert face_profile.lookup(best, size)[0] == max_latency


def test_pure_tradeoff_objective_order_reverses_latency_order(face_profile):
    keys = face_profile.configurations()
    by_objective = sorted(keys, key=lambda k: (-face_profile.objective(k), k))
    by_latency = sorted(keys, key=lambda k: (face_profile.lookup(k, 6)[0], k))
    assert by_objective == list(reversed(by_latency))


def test_save_load_roundtrip_is_identity(face_profile, tmp_path):
    path = tmp_path / "profile.csv"
    save_profile(face_profile, path)
    loaded = load_profile(path)
    assert loaded.input_sizes == face_profile.input_sizes
    assert loaded.configurations() == face_profile.configurations()
    for key in face_profile.configurations():
        for size in face_profile.input_sizes:
            assert loaded.lookup(key, size) == face_profile.lookup(key, size)


def test_missing_cell_is_incomplete_grid(tmp_path):
    path = tmp_path / "p.csv"
    table = generate_synthetic_profile(constant_model(), tiny_topology(), [6, 12])
    save_profile(table, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ProfileError, match="incomplete grid"):
        load_profile(path)


def test_duplicate_rows_error(tmp_path):
    path = tmp_path / "p.csv"
    table = generate_synthetic_profile(constant_model(), tiny_topology(), [6])
    save_profile(table, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[-1]]) + "\n")
    with pytest.raises(ProfileError, match="duplicate entry"):
        load_profile(path)


def test_objective_varying_across_sizes_errors():
    with pytest.raises(ProfileError, match="objective varies"):
        ProfileTable(
            [
                ProfileEntry((0,), 6, 0.1, 0.5),
                ProfileEntry((0,), 12, 0.2, 0.6),
            ]
        )


def test_malformed_rows_and_header(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("nonsense\n")
    with pytest.raises(ProfileError, match="header"):
        load_profile(path)
    path.write_text(
        "assignments,input_size,base_latency_seconds,objective_value\n0;0,6,abc,0.5\n"
    )
    with pytest.raises(ProfileError, match="malformed row"):
        load_profile(path)
    path.write_text(
        "assignments,input_size,base_latency_seconds,objective_value\n0;0,6,0.5\n"
    )
    with pytest.raises(ProfileError, match="malformed row"):
        load_profile(path)


@pytest.mark.parametrize(
    "latency, objective",
    [
        (float("nan"), 0.5),
        (float("inf"), 0.5),
        (0.1, float("nan")),
        (0.1, float("inf")),
    ],
)
def test_non_finite_entry_rejected(latency, objective):
    with pytest.raises(ProfileError, match="finite"):
        ProfileEntry((0,), 6, latency, objective)


def test_lookup_interpolates_midpoint():
    table = two_point_table()
    lat, obj = table.lookup((0,), 9)
    assert lat == pytest.approx(0.15)
    assert obj == 0.5


def test_lookup_clamps_below_and_above():
    table = two_point_table()
    assert table.lookup((0,), 3)[0] == 0.1
    assert table.lookup((0,), 100)[0] == 0.2


def test_lookup_exact_size_returns_stored_value():
    table = two_point_table()
    assert table.lookup((0,), 6)[0] == 0.1
    assert table.lookup((0,), 12)[0] == 0.2


def test_lookup_unknown_configuration():
    with pytest.raises(KeyError, match="unknown configuration"):
        two_point_table().lookup((9,), 6)


def test_negative_latency_weight_rejected():
    with pytest.raises(ProfileError, match="negative latency weight"):
        SyntheticProfileModel(
            latency_weights={"knob": {"lo": -0.1}},
            objective_weights={"knob": {"lo": 0.5}},
            per_face_slope=0.0,
            latency_floor=0.1,
        )


def test_generate_requires_increasing_sizes():
    with pytest.raises(ProfileError, match="strictly increasing"):
        generate_synthetic_profile(constant_model(), tiny_topology(), [6, 6])
    with pytest.raises(ProfileError, match="non-empty"):
        generate_synthetic_profile(constant_model(), tiny_topology(), [])


def test_model_missing_weight_named():
    model = constant_model()
    topo = make_topology("other", [("op", [("dial", ["a"])])])
    with pytest.raises(ProfileError, match="dial"):
        generate_synthetic_profile(model, topo, [6])


def test_objective_clipped_to_unit_interval():
    model = SyntheticProfileModel(
        latency_weights={"knob": {"lo": 0.0, "hi": 0.0}},
        objective_weights={"knob": {"lo": -2.0, "hi": 7.0}},
        per_face_slope=0.0,
        latency_floor=0.1,
    )
    table = generate_synthetic_profile(model, tiny_topology(), [6])
    assert table.objective((0,)) == 0.0
    assert table.objective((1,)) == 1.0


def test_validate_profile_coverage(face_profile, face_topology):
    topo = tiny_topology()
    with pytest.raises(ProfileError, match="missing"):
        validate_profile_coverage(face_profile, topo)
    with pytest.raises(ProfileError, match="outside the topology"):
        small_extra = ProfileTable(
            [
                ProfileEntry((0,), 6, 0.1, 0.5),
                ProfileEntry((1,), 6, 0.1, 0.5),
                ProfileEntry((2,), 6, 0.1, 0.5),
            ]
        )
        validate_profile_coverage(small_extra, topo)
    small = generate_synthetic_profile(constant_model(), topo, [6])
    validate_profile_coverage(small, topo)
    validate_profile_coverage(face_profile, face_topology)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=250))
def test_interpolation_bounded_by_neighbor_knots(query):
    table = ProfileTable(
        [
            ProfileEntry((0,), 6, 0.10, 0.5),
            ProfileEntry((0,), 12, 0.35, 0.5),
            ProfileEntry((0,), 48, 0.20, 0.5),
            ProfileEntry((0,), 192, 0.90, 0.5),
        ]
    )
    sizes = table.input_sizes
    lat, _ = table.lookup((0,), query)
    knots = {s: table.lookup((0,), s)[0] for s in sizes}
    if query <= sizes[0]:
        assert lat == knots[sizes[0]]
    elif query >= sizes[-1]:
        assert lat == knots[sizes[-1]]
    else:
        lo = max(s for s in sizes if s <= query)
        hi = min(s for s in sizes if s >= query)
        assert min(knots[lo], knots[hi]) <= lat <= max(knots[lo], knots[hi])
        if query in knots:
            assert lat == knots[query]
