import hashlib
import math
import re
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptsim.cli import main
from adaptsim.defaults import DEFAULT_INPUT_SIZES, default_model
from adaptsim.profiling import (
    PROFILE_HEADER,
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
    return ProfileTable([(0,)], [6, 12], [[0.1, 0.2]], [0.5])


def write_profile(path, rows):
    path.write_text("\n".join([PROFILE_HEADER, *rows]) + "\n")
    return path


def test_constant_model_gives_constant_latency():
    table = generate_synthetic_profile(constant_model(), tiny_topology(), [6, 12, 24])
    assert [table.lookup(key, s)[0] for key in table.configurations() for s in (6, 12, 24)] == [
        0.1
    ] * 6


# sha256 of the file a bare `adaptsim profile --out profile.csv` writes (512 x 6 cells)
DEFAULT_PROFILE_SHA256 = "217f62879547abb8b4d5d5eccd5f72cf30b637a971cdda93ae85cc88eae78fcd"


def test_default_profile_file_is_pinned(tmp_path):
    path = tmp_path / "profile.csv"
    assert main(["profile", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_PROFILE_SHA256


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
    with pytest.raises(ProfileError, match=re.escape(f"{path}: incomplete grid")):
        load_profile(path)


def test_duplicate_rows_error(tmp_path):
    path = tmp_path / "p.csv"
    table = generate_synthetic_profile(constant_model(), tiny_topology(), [6])
    save_profile(table, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[-1]]) + "\n")
    duplicate_line = len(lines) + 1
    with pytest.raises(ProfileError, match=re.escape(f"{path}:{duplicate_line}: duplicate entry")):
        load_profile(path)


def test_objective_varying_across_sizes_errors(tmp_path):
    path = write_profile(tmp_path / "p.csv", ["0,6,0.1,0.5", "0,12,0.2,0.6"])
    with pytest.raises(ProfileError, match=re.escape(f"{path}:3: objective varies")):
        load_profile(path)


@pytest.mark.parametrize(
    "rows, where",
    [
        (["0,6,0.1,0.5", "1,6,0.1,1.5"], ":3: objective for configuration (1,)"),
        (["0,6,0.1,0.5", "0,12,0.0,0.5"], ":3: base latency for configuration (0,) at input size"),
        (["0,-6,0.1,0.5"], ": input sizes must be >= 0"),
        (["0,6,0.1,0.5", "", "0,12,0.2,0.5", "1,12,0.2,0.5"], ": incomplete grid"),
        (["0,6,0.1,0.5", "", "0,6,0.1,0.5"], ":4: duplicate entry"),
        ([], ": profile has no entries"),
        (["0,6,0.1,0.5"], ": profile is missing 512 configurations"),
    ],
    ids=["objective", "latency", "negative-size", "incomplete", "duplicate-after-blank",
         "header-only", "not-the-topology"],
)
def test_refused_file_names_its_path_and_line(tmp_path, capsys, rows, where):
    path = write_profile(tmp_path / "p.csv", rows)
    assert main(["profile", "--validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}{where}") and err.count("\n") == 1, err


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
    with pytest.raises(ProfileError, match=r"configuration \(0,\).*finite"):
        ProfileTable([(0,)], [6], [[latency]], [objective])


@pytest.mark.parametrize(
    "args, message",
    [
        (([], [6], [], []), "no entries: the grid must be non-empty"),
        (([(0,)], [], [[]], [0.5]), "no entries: the grid must be non-empty"),
        (([(0,)], [-6, 12], [[0.1, 0.2]], [0.5]), r">= 0 and strictly increasing: \[-6, 12\]"),
        (([(0,)], [12, 6], [[0.1, 0.2]], [0.5]), r"strictly increasing: \[12, 6\]"),
        (([(0,)], [6, 6], [[0.1, 0.2]], [0.5]), "strictly increasing"),
        (([(0,), (1,), (0,)], [6], [[0.1]] * 3, [0.5] * 3), r"duplicate configuration \(0,\)"),
        (([(0,)], [6, 12], [[0.1]], [0.5]),
         r"shapes \(1, 1\) and \(1,\) .* do not match 1 configurations x 2 sizes"),
        (([(0,), (1,)], [6], [[0.1], [0.1]], [0.5]),
         r"shapes \(2, 1\) and \(1,\) .* do not match 2 configurations x 1 sizes"),
        (([(0,), (1,)], [6, 12], [[0.1, 0.2], [0.1, 0.0]], [0.5] * 2),
         r"configuration \(1,\) at input size 12 must be a finite number > 0, got 0.0"),
        (([(0,)], [6], [[-0.1]], [0.5]), r"at input size 6 must be a finite number > 0"),
        (([(0,), (1,)], [6], [[0.1], [0.1]], [0.5, -0.1]),
         r"objective for configuration \(1,\) must be a finite number in \[0, 1\], got -0.1"),
        (([(0,)], [6], [[0.1]], [1.5]), r"in \[0, 1\], got 1.5"),
    ],
    ids=["no-configurations", "no-sizes", "negative-size", "decreasing-sizes", "repeated-size",
         "duplicate-configuration", "latency-shape", "objective-shape", "zero-latency",
         "negative-latency", "negative-objective", "objective-above-one"],
)
def test_constructor_refuses_bad_grid(args, message):
    with pytest.raises(ProfileError, match=message):
        ProfileTable(*args)


def test_lookup_returns_python_floats():
    table = two_point_table()
    for size in (3, 6, 9, 12, 100):
        lat, obj = table.lookup((0,), size)
        assert type(lat) is float and type(obj) is float
    assert type(table.objective((0,))) is float


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


def test_validate_profile_coverage(face_profile, face_topology, tmp_path):
    topo = tiny_topology()
    with pytest.raises(ProfileError, match="missing"):
        validate_profile_coverage(face_profile, topo)
    with pytest.raises(ProfileError, match="outside the topology"):
        small_extra = ProfileTable([(0,), (1,), (2,)], [6], [[0.1]] * 3, [0.5] * 3)
        validate_profile_coverage(small_extra, topo)
    small = generate_synthetic_profile(constant_model(), topo, [6])
    validate_profile_coverage(small, topo)
    validate_profile_coverage(face_profile, face_topology)
    # load_profile given a topology refuses a file that does not cover it, by the file's path
    path = tmp_path / "p.csv"
    save_profile(ProfileTable([(0,)], [6], [[0.1]], [0.5]), path)
    assert load_profile(path).configurations() == [(0,)]
    with pytest.raises(ProfileError, match=f"^{re.escape(f'{path}: profile is missing 1 ')}"):
        load_profile(path, topo)
    save_profile(small, path)
    assert load_profile(path, topo).configurations() == [(0,), (1,)]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=250))
def test_interpolation_bounded_by_neighbor_knots(query):
    table = ProfileTable([(0,)], [6, 12, 48, 192], [[0.10, 0.35, 0.20, 0.90]], [0.5])
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


def reference_lookup(sizes, latencies, query):
    """Clamped linear interpolation, written out independently of ProfileTable."""
    if query <= sizes[0]:
        return latencies[0]
    if query >= sizes[-1]:
        return latencies[-1]
    hi = bisect_left(sizes, query)
    if sizes[hi] == query:
        return latencies[hi]
    lo = hi - 1
    frac = (query - sizes[lo]) / (sizes[hi] - sizes[lo])
    return latencies[lo] + frac * (latencies[hi] - latencies[lo])


latencies_st = st.one_of(
    st.floats(min_value=5e-324, max_value=1e-307),  # subnormals and the smallest normals
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=1e307, max_value=1.7976931348623157e308),  # near the largest double
)


@st.composite
def small_grids(draw):
    sizes = sorted(draw(st.sets(st.integers(min_value=0, max_value=400), min_size=1, max_size=5)))
    keys = sorted(
        draw(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=5))
    )
    latency = [[draw(latencies_st) for _ in sizes] for _ in keys]
    objective = [draw(st.floats(min_value=0.0, max_value=1.0)) for _ in keys]
    return keys, sizes, latency, objective


@settings(max_examples=80, deadline=None)
@given(small_grids(), st.lists(st.integers(min_value=-10, max_value=450), max_size=8))
def test_random_grid_roundtrips_and_interpolates(tmp_path_factory, grid, queries):
    keys, sizes, latency, objective = grid
    table = ProfileTable(keys, sizes, latency, objective)
    path = tmp_path_factory.mktemp("grid") / "p.csv"
    save_profile(table, path)
    loaded = load_profile(path)
    assert loaded.configurations() == keys and loaded.input_sizes == tuple(sizes)
    for key, lats, obj in zip(keys, latency, objective):
        for size, lat in zip(sizes, lats):
            got = loaded.lookup(key, size)
            assert got == (lat, obj) and math.copysign(1, got[1]) == math.copysign(1, obj)
        for query in queries:
            want = reference_lookup(sizes, lats, query)
            lat, got_obj = table.lookup(key, query)
            assert (lat, got_obj) == (want, obj)
            assert table.latency_at(query)[table.row(key)] == want
