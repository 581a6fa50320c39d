"""Byte-identity oracle: a small campaign grid must reproduce pinned outputs.

The digests pin the metric files, the summary and every per-step run trace
of a 5 controllers x 2 traces x 2 runs grid.  Any change to the random
stream, the arithmetic, or the way floats are spelled in the output files
shows up here as a mismatch.  A change that means to alter outputs must say
so and record new digests.
"""

import hashlib

import numpy as np

from adaptsim import config, harness
from adaptsim.controllers import qtable_load

GRID = {
    "controller": {"kinds": list(harness.CONTROLLER_KINDS)},
    "trace": {"kinds": ["variable", "random"], "random_length": 300},
    "runs": 2,
}
SEED = 7

SHA256 = {
    "heuristic_random/metrics.csv": "bf6f4f4f4344f5319db3453db8542331302d366300815edc7f01c6d6bce9ad94",
    "heuristic_random/runs/run_000.csv": "f767bd60476f8edb20596564d8c429fbd6f1ce9b6abf6049d64bf0f432fc65d0",
    "heuristic_random/runs/run_001.csv": "8970f697449cb3c523e3987f6fd5e3de7b7e0de79094831166f591cd84be4337",
    "heuristic_variable/metrics.csv": "12a3565c069495242d726f305d643a07572c4149e5b4dc668af42bc17c9b1b53",
    "heuristic_variable/runs/run_000.csv": "13a078069f222bbb1e900772855c69b32c10754850f15f686d1c99f60baafed4",
    "heuristic_variable/runs/run_001.csv": "109310cf8bf925eedc627c8d685bfca55d61cfa15c9b3969d2c1b98a862a271d",
    "rl1_random/metrics.csv": "470a6e2fc223d1e804e6559195a1a3c7c6450b2097d2a2a21cde330e85f743a6",
    "rl1_random/runs/run_000.csv": "3f53be47030fde121f5a22f520a843ba287c32c0980ec5e232c81cec9b57a979",
    "rl1_random/runs/run_001.csv": "c3d95cc5d8472b538ef4e95f9130140ba404b032da4d4b1725e57a098c6197bc",
    "rl1_variable/metrics.csv": "225527f5f8ccef042fd6bb950de41bd88ab5e2a89d8b04507846d62c10a8e65d",
    "rl1_variable/runs/run_000.csv": "7fbfbec528502f51b250f1cb80c667a889d2da83320b6e02ac33da7b85bba0d3",
    "rl1_variable/runs/run_001.csv": "e672f5426655475b77221ef802e3badbcad791e159dc03fd3fe68ba787025b46",
    "rl2_random/metrics.csv": "ef34ce636429941b87780283464f1845032fcffb6bc3e95ec0278f0db710ce84",
    "rl2_random/runs/run_000.csv": "32bc495726719d4e4187ff11a13b16249b9a89e58529d1c531c2d754875c705b",
    "rl2_random/runs/run_001.csv": "b99d0e705beca17a9c8d907dd4c56b4750fa10a56e80259b1a0bafabdceb9cf1",
    "rl2_variable/metrics.csv": "7b7a531d9ff2a66b1a7595b659ad2dfccea765e87b3eb015fea0e5555b6b40ba",
    "rl2_variable/runs/run_000.csv": "aac32cc3df7865475e843a147971de407fa8135448168a34a133676b8bf30059",
    "rl2_variable/runs/run_001.csv": "bcd5b3f537425261e365e6d674398252387e2988926e34154e3a9db618a94c1e",
    "static-fast_random/metrics.csv": "bf2be30bb79223ecd2ac65fdefdf2b805b04a9aa639e2d31b5fc452c845b66e1",
    "static-fast_random/runs/run_000.csv": "8a6381dd0f0900bf6ee1cd0af9e8fbbbed872b0161f07d7b9f3ed931134ef2d8",
    "static-fast_random/runs/run_001.csv": "187621dff2ae4b45b8a37eb0d1afde128a0317a63b934f29aca4ac5d29bdbd4c",
    "static-fast_variable/metrics.csv": "78ae6fbf0b9e6f79acd6b20e7707cb8c13f927ed02f672827f0a35f1521af397",
    "static-fast_variable/runs/run_000.csv": "0338a87cd52b230d2dae6dddf2102a0589b811f8dc8e4f281e4b88de9d4b8b2c",
    "static-fast_variable/runs/run_001.csv": "f2787a5177badff5df40b09357484a8a83fe1b7525ac2fd599c97064bfd52c75",
    "static-hp_random/metrics.csv": "8c4e05b9a09c60a4221d463ca5b705d7a69e9e2f547322d41e28a9023cd8166f",
    "static-hp_random/runs/run_000.csv": "35d11eac795032fbc0426a957c9599409cab98118151cd4450d462fe803f7b0b",
    "static-hp_random/runs/run_001.csv": "7243de640ed2d448f73a833b09a9af0194d05142e9dc78bef0ff31b3ded3768e",
    "static-hp_variable/metrics.csv": "e6a6a6b7fbaeae7f88bdc9d4a31dcd85edf87db763d2de3dccb722402f758edf",
    "static-hp_variable/runs/run_000.csv": "a5fe0c9c57524487ff335d9becca204da4502bb4f62e98ca985a2ecfec3587bd",
    "static-hp_variable/runs/run_001.csv": "cc5a72edcf8faa5dcc47396ac4855cf29d04bcef40b6a4f111d9b89c43247986",
    "summary.csv": "ec88de89f2dc0c5ff4cf53a6906b8963b95e4984086add86463cfb3653403a0c",
}


def test_small_grid_outputs_are_byte_identical_to_pinned_digests(tmp_path):
    specs = config.parse_config(GRID).campaign_specs(out_dir=tmp_path, base_seed=SEED)
    harness.emit_report([harness.run_experiment(spec) for spec in specs], tmp_path)
    paths = (
        [tmp_path / "summary.csv"]
        + sorted(tmp_path.glob("*/metrics.csv"))
        + sorted(tmp_path.glob("*/runs/run_*.csv"))
    )
    got = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in paths
    }
    assert got == SHA256


# Full 512-wide action space: the persisted Q-tables of both learners after
# two runs.  The file bytes pin the sparse text format; the content digests
# (encoder, shape, the value bits and the visit counts of the loaded table)
# were recorded with the earlier dense format, so they pin that the learned
# tables themselves did not change with it.
QTABLE_GRID = {
    "controller": {"kinds": ["rl1", "rl2"], "actions": "all"},
    "trace": {"kinds": ["random"], "random_length": 300},
    "runs": 2,
}

QTABLE_SHA256 = {
    "rl1_random/qtable.txt": "3d0bababfc595d0288917799c3f85a7ed142b311c591e6a0767e600e319757f3",
    "rl2_random/qtable.txt": "2615a03d914f6cdb9d28b1d789e2abf0b743d23e13ad6cc04f73bf04a407fdca",
}

QTABLE_CONTENT_SHA256 = {
    "rl1_random/qtable.txt": "8e8c7e852c5fc69b8ea99b0b4bbdb3ea9247b469aeead799488b81a24c54905b",
    "rl2_random/qtable.txt": "0a3177a6ebaaa703b378f65b3c265f46f5128d2878ec9fb8db89fafd496f58f7",
}


def _content_sha256(table):
    digest = hashlib.sha256(f"{table.encoder} {table.state_count} {table.action_count}".encode())
    digest.update(table.values.view(np.int64).tobytes())
    digest.update(table.visit_counts.astype(np.int64).tobytes())
    return digest.hexdigest()


def test_full_action_space_qtables_are_byte_identical_to_pinned_digests(tmp_path):
    for spec in config.parse_config(QTABLE_GRID).campaign_specs(out_dir=tmp_path, base_seed=SEED):
        harness.run_experiment(spec)
    got = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.glob("*/qtable.txt"))
    }
    assert got == QTABLE_SHA256
    content = {
        p.relative_to(tmp_path).as_posix(): _content_sha256(qtable_load(p))
        for p in sorted(tmp_path.glob("*/qtable.txt"))
    }
    assert content == QTABLE_CONTENT_SHA256
    assert not list(tmp_path.glob("*/qtable.txt.*"))  # no temp or lock file left behind
