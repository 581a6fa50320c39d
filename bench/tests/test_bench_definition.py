"""BENCHMARK.json must describe what bench/run.py measures and prints."""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from run import END_TO_END_UNITS, layer_unit  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, PassResult, layer_metrics  # noqa: E402

DEFINITION = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workloads_match():
    assert DEFINITION["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in DEFINITION["end_to_end"]} == END_TO_END_UNITS


def test_per_layer_metrics_match():
    names = list(layer_metrics(Tracer(), PassResult(wall_s=1.0, frames=1))) + [
        "trace.overhead_pct"
    ]
    assert [m["name"] for m in DEFINITION["per_layer"]] == names
    assert all(m["unit"] == layer_unit(m["name"]) for m in DEFINITION["per_layer"])
