"""The layer tracer must not leak into the program it measures, a metric
whose span never fired must not read as free, and the output check must
notice a corrupted run trace."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from adaptsim import config  # noqa: E402

from checks import check_pass, digest_outputs  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CONTROLLERS, PassResult, layer_metrics, run_pass  # noqa: E402


def _run(out_dir: Path, tracer: Tracer | None = None):
    raw = {"controller": {"kinds": CONTROLLERS}, "trace": {"kinds": ["variable"]}, "runs": 2}
    specs = config.parse_config(raw).campaign_specs(out_dir=out_dir, base_seed=7)
    if tracer is None:
        return specs, run_pass(specs, out_dir)
    with tracer.installed():
        patched = [
            (owner, attr, original, getattr(owner, attr))
            for owner, attr, original in tracer.patches
        ]
        result = run_pass(specs, out_dir)
    return specs, result, patched


def test_traced_pass_restores_attributes_and_writes_identical_outputs(tmp_path):
    tracer = Tracer()
    specs, traced, patched = _run(tmp_path / "traced", tracer)
    assert patched, "the tracer installed no wrappers"
    for owner, attr, original, wrapper in patched:
        assert wrapper.__wrapped__ is original
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner.__name__}.{attr} still wrapped"
    assert not tracer.patches

    _, plain = _run(tmp_path / "plain")
    assert traced.errors == plain.errors == {}
    traced_digests = digest_outputs(tmp_path / "traced")
    assert len(traced_digests) == 1 + 5 * (1 + 2)  # report, then metrics + traces
    assert traced_digests == digest_outputs(tmp_path / "plain")
    assert check_pass(specs) == {}

    layers = layer_metrics(tracer, traced)
    assert layers["simenv.step_calls"] == traced.frames == 5 * 2 * 1100
    assert layers["controllers.q_update_calls"] > 0
    assert layers["controllers.qtable_bytes"] > 0


def test_a_span_never_called_is_unmeasured_unless_idle():
    empty = PassResult(wall_s=1.0, frames=1)
    assert set(layer_metrics(Tracer(), empty).values()) == {None}
    idle = layer_metrics(Tracer(), empty, frozenset({"controllers.qtable_load"}))
    assert {k: v for k, v in idle.items() if v is not None} == {"controllers.qtable_load_ms": 0}


def test_output_check_reports_a_corrupted_trace(tmp_path):
    specs, _ = _run(tmp_path)
    assert check_pass(specs) == {}
    path = tmp_path / "rl2_variable" / "runs" / "run_001.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[5].split(",")
    cells[5] = str(1 - int(cells[5]))  # flip `satisfied` on one step
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert list(check_pass(specs)) == ["rl2_variable"]
