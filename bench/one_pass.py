"""One benchmark pass in a fresh process.

Usage: python3 one_pass.py WORKLOAD CONFIG_YAML OUT_DIR SEED MODE

Imports adaptsim from the checkout's ``src``, loads the config, builds the
campaign specs, sorts the configurations and builds the action space, then
prints ``ready``: the parent times from spawning this process to that line,
so interpreter start-up and the import count towards ``setup_s`` as they do
for a user's first campaign.  Then it runs every campaign and the report
(see workloads.run_pass) and prints one JSON line with the pass's figures.
MODE is ``plain``; ``traced``, which installs the layer tracer after the
import and adds the per-layer figures to the JSON line; or ``setup``, which
stops after ``ready`` so that set-up can be sampled more often than passes.
WORKLOAD names the workload, whose ``idle_spans`` the per-layer figures use.
"""

import json
import resource
import sys
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from adaptsim import config, controllers  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    layer_metrics,
    rank_configurations,
    run_pass,
    self_time_shares,
)


def main(workload: str, config_path: str, out_dir: str, seed: str, mode: str) -> int:
    if mode not in ("plain", "traced", "setup"):
        raise SystemExit(f"unknown mode {mode!r}")
    tracer = Tracer()
    with tracer.installed() if mode == "traced" else nullcontext():
        cfg = config.load_config(config_path)
        specs = cfg.campaign_specs(out_dir=Path(out_dir), base_seed=int(seed))
        controllers.make_action_space(rank_configurations(specs[0]), specs[0].action_count)
        print("ready", flush=True)
        if mode == "setup":
            return 0
        result = run_pass(specs, Path(out_dir))
    report = {
        "wall_s": result.wall_s,
        "frames": result.frames,
        "errors": result.errors,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if mode == "traced":
        report["layers"] = layer_metrics(tracer, result, WORKLOADS[workload].idle_spans)
        report["shares"] = self_time_shares(tracer, result.wall_s)
        report["call_cost_ns"] = tracer.call_cost_ns
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
