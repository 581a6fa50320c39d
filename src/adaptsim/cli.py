"""Command line interface.

Verbs:
    profile   generate a profile file from the configured synthetic model,
              or validate an existing one against the topology
    run       execute the campaigns defined by a config file
    overhead  time the per-decision cost of the controllers
    report    re-render summary outputs from previously written run traces
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig, load_config
from .harness import (
    CONTROLLER_KINDS,
    CampaignResult,
    emit_report,
    in_summary_order,
    measure_overhead,
    rank_configurations,
    read_campaign,
    run_experiment,
)
from .profiling import ProfileError, load_profile, save_profile
from .simenv import TRACE_KINDS


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="experiment config file (YAML)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptsim",
        description="Simulate and orchestrate self-adaptive service pipelines.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_profile = sub.add_parser("profile", help="generate or validate profile files")
    _add_common(p_profile)
    p_profile.add_argument("--out", type=Path, default=None, help="write the profile here")
    p_profile.add_argument(
        "--validate", type=Path, default=None, help="validate an existing profile file"
    )

    p_run = sub.add_parser("run", help="execute a campaign from a config file")
    _add_common(p_run)
    p_run.add_argument("--seed", type=int, default=None, help="override base seed")
    p_run.add_argument("--runs", type=int, default=None, help="override run count")
    p_run.add_argument("--out", type=Path, default=None, help="override output directory")
    p_run.add_argument(
        "--controller",
        action="append",
        help=f"run only this controller (repeatable): {', '.join(CONTROLLER_KINDS)}",
    )
    p_run.add_argument(
        "--trace",
        action="append",
        help=f"run only this trace (repeatable): {', '.join(TRACE_KINDS)}; "
        "full-day and full_day both work",
    )

    p_overhead = sub.add_parser(
        "overhead",
        help="per-decision timing report",
        description="Time each controller's decisions over one random-trace episode of the "
        "campaign that --config declares; its trace kinds, runs, seed and out_dir are not used.",
    )
    _add_common(p_overhead)
    p_overhead.add_argument("--steps", type=int, default=20000)
    p_overhead.add_argument(
        "--controller",
        action="append",
        help=f"controller(s) to time (default: heuristic and rl2): {', '.join(CONTROLLER_KINDS)}",
    )
    p_overhead.add_argument(
        "--reference-frame-ms",
        type=float,
        default=70.0,
        help="frame processing time the impact is measured against",
    )

    p_report = sub.add_parser("report", help="re-render outputs from run traces")
    _add_common(p_report)
    p_report.add_argument("--out", type=Path, required=True, help="campaign output root")
    return parser


def _cmd_profile(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    if args.validate is not None:
        table, done = load_profile(args.validate, cfg.topology), f"{args.validate}: OK"
    else:
        table, out = cfg.profile, args.out or Path("profile.csv")
        save_profile(table, out)
        done = f"wrote {out}"
    grid = f"{len(table.configurations())} configurations x {len(table.input_sizes)} input sizes"
    print(f"{done} ({grid})")
    return 0


def _cmd_run(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    specs = cfg.campaign_specs(
        controllers=args.controller,
        trace_kinds=args.trace,
        out_dir=args.out,
        runs=args.runs,
        base_seed=args.seed,
    )
    out_root = Path(args.out) if args.out is not None else cfg.out_dir
    out_root.mkdir(parents=True, exist_ok=True)
    results: list[CampaignResult] = []
    for spec in specs:
        print(f"running {spec.controller} on {spec.trace.kind} ({spec.runs} runs) ...")
        results.append(run_experiment(spec))
    return _report(results, out_root)


def _report(results: list[CampaignResult], out_root: Path) -> int:
    """Write the summary files under ``out_root`` and print their table in ``summary.csv``'s
    order: ``run`` and ``report`` of one campaign set print the same lines."""
    paths = emit_report(results, out_root)
    print(f"summary: {paths['summary']}")
    print(f"{'controller':>12} {'trace':>10} {'objective':>10} {'sat %':>8} {'reward':>8}")
    for r in in_summary_order(results):
        print(
            f"{r.controller:>12} {r.trace_kind:>10} "
            f"{r.mean_over_runs('mean_objective'):>10.4f} "
            f"{r.mean_over_runs('latency_satisfaction_pct'):>8.2f} "
            f"{r.mean_over_runs('mean_reward'):>8.3f}"
        )
    return 0


def _cmd_overhead(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    kinds = args.controller or ["heuristic", "rl2"]
    for i, spec in enumerate(cfg.campaign_specs(controllers=kinds, trace_kinds=["random"])):
        report = measure_overhead(
            spec, steps=args.steps, reference_frame_s=args.reference_frame_ms / 1000.0
        )
        if i == 0:  # after the first call, which refuses bad inputs
            print(f"{'controller':>12} {'median ms':>10} {'p99 ms':>10} {'impact %':>9}")
        print(
            f"{spec.controller:>12} {report.decide_median_s * 1e3:>10.4f} "
            f"{report.decide_p99_s * 1e3:>10.4f} {report.impact_pct:>9.3f}"
        )
    return 0


def _cmd_report(args: argparse.Namespace, cfg: ExperimentConfig) -> int:
    ranked = rank_configurations(cfg.topology, cfg.profile, cfg.requirement.objective_sense)
    out_root = Path(args.out)
    results: list[CampaignResult] = []
    for campaign_dir in sorted(p for p in out_root.iterdir() if p.is_dir()):
        result = read_campaign(campaign_dir, ranked, cfg.profile, cfg.requirement.objective_metric)
        if result is not None:
            results.append(result)
    if not results:
        raise ValueError(f"no campaign directories with run traces under {out_root}")
    return _report(results, out_root)


_VERBS = {
    "profile": _cmd_profile,
    "run": _cmd_run,
    "overhead": _cmd_overhead,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _VERBS[args.verb](args, load_config(args.config))
    except (ConfigError, ProfileError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
