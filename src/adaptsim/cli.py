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

from .config import ConfigError, load_config
from .harness import (
    CONTROLLER_KINDS,
    CampaignResult,
    emit_report,
    measure_overhead,
    recompute_metrics_from_trace,
    run_experiment,
)
from .profiling import ProfileError, load_profile, save_profile, validate_profile_coverage
from .service_model import enumerate_configurations, sort_by_objective
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
        choices=CONTROLLER_KINDS,
        default=None,
        help="run only this controller (repeatable)",
    )
    p_run.add_argument(
        "--trace",
        action="append",
        type=lambda kind: kind.replace("-", "_"),
        choices=TRACE_KINDS,
        default=None,
        help="run only this trace (repeatable; full-day and full_day both work)",
    )

    p_overhead = sub.add_parser(
        "overhead",
        help="per-decision timing report",
        description="Time each controller's decisions over one random-trace episode of the "
        "service that --config declares: its topology, requirement, profile and "
        "controller.actions.",
    )
    _add_common(p_overhead)
    p_overhead.add_argument("--steps", type=int, default=20000)
    p_overhead.add_argument(
        "--controller",
        action="append",
        choices=CONTROLLER_KINDS,
        default=None,
        help="controller(s) to time (default: heuristic and rl2)",
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


def _cmd_profile(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.validate is not None:
        table = load_profile(args.validate)
        validate_profile_coverage(table, cfg.topology)
        print(
            f"{args.validate}: OK ({len(table.configurations())} configurations x "
            f"{len(table.input_sizes)} input sizes)"
        )
        return 0
    out = args.out or Path("profile.csv")
    save_profile(cfg.profile, out)
    print(
        f"wrote {out} ({len(cfg.profile.configurations())} configurations x "
        f"{len(cfg.profile.input_sizes)} input sizes)"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    specs = cfg.campaign_specs(
        controllers=args.controller,
        trace_kinds=args.trace,
        out_dir=args.out,
        runs=args.runs,
        base_seed=args.seed,
    )
    results: list[CampaignResult] = []
    for spec in specs:
        print(f"running {spec.controller} on {spec.trace.kind} ({spec.runs} runs) ...")
        results.append(run_experiment(spec))
    out_root = Path(args.out) if args.out is not None else cfg.out_dir
    paths = emit_report(results, out_root)
    print(f"summary: {paths['summary']}")
    _print_summary(results)
    return 0


def _print_summary(results: list[CampaignResult]) -> None:
    header = f"{'controller':>12} {'trace':>10} {'objective':>10} {'sat %':>8} {'reward':>8}"
    print(header)
    for r in results:
        print(
            f"{r.controller:>12} {r.trace_kind:>10} "
            f"{r.mean_over_runs('mean_objective'):>10.4f} "
            f"{r.mean_over_runs('latency_satisfaction_pct'):>8.2f} "
            f"{r.mean_over_runs('mean_reward'):>8.3f}"
        )


def _cmd_overhead(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    kinds = args.controller or ["heuristic", "rl2"]
    print(f"{'controller':>12} {'median ms':>10} {'p99 ms':>10} {'impact %':>9}")
    for kind in kinds:
        report = measure_overhead(
            kind,
            steps=args.steps,
            reference_frame_s=args.reference_frame_ms / 1000.0,
            action_count=cfg.action_count,
            profile=cfg.profile,
            topology=cfg.topology,
            requirement=cfg.requirement,
        )
        print(
            f"{kind:>12} {report.decide_median_s * 1e3:>10.4f} "
            f"{report.decide_p99_s * 1e3:>10.4f} {report.impact_pct:>9.3f}"
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    sorted_configs = sort_by_objective(
        enumerate_configurations(cfg.topology),
        cfg.profile,
        cfg.reference_input or cfg.profile.input_sizes[0],
        sense=cfg.requirement.objective_sense,
    )
    out_root = Path(args.out)
    results: list[CampaignResult] = []
    for campaign_dir in sorted(p for p in out_root.iterdir() if p.is_dir()):
        runs_dir = campaign_dir / "runs"
        if not runs_dir.is_dir():
            continue
        name = campaign_dir.name
        controller = trace_kind = ""
        for kind in (*TRACE_KINDS, "custom"):
            if name.endswith(f"_{kind}"):
                controller, trace_kind = name[: -len(kind) - 1], kind
                break
        if not controller:
            continue
        metrics = [
            recompute_metrics_from_trace(path, sorted_configs, cfg.profile, run_index=i)
            for i, path in enumerate(sorted(runs_dir.glob("run_*.csv")))
        ]
        if not metrics:
            continue
        results.append(
            CampaignResult(
                controller=controller,
                trace_kind=trace_kind,
                objective_metric=cfg.requirement.objective_metric,
                metrics=metrics,
                out_dir=campaign_dir,
            )
        )
    if not results:
        print(f"no campaign directories with run traces under {out_root}", file=sys.stderr)
        return 1
    paths = emit_report(results, out_root)
    print(f"summary: {paths['summary']}")
    _print_summary(results)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "profile":
            return _cmd_profile(args)
        if args.verb == "run":
            return _cmd_run(args)
        if args.verb == "overhead":
            return _cmd_overhead(args)
        if args.verb == "report":
            return _cmd_report(args)
        parser.error(f"unknown verb {args.verb!r}")
    except (ConfigError, ProfileError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
