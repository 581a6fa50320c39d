"""Benchmark workloads and the pass that runs one of them.

A *pass* is one execution of a workload in a fresh process: set-up
(import, ``load_config``, configuration sort and action space), then every
campaign through ``run_experiment``, then ``emit_report``.  ``wall_s`` times
the campaigns and the report; set-up is measured separately as ``setup_s``.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from adaptsim import harness, service_model


CONTROLLERS = list(harness.CONTROLLER_KINDS)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    # Spans the workload never calls by design; their metrics read 0, where
    # any other span that was never called leaves its metrics unmeasured.
    idle_spans: frozenset[str] = frozenset()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid_variable",
            "acceptance grid: 5 controllers x 50 runs of the 1100-frame variable trace; "
            "per-run and per-campaign costs weigh most",
            {"controller": {"kinds": CONTROLLERS}, "trace": {"kinds": ["variable"]},
             "runs": 50},
        ),
        Workload(
            "full_day",
            "5 controllers x one 86400-frame full_day episode; the per-step loop is "
            "nearly all the work and holds the most records",
            {"controller": {"kinds": CONTROLLERS}, "trace": {"kinds": ["full_day"]},
             "runs": 1},
            idle_spans=frozenset({"controllers.qtable_load"}),  # one run: nothing to load
        ),
        Workload(
            "wide_actions",
            "actions: all gives a 512-wide action space on the random trace; "
            "text Q-table save and load between runs dominate",
            {"controller": {"kinds": CONTROLLERS, "actions": "all"},
             "trace": {"kinds": ["random"], "random_length": 2000}, "runs": 2},
        ),
    )
}


@dataclass
class PassResult:
    wall_s: float
    frames: int
    errors: dict[str, str] = field(default_factory=dict)  # campaign -> traceback


def rank_configurations(spec):
    """The configurations of ``spec``'s topology, best first, as campaigns rank them."""
    return service_model.sort_by_objective(
        service_model.enumerate_configurations(spec.topology),
        spec.profile,
        spec.reference_size,
        sense=spec.requirement.objective_sense,
    )


def run_pass(specs, out_dir: Path) -> PassResult:
    """Run every campaign once, then the report over all of them."""
    results = []
    errors = {}
    t0 = time.perf_counter()
    for spec in specs:
        try:
            results.append(harness.run_experiment(spec))
        except Exception:  # a failed campaign is counted, the rest still run
            errors[spec.out_dir.name] = traceback.format_exc()
    if results:
        try:
            harness.emit_report(results, out_dir)
        except Exception:
            errors["summary.csv"] = traceback.format_exc()
    return PassResult(
        wall_s=time.perf_counter() - t0,
        frames=sum(spec.trace.length * spec.runs for spec in specs),
        errors=errors,
    )


def layer_metrics(
    tracer, result: PassResult, idle_spans: frozenset[str] = frozenset()
) -> dict[str, float | None]:
    """Per-layer figures of one traced pass.

    ``*_ms`` are totals over the pass, ``*_us`` means per call,
    ``*_us_per_step`` totals over the pass divided by its frames,
    ``*_calls`` and ``*_bytes`` totals over the pass.  A metric whose span
    was never called is None: it was not measured, which is not the same
    as costing nothing.  Only the workload's ``idle_spans`` read 0 then.
    """
    frames = result.frames

    def total_ms(attr="total_ns"):
        return lambda s: getattr(s, attr) / 1e6

    def mean_us(attr="total_ns"):
        return lambda s: getattr(s, attr) / s.calls / 1e3

    def per_step_us(attr):
        return lambda s: getattr(s, attr) / frames / 1e3

    def percentile_us(q):
        return lambda s: float(np.percentile(np.frombuffer(s.samples, dtype=np.int64), q)) / 1e3

    def calls(s):
        return s.calls

    def amount(s):
        return s.amount

    table = [
        ("config.load_config_ms", "config.load_config", total_ms("self_ns")),
        ("profiling.generate_ms", "profiling.generate", total_ms()),
        ("service_model.sort_ms", "service_model.sort", total_ms("self_ns")),
        ("profiling.lookup_calls", "profiling.lookup", calls),
        ("profiling.lookup_us", "profiling.lookup", mean_us()),
        ("simenv.step_calls", "simenv.step", calls),
        ("simenv.step_us", "simenv.step", mean_us()),
        ("simenv.step_self_us", "simenv.step", mean_us("self_ns")),
        ("simenv.cpu_step_us", "simenv.cpu_step", mean_us()),
        ("simenv.reset_ms", "simenv.reset", total_ms()),
    ]
    for kind in CONTROLLERS:
        table += [
            (f"controllers.{kind}.decide_p50_us", f"controllers.{kind}.decide", percentile_us(50)),
            (f"controllers.{kind}.decide_p99_us", f"controllers.{kind}.decide", percentile_us(99)),
        ]
    table += [
        ("controllers.q_update_calls", "controllers.q_update", calls),
        ("controllers.q_update_us", "controllers.q_update", mean_us()),
        ("controllers.qtable_save_ms", "controllers.qtable_save", total_ms()),
        ("controllers.qtable_load_ms", "controllers.qtable_load", total_ms()),
        ("controllers.qtable_bytes", "controllers.qtable_save", amount),
        ("harness.episode_self_us_per_step", "harness.run_episode", per_step_us("self_ns")),
        ("harness.write_run_trace_us_per_step", "harness.write_run_trace",
         per_step_us("total_ns")),
        ("harness.trace_bytes", "harness.write_run_trace", amount),
        ("harness.campaign_self_ms", "harness.run_experiment", total_ms("self_ns")),
        ("harness.emit_report_ms", "harness.emit_report", total_ms()),
    ]
    out = {}
    for metric, span_name, value in table:
        span = tracer.spans.get(span_name)
        if span is not None and span.calls:
            out[metric] = value(span)
        else:
            out[metric] = 0 if span_name in idle_spans else None
    return out


def self_time_shares(tracer, wall_s: float) -> list[tuple[str, int, float, float]]:
    """(span, calls, self ms, share of wall %), largest first.

    Set-up runs before the timed region, so the config load's share is of
    the wall time but not inside it.
    """
    rows = [
        (name, s.calls, s.self_ns / 1e6, 100.0 * s.self_ns / 1e9 / wall_s)
        for name, s in tracer.spans.items()
        if s.calls
    ]
    return sorted(rows, key=lambda row: -row[2])
