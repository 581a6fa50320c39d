"""Outside-in layer tracer for adaptsim.

The tracer swaps the public functions of each package module for timing
wrappers while it is installed, and puts the originals back when it is
removed.  Each wrapper is installed where its call site resolves the name:
``harness`` imports ``qtable_save`` and ``write_run_trace`` into its own
namespace, so those are wrapped in ``harness``; methods are wrapped on their
class, which every call site shares.

A span's self time is its duration minus the wrapped calls made inside it:
their timed windows, the bookkeeping each of their wrappers times after the
call (span lookup, counters, samples, ``amount``), and a calibrated cost
for entering and leaving a wrapper (see ``Tracer.calibrate``).  Spans keep
running totals; only spans that ask for a distribution keep one int64
duration per call, in a compact ``array``, so a traced ``full_day`` pass
(about 2 M wrapped calls) keeps no object per call.
"""

from __future__ import annotations

import os
import time
from array import array
from contextlib import contextmanager
from statistics import median

CALIBRATION_CALLS = 5000
CALIBRATION_ROUNDS = 15


class Span:
    """Totals for one named layer boundary."""

    __slots__ = ("calls", "total_ns", "self_ns", "amount", "samples")

    def __init__(self, keep_samples: bool = False):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.amount = 0
        self.samples = array("q") if keep_samples else None


def _file_size(path) -> int:
    return os.stat(path).st_size


def _noop(_):
    return None


class Tracer:
    """Collects spans while installed; see :func:`install_layer_patches` for the sites."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self._stack = [0]  # child time accumulated by each open span; [0] is the root
        self.patches: list[tuple[object, str, object]] = []  # (owner, attr, original)
        self.call_cost_ns: int | None = None  # set by calibrate() on the first patch

    def calibrate(self) -> int:
        """Time one wrapped call adds to its caller's self time unmeasured, in ns.

        Each wrapper times its bookkeeping after the call and hands it to the
        caller as child time.  Entering and leaving the wrapper lie outside
        its clock reads, so they are calibrated once: a loop of wrapped
        one-argument no-op calls is timed the way a caller span is (duration
        minus the children's hand-over) and compared with the same loop of
        plain calls; the median over rounds is kept.
        """
        scratch = Tracer()  # its spans and stack are thrown away
        wrapped = scratch._wrap(_noop, "calibration", False, False, None, 0)
        stack = scratch._stack
        clock = time.perf_counter_ns
        loop = range(CALIBRATION_CALLS)
        costs = []
        for _ in range(CALIBRATION_ROUNDS):
            t0 = clock()
            for _ in loop:
                _noop(None)
            plain = clock() - t0
            stack[-1] = 0
            t0 = clock()
            for _ in loop:
                wrapped(None)
            caller_self = clock() - t0 - stack[-1]
            costs.append((caller_self - plain) / CALIBRATION_CALLS)
        return max(0, round(median(costs)))

    def span(self, name: str, keep_samples: bool = False) -> Span:
        if name not in self.spans:
            self.spans[name] = Span(keep_samples)
        return self.spans[name]

    def _wrap(self, original, name: str, by_name: bool, keep_samples: bool, amount, cost_ns):
        stack = self._stack
        clock = time.perf_counter_ns
        fixed = None if by_name else self.span(name, keep_samples)
        spans_by_owner: dict[str, Span] = {}

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                child = stack.pop()
                span = fixed
                if span is None:
                    owner = args[0].name
                    span = spans_by_owner.get(owner)
                    if span is None:
                        span = spans_by_owner[owner] = self.span(
                            name.format(owner), keep_samples
                        )
                span.calls += 1
                span.total_ns += dur
                span.self_ns += dur - child
                if span.samples is not None:
                    span.samples.append(dur)
                if amount is not None:
                    span.amount += amount(*args, **kwargs)
                stack[-1] += dur + cost_ns + clock() - t1

        traced.__wrapped__ = original
        return traced

    def patch(
        self,
        owner,
        attr: str,
        name: str,
        *,
        by_name: bool = False,
        keep_samples: bool = False,
        amount=None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording into span ``name``.

        With ``by_name`` the span name is ``name.format(self.name)`` of the
        called method's instance, so one class can feed several spans.
        ``amount(*args)`` is evaluated after each call and summed, e.g. the
        size of the file the call wrote.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self.patches.append((owner, attr, original))
        if self.call_cost_ns is None:
            self.call_cost_ns = self.calibrate()
        wrapper = self._wrap(original, name, by_name, keep_samples, amount, self.call_cost_ns)
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        try:
            install_layer_patches(self)
            yield self
        finally:
            self.restore()


def install_layer_patches(tracer: Tracer) -> None:
    """Wrap the public calls into each adaptsim layer."""
    from adaptsim import config, controllers, harness, profiling, simenv

    tracer.patch(config, "load_config", "config.load_config")
    tracer.patch(config, "generate_synthetic_profile", "profiling.generate")
    tracer.patch(harness, "sort_by_objective", "service_model.sort")
    tracer.patch(profiling.ProfileTable, "lookup", "profiling.lookup")
    tracer.patch(simenv.Environment, "reset", "simenv.reset")
    tracer.patch(simenv.Environment, "step", "simenv.step")
    tracer.patch(simenv.CpuChain, "step", "simenv.cpu_step")
    for cls in (
        controllers.StaticController,
        controllers.HeuristicController,
        controllers.QLearningController,
    ):
        tracer.patch(
            cls, "decide", "controllers.{}.decide", by_name=True, keep_samples=True
        )
    tracer.patch(controllers, "q_update", "controllers.q_update")
    tracer.patch(
        harness,
        "qtable_save",
        "controllers.qtable_save",
        amount=lambda table, path: _file_size(path),
    )
    tracer.patch(harness, "qtable_load_or_zeros", "controllers.qtable_load")
    tracer.patch(harness, "run_experiment", "harness.run_experiment")
    tracer.patch(harness, "run_episode", "harness.run_episode")
    tracer.patch(
        harness,
        "write_run_trace",
        "harness.write_run_trace",
        amount=lambda path, records: _file_size(path),
    )
    tracer.patch(harness, "emit_report", "harness.emit_report")
