"""Outside-in tracing of fedsim's layers for the traced benchmark run.

Each hook replaces a function under the name its caller looks it up by
(``fedsim.engine.loss_and_grad`` is what the engine calls, while
``evaluate`` reaches ``fedsim.tasks.loss_and_grad`` and is not counted
there). No package code changes. Every call becomes a span; spans nest on
one stack, so a span's self time is its duration minus the durations of the
spans it directly contains.

A hook whose module or name no longer exists is recorded as missing for its
metric instead of counting zero calls, and the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import math
import time

# (metric, module the caller looks the name up in, name). Several hooks may
# feed one metric.
HOOKS = (
    ("tasks.loss_and_grad", "fedsim.engine", "loss_and_grad"),
    ("tasks.evaluate", "fedsim.engine", "evaluate"),
    ("optimizers.step", "fedsim.optimizers", "step_vanilla"),
    ("optimizers.step", "fedsim.optimizers", "step_momentum"),
    ("optimizers.step", "fedsim.optimizers", "step_fedprox"),
    ("optimizers.run_client_opt", "fedsim.engine", "run_client_opt"),
    ("params.axpy", "fedsim.optimizers", "axpy"),
    ("params.axpy", "fedsim.engine", "axpy"),
    ("params.scale", "fedsim.optimizers", "scale"),
    ("params.scale", "fedsim.controller", "scale"),
    ("params.zeros_like", "fedsim.optimizers", "zeros_like"),
    ("params.zeros_like", "fedsim.controller", "zeros_like"),
    ("params.weighted_average", "fedsim.engine", "weighted_average"),
    ("controller.cached_update", "fedsim.engine", "cached_update"),
    ("controller.record_fetch", "fedsim.engine", "record_fetch"),
    ("controller.compute_contribution", "fedsim.engine", "compute_contribution"),
    ("engine.run_policy", "fedsim.runner", "run_policy"),
    ("runner.export_metrics", "fedsim.runner", "export_metrics"),
    ("runner.save_model", "fedsim.params", "save"),
    ("runner.build_world", "fedsim.runner", "build_world"),
    ("partition.make_sizes", "fedsim.runner", "make_sizes"),
    ("partition.assign_classes", "fedsim.runner", "assign_classes"),
    ("config.parse_config", "fedsim.cli", "parse_config"),
)


class _Stat:
    __slots__ = ("durations", "self_s")

    def __init__(self):
        self.durations: list[float] = []
        self.self_s = 0.0


def _percentile_us(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of sorted seconds, in microseconds."""
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)] * 1e6


class Tracer:
    """Installs the hooks, collects span statistics and restores the names."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.missing: dict[str, list[str]] = {}
        self._installed: list[tuple[object, str, object]] = []
        # Child time of each open span; the bottom slot is the root.
        self._stack = [0.0]

    def install(self) -> None:
        for metric, module_name, attr in HOOKS:
            self.stats.setdefault(metric, _Stat())
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                fn = None
            if not callable(fn):
                self.missing.setdefault(metric, []).append(
                    f"{module_name}.{attr}"
                )
                continue
            setattr(module, attr, self._wrap(fn, self.stats[metric]))
            self._installed.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _wrap(self, fn, stat: _Stat):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                children = stack.pop()
                stack[-1] += dur
                stat.durations.append(dur)
                stat.self_s += dur - children

        return traced

    def report(self) -> dict:
        """{"spans": {metric: calls, busy_s, self_s, us_p50, us_p99},
        "missing": {metric: [hooks not found]}}"""
        spans = {}
        for metric, stat in self.stats.items():
            ordered = sorted(stat.durations)
            spans[metric] = {
                "calls": len(ordered),
                "busy_s": math.fsum(ordered),
                "self_s": stat.self_s,
                "us_p50": _percentile_us(ordered, 50),
                "us_p99": _percentile_us(ordered, 99),
            }
        return {"spans": spans, "missing": self.missing}
