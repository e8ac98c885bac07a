"""In-memory span tracer for one serial lisrate run.

`Tracer.install` wraps every public function of each layer module at every
module attribute that binds it, so calls between modules and within a module
both pass through a wrapper; nothing in the package is edited.  Each call
records a span (name, parent, start, end); a span's self time is its
duration minus the durations of its direct children.  Spans stay in memory
and are summarised once, after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("geometry", "channel", "mc_engine", "asymptotics", "baseline_mimo",
          "experiments", "cli")
# The per-(M, drop) and per-(L, drop) task functions of experiments; their
# spans are the roots of one task's work, reported as "experiments.task".
TASK_FUNCTIONS = ("_drop_task", "_l_task")
TASK_SPAN = "experiments.task"
# Spans whose growth of the process's peak RSS is recorded.
RSS_SPANS = ("experiments.make_drop", "mc_engine.run_monte_carlo")


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _crandn_values(args, result) -> dict:
    return {"mc_engine.crandn.values": int(result.size)}


def _compute_terms_flops(args, result) -> dict:
    """Computed, not counted: 8 real flops per complex multiply-add over the
    products of size n x M, i.e. the (n, M) x (M, P) GEMMs, the matvecs
    against the (M,) LOS vectors and the x and z reductions.  Terms of order
    M*P and n*P are left out."""
    drop, eps, g_des = args[:3]
    n, m = (eps.shape if eps.ndim == 2 else (1, eps.shape[0]))
    stochastic = g_des is not None
    units = 2 + (drop.desired.r_half.shape[1] if stochastic else 0)
    for link in drop.links:
        units += link.num_paths + (2 if stochastic else 1)
    return {"mc_engine.compute_terms.flops": 8 * n * m * units}


def _drop_factor_bytes(args, result) -> dict:
    """Bytes of the drop's dense correlation factors, computed from their
    shapes as the sum of 16*M*P over links."""
    factors = [link.r_half for link in result.links]
    if result.desired.r_half is not None:
        factors.append(result.desired.r_half)
    return {"channel.factor_bytes": sum(16 * f.shape[0] * f.shape[1]
                                        for f in factors)}


# Counters read from a call's positional arguments or its result.  channel.factor_bytes
# keeps the largest drop; the others are summed.
METERS = {
    "mc_engine.crandn": _crandn_values,
    "mc_engine.compute_terms": _compute_terms_flops,
    "experiments.make_drop": _drop_factor_bytes,
}
MAX_COUNTERS = ("channel.factor_bytes",)


class Tracer:
    def __init__(self):
        self.spans = []             # [name, parent index, start, end]
        self.stack = []
        self.counts = Counter()
        self.rss_growth = Counter()
        self.meter_errors = 0

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, fn in vars(module).items():
                if inspect.isfunction(fn) and not attr.startswith("_") \
                        and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        experiments = modules[LAYERS.index("experiments")]
        for attr in TASK_FUNCTIONS:
            fn = getattr(experiments, attr, None)
            if inspect.isfunction(fn):
                wrappers[fn] = self._wrap(TASK_SPAN, fn)
        for module in (package, *modules):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def _wrap(self, name, fn):
        meter = METERS.get(name)
        track_rss = name in RSS_SPANS
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            rss0 = maxrss_mb() if track_rss else 0.0
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if track_rss:
                self.rss_growth[name] += maxrss_mb() - rss0
            if meter is not None:
                self._count(meter, args, result)
            return result

        return traced

    def _count(self, meter, args, result) -> None:
        try:
            counts = meter(args, result)
        except (AttributeError, IndexError, TypeError, ValueError):
            self.meter_errors += 1
            return
        for key, value in counts.items():
            if key in MAX_COUNTERS:
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value

    def summary(self) -> dict:
        """Per-span-name calls, total and self seconds; task durations;
        and counters."""
        durations = [end - start for _, _, start, end in self.spans]
        child_time = [0.0] * len(self.spans)
        for (_, parent, _, _), dur in zip(self.spans, durations):
            if parent >= 0:
                child_time[parent] += dur
        by_name = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                       "self_s": 0.0})
        tasks = []
        for (name, _, _, _), dur, child in zip(self.spans, durations,
                                               child_time):
            entry = by_name[name]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child
            if name == TASK_SPAN:
                tasks.append(dur)
        return {"spans": dict(by_name), "tasks": tasks,
                "counts": dict(self.counts),
                "rss_growth_mb": dict(self.rss_growth),
                "meter_errors": self.meter_errors}


def layer_metrics(summary: dict, wall_s: float, gemm_peak: float) -> dict:
    """Per-layer metric values of one traced run."""
    spans = summary["spans"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            v["self_s"] for k, v in spans.items() if k.startswith(layer + "."))
    for name in ("channel.correlation_factor", "experiments.make_drop",
                 "experiments.write_csv", "asymptotics.asymptotic_rate_moments",
                 "asymptotics.interference_pair_covariance",
                 "asymptotics.rate_bound", "mc_engine.crandn",
                 "mc_engine.compute_terms", "baseline_mimo.build_mimo_drop"):
        out[f"{name}.self_s"] = span(name, "self_s")
    for name in ("channel.upa_steering", "channel.ula_steering",
                 "asymptotics.interference_pair_covariance"):
        out[f"{name}.calls"] = span(name, "calls")
    out["mc_engine.moments.self_s"] = span("mc_engine.run_monte_carlo",
                                           "self_s")
    counts, growth = summary["counts"], summary["rss_growth_mb"]
    out["channel.factor_bytes"] = counts.get("channel.factor_bytes", 0)
    out["mc_engine.crandn.values"] = counts.get("mc_engine.crandn.values", 0)
    flops = counts.get("mc_engine.compute_terms.flops", 0)
    kernel_s = out["mc_engine.compute_terms.self_s"]
    gflops = flops / kernel_s / 1e9 if kernel_s > 0 else 0.0
    out["mc_engine.compute_terms.flops"] = flops
    out["mc_engine.compute_terms.gflops"] = gflops
    out["mc_engine.compute_terms.roofline_frac"] = gflops / gemm_peak
    out["mc_engine.gemm_peak_gflops"] = gemm_peak
    for name in RSS_SPANS:
        out[f"{name}.rss_growth_mb"] = growth.get(name, 0.0)
    tasks = summary["tasks"]
    out[f"{TASK_SPAN}.self_s"] = span(TASK_SPAN, "self_s")
    out[f"{TASK_SPAN}.max_s"] = max(tasks, default=0.0)
    out[f"{TASK_SPAN}.imbalance"] = (max(tasks) * len(tasks) / sum(tasks)
                                     if tasks else 0.0)
    # Share of the traced wall spent in the layers' own functions: the self
    # time of every span except the cli entry point and the task roots,
    # which only dispatch.  The rest is their self time and the wall outside
    # any span.
    out["trace.coverage"] = (sum(v["self_s"] for v in spans.values())
                             - out["cli.self_s"]
                             - out[f"{TASK_SPAN}.self_s"]) / wall_s
    return out
