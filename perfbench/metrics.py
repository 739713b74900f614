"""Metric names, the program entry points the traced run wraps, and the
per-layer numbers derived from spans.

``END_TO_END`` and ``PER_LAYER`` are the naming contract: they must
match ``BENCHMARK.json`` (a test checks it), and ``README.md`` in this
directory documents each one.  Every workload reports every metric; a
per-layer metric of a layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from .trace import KERNEL_PREFIX, Tracer

# (name, unit, better, bound)
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("step_ms_p50", "ms", "lower", 0.25),
    ("img_per_s", "1/s", "higher", 0.25),
    ("peak_mib", "MiB", "lower", 0.05),
]

#: Registry op types reported one by one: each took at least 2% of a step
#: on some workload when the benchmark was defined.  Every other op type
#: (relu, add, split, concat, linear, cross_entropy, ...) is summed under
#: ``other``.
KERNEL_OPS = [
    "conv2d", "conv2d_relu", "conv2d_siblings", "conv2d_relu_siblings",
    "conv2d_bwd_data_siblings", "conv2d_bwd_weight", "maxpool2d",
    "maxpool2d_bwd", "relu_bwd", "bn_affine", "grad_acc", "other",
]

TENANTS = ["resnet-live", "resnet-split4", "vgg-bulk"]

# (name, unit, better, kind): kind "count" and "model" values repeat
# exactly for a seed; "wall" values are host time.
PER_LAYER: List[Tuple[str, str, str, str]] = [
    ("core.transform_s", "s", "lower", "wall"),
    ("graph.build_s", "s", "lower", "wall"),
    ("graph.ops", "count", "lower", "count"),
    ("compile.passes_s", "s", "lower", "wall"),
    ("compile.lower_s", "s", "lower", "wall"),
    ("compile.ops", "count", "lower", "count"),
    ("compile.dispatch_ms", "ms", "lower", "wall"),
    ("compile.fusion_speedup", "x", "higher", "wall"),
    ("compile.unfused_step_ms", "ms", "lower", "wall"),
    ("compile.fused_step_ms", "ms", "lower", "wall"),
    *[item for op in KERNEL_OPS for item in (
        (f"tensor.{op}.ms", "ms", "lower", "wall"),
        (f"tensor.{op}.calls", "count", "lower", "count"))],
    ("tensor.kernel_share", "ratio", "higher", "wall"),
    ("profile.cost_rank_corr", "rho", "higher", "wall"),
    ("hmms.plans", "count", "lower", "count"),
    ("hmms.plan_s", "s", "lower", "wall"),
    ("hmms.verify_s", "s", "lower", "wall"),
    ("hmms.planned_peak_mib", "MiB", "lower", "model"),
    ("hmms.offloaded_mib", "MiB", "lower", "model"),
    ("hmms.measured_peak_mib", "MiB", "lower", "wall"),
    ("hmms.realisation", "ratio", "lower", "wall"),
    ("sim.run_s", "s", "lower", "wall"),
    ("sim.step_ms", "ms", "lower", "model"),
    ("sim.stall_ms", "ms", "lower", "model"),
    ("infer.patches", "count", "lower", "count"),
    ("infer.variants", "count", "lower", "count"),
    ("infer.patch_batch", "count", "higher", "count"),
    ("infer.executions", "count", "lower", "count"),
    ("infer.useful_ratio", "ratio", "higher", "count"),
    ("infer.halo_ratio", "ratio", "lower", "count"),
    ("infer.exec_ms", "ms", "lower", "wall"),
    ("infer.extract_ms", "ms", "lower", "wall"),
    ("infer.merge_ms", "ms", "lower", "wall"),
    ("infer.cache_hit_ratio", "ratio", "higher", "count"),
    ("serve.arrived", "count", "higher", "count"),
    ("serve.completed", "count", "higher", "count"),
    ("serve.rejected", "count", "lower", "count"),
    ("serve.expired", "count", "lower", "count"),
    ("serve.batches", "count", "lower", "count"),
    ("serve.fill_ratio", "ratio", "higher", "count"),
    ("serve.joins", "count", "higher", "count"),
    *[(f"serve.p99_ms.{tenant}", "ms", "lower", "model")
      for tenant in TENANTS],
    ("serve.sim_p99_ms", "ms", "lower", "model"),
    ("serve.entry_for_us", "us", "lower", "wall"),
    ("serve.execute_calls", "count", "lower", "count"),
    ("serve.loop_us_per_req", "us", "lower", "wall"),
    ("serve.cache_hit_ratio", "ratio", "higher", "count"),
    ("serve.scale_ups", "count", "lower", "count"),
    ("serve.scale_up_refusals", "count", "lower", "count"),
    ("serve.ledger_peak_mib", "MiB", "lower", "model"),
    ("trace.overhead_ms", "ms", "lower", "wall"),
]


def install(tracer: Tracer) -> None:
    """Wrap the program's public entry points and registry kernels.

    Span names are ``<layer>.<what>``; the layer is the ``repro``
    subpackage that owns the entry point.
    """
    from repro import core, graph, hmms
    from repro.compile import CompiledPlan, Pipeline
    from repro.graph import registry
    from repro.infer import (
        BlendMerger, PatchInferer, PatchSpec, build_dense_graph,
        build_patch_graph,
    )
    from repro.serve import FleetScheduler, ServingEngine
    from repro.sim import GPUSimulator

    tracer.patch_kernels(registry.REGISTRY)
    tracer.patch_function(core.to_split_cnn, "core.transform")
    for build in (graph.build_training_graph, graph.build_inference_graph,
                  build_patch_graph, build_dense_graph):
        tracer.patch_function(build, "graph.build")
    tracer.patch_function(hmms.verify_plan, "hmms.verify")
    for owner, attr, name in [
            (Pipeline, "run", "compile.passes"),
            (CompiledPlan, "__init__", "compile.lower"),
            (CompiledPlan, "run", "compile.run"),
            (hmms.HMMSPlanner, "plan", "hmms.plan"),
            (GPUSimulator, "run", "sim.run"),
            (PatchInferer, "entry_for", "infer.entry_for"),
            (PatchSpec, "extract", "infer.extract"),
            (BlendMerger, "merge", "infer.merge"),
            (ServingEngine, "entry_for", "serve.entry_for"),
            (ServingEngine, "execute", "serve.execute"),
            (FleetScheduler, "run", "serve.run")]:
        tracer.patch_attribute(owner, attr, name)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


class SpanStats:
    """Per-root aggregates of a traced run: what each ``bench.setup`` and
    ``bench.step`` root contains, by span name."""

    def __init__(self, tracer: Tracer) -> None:
        spans = tracer.spans
        own = tracer.self_times()
        top = tracer.roots()
        setup = next((i for i, s in enumerate(spans)
                      if s.parent < 0 and s.name == "bench.setup"), None)
        self.step_roots = [i for i, s in enumerate(spans)
                           if s.parent < 0 and s.name == "bench.step"]
        position = {root: k for k, root in enumerate(self.step_roots)}
        steps = len(self.step_roots)
        # name -> total / self ns and calls, per step and for the setup
        self.step_total = defaultdict(lambda: [0] * steps)
        self.step_self = defaultdict(lambda: [0] * steps)
        self.step_calls = defaultdict(lambda: [0] * steps)
        self.setup_total: Dict[str, int] = defaultdict(int)
        self.setup_calls: Dict[str, int] = defaultdict(int)
        #: kernel wall ns per op id, one list entry per step
        self.op_times: Dict[int, List[int]] = defaultdict(list)
        #: kernel spans per compile.run span (per plan execution)
        self.kernels_per_run: List[int] = []
        run_kernels: Dict[int, int] = {}
        for index, span in enumerate(spans):
            root = top[index]
            if root == index:
                continue
            if root == setup:
                self.setup_total[span.name] += span.duration
                self.setup_calls[span.name] += 1
            elif root in position:
                k = position[root]
                self.step_total[span.name][k] += span.duration
                self.step_self[span.name][k] += own[index]
                self.step_calls[span.name][k] += 1
                if span.args is not None:
                    self.op_times[span.args[0]].append(span.duration)
                if span.name == "compile.run":
                    run_kernels[index] = 0
                elif (span.name.startswith(KERNEL_PREFIX)
                      and span.parent in run_kernels):
                    run_kernels[span.parent] += 1
        self.kernels_per_run = list(run_kernels.values())
        self.step_ns = [spans[root].duration for root in self.step_roots]

    def setup_s(self, name: str) -> float:
        return self.setup_total.get(name, 0) / 1e9

    def per_step_ms(self, name: str, self_time: bool = False) -> float:
        """Median over steps of the time spent in spans ``name``."""
        table = self.step_self if self_time else self.step_total
        if name not in table:
            return 0.0
        return median(table[name]) / 1e6

    def calls_per_step(self, name: str) -> List[int]:
        return list(self.step_calls.get(name, [0] * len(self.step_roots)))

    def layer_metrics(self) -> Dict[str, float]:
        """Every generic span-derived per-layer metric."""
        out: Dict[str, float] = {
            "core.transform_s": self.setup_s("core.transform"),
            "graph.build_s": self.setup_s("graph.build"),
            "compile.passes_s": self.setup_s("compile.passes"),
            "compile.lower_s": self.setup_s("compile.lower"),
            "hmms.plan_s": self.setup_s("hmms.plan"),
            "hmms.plans": float(self.setup_calls.get("hmms.plan", 0)),
            "hmms.verify_s": self.setup_s("hmms.verify"),
            "sim.run_s": self.setup_s("sim.run"),
            "compile.dispatch_ms": self.per_step_ms("compile.run",
                                                    self_time=True),
        }
        kernel_names = [name for name in self.step_total
                        if name.startswith(KERNEL_PREFIX)]
        named = {KERNEL_PREFIX + op for op in KERNEL_OPS}
        steps = len(self.step_roots)
        other_ns, other_calls = [0] * steps, [0] * steps
        for name in kernel_names:
            if name in named:
                continue
            for k in range(steps):
                other_ns[k] += self.step_total[name][k]
                other_calls[k] += self.step_calls[name][k]
        for op in KERNEL_OPS:
            if op == "other":
                ns, calls = other_ns, other_calls
            else:
                ns = self.step_total.get(KERNEL_PREFIX + op, [0] * steps)
                calls = self.step_calls.get(KERNEL_PREFIX + op, [0] * steps)
            out[f"tensor.{op}.ms"] = median(ns) / 1e6
            out[f"tensor.{op}.calls"] = float(median(calls))
        kernel_ns = sum(sum(self.step_self[name]) for name in kernel_names)
        out["tensor.kernel_share"] = \
            kernel_ns / sum(self.step_ns) if self.step_ns else 0.0
        return out
