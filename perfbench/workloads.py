"""The benchmark's workloads: each builds the program from its seed,
runs one iteration per :meth:`Workload.step`, and checks every output.

Every input — model weights, minibatches, images, arrival traces — is
drawn from ``numpy.random.default_rng([seed, k])`` before timing starts;
the program only ever sees the generated arrays.  Program entry points
are called through their module (``core.to_split_cnn``, not an imported
name) so the traced run's wrappers apply.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, List, Tuple

import numpy as np
from scipy import stats as scipy_stats

from repro import compile as rcompile
from repro import core, graph as rgraph, hmms, sim
from repro.graph import GraphExecutor
from repro.infer import GridSplitter, PatchInferer
from repro.models import resnet18, small_vgg, vgg11
from repro.nn import CrossEntropyLoss
from repro.serve import (
    BATCH, INTERACTIVE, STANDARD, DenseRequest, FleetBenchConfig,
    FleetScheduler, TenantConfig, fleet_arrivals,
)
from repro.tensor import Tensor

from .metrics import TENANTS, SpanStats

MIB = float(1 << 20)


class CheckFailed(Exception):
    """A program output differs from its reference."""


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Byte identity (``a.tobytes() == b.tobytes()`` without the copies)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.reshape(-1).view(np.uint8),
                               b.reshape(-1).view(np.uint8)))


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Workload:
    """One closed-loop workload.  ``setup`` builds the program and warms
    it up; ``step`` is the timed iteration; the rest is untimed."""

    name = ""
    why = ""
    #: input pixels per image, for ``mpix_per_s``
    pixels = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: worst-predicted ops and other non-metric facts for the report
        self.notes: Dict[str, Any] = {}

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def setup(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        """Reference checks against independent paths (untimed)."""

    def prepare(self, index: int) -> None:
        """Untimed per-iteration preparation."""

    def step(self, index: int) -> Any:
        raise NotImplementedError

    def verify(self, index: int, output: Any) -> None:
        raise NotImplementedError

    def work(self, output: Any) -> Tuple[int, int]:
        """(operations attempted, operations failed) in one iteration; one
        operation is one image (a request on the fleet)."""
        return 1, 0

    def images(self, output: Any) -> int:
        return 1

    def own_metrics(self, named: Dict[str, Any]) -> Dict[str, float]:
        """End-to-end numbers only this workload has, printed by name
        beside the shared ``named`` ones after the timed loop."""
        return {}

    def untraced_layers(self, step_ms: float) -> Dict[str, float]:
        """Per-layer numbers measured with tracing off."""
        return {}

    def layers(self, stats: SpanStats) -> Dict[str, float]:
        """Workload-specific per-layer numbers from the traced run."""
        return {}

    def planned_peak_mib(self) -> float:
        return 0.0

    def trace_mismatches(self, stats: SpanStats) -> List[str]:
        """Trace-derived counts that disagree with the program counts
        they mirror (empty when the trace checks out)."""
        return []


# ----------------------------------------------------------------------
# IR steps: training and batch-1 inference through a CompiledPlan
# ----------------------------------------------------------------------
class _IRStep(Workload):
    batch = 1
    depth = 1.0
    inputs_rotated = 1

    def make_model(self) -> Any:
        raise NotImplementedError

    def build_graph(self, model: Any) -> Any:
        raise NotImplementedError

    def args(self, index: int) -> Tuple[np.ndarray, Any]:
        raise NotImplementedError

    def setup(self) -> None:
        model = core.to_split_cnn(self.make_model(), depth=self.depth,
                                  num_splits=(2, 2))
        graph = self.build_graph(model)
        params = GraphExecutor.parameters_from_model(graph, model)
        self.ops_before = len(graph.ops)
        rcompile.compile_graph(graph, params=params)
        planner = hmms.HMMSPlanner()
        plan = planner.plan(graph)
        hmms.verify_plan(plan, device=planner.device,
                         cost_model=planner.cost_model).raise_if_failed()
        self.sim_result = sim.GPUSimulator().run(plan)
        self.executor = rcompile.CompiledPlan(graph, params)
        self.model, self.graph, self.params = model, graph, params
        self.planner, self.plan = planner, plan
        self.executor.run(*self.args(0))            # warm-up

    def step(self, index: int) -> Dict[str, np.ndarray]:
        return self.executor.run(*self.args(index))

    def verify(self, index: int, output: Dict[str, np.ndarray]) -> None:
        reference = self.references[index % self.inputs_rotated]
        require(output.keys() == reference.keys(), "output names changed")
        for key, value in reference.items():
            require(same_bytes(output[key], value),
                    f"{key} differs from the first step on input "
                    f"{index % self.inputs_rotated}")

    def images(self, output: Any) -> int:
        return self.batch

    def planned_peak_mib(self) -> float:
        return self.plan.device_general_peak / MIB

    def untraced_layers(self, step_ms: float) -> Dict[str, float]:
        """The same model lowered with no passes, against the compiled
        step: the fusion speedup with both of its bases."""
        graph = self.build_graph(self.model)
        plan = rcompile.CompiledPlan(
            graph, GraphExecutor.parameters_from_model(graph, self.model))
        self.verify(0, plan.run(*self.args(0)))
        times = []
        deadline = time.perf_counter() + 1.0
        while len(times) < 3 or time.perf_counter() < deadline:
            started = time.perf_counter()
            plan.run(*self.args(len(times)))
            times.append(time.perf_counter() - started)
        unfused = float(np.median(times)) * 1e3
        return {"compile.unfused_step_ms": unfused,
                "compile.fused_step_ms": step_ms,
                "compile.fusion_speedup": unfused / step_ms}

    def layers(self, stats: SpanStats) -> Dict[str, float]:
        graph, cost_model = self.graph, self.planner.cost_model
        ops = [op for op in graph.ops if op.id in stats.op_times]
        predicted = [cost_model.cost(graph, op).seconds for op in ops]
        measured = [float(np.median(stats.op_times[op.id])) for op in ops]
        rho = float(scipy_stats.spearmanr(predicted, measured).statistic)
        miss = np.abs(scipy_stats.rankdata(predicted)
                      - scipy_stats.rankdata(measured))
        self.notes["worst_predicted_ops"] = [
            {"op": ops[k].name, "op_id": ops[k].id,
             "model_us": predicted[k] * 1e6, "measured_us": measured[k] / 1e3}
            for k in np.argsort(-miss, kind="stable")[:5]]
        return {
            "graph.ops": float(self.ops_before),
            "compile.ops": float(len(graph.ops)),
            "profile.cost_rank_corr": rho,
            "hmms.planned_peak_mib": self.planned_peak_mib(),
            "hmms.offloaded_mib": self.plan.host_pool_bytes / MIB,
            "sim.step_ms": self.sim_result.total_time * 1e3,
            "sim.stall_ms": self.sim_result.stall_time * 1e3,
        }

    def trace_mismatches(self, stats: SpanStats) -> List[str]:
        problems = []
        if any(calls != 1 for calls in stats.calls_per_step("compile.run")):
            problems.append("a step did not make exactly one plan run")
        ops = len(self.graph.ops)
        bad = [k for k in stats.kernels_per_run if k != ops]
        if bad:
            problems.append(f"kernel spans per plan run {bad[:3]} != "
                            f"{ops} compiled ops")
        return problems


class TrainVGG11Split(_IRStep):
    name = "train-vgg11-split"
    why = ("VGG-11 training steps, split 2x2 at depth 1.0, batch 8: conv "
           "backward kernels and fused sibling convs dominate (BLAS-bound)")
    batch = 8
    depth = 1.0
    inputs_rotated = 3
    pixels = 32 * 32

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = self.rng(1)
        self.minibatches = [
            (rng.standard_normal((self.batch, 3, 32, 32)),
             rng.integers(0, 10, size=self.batch))
            for _ in range(self.inputs_rotated)]

    def make_model(self) -> Any:
        return vgg11(num_classes=10, rng=self.rng(0))

    def build_graph(self, model: Any) -> Any:
        return rgraph.build_training_graph(model, self.batch)

    def args(self, index: int) -> Tuple[np.ndarray, Any]:
        return self.minibatches[index % self.inputs_rotated]

    def check(self) -> None:
        """Loss and every gradient against the eager autograd step, which
        shares only leaf kernels with the graph path."""
        names = [t.name for t in sorted(self.graph.tensors.values(),
                                        key=lambda t: t.id)
                 if t.kind == "parameter"]
        params = [p for _, p in self.model.named_parameters()]
        require(len(names) == len(params), "graph/model parameter count")
        self.references = []
        for index in range(self.inputs_rotated):
            x, y = self.args(index)
            output = self.step(index)
            self.model.train()
            self.model.zero_grad()
            loss = CrossEntropyLoss()(self.model(Tensor(x, dtype=np.float64)),
                                      y)
            loss.backward()
            require(np.allclose(output["loss"], loss.item(), rtol=1e-10,
                                atol=0.0), f"loss on minibatch {index}")
            for name, param in zip(names, params):
                require(np.allclose(output[f"grad({name})"], param.grad,
                                    rtol=1e-8, atol=1e-10),
                        f"grad({name}) on minibatch {index}")
            self.references.append({key: value.copy()
                                    for key, value in output.items()})


class InferResNet18SplitB1(_IRStep):
    name = "infer-resnet18-split-b1"
    why = ("ResNet-18 batch-1 forward steps, split 2x2 at depth 0.5, BN "
           "folded: ~145 small ops and no backward, so dispatch weighs more "
           "than in training")
    batch = 1
    depth = 0.5
    inputs_rotated = 8
    pixels = 32 * 32

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = self.rng(1)
        self.images_in = [rng.standard_normal((1, 3, 32, 32))
                          for _ in range(self.inputs_rotated)]

    def make_model(self) -> Any:
        model = resnet18(num_classes=10, rng=self.rng(0))
        # Seeded running statistics, so the BN fold is not an identity.
        rng = self.rng(2)
        for name, buffer in model.named_buffers():
            shape, dtype = buffer.data.shape, buffer.data.dtype
            if name.endswith("running_mean"):
                buffer.data = rng.normal(0.0, 0.1, shape).astype(dtype)
            elif name.endswith("running_var"):
                buffer.data = rng.uniform(0.5, 1.5, shape).astype(dtype)
        return model

    def build_graph(self, model: Any) -> Any:
        return rgraph.build_inference_graph(model, self.batch,
                                            eval_batchnorm=True)

    def args(self, index: int) -> Tuple[np.ndarray, Any]:
        return self.images_in[index % self.inputs_rotated], None

    def check(self) -> None:
        """Logits against the eager eval-mode forward pass."""
        self.model.eval()
        self.references = []
        for index, x in enumerate(self.images_in):
            logits = self.step(index)["logits"]
            eager = self.model(Tensor(x, dtype=np.float64)).data
            require(np.allclose(logits, eager, rtol=1e-8, atol=1e-10),
                    f"logits on image {index}")
            self.references.append({"logits": logits.copy()})


# ----------------------------------------------------------------------
# Patch inference
# ----------------------------------------------------------------------
class PatchSmallVGG256(Workload):
    name = "patch-smallvgg-256"
    why = ("small_vgg features on seeded 256x256 images, grid 4x4, 64 MiB "
           "budget: the only workload using repro.infer tiling and merging")
    side = 256
    grid = (4, 4)
    budget = 64 << 20
    inputs_rotated = 4
    pixels = 256 * 256

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = self.rng(1)
        self.images_in = [rng.standard_normal((1, 3, self.side, self.side))
                          for _ in range(self.inputs_rotated)]

    def setup(self) -> None:
        inferer = PatchInferer(small_vgg(rng=self.rng(0)),
                               compile_plans=True, memory_budget=self.budget)
        self.report = inferer.plan_dense((self.side, self.side), self.grid)
        self.inferer = inferer
        self.step(0)                                # warm-up
        self.tiling = GridSplitter(self.grid).plan(inferer.model,
                                                   (self.side, self.side))
        #: (cached plan, tiles) per variant at the discovered patch batch
        self.entries = [
            (inferer.entry_for(variant, self.report.patch_batch), len(tiles))
            for variant, tiles in self.tiling.variants().items()]
        self.cache_mark = (inferer.cache.hits, inferer.cache.misses)

    def check(self) -> None:
        """The valid merge against the unsplit single pass."""
        self.references = [self.inferer.run_unsplit(x)
                           for x in self.images_in]

    def step(self, index: int) -> np.ndarray:
        return self.inferer.infer(self.images_in[index % self.inputs_rotated],
                                  grid=self.grid, merge="valid")

    def verify(self, index: int, output: np.ndarray) -> None:
        require(same_bytes(output,
                           self.references[index % self.inputs_rotated]),
                f"merged output differs from the unsplit pass on image "
                f"{index % self.inputs_rotated}")

    def planned_peak_mib(self) -> float:
        return max(entry.plan.device_general_peak
                   for entry, _ in self.entries) / MIB

    def layers(self, stats: SpanStats) -> Dict[str, float]:
        report = self.report
        halo = sum(t.in_shape[0] * t.in_shape[1] for t in self.tiling.tiles)
        hits = self.inferer.cache.hits - self.cache_mark[0]
        misses = self.inferer.cache.misses - self.cache_mark[1]
        return {
            "infer.patches": float(report.patches),
            "infer.variants": float(report.variants),
            "infer.patch_batch": float(report.patch_batch),
            "infer.executions": float(report.executions),
            "infer.useful_ratio":
                report.patches / (report.executions * report.patch_batch),
            "infer.halo_ratio": halo / float(self.side * self.side),
            "infer.exec_ms": stats.per_step_ms("compile.run"),
            "infer.extract_ms": stats.per_step_ms("infer.extract"),
            "infer.merge_ms": stats.per_step_ms("infer.merge"),
            "infer.cache_hit_ratio": hits / max(1, hits + misses),
            "hmms.planned_peak_mib": self.planned_peak_mib(),
        }

    def trace_mismatches(self, stats: SpanStats) -> List[str]:
        problems = []
        runs = stats.calls_per_step("compile.run")
        if any(count != self.report.executions for count in runs):
            problems.append(f"plan runs per image {runs[:3]} != "
                            f"DenseReport.executions "
                            f"{self.report.executions}")
        tiles = stats.calls_per_step("infer.extract")
        if any(count != self.report.patches for count in tiles):
            problems.append(f"extracted tiles per image {tiles[:3]} != "
                            f"{self.report.patches} patches")
        kernels = sum(len(entry.graph.ops) * -(-count //
                                               self.report.patch_batch)
                      for entry, count in self.entries)
        per_image = [sum(stats.step_calls[name][k]
                         for name in stats.step_calls
                         if name.startswith("tensor."))
                     for k in range(len(stats.step_roots))]
        if any(count != kernels for count in per_image):
            problems.append(f"kernel spans per image {per_image[:3]} != "
                            f"{kernels} planned kernel calls")
        return problems


# ----------------------------------------------------------------------
# Fleet serving (simulated clock, replayed as fast as the host allows)
# ----------------------------------------------------------------------
FLEET_TENANTS = [
    TenantConfig(name=TENANTS[0], model="small_resnet", batch_cap=64,
                 slo=INTERACTIVE, rps=100_000.0, queue_depth=512),
    TenantConfig(name=TENANTS[1], model="small_resnet", split=4,
                 batch_cap=64, slo=STANDARD, rps=60_000.0, queue_depth=512),
    TenantConfig(name=TENANTS[2], model="small_vgg", batch_cap=64,
                 slo=BATCH, rps=40_000.0, queue_depth=512),
]


class Fleet3Tenant(Workload):
    name = "fleet-3tenant"
    why = ("three-tenant continuous-batching fleet, numeric off, open-loop "
           "Poisson trace: queue, batcher, ledger and autoscaler host work")
    duration = 0.125                   # simulated seconds, ~25k arrivals
    pixels = 32 * 32

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        started = time.perf_counter()
        self.trace = fleet_arrivals(FleetBenchConfig(
            tenants=FLEET_TENANTS, duration=self.duration, seed=seed))
        self.notes["trace_gen_s"] = time.perf_counter() - started
        self.notes["trace_arrivals"] = len(self.trace)

    def setup(self) -> None:
        self.fleet = FleetScheduler(FLEET_TENANTS)
        self.fresh = True

    def prepare(self, index: int) -> None:
        if not self.fresh:
            self.fleet = FleetScheduler(FLEET_TENANTS)
        self.fresh = False
        self.cache_mark = (self.fleet.cache.hits, self.fleet.cache.misses)
        self.requests = [dataclasses.replace(r) for r in self.trace]

    def step(self, index: int) -> Any:
        return self.fleet.run(self.requests)

    def _signature(self, metrics: Any) -> Tuple[Any, ...]:
        return tuple(
            (name, m.arrived, m.completed_requests, m.rejected_queue_full,
             m.expired, m.batches, metrics.joins[name],
             metrics.scale_ups[name], m.latency.p(99))
            for name, m in sorted(metrics.per_tenant.items())) + (
            metrics.scale_up_refusals, self.fleet.ledger.peak_reserved)

    def check(self) -> None:
        """One untimed replay fixes the reference counts every timed
        replay of the same trace must reproduce exactly."""
        self.reference = None
        self.prepare(-1)
        metrics = self.step(-1)
        self.verify(-1, metrics)
        self.reference = self._signature(metrics)

    def verify(self, index: int, metrics: Any) -> None:
        fleet = self.fleet
        still = fleet.still_queued()
        require(all(count == 0 for count in still.values()),
                f"requests left queued: {still}")
        try:
            metrics.check_accounting(still)
        except AssertionError as error:
            raise CheckFailed(f"accounting: {error}") from None
        cache = fleet.cache
        require(cache.misses == len(cache) + cache.evictions,
                "plan cache: misses != resident + evictions")
        tenants = metrics.per_tenant.values()
        require(sum(m.arrived for m in tenants) == len(self.trace),
                "per-tenant arrivals do not sum to the trace")
        require(sum(m.batches for m in tenants)
                == sum(t.engine.executed_batches
                       for t in fleet.tenants.values()),
                "per-tenant batches do not sum to the engines' batches")
        if self.reference is not None:
            require(self._signature(metrics) == self.reference,
                    "replay counts differ from the reference replay")

    def work(self, metrics: Any) -> Tuple[int, int]:
        tenants = metrics.per_tenant.values()
        return (sum(m.arrived for m in tenants),
                sum(m.rejected_queue_full + m.expired for m in tenants))

    def images(self, metrics: Any) -> int:
        return self.work(metrics)[0]

    def tenant_p99_ms(self) -> Dict[str, float]:
        """Simulated p99 latency per tenant in the last replay."""
        return {name: m.latency.p(99) * 1e3
                for name, m in self.fleet.metrics.per_tenant.items()}

    def own_metrics(self, named: Dict[str, Any]) -> Dict[str, float]:
        return {"req_per_host_s": named["img_per_s"],
                "sim_p99_ms": max(self.tenant_p99_ms().values())}

    def layers(self, stats: SpanStats) -> Dict[str, float]:
        fleet = self.fleet
        metrics = fleet.metrics
        tenants = list(metrics.per_tenant.values())
        # Images over bucket slots at dispatch (joiners excluded).
        useful = slots = 0
        for tenant in fleet.tenants.values():
            sizes = metrics.tenant(tenant.config.name).batch_sizes
            for images, count in sizes.items():
                useful += images * count
                slots += tenant.engine.bucket(images) * count
        p99 = self.tenant_p99_ms()
        arrived = sum(m.arrived for m in tenants)
        calls = sum(stats.calls_per_step("serve.entry_for"))
        entry_ns = sum(stats.step_self.get("serve.entry_for", [0]))
        loop_ns = stats.step_self.get("serve.run", [0])
        hits = fleet.cache.hits - self.cache_mark[0]
        misses = fleet.cache.misses - self.cache_mark[1]
        out = {
            "serve.arrived": float(arrived),
            "serve.completed": float(sum(m.completed_requests
                                         for m in tenants)),
            "serve.rejected": float(sum(m.rejected_queue_full
                                        for m in tenants)),
            "serve.expired": float(sum(m.expired for m in tenants)),
            "serve.batches": float(sum(m.batches for m in tenants)),
            "serve.fill_ratio": useful / max(1, slots),
            "serve.joins": float(sum(metrics.joins.values())),
            "serve.sim_p99_ms": max(p99.values()),
            "serve.entry_for_us": entry_ns / max(1, calls) / 1e3,
            "serve.execute_calls":
                float(max(stats.calls_per_step("serve.execute"), default=0)),
            "serve.loop_us_per_req":
                float(np.median(loop_ns)) / max(1, arrived) / 1e3,
            "serve.cache_hit_ratio": hits / max(1, hits + misses),
            "serve.scale_ups": float(sum(metrics.scale_ups.values())),
            "serve.scale_up_refusals": float(metrics.scale_up_refusals),
            "serve.ledger_peak_mib": fleet.ledger.peak_reserved / MIB,
        }
        for name, value in p99.items():
            out[f"serve.p99_ms.{name}"] = value
        return out

    def trace_mismatches(self, stats: SpanStats) -> List[str]:
        problems = []
        metrics = self.fleet.metrics
        batches = sum(m.batches for m in metrics.per_tenant.values())
        entry = stats.calls_per_step("serve.entry_for")
        if any(count != batches for count in entry):
            problems.append(f"ServingEngine.entry_for spans per replay "
                            f"{entry[:3]} != {batches} fleet batches")
        # Dense requests are the only batches the fleet hands to
        # ServingEngine.execute; this trace has none.
        dense = sum(isinstance(r, DenseRequest) for r in self.trace)
        execute = stats.calls_per_step("serve.execute")
        if any(count != dense for count in execute):
            problems.append(f"ServingEngine.execute spans per replay "
                            f"{execute[:3]} != {dense} dense batches")
        return problems


WORKLOADS = {w.name: w for w in (TrainVGG11Split, InferResNet18SplitB1,
                                 PatchSmallVGG256, Fleet3Tenant)}
