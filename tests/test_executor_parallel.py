"""Wavefront executor determinism: serial vs parallel, any valid order.

The scheduler's contract is strong — for ANY worker count and ANY
dependency-respecting serialization, losses and gradients are
byte-identical to the serial walk of ``graph.ops``.  The matrix below
covers the model zoo shapes that stress it: split transforms (parallel
patch chains sharing weights through ``grad_acc`` accumulation),
residual graphs (multi-consumer activations), and dropout (per-op
seeded masks).  The same matrix holds the in-place ``grad_acc`` path of
eager plans to the allocating path of ``eager_free=False`` plans.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from repro.analysis import verify_lowering
from repro.compile import default_pipeline
from repro.core import to_split_cnn
from repro.graph import build_training_graph
from repro.graph.executor import CompiledPlan
from repro.models import ConvClassifier, small_resnet, small_vgg
from repro.nn import Conv2d, Dropout, Linear, ReLU, Sequential


def _dropout_model(rng):
    features = Sequential(
        Conv2d(3, 4, kernel_size=3, padding=1, rng=rng), ReLU())
    classifier = Sequential(
        Linear(4 * 8 * 8, 16, rng=rng), ReLU(), Dropout(0.5),
        Linear(16, 16, rng=rng), ReLU(), Dropout(0.5),
        Linear(16, 4, rng=rng),
    )
    return ConvClassifier(features, classifier, name="dropout-test",
                          input_size=8)


def _case(name):
    """(model, x, y) for one matrix entry; fresh weights per call."""
    rng = np.random.default_rng(0)
    if name == "dropout":
        model = _dropout_model(rng)
        x = rng.standard_normal((2, 3, 8, 8))
    else:
        base, _, splits = name.partition(":")
        make = {"vgg": small_vgg, "resnet": small_resnet}[base]
        model = make(num_classes=4, rng=rng)
        if splits:
            n = int(splits)
            model = to_split_cnn(model, depth=0.5, num_splits=(n, n))
        x = rng.standard_normal((2, 3, 32, 32))
    y = np.array([1, 3])
    return model, x, y


CASES = ["vgg", "vgg:2", "vgg:4", "resnet", "resnet:2", "dropout"]


def _count_live(slots):
    return sum(slot is not None for slot in slots)


def _outputs_bytes(outputs):
    return {key: value.tobytes() for key, value in outputs.items()}


class TestSerialParallelParity:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_byte_identical_loss_and_gradients(self, case, workers):
        model, x, y = _case(case)
        graph = build_training_graph(model, x.shape[0])
        params = CompiledPlan.parameters_from_model(graph, model)
        serial = CompiledPlan(graph, params).run(x, y)
        parallel = CompiledPlan(graph, params, workers=workers).run(x, y)
        assert serial.keys() == parallel.keys()
        assert _outputs_bytes(serial) == _outputs_bytes(parallel)

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("compiled", [False, True],
                             ids=["no-pass", "compiled"])
    def test_in_place_matches_allocating_reference(self, case, workers,
                                                   compiled):
        """The eager plan adds each dying parameter-gradient partial in
        place; the ``eager_free=False`` plan allocates every sum.  Same
        bytes, and the in-place run writes into no buffer the reference
        run or the next run still reads."""
        model, x, y = _case(case)
        graph = build_training_graph(model, x.shape[0])
        params = CompiledPlan.parameters_from_model(graph, model)
        if compiled:
            default_pipeline().run(graph, params=params)
        allocating = CompiledPlan(graph, params, workers=workers,
                                  eager_free=False)
        reference = allocating.run(x, y)
        expected = _outputs_bytes(reference)
        in_place = CompiledPlan(graph, params, workers=workers)
        # Only split graphs share weights across patches (grad_acc); the
        # residual cases' activation-gradient chains must stay out.
        assert any(in_place._in_place) == (":" in case)
        assert not verify_lowering(in_place)
        first = in_place.run(x, y)
        assert _outputs_bytes(first) == expected
        # A later step on another input leaves the caller's arrays from
        # earlier runs, and the persistent arrays every run reads, as
        # they were.
        in_place.run(2.0 * x, y)
        assert _outputs_bytes(first) == expected
        assert _outputs_bytes(reference) == expected
        assert _outputs_bytes(allocating.run(x, y)) == expected

    def test_parallel_run_is_repeatable(self):
        model, x, y = _case("vgg:2")
        graph = build_training_graph(model, x.shape[0])
        params = CompiledPlan.parameters_from_model(graph, model)
        executor = CompiledPlan(graph, params, workers=4)
        first = _outputs_bytes(executor.run(x, y))
        second = _outputs_bytes(executor.run(x, y))
        assert first == second


# ----------------------------------------------------------------------
# Seeded-shuffle fuzz: any dependency-respecting serialization agrees
# ----------------------------------------------------------------------
def _shuffled_topo_order(graph, seed):
    """A random topological order of ``graph.ops`` (Kahn's, seeded)."""
    rng = np.random.default_rng(seed)
    deps = graph.op_dependencies()
    remaining = {op_id: len(d) for op_id, d in deps.items()}
    dependents = {}
    for op_id, op_deps in deps.items():
        for dep in op_deps:
            dependents.setdefault(dep, []).append(op_id)
    by_id = {op.id: op for op in graph.ops}
    ready = sorted(op_id for op_id, count in remaining.items() if count == 0)
    order = []
    while ready:
        op_id = ready.pop(int(rng.integers(len(ready))))
        order.append(by_id[op_id])
        for dep_id in dependents.get(op_id, ()):
            remaining[dep_id] -= 1
            if remaining[dep_id] == 0:
                ready.append(dep_id)
    assert len(order) == len(graph.ops), "dependency cycle"
    return order


class TestShuffledSerializationFuzz:
    @pytest.mark.parametrize("case", ["vgg:2", "resnet", "dropout"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shuffled_order_byte_identical(self, case, seed):
        model, x, y = _case(case)
        graph = build_training_graph(model, x.shape[0])
        params = CompiledPlan.parameters_from_model(graph, model)
        baseline = _outputs_bytes(CompiledPlan(graph, params).run(x, y))

        shuffled = build_training_graph(model, x.shape[0])
        order = _shuffled_topo_order(shuffled, seed)
        assert [op.id for op in order] != [op.id for op in shuffled.ops] \
            or seed > 0  # seed 0 may coincide, others should reorder
        shuffled.ops = order
        shuffled.validate()      # still a legal serialization
        for workers in (1, 4):
            outputs = CompiledPlan(shuffled, params,
                                   workers=workers).run(x, y)
            assert _outputs_bytes(outputs) == baseline


# ----------------------------------------------------------------------
# Eager freeing and constructor validation
# ----------------------------------------------------------------------
class TestEagerFree:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_intermediates_freed_during_run(self, workers):
        model, x, y = _case("vgg:2")
        graph = build_training_graph(model, x.shape[0])
        params = CompiledPlan.parameters_from_model(graph, model)
        eager = CompiledPlan(graph, params, workers=workers)
        keep = CompiledPlan(graph, params, eager_free=False)
        eager_out = eager.run(x, y)
        keep_out = keep.run(x, y)
        # Same numbers either way...
        assert _outputs_bytes(eager_out) == _outputs_bytes(keep_out)
        # ...but the eager run retired consumed intermediates and spent
        # contexts on the fly instead of holding one whole step.
        assert _count_live(eager.values) < _count_live(keep.values)
        assert not _count_live(eager._contexts)
        assert _count_live(keep._contexts)
        # Outputs, gradients and parameters survive the freeing.
        pinned = ([i for i, v in enumerate(eager._base_values)
                   if v is not None]
                  + list(eager._outputs_by_name.values())
                  + list(eager._final_grads.values()))
        for tensor_id in pinned:
            assert eager.values[tensor_id] is not None

    @pytest.mark.parametrize("workers", [1, 4])
    def test_persistent_arrays_never_written(self, workers):
        """numpy raises on a write into a read-only array, so a kernel
        that overwrote a parameter or constant would fail the run."""
        model, x, y = _case("vgg:2")
        graph = build_training_graph(model, x.shape[0])
        params = CompiledPlan.parameters_from_model(graph, model)
        expected = _outputs_bytes(CompiledPlan(graph, params).run(x, y))
        frozen = {name: array.copy() for name, array in params.items()}
        plan = CompiledPlan(graph, frozen, workers=workers)
        assert any(plan._in_place)
        for value in plan._base_values:
            if value is not None:
                value.flags.writeable = False
        assert _outputs_bytes(plan.run(x, y)) == expected

    def test_in_place_grad_acc_allocates_nothing(self):
        """Each in-place grad_acc grows traced memory by less than 1 KiB
        across its kernel call; the allocating add of the same op grows
        it by at least the gradient's size."""
        model, x, y = _case("vgg:2")
        graph = build_training_graph(model, x.shape[0])
        params = CompiledPlan.parameters_from_model(graph, model)
        growth, sizes = {}, {}

        def measured(kernel):
            def run(executor, op):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                kernel(executor, op)
                key = (executor.eager_free, op.id)
                growth[key] = tracemalloc.get_traced_memory()[1] - before
                sizes[key] = executor.values[op.outputs[0]].nbytes
            return run

        in_place = CompiledPlan(graph, params)
        allocating = CompiledPlan(graph, params, eager_free=False)
        tracemalloc.start()
        try:
            for plan in (in_place, allocating):
                plan._steps = [
                    (measured(kernel) if op.op_type == "grad_acc"
                     else kernel, op) for kernel, op in plan._steps]
                plan.run(x, y)
        finally:
            tracemalloc.stop()
        in_place_ids = [op.id for op in graph.ops if in_place._in_place[op.id]]
        assert in_place_ids
        for op_id in in_place_ids:
            assert growth[(True, op_id)] < 1024
            assert growth[(False, op_id)] >= sizes[(False, op_id)]

    def test_workers_must_be_positive(self):
        model, x, y = _case("vgg")
        graph = build_training_graph(model, x.shape[0])
        params = CompiledPlan.parameters_from_model(graph, model)
        with pytest.raises(ValueError, match="workers"):
            CompiledPlan(graph, params, workers=0)


# ----------------------------------------------------------------------
# Failure path: a kernel raising mid-graph
# ----------------------------------------------------------------------
class TestKernelFailure:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_failure_surfaces_and_plan_reruns_clean(self, workers):
        """The exception reaches the caller, no worker thread outlives
        the run, the parameters are untouched, and the same plan object
        then re-runs byte-identically to a clean run.

        The failure strikes the last in-place ``grad_acc`` of a chain
        whose previous link also accumulated in place, so by dependency
        order some partials were already overwritten when it fires."""
        model, x, y = _case("vgg:2")
        graph = build_training_graph(model, x.shape[0])
        params = CompiledPlan.parameters_from_model(graph, model)
        param_bytes = _outputs_bytes(params)
        clean = _outputs_bytes(CompiledPlan(graph, params).run(x, y))

        plan = CompiledPlan(graph, params, workers=workers)

        def in_place_link(op):
            producer = graph.tensors[op.inputs[0]].producer
            return (plan._in_place[op.id] and producer is not None
                    and plan._in_place[producer])

        index = max(i for i, (_, op) in enumerate(plan._steps)
                    if in_place_link(op))
        kernel, op = plan._steps[index]
        calls, in_place_runs = [], []
        in_place_before_failure = []

        def counted(in_place_kernel):
            def run(executor, op):
                in_place_kernel(executor, op)
                in_place_runs.append(op.id)
            return run

        def fails_once(executor, op):
            calls.append(op.id)
            if len(calls) == 1:
                in_place_before_failure.append(len(in_place_runs))
                raise RuntimeError("injected kernel failure")
            kernel(executor, op)

        plan._steps = [(counted(k) if plan._in_place[o.id] else k, o)
                       for k, o in plan._steps]
        plan._steps[index] = (fails_once, op)
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match="injected kernel failure"):
            plan.run(x, y)
        assert threading.active_count() == threads_before
        assert in_place_before_failure[0] > 0
        assert _outputs_bytes(params) == param_bytes
        assert _outputs_bytes(plan.run(x, y)) == clean
        assert len(calls) == 2
