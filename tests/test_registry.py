"""Tests for the central op registry (``repro.graph.registry``).

Every model in the model zoo — unsplit, split, and stochastically split —
must build graphs whose ops all resolve through the registry, and the
registry's symbolic shape inference must agree with the shapes the
builder recorded.  The second half covers executor behaviour that rides
on the registry: per-op dropout seeding, context reuse vs. forward
replay, and intermediate-value release between runs.
"""

import numpy as np
import pytest

from repro.core import to_split_cnn
from repro.graph import (
    CompiledPlan, Graph, build_training_graph, has_op, infer_op_shapes,
    op_def,
)
from repro.models import MODEL_REGISTRY, ConvClassifier, small_vgg
from repro.nn import Conv2d, Dropout, Linear, ReLU, Sequential


def _variants(model):
    yield "unsplit", model
    yield "split", to_split_cnn(model, depth=0.5, num_splits=(2, 2))
    yield "stochastic", to_split_cnn(model, depth=0.5, num_splits=(2, 2),
                                     stochastic=True, seed=0)


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_registry_covers_model_zoo(name):
    """Every op of every zoo model resolves in the registry, and symbolic
    shape inference reproduces the builder's recorded output shapes."""
    model = MODEL_REGISTRY[name](rng=np.random.default_rng(0))
    for variant, variant_model in _variants(model):
        graph = build_training_graph(variant_model, 2)
        checked = 0
        for op in graph.ops:
            definition = op_def(op.op_type)  # raises if unregistered
            if definition.infer_shapes is None:
                continue
            inferred = infer_op_shapes(
                op.op_type,
                [graph.tensor(i).shape for i in op.inputs],
                op.attrs,
            )
            recorded = [graph.tensor(i).shape for i in op.outputs]
            assert inferred == recorded, (name, variant, op.name)
            checked += 1
        assert checked > 0, (name, variant)


class TestRegistryLookup:
    def test_unknown_op_type_raises(self):
        with pytest.raises(NotImplementedError):
            op_def("fft")
        assert not has_op("fft")
        assert has_op("conv2d")

    def test_inference_free_op_raises_on_infer(self):
        # grad_acc has no symbolic inference: asking for it is an error,
        # not a silent passthrough.
        assert op_def("grad_acc").infer_shapes is None
        with pytest.raises(NotImplementedError):
            infer_op_shapes("grad_acc", [(1,)], {})


class TestValidateUsesRegistry:
    def test_unregistered_op_rejected(self):
        graph = Graph("t")
        a = graph.add_tensor("a", (4,))
        b = graph.add_tensor("b", (4,))
        graph.add_op("fft0", "fft", [a], [b])
        with pytest.raises(NotImplementedError):
            graph.validate()

    def test_shape_disagreement_rejected(self):
        graph = Graph("t")
        a = graph.add_tensor("a", (2, 3))
        b = graph.add_tensor("b", (2, 4))  # relu must preserve shape
        graph.add_op("relu0", "relu", [a], [b])
        with pytest.raises(ValueError):
            graph.validate()


def _dropout_model(rng):
    """Tiny classifier with two Dropout layers (cheap to execute)."""
    features = Sequential(
        Conv2d(3, 4, kernel_size=3, padding=1, rng=rng), ReLU())
    classifier = Sequential(
        Linear(4 * 8 * 8, 16, rng=rng), ReLU(), Dropout(0.5),
        Linear(16, 16, rng=rng), ReLU(), Dropout(0.5),
        Linear(16, 4, rng=rng),
    )
    return ConvClassifier(features, classifier, name="dropout-test",
                          input_size=8)


class TestDropoutSeeding:
    @pytest.fixture()
    def setup(self, rng):
        model = _dropout_model(rng)
        graph = build_training_graph(model, 2)
        params = CompiledPlan.parameters_from_model(graph, model)
        x = rng.standard_normal((2, 3, 8, 8))
        y = np.array([0, 1])
        return graph, params, x, y

    @staticmethod
    def _masks(graph, executor):
        return [executor.values[op.outputs[1]]
                for op in graph.forward_ops() if op.op_type == "dropout"]

    def test_distinct_layers_draw_distinct_masks(self, setup):
        # eager_free=False: the masks are inspected after the run.
        graph, params, x, y = setup
        executor = CompiledPlan(graph, params, eager_free=False)
        executor.run(x, y)
        masks = self._masks(graph, executor)
        assert len(masks) == 2
        assert masks[0].shape == masks[1].shape
        assert not np.array_equal(masks[0], masks[1])

    def test_masks_deterministic_per_seed(self, setup):
        graph, params, x, y = setup
        first = CompiledPlan(graph, params, dropout_seed=7, eager_free=False)
        second = CompiledPlan(graph, params, dropout_seed=7, eager_free=False)
        other = CompiledPlan(graph, params, dropout_seed=8, eager_free=False)
        first.run(x, y)
        second.run(x, y)
        other.run(x, y)
        for a, b in zip(self._masks(graph, first), self._masks(graph, second)):
            np.testing.assert_array_equal(a, b)
        assert any(
            not np.array_equal(a, c)
            for a, c in zip(self._masks(graph, first), self._masks(graph, other))
        )


@pytest.fixture()
def small_executor(rng):
    model = small_vgg(num_classes=4, rng=rng)
    graph = build_training_graph(model, 2)
    params = CompiledPlan.parameters_from_model(graph, model)
    x = rng.standard_normal((2, 3, 32, 32))
    y = np.array([1, 3])
    return graph, params, x, y


def _live_ids(executor):
    return {tensor_id for tensor_id, value in enumerate(executor.values)
            if value is not None}


class TestReleaseIntermediates:
    def test_values_do_not_grow_across_runs(self, small_executor):
        graph, params, x, y = small_executor
        executor = CompiledPlan(graph, params)
        executor.run(x, y)
        live_after_first = _live_ids(executor)
        executor.run(x, y)
        assert _live_ids(executor) == live_after_first

    def test_release_keeps_only_parameters(self, small_executor):
        graph, params, x, y = small_executor
        executor = CompiledPlan(graph, params)
        executor.run(x, y)
        executor.release_intermediates()
        param_ids = {t.id for t in graph.tensors.values()
                     if t.kind == "parameter"}
        assert _live_ids(executor) == param_ids

    def test_runs_are_repeatable_after_release(self, small_executor):
        graph, params, x, y = small_executor
        executor = CompiledPlan(graph, params)
        first = executor.run(x, y)
        executor.release_intermediates()
        second = executor.run(x, y)
        np.testing.assert_array_equal(first["loss"], second["loss"])
