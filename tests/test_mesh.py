"""Tests for repro.mesh: topology, partitioning, simulation, hazards.

Determinism contract mirrors test_executor_parallel.py: merged outputs
are byte-identical for any device count, and measured step times are
bit-equal for any link-event tie-breaking order (seeded-shuffle fuzz).
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.analysis import analyze_mesh_plan, detect_mesh_hazards
from repro.core import to_split_cnn
from repro.experiments.distributed import (
    Fig11Result, _apportion_overhead,
)
from repro.distributed import TrainingProfile
from repro.graph import build_inference_graph
from repro.graph.executor import CompiledPlan
from repro.mesh import (
    MeshPartitioner, MeshSimulator, build_mesh, run_pipeline_numeric,
    run_spatial_numeric,
)
from repro.models import build_model
from repro.nn import init


@pytest.fixture(autouse=True)
def _fast_init():
    with init.fast_init():
        yield


def _small_split(num_splits=(2, 2), depth=0.5):
    return to_split_cnn(build_model("small_vgg"), depth=depth,
                        num_splits=num_splits)


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------
class TestTopology:
    def test_ring_routes_shorter_direction(self):
        mesh = build_mesh(6, "ring", bandwidth_gbit=10)
        hops = mesh.route(0, 2)
        assert [link.name for link in hops] == ["ring:0->1", "ring:1->2"]
        hops = mesh.route(0, 5)  # backward is 1 hop, forward is 5
        assert [link.name for link in hops] == ["ring:0->5"]

    def test_ring_tie_breaks_forward(self):
        mesh = build_mesh(4, "ring", bandwidth_gbit=10)
        assert [link.name for link in mesh.route(0, 2)] == \
            ["ring:0->1", "ring:1->2"]

    def test_bus_is_single_shared_link(self):
        mesh = build_mesh(4, "bus", bandwidth_gbit=10)
        assert len(mesh.links) == 1
        assert [link.name for link in mesh.route(1, 3)] == ["bus"]
        assert [link.name for link in mesh.route(3, 1)] == ["bus"]

    def test_p2p_direct(self):
        mesh = build_mesh(3, "p2p", bandwidth_gbit=10)
        assert len(mesh.links) == 6  # directed pair per ordered pair
        assert [link.name for link in mesh.route(2, 0)] == ["p2p:2->0"]

    def test_two_device_ring_dedupes(self):
        mesh = build_mesh(2, "ring", bandwidth_gbit=10)
        assert sorted(link.name for link in mesh.links) == \
            ["ring:0->1", "ring:1->0"]

    def test_same_device_route_is_empty(self):
        mesh = build_mesh(4, "ring", bandwidth_gbit=10)
        assert mesh.route(2, 2) == []

    def test_wire_seconds(self):
        mesh = build_mesh(2, "bus", bandwidth_gbit=8.0, latency=1e-6,
                          efficiency=0.5)
        link = mesh.links[0]
        # 8 Gbit/s = 1e9 B/s; at 50% efficiency 1e6 bytes take 2 ms.
        assert link.wire_seconds(1_000_000) == pytest.approx(1e-6 + 2e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_mesh(0)
        with pytest.raises(ValueError):
            build_mesh(2, "star")
        with pytest.raises(ValueError):
            build_mesh(2, "ring", bandwidth_gbit=0)


# ----------------------------------------------------------------------
# partitions: verifier-clean, hazard-clean, structurally sound
# ----------------------------------------------------------------------
class TestPartitions:
    @pytest.mark.parametrize("topology", ["ring", "bus", "p2p"])
    def test_data_partition_clean(self, topology):
        plan = MeshPartitioner(3, topology=topology).data(
            build_model("small_vgg"), batch_per_device=2)
        plan.verify()
        assert detect_mesh_hazards(plan) == []
        assert plan.global_batch == 6
        assert all(t.kind == "all_reduce" for t in plan.transfers)
        assert all(t.dst_op is None for t in plan.transfers)

    def test_data_single_device_has_no_transfers(self):
        plan = MeshPartitioner(1).data(build_model("small_vgg"), 2)
        assert plan.transfers == []

    def test_spatial_partition_clean(self):
        plan = MeshPartitioner(4).spatial(_small_split(), batch=2)
        plan.verify()
        assert detect_mesh_hazards(plan) == []
        kinds = {t.kind for t in plan.transfers}
        assert kinds == {"halo_exchange", "gather"}
        roles = {a.device_id: a.role for a in plan.assignments}
        assert roles[0] == "tail"

    def test_spatial_requires_split_region(self):
        with pytest.raises(ValueError, match="SplitRegion"):
            MeshPartitioner(2).spatial(build_model("small_vgg"), batch=2)

    def test_pipeline_partition_clean(self):
        plan = MeshPartitioner(3).pipeline(build_model("small_vgg"),
                                           batch=2)
        plan.verify()
        assert detect_mesh_hazards(plan) == []
        assert len(plan.transfers) == 2
        assert all(t.kind == "activation" for t in plan.transfers)
        # activations flow stage s -> s+1
        assert [(t.src, t.dst) for t in plan.transfers] == [(0, 1), (1, 2)]

    def test_halo_bytes_positive_and_anchored(self):
        plan = MeshPartitioner(4).spatial(_small_split(), batch=2)
        halos = [t for t in plan.transfers if t.kind == "halo_exchange"]
        assert halos, "2x2 split must exchange boundary strips"
        for halo in halos:
            assert halo.nbytes > 0
            assert halo.src_op == -1          # input halo: ready at start
            assert halo.dst_op is not None    # gated before first patch op
            assert halo.dst_tensor is not None

    def test_allreduce_ring_volume(self):
        # Ring: each device ships 2|g|(N-1)/N bytes per bucket to its
        # clockwise neighbor (the Patarasuk-Yuan volume).
        model = build_model("small_vgg")
        plan = MeshPartitioner(4, topology="ring").data(model, 2)
        graph = plan.assignments[0].graph
        params = graph.parameter_bytes()
        shipped_per_device = sum(t.nbytes for t in plan.transfers
                                 if t.src == 0)
        assert shipped_per_device == pytest.approx(2 * params * 3 / 4,
                                                   rel=0.01)


# ----------------------------------------------------------------------
# SCA104 / SCA105 mutation coverage
# ----------------------------------------------------------------------
class TestMeshHazards:
    def _mutate(self, plan, old, new):
        clone = copy.copy(plan)
        clone.transfers = [new if t.id == old.id else t
                           for t in plan.transfers]
        return clone

    def test_halo_anchored_after_first_use_is_sca105(self):
        plan = MeshPartitioner(4).spatial(_small_split(), batch=2)
        halo = next(t for t in plan.transfers if t.kind == "halo_exchange")
        bad = dataclasses.replace(halo, dst_op=halo.dst_op + 7)
        findings = detect_mesh_hazards(self._mutate(plan, halo, bad))
        assert [f.code for f in findings] == ["SCA105"]

    def test_unanchored_halo_is_sca105(self):
        plan = MeshPartitioner(4).spatial(_small_split(), batch=2)
        halo = next(t for t in plan.transfers if t.kind == "halo_exchange")
        bad = dataclasses.replace(halo, dst_op=None)
        findings = detect_mesh_hazards(self._mutate(plan, halo, bad))
        assert [f.code for f in findings] == ["SCA105"]

    def test_gather_after_join_is_sca104(self):
        plan = MeshPartitioner(4).spatial(_small_split(), batch=2)
        gather = next(t for t in plan.transfers if t.kind == "gather")
        bad = dataclasses.replace(gather, dst_op=gather.dst_op + 1)
        findings = detect_mesh_hazards(self._mutate(plan, gather, bad))
        assert [f.code for f in findings] == ["SCA104"]

    def test_landing_on_produced_tensor_is_sca104(self):
        plan = MeshPartitioner(4).spatial(_small_split(), batch=2)
        gather = next(t for t in plan.transfers if t.kind == "gather")
        tail = next(a for a in plan.assignments if a.role == "tail")
        produced = next(t.id for t in tail.graph.tensors.values()
                        if t.producer is not None)
        bad = dataclasses.replace(gather, dst_tensor=produced)
        findings = detect_mesh_hazards(self._mutate(plan, gather, bad))
        assert findings and findings[0].code == "SCA104"
        assert "local producer" in findings[0].message

    def test_missing_tensor_is_sca104(self):
        plan = MeshPartitioner(4).spatial(_small_split(), batch=2)
        gather = next(t for t in plan.transfers if t.kind == "gather")
        bad = dataclasses.replace(gather, dst_tensor=999_999)
        findings = detect_mesh_hazards(self._mutate(plan, gather, bad))
        assert [f.code for f in findings] == ["SCA104"]

    def test_report_wrapper(self):
        plan = MeshPartitioner(2).spatial(_small_split(), batch=2)
        report = analyze_mesh_plan(plan)
        assert report.ok
        assert report.num_ops == sum(len(a.graph.ops)
                                     for a in plan.assignments)


# ----------------------------------------------------------------------
# numeric byte-identity: distribution must not change the math
# ----------------------------------------------------------------------
class TestNumericIdentity:
    @pytest.fixture()
    def reference(self):
        split = _small_split()
        x = np.random.RandomState(0).rand(
            2, 3, split.input_size, split.input_size)
        graph = build_inference_graph(split, 2)
        executor = CompiledPlan(
            graph, CompiledPlan.parameters_from_model(graph, split))
        return split, x, executor.run(x)["logits"]

    @pytest.mark.parametrize("devices", [1, 2, 3, 4])
    def test_spatial_merged_bytes_identical(self, reference, devices):
        split, x, expected = reference
        plan = MeshPartitioner(devices).spatial(split, batch=2)
        logits = run_spatial_numeric(plan, x)["logits"]
        assert logits.tobytes() == expected.tobytes()

    def test_spatial_3x3_identity(self):
        split = _small_split(num_splits=(3, 3))
        x = np.random.RandomState(1).rand(
            2, 3, split.input_size, split.input_size)
        graph = build_inference_graph(split, 2)
        executor = CompiledPlan(
            graph, CompiledPlan.parameters_from_model(graph, split))
        expected = executor.run(x)["logits"]
        plan = MeshPartitioner(5).spatial(split, batch=2)
        assert run_spatial_numeric(plan, x)["logits"].tobytes() == \
            expected.tobytes()

    @pytest.mark.parametrize("devices", [2, 4])
    def test_pipeline_bytes_identical(self, devices):
        model = build_model("small_vgg")
        x = np.random.RandomState(2).rand(
            2, 3, model.input_size, model.input_size)
        graph = build_inference_graph(model, 2)
        executor = CompiledPlan(
            graph, CompiledPlan.parameters_from_model(graph, model))
        expected = executor.run(x)["logits"]
        plan = MeshPartitioner(devices).pipeline(model, batch=2)
        assert run_pipeline_numeric(plan, x)["logits"].tobytes() == \
            expected.tobytes()


# ----------------------------------------------------------------------
# simulator: FIFO links, contention, determinism fuzz
# ----------------------------------------------------------------------
class TestMeshSimulator:
    def test_bus_serializes_what_p2p_overlaps(self):
        model = build_model("small_vgg")
        part_bus = MeshPartitioner(4, topology="bus")
        part_p2p = MeshPartitioner(4, topology="p2p")
        bus_res = MeshSimulator(build_mesh(4, "bus", 1.0)).run(
            part_bus.data(model, 2))
        p2p_res = MeshSimulator(build_mesh(4, "p2p", 1.0)).run(
            part_p2p.data(model, 2))
        assert bus_res.step_seconds > p2p_res.step_seconds

    def test_step_monotone_in_bandwidth(self):
        model = build_model("small_vgg")
        plan = MeshPartitioner(4, topology="ring").data(model, 2)
        steps = []
        for gbit in (0.5, 2.0, 8.0, 32.0):
            mesh = build_mesh(4, "ring", bandwidth_gbit=gbit)
            steps.append(MeshSimulator(mesh).run(plan).step_seconds)
        assert steps == sorted(steps, reverse=True)

    def test_single_device_matches_gpu_simulator(self):
        from repro.sim import GPUSimulator
        model = build_model("small_vgg")
        plan = MeshPartitioner(1).data(model, 2)
        mesh_step = MeshSimulator(build_mesh(1)).run(plan).step_seconds
        solo = GPUSimulator(plan.assignments[0].spec).run(
            plan.assignments[0].plan)
        assert mesh_step == pytest.approx(solo.total_time, rel=1e-12)

    def test_link_accounting(self):
        plan = MeshPartitioner(4, topology="bus").data(
            build_model("small_vgg"), 2)
        result = MeshSimulator(build_mesh(4, "bus", 10.0)).run(plan)
        bus = result.links["bus"]
        assert bus.nbytes == sum(t.nbytes for t in plan.transfers)
        assert bus.transfers == len(plan.transfers)
        assert bus.busy_seconds <= result.step_seconds + 1e-12

    @pytest.mark.parametrize("strategy", ["data", "spatial", "pipeline"])
    @pytest.mark.parametrize("topology", ["ring", "bus", "p2p"])
    def test_shuffle_fuzz_identical_results(self, strategy, topology):
        part = MeshPartitioner(4, topology=topology)
        if strategy == "data":
            plan = part.data(build_model("small_vgg"), 2)
        elif strategy == "spatial":
            plan = part.spatial(_small_split(), batch=2)
        else:
            plan = part.pipeline(build_model("small_vgg"), batch=2)
        mesh = build_mesh(4, topology, bandwidth_gbit=2.0)
        baseline = MeshSimulator(mesh).run(plan)
        for seed in (0, 1, 7, 1234, 99991):
            shuffled = MeshSimulator(mesh, shuffle_seed=seed).run(plan)
            assert shuffled.step_seconds == baseline.step_seconds
            for device_id, measure in baseline.devices.items():
                other = shuffled.devices[device_id]
                assert other.end_seconds == measure.end_seconds
                assert other.mesh_wait == measure.mesh_wait
            for name, link in baseline.links.items():
                assert shuffled.links[name].busy_seconds == \
                    link.busy_seconds

    def test_mesh_smaller_than_plan_rejected(self):
        plan = MeshPartitioner(4).data(build_model("small_vgg"), 2)
        with pytest.raises(ValueError, match="devices"):
            MeshSimulator(build_mesh(2)).run(plan)

    def test_render_mentions_all_devices(self):
        plan = MeshPartitioner(2).data(build_model("small_vgg"), 2)
        text = MeshSimulator(build_mesh(2, "ring", 10.0)).run(plan).render()
        assert "dev0" in text and "dev1" in text and "step time" in text


# ----------------------------------------------------------------------
# satellite 1: speedup_at lookup + overhead apportioning guard
# ----------------------------------------------------------------------
class TestFig11Fixes:
    def _result(self):
        profile = TrainingProfile(name="m", batch_size=8,
                                  forward_seconds=0.1,
                                  backward_seconds=0.2,
                                  gradient_bytes=1 << 20)
        curve = [(0.5, 5.0), (1.0, 4.0), (2.0, 3.0)]
        return Fig11Result(baseline=profile, split=profile, curve=curve)

    def test_exact_lookup(self):
        assert self._result().speedup_at(1.0) == 4.0

    def test_nearest_within_tolerance(self):
        # float that went through arithmetic/parsing still resolves
        assert self._result().speedup_at(1.0000000001) == 4.0
        assert self._result().speedup_at(0.45) == 5.0

    def test_absent_point_raises(self):
        with pytest.raises(KeyError):
            self._result().speedup_at(16.0)
        with pytest.raises(KeyError):
            Fig11Result(baseline=None, split=None, curve=[]).speedup_at(1.0)

    def test_apportion_zero_kernel_guard(self):
        forward, backward = _apportion_overhead(0.0, 0.0, 0.5)
        assert forward == pytest.approx(0.25)
        assert backward == pytest.approx(0.25)

    def test_apportion_proportional(self):
        forward, backward = _apportion_overhead(1.0, 3.0, 0.4)
        assert forward == pytest.approx(1.1)
        assert backward == pytest.approx(3.3)


# ----------------------------------------------------------------------
# executor multi-input surface (added for mesh subgraphs)
# ----------------------------------------------------------------------
class TestRunWithInputs:
    def test_missing_input_raises(self):
        plan = MeshPartitioner(2).spatial(_small_split(), batch=2)
        tail = next(a for a in plan.assignments if a.role == "tail")
        executor = CompiledPlan(tail.graph, tail.params)
        with pytest.raises(ValueError, match="unbound graph inputs"):
            executor.run_with_inputs({})

    def test_single_input_run_of_multi_input_graph_raises(self):
        """Regression: ``run`` on a 4-input spatial assignment bound one
        input and died inside a kernel (a bare AssertionError, or an
        AttributeError on None under ``python -O``).  It now goes
        through the shared ``run_with_inputs`` validation."""
        plan = MeshPartitioner(4).spatial(_small_split(), batch=2)
        tail = next(a for a in plan.assignments if a.role == "tail")
        inputs = [t for t in tail.graph.tensors.values()
                  if t.kind == "input"]
        assert len(inputs) == 4
        executor = CompiledPlan(tail.graph, tail.params)
        with pytest.raises(ValueError, match="unbound graph inputs"):
            executor.run(np.zeros(inputs[0].shape))

    def test_unknown_input_raises(self):
        model = build_model("small_vgg")
        graph = build_inference_graph(model, 2)
        executor = CompiledPlan(
            graph, CompiledPlan.parameters_from_model(graph, model))
        input_id = next(t.id for t in graph.tensors.values()
                        if t.kind == "input")
        x = np.zeros((2, 3, model.input_size, model.input_size))
        with pytest.raises(ValueError, match="not graph inputs"):
            executor.run_with_inputs({input_id: x, 999_999: x})

    def test_shape_mismatch_raises(self):
        model = build_model("small_vgg")
        graph = build_inference_graph(model, 2)
        executor = CompiledPlan(
            graph, CompiledPlan.parameters_from_model(graph, model))
        input_id = next(t.id for t in graph.tensors.values()
                        if t.kind == "input")
        with pytest.raises(ValueError, match="shape"):
            executor.run_with_inputs({input_id: np.zeros((1, 3, 4, 4))})


# ----------------------------------------------------------------------
# measured fig11 twin (small model so the test stays fast)
# ----------------------------------------------------------------------
class TestMeasuredFig11:
    def test_small_sweep_brackets_and_monotone(self):
        from repro.experiments import run_fig11_measured
        result = run_fig11_measured(
            devices=4, topology="ring", base_batch=4, split_batch_factor=6,
            model_factory=lambda: build_model("small_vgg"),
            split_depth=0.5, dataset_size=10_000,
            bandwidths=(0.5, 2.0, 8.0, 32.0))
        result.check()
        result.assert_monotone()
        assert len(result.points) == 4
        for point in result.points:
            assert point.measured_speedup > 0

    def test_shuffle_seed_does_not_change_measurement(self):
        from repro.experiments import run_fig11_measured
        kwargs = dict(
            devices=3, topology="bus", base_batch=4, split_batch_factor=6,
            model_factory=lambda: build_model("small_vgg"),
            split_depth=0.5, dataset_size=10_000, bandwidths=(1.0, 8.0))
        plain = run_fig11_measured(**kwargs)
        shuffled = run_fig11_measured(shuffle_seed=42, **kwargs)
        for a, b in zip(plain.points, shuffled.points):
            assert a.measured_speedup == b.measured_speedup
            assert a.base_step_seconds == b.base_step_seconds
            assert a.split_step_seconds == b.split_step_seconds
