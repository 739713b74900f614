"""The benchmark's own tests: its contract file, its tracer, and
self-checking traced runs of every workload.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import json
import pathlib

import pytest

from perfbench import metrics, run
from perfbench.trace import Span, Tracer, source_layer
from perfbench.workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert {(w["name"], w["why"]) for w in spec["workloads"]} == \
        {(w.name, w.why) for w in WORKLOADS.values()}
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == \
        [entry[:3] for entry in metrics.PER_LAYER]


def test_readme_documents_every_metric_and_workload():
    readme = (ROOT / "perfbench" / "README.md").read_text()
    names = [name for name, *_ in metrics.END_TO_END] + list(WORKLOADS)
    names += [name for name, *_ in metrics.PER_LAYER
              if not name.startswith(("tensor.", "serve.p99_ms."))]
    assert [name for name in names if f"`{name}`" not in readme] == []
    assert all(f"`{op}`" in readme for op in metrics.KERNEL_OPS
               if op != "other")


def test_self_times_subtract_direct_children_only():
    tracer = Tracer()
    tracer.spans = [Span("root", 0, 100, -1), Span("child", 10, 60, 0),
                    Span("grandchild", 20, 30, 1), Span("child", 70, 80, 0)]
    assert tracer.self_times() == [40, 40, 10, 10]
    assert tracer.roots() == [0, 0, 0, 0]
    events = tracer.chrome_trace()["traceEvents"]
    assert [(e["ph"], e["ts"], e["dur"]) for e in events][1] == \
        ("X", 0.01, 0.05)


def test_source_layer_strips_patch_fusion_and_backward_suffixes():
    assert source_layer("conv.p01#2+relu(x4)") == "conv#2"
    assert source_layer("maxpool.p10.bwd") == "maxpool"
    assert source_layer("grad_acc[conv2d.weight]") == \
        "grad_acc[conv2d.weight]"


def test_install_wraps_and_restore_puts_every_original_back():
    import repro.hmms.verify
    import repro.serve.engine
    from repro.compile import CompiledPlan
    from repro.graph import registry

    kernels = {name: opdef.kernel
               for name, opdef in registry.REGISTRY.items()}
    run_method = CompiledPlan.__dict__["run"]
    tracer = Tracer()
    metrics.install(tracer)
    try:
        assert CompiledPlan.__dict__["run"] is not run_method
        assert repro.serve.engine.verify_plan is not \
            repro.hmms.verify.verify_plan
        assert all(registry.REGISTRY[name].kernel is not kernel
                   for name, kernel in kernels.items())
    finally:
        tracer.restore()
    assert tracer.restored()
    assert CompiledPlan.__dict__["run"] is run_method
    assert repro.serve.engine.verify_plan is repro.hmms.verify.verify_plan
    assert {name: opdef.kernel for name, opdef
            in registry.REGISTRY.items()} == kernels


def _traced_run(capsys, workload, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.5", "--trace", "1"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    return code, result, report


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_checks_out_and_repeats_its_counts(capsys, workload):
    code, first, report = _traced_run(capsys, workload)
    assert code == 0, report["errors"]
    assert first["correct"] and first["failed"] == 0
    assert report["trace_mismatches"] == []
    assert set(first["metrics"]) == {name for name, *_ in metrics.PER_LAYER}
    assert pathlib.Path(report["chrome_trace"]).exists()

    _, second, _ = _traced_run(capsys, workload)
    exact = [name for name, _, _, kind in metrics.PER_LAYER
             if kind in ("count", "model")]
    assert {name: first["metrics"][name]["value"] for name in exact} == \
        {name: second["metrics"][name]["value"] for name in exact}
