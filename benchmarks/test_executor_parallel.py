"""Wavefront executor wall-clock — serial vs 2/4/8 workers.

The Split-CNN transform creates patch chains with no inter-patch
communication (paper §3.2); the wavefront scheduler runs them on a
thread pool whose numpy/BLAS kernels release the GIL.  This benchmark
times one full forward+backward step of VGG-11 (CIFAR head), unsplit
and split 2x2, across worker counts — and asserts the scheduler's core
contract on every row: losses and parameter gradients byte-identical to
serial execution regardless of worker count.

The speedup assertion only fires on hosts with >= 4 usable cores and
outside smoke mode (``REPRO_SMOKE=1`` shrinks the matrix for CI): on a
single-core box every worker count serializes on the one core and the
wavefront can only pay scheduling overhead.
"""

import os
import time

import numpy as np

from repro.core import to_split_cnn
from repro.experiments import format_table
from repro.graph import CompiledPlan, build_training_graph
from repro.models import small_vgg, vgg11

from _util import run_once, save_and_print

SMOKE = bool(os.environ.get("REPRO_SMOKE"))
WORKER_COUNTS = (1, 2, 4, 8)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:            # non-Linux
        return os.cpu_count() or 1


def _best_step_seconds(executor, x, y, repeats):
    executor.run(x, y)  # warm-up (allocations, cache effects)
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        executor.run(x, y)
        best = min(best, time.perf_counter() - started)
    return best


def test_executor_parallel_speedup(benchmark):
    if SMOKE:
        make, batch, repeats = small_vgg, 2, 2
        model_name = "small_vgg"
    else:
        make, batch, repeats = vgg11, 2, 3
        model_name = "vgg11-cifar"
    cases = []
    for split_name, split in (("unsplit", None), ("split-2x2", (2, 2))):
        rng = np.random.default_rng(0)
        model = make(num_classes=10, rng=rng)
        if split is not None:
            model = to_split_cnn(model, depth=0.5, num_splits=split)
        x = rng.standard_normal((batch, 3, model.input_size,
                                 model.input_size))
        y = rng.integers(0, 10, size=batch)
        cases.append((f"{model_name}/{split_name}", model, x, y))

    def measure():
        rows = []
        identical = True
        for name, model, x, y in cases:
            graph = build_training_graph(model, x.shape[0])
            params = CompiledPlan.parameters_from_model(graph, model)
            reference = None
            seconds = {}
            for workers in WORKER_COUNTS:
                executor = CompiledPlan(graph, params, workers=workers)
                seconds[workers] = _best_step_seconds(executor, x, y,
                                                      repeats)
                outputs = {key: value.tobytes()
                           for key, value in executor.run(x, y).items()}
                if reference is None:
                    reference = outputs
                elif outputs != reference:
                    identical = False
            rows.append((name, x.shape[0],
                         *(seconds[w] * 1e3 for w in WORKER_COUNTS),
                         seconds[1] / seconds[4]))
        return rows, identical

    (rows, identical) = run_once(benchmark, measure)
    save_and_print("executor_parallel", format_table(
        ["case", "batch", "1w ms", "2w ms", "4w ms", "8w ms",
         "speedup(4w)"],
        rows, title=(f"IR executor — wavefront workers vs serial "
                     f"({_usable_cores()} usable cores"
                     f"{', smoke' if SMOKE else ''})"),
    ))
    # Bit-identity is the contract and holds on any machine.
    assert identical, "parallel outputs diverged from serial"
    # Wall-clock only improves when there are cores to spread over.
    if not SMOKE and _usable_cores() >= 4:
        split_row = next(r for r in rows if r[0].endswith("split-2x2"))
        assert split_row[-1] >= 1.5, (
            f"expected >= 1.5x for 4 workers on split-2x2, got "
            f"{split_row[-1]:.2f}x")
