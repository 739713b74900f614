"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload train-vgg11-split --seed 1 \\
        --seconds 15 --trace 0

``--workload all`` runs every workload in turn, each in its own process.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` makes the separate traced run: half of ``--seconds``
untraced, then the program's entry points are wrapped, the workload is
set up again and run for the other half, and the per-layer metrics,
the tracing overhead and a Chrome trace (``.perfbench/``) come out.

Every output is checked.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable table and a JSON
``report`` with host facts, sample counts and the workload's own named
metrics.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from typing import Any, Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: set-up repeats: at least SETUP_MIN, then more until SETUP_SECONDS
#: have passed or SETUP_MAX ran, so a cheap set-up gets more samples
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 5, 25, 2.0
MIN_STEPS = 3
OUT_DIR = ".perfbench"


def _bootstrap() -> None:
    """Pin BLAS threads before numpy loads; import from the checkout.

    The script's own directory leaves ``sys.path``: its modules are
    imported as ``perfbench.*`` only, so ``trace.py`` cannot shadow the
    standard library's ``trace``.
    """
    here = pathlib.Path(__file__).resolve().parent
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
        entry for entry in sys.path
        if pathlib.Path(entry or ".").resolve() != here]
    from perfbench.host import pin_blas_threads
    pin_blas_threads()


class Samples:
    """Timed iterations of one loop."""

    def __init__(self) -> None:
        self.seconds: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.images = 0
        self.errors: List[str] = []

    def ms_p50(self) -> float:
        return statistics.median(self.seconds) * 1e3 if self.seconds else 0.0

    def ms_quartiles(self) -> List[float]:
        if len(self.seconds) < 2:
            return []
        return [q * 1e3 for q in statistics.quantiles(self.seconds, n=4)]

    def ms_p90(self) -> Any:
        """p90 only when at least ten samples lie beyond it."""
        if len(self.seconds) < 100:
            return None
        return statistics.quantiles(self.seconds, n=10,
                                    method="inclusive")[8] * 1e3


def _record_failure(samples: Samples, what: str, attempted: int) -> None:
    samples.failed += attempted
    samples.errors.append(what)
    print(f"FAILED: {what}", file=sys.stderr)


def run_loop(workload: Any, seconds: float, tracer: Any = None) -> Samples:
    """Closed loop, one caller: next iteration after the last completes."""
    samples = Samples()
    deadline = time.perf_counter() + seconds
    index = 0
    while index < MIN_STEPS or time.perf_counter() < deadline:
        if tracer is None:
            workload.prepare(index)
        else:
            tracer.call("bench.prepare", workload.prepare, index)
        # Every step starts from the same collector state, so a collection
        # left over from the previous step's garbage is not timed.
        gc.collect()
        started = time.perf_counter()
        try:
            if tracer is None:
                output = workload.step(index)
            else:
                output = tracer.call("bench.step", workload.step, index)
        except Exception:
            samples.attempted += 1
            _record_failure(samples, f"step {index} raised:\n"
                            + traceback.format_exc(), 1)
            index += 1
            continue
        samples.seconds.append(time.perf_counter() - started)
        attempted, failed = workload.work(output)
        samples.attempted += attempted
        samples.failed += failed
        samples.images += workload.images(output)
        try:
            workload.verify(index, output)
        except Exception as error:
            _record_failure(samples, f"step {index}: {error}",
                            attempted - failed)
        index += 1
    return samples


def peak_mib(workload: Any) -> float:
    """tracemalloc peak over one steady-state iteration (untimed)."""
    workload.prepare(-1)
    gc.collect()
    tracemalloc.start()
    try:
        output = workload.step(-1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    workload.verify(-1, output)
    return peak / float(1 << 20)


def timed_setups(workload: Any, traced: bool) -> List[float]:
    """Set the workload up from scratch, once in a traced run and
    otherwise SETUP_MIN to SETUP_MAX times; the last one stays."""
    times: List[float] = []
    while not times or (not traced and len(times) < SETUP_MAX and (
            len(times) < SETUP_MIN or sum(times) < SETUP_SECONDS)):
        gc.collect()
        started = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - started)
    return times


def _table(title: str, rows: Dict[str, Any], units: Dict[str, str]) -> str:
    width = max(len(name) for name in rows)
    lines = [title]
    for name, value in rows.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        lines.append(f"  {name:<{width}}  {shown:>14} {units.get(name, '')}")
    return "\n".join(lines)


def run_all(names: List[str], args: argparse.Namespace) -> int:
    """Run each workload in a process of its own, one after another, as
    a single run would; exit non-zero if any of them failed."""
    failed = []
    for name in names:
        sys.stdout.flush()
        command = [sys.executable, str(pathlib.Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if subprocess.run(command, check=False).returncode != 0:
            failed.append(name)
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def main(argv: Any = None) -> int:
    from perfbench import metrics as bench_metrics
    from perfbench.host import host_facts
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(list(WORKLOADS), args)

    load_before = os.getloadavg()
    workload = WORKLOADS[args.workload](args.seed)
    errors: List[str] = []

    setup_times = timed_setups(workload, bool(args.trace))
    peak = 0.0
    try:
        workload.check()
        peak = peak_mib(workload)
    except Exception:
        errors.append("reference check failed:\n" + traceback.format_exc())
        print(errors[-1], file=sys.stderr)
    loop_seconds = args.seconds / 2 if args.trace else args.seconds
    gc.collect()
    samples = run_loop(workload, loop_seconds)
    errors += samples.errors

    report: Dict[str, Any] = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": host_facts(ROOT),
        "setup_samples": len(setup_times),
        "step_samples": len(samples.seconds),
        "step_ms_quartiles": samples.ms_quartiles(),
        "setup_s_samples": setup_times,
    }
    total_s = sum(samples.seconds) or float("inf")
    named = {
        "setup_s": statistics.median(setup_times),
        "step_ms_p50": samples.ms_p50(),
        "step_ms_p90": samples.ms_p90(),
        "img_per_s": samples.images / total_s,
        "mpix_per_s": samples.images * workload.pixels / 1e6 / total_s,
        "peak_mib": peak,
        "failed_share": samples.failed / samples.attempted,
    }
    named.update(workload.own_metrics(named))
    units = {name: unit for name, unit, *_ in bench_metrics.END_TO_END}
    units.update(step_ms_p90="ms", mpix_per_s="Mpix/s",
                 failed_share="ratio", req_per_host_s="1/s",
                 sim_p99_ms="ms")
    result_metrics: Dict[str, Any]
    if not args.trace:
        result_metrics = {name: {"value": named[name], "unit": unit}
                          for name, unit, _, _ in bench_metrics.END_TO_END}
        attempted, failed = samples.attempted, samples.failed
    else:
        try:
            layers = workload.untraced_layers(samples.ms_p50())
        except Exception:
            layers = {}
            errors.append("untraced layer check failed:\n"
                          + traceback.format_exc())
        tracer = Tracer()
        bench_metrics.install(tracer)
        try:
            tracer.call("bench.setup", workload.setup)
            traced = run_loop(workload, loop_seconds, tracer)
        finally:
            tracer.restore()
        errors += traced.errors
        if not tracer.restored():
            errors.append("a traced entry point was not restored")
        stats = bench_metrics.SpanStats(tracer)
        layers.update(stats.layer_metrics())
        layers.update(workload.layers(stats))
        planned = workload.planned_peak_mib()
        layers["hmms.measured_peak_mib"] = peak
        layers["hmms.realisation"] = peak / planned if planned else 0.0
        layers["trace.overhead_ms"] = traced.ms_p50() - samples.ms_p50()
        mismatches = workload.trace_mismatches(stats)
        errors += [f"trace: {problem}" for problem in mismatches]
        layer_units = {name: unit
                       for name, unit, *_ in bench_metrics.PER_LAYER}
        result_metrics = {name: {"value": float(layers.get(name, 0.0)),
                                 "unit": unit}
                          for name, unit, *_ in bench_metrics.PER_LAYER}
        out_dir = pathlib.Path(OUT_DIR)
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.write_chrome_trace(trace_path)
        report.update(traced_step_samples=len(traced.seconds),
                      traced_step_ms_p50=traced.ms_p50(),
                      spans=len(tracer.spans), chrome_trace=str(trace_path),
                      trace_mismatches=mismatches)
        print(_table(f"{workload.name} per-layer (traced)",
                     {name: entry["value"]
                      for name, entry in result_metrics.items()},
                     layer_units))
        attempted = samples.attempted + traced.attempted
        failed = samples.failed + traced.failed + len(mismatches)

    report.update(named=named, notes=workload.notes,
                  load_before=load_before, load_after=os.getloadavg(),
                  errors=errors)
    print(_table(f"{workload.name} end-to-end (untraced, seed {args.seed})",
                 named, units))
    print(json.dumps({"report": report}, default=str))
    correct = not errors and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    _bootstrap()
    sys.exit(main())
