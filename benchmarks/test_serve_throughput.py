"""Serving throughput: flush timeout x max batch, VGG-11 split vs unsplit.

Sweeps the dynamic batcher's two knobs against a saturating open-loop
load and reports sustained throughput plus tail latency for the unsplit
model and its 4-patch Split-CNN twin.  Shape claims:

- under saturation, sustained throughput is set by the engine's roofline
  (nearly linear in batch for VGG-scale convs), so it stays within a
  narrow band across batch caps — while p99 latency grows with the cap,
  because a bigger batch holds the engine longer per dispatch;
- the split model's discovered capacity exceeds the unsplit model's
  (Figure 10's memory gain, serving side), so its sweep extends to batch
  caps the baseline cannot reach;
- steady state never replans: every sweep cell builds at most a handful
  of plans and serves the rest from the cache.
"""

from repro.hmms import PlanCache
from repro.serve import (
    FleetBenchConfig, FleetScheduler, SLOClass, TenantConfig, run_fleet_bench,
)

from _util import run_once, save_and_print

RPS = 4000.0
DURATION = 2.0
FLUSH_TIMEOUTS_MS = (1.0, 5.0, 20.0)
BATCH_CAPS = (64, 256, None)          # None -> the discovered maximum


def _sweep(split):
    """Nine serve-bench cells (one-tenant flush-only fleets) over one
    shared plan cache; returns the rows and the uncapped engine."""
    cache = PlanCache()
    rows = []
    for flush_ms in FLUSH_TIMEOUTS_MS:
        for cap in BATCH_CAPS:
            tenant = TenantConfig(
                name="vgg11", model="vgg11", split=split, rps=RPS,
                slo=SLOClass("sweep", deadline=None,
                             flush_timeout=flush_ms / 1e3),
                queue_depth=1024, max_replicas=1,
                **({} if cap is None else {"batch_cap": cap}))
            config = FleetBenchConfig(tenants=[tenant], duration=DURATION,
                                      continuous=False, autoscale=False)
            plans_before = cache.misses
            fleet, metrics = run_fleet_bench(config, FleetScheduler(
                config.tenants, continuous=False, autoscale=False,
                cache=cache))
            engine = fleet.tenants["vgg11"].engine
            served = metrics.tenant("vgg11")
            rows.append({
                "flush_ms": flush_ms,
                "cap": engine.max_batch,
                "throughput": served.throughput(DURATION)["images_per_s"],
                "p99_ms": served.latency.p(99) * 1e3,
                "plans_built": cache.misses - plans_before,
                "completed": served.completed_requests,
            })
    return rows, engine


def _render(label, engine, rows):
    lines = [f"serve throughput sweep — {label} "
             f"(offered {RPS:g} req/s x {DURATION:g} s, "
             f"discovered max batch {engine.max_batch})"]
    lines.append(f"  {'flush ms':>8}  {'max batch':>9}  {'img/s':>8}  "
                 f"{'p99 ms':>8}  {'plans':>5}")
    for row in rows:
        lines.append(f"  {row['flush_ms']:8.1f}  {row['cap']:9d}  "
                     f"{row['throughput']:8.1f}  {row['p99_ms']:8.2f}  "
                     f"{row['plans_built']:5d}")
    return "\n".join(lines)


def test_serve_throughput_sweep(benchmark):
    splits = {"vgg11 unsplit": 1, "vgg11 split 2x2": 4}

    def sweep_all():
        return {label: _sweep(split) for label, split in splits.items()}

    results = run_once(benchmark, sweep_all)
    text = "\n\n".join(_render(label, engine, rows)
                       for label, (rows, engine) in results.items())
    save_and_print("serve_throughput", text)

    base = results["vgg11 unsplit"][1]
    split = results["vgg11 split 2x2"][1]
    # Figure 10's gain on the serving side: split capacity strictly wins.
    assert split.max_batch > base.max_batch

    for label, (rows, _) in results.items():
        for row in rows:
            assert row["completed"] > 0, (label, row)
        # Cache effectiveness: a 9-cell sweep re-plans only for buckets it
        # has not seen — far fewer plans than batches executed.
        total_plans = sum(row["plans_built"] for row in rows)
        assert total_plans <= 16, (label, total_plans)
        # Saturated throughput sits on the engine roofline whatever the
        # cap (narrow band), while tail latency pays for bigger batches.
        for flush_ms in FLUSH_TIMEOUTS_MS:
            cells = [r for r in rows if r["flush_ms"] == flush_ms]
            throughputs = [r["throughput"] for r in cells]
            assert max(throughputs) / min(throughputs) < 1.25, \
                (label, flush_ms, cells)
            p99s = [r["p99_ms"] for r in cells]
            assert p99s == sorted(p99s), (label, flush_ms, cells)
